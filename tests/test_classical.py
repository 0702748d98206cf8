"""Exact eta / theta-at-torsion series and the two classical q-lemmas."""

import random
from fractions import Fraction

import pytest

from pwomega.classical import (EtaQuotient, TorsionPoint, _neg_floor_of_poch, _phi21,
                               eta_quotient_series, eta_series,
                               finite_jtp_sides, heine_sides, mu_torsion_series,
                               theta_elliptic_shift_reference,
                               theta_series_at_torsion)
from pwomega.cyc8 import Cyc8, I, ONE
from pwomega.errors import (BadSpec, LatticeMismatch, NonExpandableDenominator,
                            RootOfUnityOutsideCyc8)
from pwomega.jseries import JSeries, jpochhammer
from pwomega.qseries import Monomial, QSeries, over_qpochhammer, qpochhammer

F = Fraction


def test_eta_sparsity_pentagonal_squares():
    # eta is supported exactly on exponents (6k+-1)^2/24
    s = eta_series(50)
    allowed = {F((6 * k + e) ** 2, 24) for k in range(-15, 16) for e in (1, -1)}
    for exp, _ in s.terms():
        assert exp in allowed


def test_eta_quotient_leading_exponent():
    spec = EtaQuotient.parse("eta(4) / eta(2)^2")
    assert spec.leading_exponent() == F(4 - 2 * 2, 24) == 0
    s = eta_quotient_series(spec, 12)
    assert s.floor_key() == 0 and s[0] == ONE


def test_eta_quotient_text_round_trip():
    spec = EtaQuotient.parse("q^{-1/8} * eta(1)^3 * eta(4) / eta(2)^2")
    assert spec.prefactor.q_exp == F(-1, 8)
    again = EtaQuotient.parse(str(spec))
    assert again.factors == spec.factors
    assert again.prefactor.q_exp == spec.prefactor.q_exp


@pytest.mark.parametrize("text", ["1^2,2^-1", "eta(0)", "q^{abc} * eta(1)", "q^{1/0}"])
def test_eta_quotient_parse_refuses_unreadable_specs(text):
    # eta(0) would be a series with no end; a refusal is a ValueError too
    with pytest.raises(BadSpec):
        EtaQuotient.parse(text)
    assert issubclass(BadSpec, ValueError)


def test_builders_live_on_their_lattices():
    # eta, eta quotients, theta and mu at torsion points on q^(1/24), Heine's
    # sides on q^(1/2), the finite triple product on (q, zeta)
    z = TorsionPoint(F(1, 2), F(1, 4))
    torsion = [eta_series(4), eta_quotient_series(EtaQuotient.parse("eta(4) / eta(2)^2"), 4),
               theta_series_at_torsion(z, 4), theta_elliptic_shift_reference(z, 1, 0, 4),
               mu_torsion_series(TorsionPoint(F(1, 2), 0), z, 4)]
    assert {s.D for s in torsion} == {24}
    heine = heine_sides(Monomial(1, F(1, 2)), Monomial(1, 1), Monomial(1, 2), Monomial(1, 1), 4)
    assert {s.D for s in heine} == {2}
    assert {(s.D, s.Dz) for s in finite_jtp_sides(2, 4)} == {(1, 1)}


@pytest.mark.parametrize("N", [0, F(1, 24), 7, 30])
def test_eta_quotient_chain_against_the_pentagonal_series(N):
    # the (q)_inf chain behind eta quotients against eta_series' pentagonal
    # expansion: eta^3 as a product of three, eta^-1 as eta's inverse
    cubed = eta_quotient_series(EtaQuotient.parse("eta(1)^3"), N)
    assert cubed.order_exp() == N and cubed == eta_series(N).pow(3).truncate(N)
    inverse = eta_quotient_series(EtaQuotient.parse("eta(1)^-1"), N)
    product = inverse * eta_series(N)
    assert product == QSeries.one(24, product.order_exp())
    assert product.order_exp() >= N - F(1, 24)


def test_eta_quotient_takes_any_monomial_prefactor():
    # q^-3 / eta = q^(-73/24) sum p(n) q^n: the chain runs at order
    # N + 73/24 and the monomial brings it back to N; a zeta-carrying
    # prefactor has no place on a QSeries
    s = eta_quotient_series(EtaQuotient.parse("q^{-3} / eta(1)"), 4)
    partitions = [1, 1, 2, 3, 5, 7, 11, 15]
    assert s == QSeries.from_terms(24, [(n - F(73, 24), p) for n, p in enumerate(partitions)], 4)
    with pytest.raises(LatticeMismatch):
        eta_quotient_series(EtaQuotient([(1, 1)], Monomial(1, 0, 1)), 4)


def test_eta_cubed_jacobi_identity():
    # eta^3 = q^{1/8} sum (-1)^n (2n+1) q^{n(n+1)/2}
    N = 40
    cubed = eta_series(N).pow(3)
    terms = []
    n = 0
    while F(n * (n + 1), 2) + F(1, 8) < N:
        terms.append((F(n * (n + 1), 2) + F(1, 8), Cyc8((-1) ** n * (2 * n + 1))))
        n += 1
    assert cubed == QSeries.from_terms(24, terms, cubed.order_exp())


def test_theta_at_zero_vanishes():
    assert theta_series_at_torsion(TorsionPoint(0, 0), 20).is_zero()


def test_theta_rejects_large_denominator():
    with pytest.raises(RootOfUnityOutsideCyc8):
        theta_series_at_torsion(TorsionPoint(0, F(1, 3)), 10)


def test_finite_jtp_n0_trivial():
    lhs, rhs = finite_jtp_sides(0, 20)
    assert lhs == rhs
    assert lhs.zeta_slice(0) == QSeries.one(1, 20)


@pytest.mark.parametrize("n,N", [(1, 20), (2, 25), (3, 25)])
def test_finite_jtp(n, N):
    lhs, rhs = finite_jtp_sides(n, N)
    assert lhs.first_mismatch(rhs) is None


@pytest.mark.parametrize("n", range(6))
def test_finite_jtp_left_chain_matches_pochhammer_products(n):
    N = 25
    prod = jpochhammer(1, 1, Monomial(1, 0, 1), n, N) * jpochhammer(1, 1, Monomial(1, 1, -1), n, N)
    want = JSeries(1, 1, {r: over_qpochhammer(prod.zeta_slice(r), Monomial(1, 1), 2 * n)
                          for r in prod.rows}, prod.order)
    got = finite_jtp_sides(n, N)[0]
    assert got.order == want.order
    assert got.rows == want.rows and got == want


@pytest.mark.parametrize("n", range(6))
def test_finite_jtp_right_rows_are_the_signed_quotients(n):
    # row j against (-1)^j q^(j(j-1)/2) times the two quotients, shifted and
    # signed after the quotients rather than seeded before them
    N, q = 30, Monomial(1, 1)
    rhs = finite_jtp_sides(n, N)[1]
    assert rhs.order == N and set(rhs.rows) == set(range(-n, n + 1))
    for j in range(-n, n + 1):
        quot = over_qpochhammer(over_qpochhammer(QSeries.one(1, N), q, n - j), q, n + j)
        assert rhs.zeta_slice(j) == quot.shift(F(j * (j - 1), 2)).scale((-1) ** abs(j)).truncate(N)


def test_heine_order_zero_coefficient():
    a = Monomial(I, F(1, 2))
    b = Monomial(-I, F(1, 2))
    c = Monomial(1, 1)
    z = Monomial(1, 1)
    lhs, rhs = heine_sides(a, b, c, z, 10)
    assert lhs[0] == ONE and rhs[0] == ONE


def test_heine_sides_share_one_order():
    # a = q^-1 lowers the left side's certified order below the right
    # side's; both come back at the common order, where they agree
    lhs, rhs = heine_sides(Monomial(1, -1), Monomial(1, F(1, 2)), Monomial(1, 1),
                           Monomial(1, 1), 12)
    assert lhs.order_exp() == rhs.order_exp() == 11
    assert lhs == rhs


def test_heine_random_monomial_parameters():
    rng = random.Random(99)
    done = 0
    while done < 4:
        a = Monomial(Cyc8(rng.randint(-2, 2), rng.randint(-1, 1)), F(rng.randint(1, 4), 2))
        b = Monomial(Cyc8(rng.randint(-2, 2), 0, rng.randint(-1, 1)), F(rng.randint(1, 4), 2))
        c = Monomial(1, F(rng.randint(1, 4), 2) + b.q_exp)
        z = Monomial(1, F(rng.randint(1, 3)))
        if b.coeff.is_zero() or a.coeff.is_zero():
            continue
        lhs, rhs = heine_sides(a, b, c, z, 20)
        assert lhs.first_mismatch(rhs) is None
        done += 1


@pytest.mark.parametrize("a, b, z", [
    (Monomial(I, F(1, 2)), Monomial(-1, F(3, 2)), Monomial(1, 1)),
    (Monomial(2, 1), Monomial(1, F(1, 2)), Monomial(-I, F(1, 2))),
    (Monomial(Cyc8(1, 1), F(3, 2)), Monomial(I, 2), Monomial(1, 2)),
])
def test_phi21_with_b_equal_c_is_q_binomial_theorem(a, b, z):
    # sum (a)_n z^n / (q)_n = (a z)_inf / (z)_inf, independent of the Heine
    # right-hand side, which runs through the same _phi21 loop
    N = 15
    lhs = _phi21(a, b, b, z, N)
    rhs = qpochhammer(2, a * z, None, N) * qpochhammer(2, z, None, N).invert()
    assert lhs.order_exp() >= N and rhs.order_exp() >= N
    assert lhs.first_mismatch(rhs) is None


def _poch_by_products(D, m: Monomial, n, N):
    out = QSeries.one(D, N)
    for j in range(n):
        out = out * QSeries.from_terms(D, [(0, ONE), (m.q_exp + j, -m.coeff)], N)
    return out


@pytest.mark.parametrize("a, b, c, z, order", [
    (Monomial(1, F(1, 2)), Monomial(I, 1), Monomial(2, -1), Monomial(1, 1), 10),
    (Monomial(-1, F(-3, 2)), Monomial(1, 1), Monomial(I, F(-1, 2)), Monomial(1, F(3, 2)),
     F(17, 2)),
    (Monomial(3, -1), Monomial(Cyc8(1, 1), F(-1, 2)), Monomial(F(1, 2), -1), Monomial(-I, 1),
     F(19, 2)),
])
def test_phi21_matches_full_products_and_inverse(a, b, c, z, order):
    # factors with exponent <= 0 in (a)_n, (b)_n and (c)_n: the carried ratio
    # must have the order and terms of the full products and one inverse
    D, N = 2, 10
    out = QSeries.zero(D, N)
    n = 0
    while n * z.q_exp + _neg_floor_of_poch(a) + _neg_floor_of_poch(b) < N:
        num = _poch_by_products(D, a, n, N) * _poch_by_products(D, b, n, N)
        den = _poch_by_products(D, c, n, N) * _poch_by_products(D, Monomial(1, 1), n, N)
        zn = QSeries.one(D, N).mul_monomial(z.pow(n)).truncate(N)
        out = out + (num * zn * den.invert()).truncate(N)
        n += 1
    got = _phi21(a, b, c, z, N)
    assert got.order_exp() == out.order_exp() == order
    assert got.coeff == out.coeff


@pytest.mark.parametrize("a, b, c, z, common", [
    (Monomial(1, -1), Monomial(1, 1), Monomial(1, 2), Monomial(1, 1), 11),
    (Monomial(-1, -1), Monomial(1, -1), Monomial(1, 1), Monomial(1, 2), 10),
    (Monomial(2, F(-3, 2)), Monomial(I, F(1, 2)), Monomial(1, 1), Monomial(-1, F(1, 2)), 10),
    (Monomial(1, 1), Monomial(-1, -1), Monomial(1, F(1, 2)), Monomial(F(1, 2), 2), 11),
])
def test_heine_right_side_with_negative_exponents_matches_the_product_route(a, b, c, z, common):
    # the prefactor as one chain on the right side's sum, whose floor can be
    # negative, against the prefactor's own series times that sum
    N = 12
    lhs, rhs = heine_sides(a, b, c, z, N)
    cb, bz = c * b.pow(-1), b * z
    phi = _phi21(a * b * z * c.pow(-1), b, bz, cb, N)
    pref = (qpochhammer(2, cb, None, N) * qpochhammer(2, bz, None, N)
            * (qpochhammer(2, c, None, N) * qpochhammer(2, z, None, N)).invert())
    assert lhs.order_exp() == rhs.order_exp() == common
    assert rhs == (pref * phi).truncate(common)
    assert lhs == rhs


def test_heine_rejects_bad_parameters():
    with pytest.raises(NonExpandableDenominator):
        heine_sides(Monomial(1, 1), Monomial(1, 1), Monomial(1, 1), Monomial(1, 0), 10)

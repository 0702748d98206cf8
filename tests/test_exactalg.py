"""Exact kernel: cyclotomic field, QSeries, JSeries."""

import ast
import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest

import pwomega
from pwomega.cyc8 import Cyc8, I, ONE
from pwomega.errors import (DivergentProduct, LatticeMismatch, NonExpandableDenominator,
                            NonInvertibleLeadingTerm, PrecisionExhausted, UncertifiedOrder)
from pwomega.jseries import JSeries, jpochhammer
from pwomega.qseries import (Monomial, QSeries, _assemble, _binomial_rows, over_qpochhammer,
                             pochhammer_exponents, qpochhammer, sum_of_products, sum_of_series)

F = Fraction


# ---------------------------------------------------------------------------
# Cyc8
# ---------------------------------------------------------------------------

def test_zeta8_squared_is_i_and_fourth_power_is_minus_one():
    z = Cyc8.zeta_pow(1)
    assert z * z == I
    assert I * I == Cyc8(-1)
    assert z * z * z * z == Cyc8(-1)


def test_division_by_self_is_one():
    x = Cyc8(1) + I
    assert x / x == ONE


def test_zeta_times_minus_zeta_cubed_reduces_to_one():
    # hand oracle: zeta^4 = -1, so zeta * (-zeta^3) = -zeta^4 = 1
    assert Cyc8.zeta_pow(1) * (-Cyc8.zeta_pow(3)) == ONE


def test_inverse_times_self_reduces_to_canonical_one():
    rng = random.Random(8)
    for _ in range(40):
        x = Cyc8(*[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)])
        if x.is_zero():
            continue
        y = x * x.inverse()
        assert (y.c0, y.c1, y.c2, y.c3) == (1, 0, 0, 0)


def test_exact_values_refuse_floats():
    # 0.1 is a binary approximation: taken as a Fraction it would become a
    # wrong exact value
    with pytest.raises(TypeError):
        Cyc8(0.1)
    with pytest.raises(TypeError):
        Monomial(0.5)
    with pytest.raises(TypeError):
        QSeries.one(1, 5).scale(0.5)


def test_exact_exponents_refuse_floats():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10: a float
    # exponent is refused, whether or not its binary value is on the lattice
    with pytest.raises(TypeError):
        Monomial(1, 0.1)
    with pytest.raises(TypeError):
        Monomial(1, 0, 0.5)
    with pytest.raises(TypeError):
        Monomial(1, 1).pow(2.0)
    with pytest.raises(TypeError):
        QSeries.one(2, 5).shift(0.5)
    with pytest.raises(TypeError):
        QSeries.one(10, 5).shift(0.1)
    assert Monomial(1, F(1, 10)).q_exp == F(1, 10)
    assert QSeries.one(2, 5).shift(F(1, 2)) == QSeries.one(2, 5).mul_monomial(Monomial(1, F(1, 2)))


def test_zero_division_raises():
    with pytest.raises(ZeroDivisionError):
        Cyc8(0).inverse()


def test_roots_of_unity():
    assert Cyc8.from_root_of_unity(F(1, 4)) == I
    assert Cyc8.from_root_of_unity(F(1, 2)) == Cyc8(-1)
    assert Cyc8.from_root_of_unity(F(3, 8)) == Cyc8.zeta_pow(3)
    from pwomega.errors import RootOfUnityOutsideCyc8
    with pytest.raises(RootOfUnityOutsideCyc8):
        Cyc8.from_root_of_unity(F(1, 3))


def test_text_round_trip():
    x = Cyc8(F(1, 2), -2, 0, F(3, 7))
    assert Cyc8.parse(str(x)) == x
    assert str(Cyc8(0)) == "0"


def test_components_are_ints_unless_non_integral():
    x = Cyc8(F(4, 2))
    assert type(x.c0) is int and x.c0 == 2
    for a, b in ((Cyc8(F(4, 2), F(-6, 3), 0, F(1, 2)), Cyc8(2, -2, 0, F(1, 2))),
                 (Cyc8(F(1, 2)) + Cyc8(F(1, 2)), ONE),
                 (Cyc8(F(3, 4), F(1, 4)) * Cyc8(4), Cyc8(3, 1))):
        assert a == b and hash(a) == hash(b) and str(a) == str(b)
        assert [type(c) for c in a.components()] == [type(c) for c in b.components()]
    assert type(Cyc8(F(1, 2)).c0) is F
    y = (2 + Cyc8.zeta_pow(1)).inverse()       # norm 17: not in Z[zeta8]
    assert all(type(c) is F for c in y.components())
    one = y * (2 + Cyc8.zeta_pow(1))
    assert one == ONE and all(type(c) is int for c in one.components())


def test_embedding_matches_field_structure():
    from mpmath import mp
    with mp.workprec(80):
        z = Cyc8.zeta_pow(1).to_mpc(mp)
        assert abs(z**8 - 1) < 1e-20
        x = Cyc8(1, 2, F(1, 3), -1)
        y = Cyc8(-2, 0, 1, F(5, 2))
        assert abs((x * y).to_mpc(mp) - x.to_mpc(mp) * y.to_mpc(mp)) < 1e-18


# ---------------------------------------------------------------------------
# QSeries basics
# ---------------------------------------------------------------------------

def rand_series(rng, D=24, order=96, nterms=6, floor=-12):
    terms = {}
    for _ in range(nterms):
        k = rng.randint(floor, order - 1)
        terms[k] = Cyc8(rng.randint(-4, 4), rng.randint(-2, 2),
                        rng.randint(-2, 2), rng.randint(-2, 2))
    return QSeries(D, terms, order)


def rand_coeff(rng):
    """A coefficient that is rational, in Z[zeta8] or non-integral."""
    kind = rng.randrange(3)
    if kind == 0:
        return Cyc8(rng.choice([-2, -1, 1, 3]))
    if kind == 1:
        return Cyc8(*[rng.randint(-3, 3) for _ in range(4)])
    return Cyc8(*[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(4)])


def rand_mixed_series(rng, D, order, nterms=8, floor=-10):
    return QSeries(D, {rng.randint(floor, order - 1): rand_coeff(rng)
                       for _ in range(nterms)}, order)


def naive_sum_of_products(pairs, order):
    """One Cyc8 product per pair of terms."""
    out = {}
    for a, b in pairs:
        for ka, ca in a.coeff.items():
            for kb, cb in b.coeff.items():
                if ka + kb < order:
                    out[ka + kb] = out.get(ka + kb, Cyc8(0)) + ca * cb
    return {k: c for k, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("D", [1, 2, 24])
def test_sum_of_products_matches_per_term_products(D):
    rng = random.Random(D)
    for _ in range(12):
        pairs = [(rand_mixed_series(rng, D, rng.randint(5, 40)),
                  rand_mixed_series(rng, D, rng.randint(5, 40)))
                 for _ in range(rng.randint(1, 3))]
        order = rng.randint(-5, 50)
        got = sum_of_products(QSeries(D), pairs, order)
        assert got.order == order
        assert got.coeff == naive_sum_of_products(pairs, order)
    # a rational pair alone takes the one-component path
    a = QSeries(D, {-3: Cyc8(2), 0: ONE, 4: Cyc8(-5)}, 20)
    b = QSeries(D, {1: Cyc8(3), 2: Cyc8(F(1, 2))}, 20)
    assert sum_of_products(QSeries(D), [(a, b)], 9).coeff == naive_sum_of_products([(a, b)], 9)


@pytest.mark.parametrize("D", [1, 2, 24])
def test_sum_of_series_matches_per_term_adds(D):
    rng = random.Random(D + 5)
    for _ in range(12):
        series = [rand_mixed_series(rng, D, rng.randint(5, 40)) for _ in range(rng.randint(1, 4))]
        order = rng.randint(-5, 50)
        # a summand shorter than the order lowers it
        top = min([order] + [s.order for s in series])
        want = {}
        for s in series:
            for k, c in s.coeff.items():
                if k < top:
                    want[k] = want.get(k, Cyc8(0)) + c
        got = sum_of_series(D, iter(series), order)
        assert got.order == top
        assert got.coeff == {k: c for k, c in want.items() if not c.is_zero()}
    # no summands: zero at the order; summands that cancel leave no key
    assert sum_of_series(D, [], 7).order == 7 and sum_of_series(D, [], 7).is_zero()
    s = rand_mixed_series(rng, D, 20)
    assert sum_of_series(D, [s, -s, s.truncate(F(19, D))], 30).coeff == s.truncate(F(19, D)).coeff


def test_from_terms_adds_like_terms_and_drops_zeros_and_keys_past_the_order():
    s = QSeries.from_terms(2, [(0, ONE), (F(1, 2), 3), (0, Cyc8(-1)), (1, Cyc8(0)), (1, 0),
                               (F(5, 2), 4), (3, I), (F(1, 2), Cyc8(0, 1))], F(5, 2))
    assert s.order == 5 and s.coeff == {1: Cyc8(3, 1)}
    half = QSeries.from_terms(1, [(0, F(1, 2)), (1, F(4, 2)), (2, Cyc8(F(1, 3), 1))], 3)
    assert half.coeff == {0: Cyc8(F(1, 2)), 1: Cyc8(2), 2: Cyc8(F(1, 3), 1)}
    assert type(half.coeff[0].c0) is F and type(half.coeff[1].c0) is int
    with pytest.raises(TypeError):          # an exact series takes no float
        QSeries.from_terms(1, [(0, -1.0)], 3)


@pytest.mark.parametrize("c", [ONE, Cyc8(-1), Cyc8.zeta_pow(1), I], ids=["1", "-1", "z8", "i"])
@pytest.mark.parametrize("D, exp", [(1, 1), (2, F(3, 2)), (24, F(9, 24))])
def test_binomial_multiply_and_divide_match_product_and_invert(D, exp, c):
    rng = random.Random(D * 7 + 1)
    for _ in range(6):
        s = rand_mixed_series(rng, D, rng.randint(20, 70))
        # the binomial's own order is high enough not to cap the product's
        top = s.order_exp() - F(min(s.floor_key(), 0), D) + 1
        binomial = QSeries.from_terms(D, [(0, ONE), (exp, c)], top)
        want = s * binomial
        got = s.binomials([(c, exp, 1)])
        assert got.order == want.order == s.order
        assert got.coeff == want.coeff
        want = s * binomial.invert()
        got = s.binomials([(c, exp, -1)])
        assert got.order == want.order == s.order
        assert got.coeff == want.coeff
        assert got.binomials([(c, exp, 1)]).coeff == s.coeff


def test_binomial_exponent_must_be_positive():
    # exponents <= 0 fold into a monomial; what is left to refuse is the zero
    # factor 1 - q^0 as a divisor and an exponent off the lattice
    s = QSeries.one(2, 5)
    with pytest.raises(NonInvertibleLeadingTerm):
        s.binomials([(-1, 0, -1)])
    with pytest.raises(LatticeMismatch):
        s.binomials([(ONE, F(1, 3), -1)])


def test_qpochhammer_with_non_positive_factor_exponents():
    # (q^-2; q)_3 = (1 - q^-2)(1 - q^-1)(1 - 1) = 0, certified to O(q^(8-3))
    zero = qpochhammer(1, Monomial(1, -2), 3, 8)
    assert zero.is_zero() and zero.order_exp() == 5
    # (2q^-1; q)_3 = (1 - 2q^-1)(1 - 2)(1 - 2q) against the expanded product
    got = qpochhammer(1, Monomial(2, -1), 3, 8)
    want = QSeries.from_terms(1, [(-1, Cyc8(2)), (0, Cyc8(-5)), (1, Cyc8(2))], 7)
    assert got.order_exp() == 7 and got.coeff == want.coeff


@pytest.mark.parametrize("base, n, step", [
    (Monomial(1, 1), None, 1), (Monomial(-1, F(1, 2)), None, F(3, 2)), (Monomial(I, 1), None, 2),
    (Monomial(2, -1), 3, 1), (Monomial(Cyc8.zeta_pow(1), F(-3, 2)), 4, F(1, 2)),
])
def test_over_qpochhammer_matches_product_inverse_on_laurent_series(base, n, step):
    # floors below 0: for n=None the factors with exponents from the order up
    # to order - floor still reach keys below the order
    D = 2
    rng = random.Random(11)
    for floor in (-12, -5, 0, 3):
        s = QSeries(D, {floor: ONE, **rand_mixed_series(rng, D, 16, floor=floor).coeff}, 16)
        top = s.order_exp() - F(s.floor_key(), D) + 4
        want = s * qpochhammer(D, base, n, top, step).invert()
        got = over_qpochhammer(s, base, n, step)
        assert got.order == want.order
        assert got.coeff == want.coeff


def binomial_series(D, c, exp, top):
    """1 + c*q^exp as an explicit series to O(q^top)."""
    return QSeries.from_terms(D, [(0, ONE), (exp, c)], top)


def chain_reference(s, factors):
    """s times the factors (c, exp, sign) one series product at a time, each
    binomial inverted by QSeries.invert for sign -1; its order is high
    enough not to cap the product's."""
    for c, exp, sign in factors:
        top = F(s.order - s.floor_key(), s.D) + abs(exp) + 1
        b = binomial_series(s.D, c, exp, top)
        s = s * (b if sign > 0 else b.invert())
    return s


@pytest.mark.parametrize("D", [1, 2, 24])
def test_binomial_chain_matches_product_and_invert(D):
    rng = random.Random(100 + D)
    coeffs = [ONE, Cyc8(-1), Cyc8(3), Cyc8.zeta_pow(1), I, Cyc8(2, 0, -1, 0).inverse()]
    for _ in range(10):
        s = rand_mixed_series(rng, D, rng.randint(10, 60), floor=-3 * D)
        factors = []
        for _ in range(rng.randint(1, 6)):
            c = rng.choice(coeffs + [rand_coeff(rng)])
            # mostly positive exponents; some negative, some zero
            exp = F(rng.choice([rng.randint(1, 3 * D)] * 4 + [rng.randint(-2 * D, -1), 0]), D)
            if exp == 0 and (ONE + c).is_zero():
                continue
            factors.append((c, exp, rng.choice([1, -1])))
        got = s.binomials(factors)
        want = chain_reference(s, factors)
        assert got.order == want.order
        assert got.coeff == want.coeff


@pytest.mark.parametrize("base, n, step", [
    (Monomial(2, -2), 5, 1), (Monomial(Cyc8.zeta_pow(1), F(-3, 2)), 6, F(1, 2)),
    (Monomial(Cyc8(2, 0, -1, 0).inverse(), -1), None, 1), (Monomial(I, F(-1, 2)), 3, F(1, 2)),
])
def test_pochhammer_chains_with_negative_and_zero_factor_exponents(base, n, step):
    # the factors 1 - a*q^e with e <= 0 fold into the chain's one monomial
    def exps(order_exp):
        out = [base.q_exp + j * step for j in range(n if n is not None else 40)]
        return [e for e in out if n is not None or e < order_exp]

    D, N = 2, 9
    assert min(exps(N)) < 0 and 0 in exps(N)
    want = chain_reference(QSeries.one(D, N), [(-base.coeff, e, 1) for e in exps(N)])
    got = qpochhammer(D, base, n, N, step)
    assert got.order == want.order and got.coeff == want.coeff
    rng = random.Random(5)
    for floor in (-6, 0, 3):
        s = QSeries(D, {floor: ONE, **rand_mixed_series(rng, D, 20, floor=floor).coeff}, 20)
        reach = F(s.order - s.floor_key(), D)
        want = chain_reference(s, [(-base.coeff, e, -1) for e in exps(reach)])
        got = over_qpochhammer(s, base, n, step)
        assert got.order == want.order and got.coeff == want.coeff


def ratio_sum_reference(s, steps, chain):
    """sum_n m_n R_n E_n by one chain (chain_reference or
    jseries_chain_reference) per ratio step and per term, each term known to
    s's order plus the order its factors lower or raise, capped at s's."""
    ratio, out = s, None
    for m, carried, extra in steps:
        ratio = chain(ratio, carried)
        t = chain(ratio, extra)
        term = t.mul_monomial(Monomial(*m)).truncate(min(s.order_exp(), t.order_exp()))
        out = term if out is None else out + term
    return out


@pytest.mark.parametrize("D", [1, 2])
def test_ratio_sum_matches_a_chain_per_term(D):
    # the ratio carried across the steps, the extra factors on a copy, the
    # monomials folded from either in the terms and in the order
    rng = random.Random(700 + D)
    coeffs = [ONE, Cyc8(-1), Cyc8(3), I, Cyc8(2, 0, -1, 0).inverse()]

    def factors(k):
        out = []
        for _ in range(k):
            c = rng.choice(coeffs)
            exp = F(rng.choice([rng.randint(1, 3 * D)] * 3 + [rng.randint(-D, -1), 0]), D)
            if not (exp == 0 and (ONE + c).is_zero()):
                out.append((c, exp, rng.choice([1, -1])))
        return out

    for _ in range(8):
        s = QSeries(D, {0: ONE, **rand_mixed_series(rng, D, 14 * D, floor=0).coeff}, 14 * D)
        steps, e = [], F(0)
        for _ in range(rng.randint(1, 5)):
            e += F(rng.randint(0, 2 * D), D)
            steps.append(((rng.choice(coeffs), e), factors(rng.randint(0, 3)),
                          factors(rng.randint(0, 2))))
        got = s.ratio_sum(steps)
        want = ratio_sum_reference(s, steps, chain_reference)
        assert got.order == want.order and got.coeff == want.coeff
    assert s.ratio_sum([]) == QSeries.zero(D, s.order_exp())


def test_chain_at_a_lowered_order_drops_the_keys_past_it():
    # the pwz pattern: tables kept from a longer chain run again at an order
    # below keys they already hold
    D, top, low = 2, 60, 37
    rng = random.Random(21)
    for _ in range(6):
        s = rand_mixed_series(rng, D, top, nterms=20, floor=-6)
        assert max(s.coeff) >= low
        factors = [(rng.choice([ONE, Cyc8(-1), I, rand_coeff(rng)]), F(rng.randint(1, 3 * D), D),
                    rng.choice([1, -1])) for _ in range(rng.randint(1, 4))]
        rows = {0: [dict(t) for t in s.tables]}
        _binomial_rows(rows, [(c, int(exp * D), 0, sign) for c, exp, sign in factors], low)
        assert all(k < low for t in rows[0] for k in t)
        want = chain_reference(s.truncate(F(low, D)), factors)
        assert want.order == low and _assemble(QSeries(D), rows, low).coeff == want.coeff


@pytest.mark.parametrize("c", [Cyc8(-1), Cyc8.zeta_pow(1)], ids=["-1", "z8"])
@pytest.mark.parametrize("exp", [F(12, 24), F(9, 24)], ids=["gcd4", "gcd1"])
def test_quotient_walks_the_sublattice_of_its_keys(exp, c):
    # keys on 8Z and e = 12 or 9: the quotient reaches keys on 4Z or on Z,
    # in three residue classes of keys mod 12
    D = 24
    rng = random.Random(31)
    for _ in range(4):
        s = QSeries(D, {8 * rng.randint(-2, 20): rand_coeff(rng) for _ in range(10)}, 200)
        assert {k % 12 for k in s.coeff} == {0, 4, 8}
        want = chain_reference(s, [(c, exp, -1)])
        got = s.binomials([(c, exp, -1)])
        assert got.order == want.order and got.coeff == want.coeff


@pytest.mark.parametrize("c", [Cyc8(-1), Cyc8.zeta_pow(1), Cyc8(F(1, 2))], ids=["-1", "z8", "1/2"])
@pytest.mark.parametrize("e", [9, 12])
def test_product_steps_read_the_keys_an_earlier_factor_wrote(e, c):
    # (1 + c*q^e)^3 on keys on 8Z: each factor reads keys the one before it
    # wrote, and moves them off the lattice the chain started on; a quotient
    # after the products walks the lattice they reached
    D = 24
    rng = random.Random(51 + e)
    for _ in range(4):
        s = QSeries(D, {8 * rng.randint(-2, 20): rand_coeff(rng) for _ in range(10)}, 200)
        cube = [(c, F(e, D), 1)] * 3
        for factors in (cube, cube + [(Cyc8(-1), F(21 - e, D), -1)]):
            want = chain_reference(s, factors)
            got = s.binomials(factors)
            assert got.order == want.order and got.coeff == want.coeff


def test_chain_on_a_laurent_table_walks_from_its_negative_least_key():
    # least key -9, keys on 3Z: quotients and products start from below zero
    D = 1
    s = QSeries(D, {-9: Cyc8(2), -3: Cyc8.zeta_pow(1), 6: Cyc8(F(1, 2)), 12: ONE}, 40)
    for factors in ([(Cyc8(-1), 6, -1)], [(Cyc8(-1), 3, -1), (I, 2, 1), (Cyc8(3), 4, -1)],
                    [(Cyc8(F(1, 2)), 5, 1), (Cyc8(-1), 5, -1), (Cyc8.zeta_pow(3), 6, -1)]):
        want = chain_reference(s, factors)
        got = s.binomials(factors)
        assert got.order == want.order and got.coeff == want.coeff


@pytest.mark.parametrize("D", [1, 2, 24])
def test_same_quotient_three_times_in_one_chain(D):
    # the (q)_inf^3 pattern: each division reads the tables the last one wrote
    rng = random.Random(41 + D)
    for c in (Cyc8(-1), Cyc8(2, 0, -1, 0).inverse()):
        s = rand_mixed_series(rng, D, 30 + 4 * D, floor=-2 * D)
        factors = [(c, F(rng.randint(1, 2 * D), D), -1)] * 3
        want = chain_reference(s, factors)
        got = s.binomials(factors)
        assert got.order == want.order and got.coeff == want.coeff


def test_quotient_stores_no_cancelled_zero():
    # (1 - q^e) / (1 - q^e): the quotient cancels the product's key e
    rows = {0: [{0: 1}, {}, {}, {}]}
    _binomial_rows(rows, [(Cyc8(-1), 3, 0, 1), (Cyc8(-1), 3, 0, -1)], 40)
    assert list(rows[0]) == [{0: 1}, {}, {}, {}]


def test_geometric_inverse():
    D, N = 1, 30
    one_minus_q = QSeries.from_terms(D, [(0, ONE), (1, Cyc8(-1))], N)
    geo = QSeries.one(D, N).binomials([(-1, 1, -1)])
    assert one_minus_q * geo == QSeries.one(D, N)
    assert one_minus_q.invert() == geo


def test_mul_by_zero():
    D, N = 24, 48
    rng = random.Random(1)
    a = rand_series(rng)
    z = QSeries.zero(D, 2)
    assert (a * z).is_zero()


def test_ring_axioms_on_random_sparse_series():
    rng = random.Random(20240)
    for _ in range(25):
        a, b, c = (rand_series(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_invert_contract_and_involution():
    rng = random.Random(7)
    for _ in range(15):
        a = rand_series(rng, nterms=5, floor=-8)
        if a.is_zero():
            continue
        inv = a.invert()
        prod = a * inv
        # contract: a * invert(a) = 1 up to the guaranteed order
        assert prod == QSeries.one(a.D, prod.order_exp())
        back = inv.invert()
        assert back == a  # up to common order


def test_invert_zero_raises():
    with pytest.raises(NonInvertibleLeadingTerm):
        QSeries.zero(1, 5).invert()


def test_lattice_mismatch_is_loud():
    a = QSeries.one(24, 2)
    b = QSeries.one(8, 2)
    with pytest.raises(LatticeMismatch):
        _ = a + b
    with pytest.raises(LatticeMismatch):
        sum_of_series(24, [a, b], 48)
    with pytest.raises(LatticeMismatch):
        _ = a * b
    assert b.refine(24).D == 24
    with pytest.raises(LatticeMismatch):
        b.refine(12)


def test_qseries_equality_is_agreement_below_common_order():
    # agreement below a common order is equality once both sides are cut there
    a = QSeries.from_terms(1, [(0, ONE), (3, Cyc8(2))], 5)
    assert a.truncate(3) == QSeries.from_terms(1, [(0, ONE)], 3)
    assert a != a.truncate(3)
    assert QSeries(1, {0: Cyc8(1)}, 0) != QSeries(1, {0: Cyc8(2)}, 5)
    assert a != QSeries.from_terms(1, [(0, ONE), (3, Cyc8(3))], 5)
    assert a != 1
    with pytest.raises(LatticeMismatch):
        _ = a == QSeries.one(2, 5)


def _stored(*series):
    """Deep copies of the rows of tables the series store."""
    return [copy.deepcopy(s.rows) for s in series]


def test_walks_write_only_tables_they_made():
    # a stored series is never written, whichever walk reads its tables
    rng = random.Random(61)
    D = 2
    a, b = rand_mixed_series(rng, D, 30, floor=0), rand_mixed_series(rng, D, 24, floor=0)
    a = a + QSeries.one(D, 15)          # an invertible leading term
    j = JSeries.from_terms(D, 1, [(F(k, D), r, rand_coeff(rng))
                                  for k in range(0, 30, 3) for r in (-2, 0, 1)], 15)
    j2 = JSeries.from_terms(D, 1, [(F(k, D), r, rand_coeff(rng))
                                   for k in range(1, 30, 4) for r in (-1, 0, 2)], 12)
    walks = [
        (lambda: a.binomials([(ONE, F(1, 2), 1), (I, 1, 1)]), [a]),
        (lambda: a.binomials([(Cyc8(-1), 1, -1), (Cyc8(F(1, 3)), F(3, 2), -1)]), [a]),
        (lambda: j.binomials([(ONE, 1, 1, 1), (Cyc8(-1), F(1, 2), 0, -1)]), [j]),
        (lambda: a.ratio_sum([((1, 1), [(I, 1, -1)], [(ONE, 1, 1)])] * 2), [a]),
        (lambda: j.ratio_sum([((1, 1, 1), [(I, 1, -1, 1)], [(ONE, 1, 0, -1)])]), [j]),
        (lambda: a + b, [a, b]), (lambda: a - b, [a, b]), (lambda: a * b, [a, b]),
        (lambda: a.scale(I), [a]), (lambda: a.shift(F(3, 2)), [a]),
        (lambda: a.mul_monomial(Monomial(Cyc8(2, 0, 1), -1)), [a]),
        (lambda: a.truncate(5), [a]), (lambda: a.refine(6), [a]), (lambda: a.invert(), [a]),
        (lambda: j.substitute(Monomial(Cyc8(-1), 1), 26), [j]), (lambda: j.dzeta_at_one(), [j]),
        (lambda: j + j2, [j, j2]), (lambda: j - j2, [j, j2]), (lambda: j * j2, [j, j2]),
        (lambda: j * a, [j, a]), (lambda: j.scale(I), [j]), (lambda: j.truncate(5), [j]),
        (lambda: j.mul_monomial(Monomial(Cyc8(2, 0, 1), -1, 2)), [j]),
        (lambda: j.zeta_slice(-2), [j]),
    ]
    for walk, operands in walks:
        before = _stored(*operands)
        walk()
        assert _stored(*operands) == before


def _assert_canonical(s):
    for t in s.tables:
        for k, v in t.items():
            assert v != 0 and k < s.order
            assert type(v) is int or v.denominator > 1


def test_stored_tables_are_canonical():
    # read on the tables: a Cyc8 view would canonicalize the values again
    halves = QSeries.from_terms(1, [(1, F(1, 2)), (1, F(1, 2)), (2, F(1, 3)), (9, 4)], 5)
    assert halves.tables == ({1: 1, 2: F(1, 3)}, {}, {}, {})
    # (2 + 3q)(1 - q/2) / (1 - q/2): the chain's tables hold integral Fractions
    chain = QSeries.from_terms(1, [(0, 2), (1, 3)], 10).binomials([(F(-1, 2), 1, 1),
                                                                    (F(-1, 2), 1, -1)])
    assert chain.tables == ({0: 2, 1: 3}, {}, {}, {})
    s = rand_mixed_series(random.Random(3), 2, 20)
    for got in (halves, chain, s.scale(F(1, 2)), s.scale(F(1, 2)).scale(2), s.scale(0)):
        _assert_canonical(got)
    assert s.scale(F(1, 2)).scale(2).tables == s.tables


def test_first_mismatch_reads_all_four_tables_of_both_sides():
    a = QSeries.from_terms(1, [(0, ONE), (2, Cyc8(1, 2, 3, 4)), (4, I)], 8)
    # one component differs where the other three agree
    b = QSeries.from_terms(1, [(0, ONE), (2, Cyc8(1, 2, 5, 4)), (4, I)], 8)
    assert a.first_mismatch(b) == (2, Cyc8(1, 2, 3, 4), Cyc8(1, 2, 5, 4))
    # a key stored on one side only, on either side; the least key is the witness
    c = QSeries.from_terms(1, [(0, ONE), (1, Cyc8(0, 0, 0, 7)), (2, Cyc8(1, 2, 3, 4)),
                               (4, I)], 8)
    assert a.first_mismatch(c) == (1, Cyc8(0), Cyc8(0, 0, 0, 7))
    assert c.first_mismatch(a) == (1, Cyc8(0, 0, 0, 7), Cyc8(0))
    assert b.first_mismatch(c) == (1, Cyc8(0), Cyc8(0, 0, 0, 7))
    # differences at or past the common order are ignored
    d = QSeries.from_terms(1, [(0, ONE), (2, Cyc8(1, 2, 3, 4)), (4, I), (6, I), (7, ONE)], 8)
    assert a.truncate(6).first_mismatch(d) is None and d.first_mismatch(a.truncate(6)) is None
    assert a.first_mismatch(d) == (6, Cyc8(0), I)


def test_laurent_inversion_shifts_floor():
    # invert(q^{1/24}(1 - q - q^2 + q^5 + ...)) has floor -1/24 and
    # partition-number coefficients: 1/((q)_inf) = sum p(n) q^n
    D, N = 24, 20
    eulerish = qpochhammer(D, Monomial(1, 1), None, N).shift(F(1, 24))
    inv = eulerish.invert()
    assert inv.floor_key() == -1
    p = partition_numbers(15)
    for n in range(15):
        assert inv[F(n) - F(1, 24)] == Cyc8(p[n])


def partition_numbers(n_max):
    """Independent oracle: Euler DP for the partition numbers."""
    p = [0] * (n_max + 1)
    p[0] = 1
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            p[n] += p[n - part]
    return p


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------

def test_empty_product_is_one():
    assert qpochhammer(1, Monomial(1, 1), 0, 12) == QSeries.one(1, 12)


def test_single_factor():
    got = qpochhammer(1, Monomial(1, 2), 1, 12, step=2)
    assert got == QSeries.from_terms(1, [(0, ONE), (2, Cyc8(-1))], 12)


def test_euler_product_pentagonal_sparsity():
    # (q;q)_inf to O(q^6) = 1 - q - q^2 + q^5
    got = qpochhammer(1, Monomial(1, 1), None, 6)
    want = QSeries.from_terms(1, [(0, 1), (1, -1), (2, -1), (5, 1)], 6)
    assert got == want


def test_pentagonal_support_to_50():
    got = qpochhammer(1, Monomial(1, 1), None, 50)
    pent = {k * (3 * k - 1) // 2 for k in range(-10, 11)}
    assert set(got.coeff) <= pent
    for k in range(-6, 7):
        e = k * (3 * k - 1) // 2
        if e < 50:
            assert got[e] == Cyc8((-1) ** abs(k))


def test_divergent_product_raises():
    with pytest.raises(DivergentProduct):
        qpochhammer(1, Monomial(1, 1), None, 10, step=0)
    with pytest.raises(DivergentProduct):
        qpochhammer(1, Monomial(1, 1), None, 10, step=-1)


def test_eta_product_cross_check_double_loop():
    # (q)_inf * (q^2;q^2)_inf against a direct double expansion oracle
    N = 25
    a = qpochhammer(1, Monomial(1, 1), None, N)
    b = qpochhammer(1, Monomial(1, 2), None, N, step=2)
    prod = a * b
    # oracle: expand the doubled product with plain integer convolution
    coeffs = [0] * N
    coeffs[0] = 1
    for m in list(range(1, N)) + list(range(2, N, 2)):
        step_new = list(coeffs)
        for n in range(N - 1, m - 1, -1):
            step_new[n] -= coeffs[n - m]
        coeffs = step_new
    for n in range(N):
        assert prod[n] == Cyc8(coeffs[n])


# ---------------------------------------------------------------------------
# JSeries
# ---------------------------------------------------------------------------

def test_jsubstitute_single_term():
    j = JSeries.from_terms(24, 4, [(1, 2, ONE)], 10)
    assert j.substitute(Monomial(1, 0, 0)) == QSeries.from_terms(24, [(1, ONE)], 10)


def test_jsubstitute_zeta_equals_q():
    # zeta + zeta^{-1} q  at zeta = q  ->  q + 1
    # (finite series: past O(q^10), zeta^-1 at most lands on q^9)
    j = JSeries.from_terms(1, 1, [(0, 1, ONE), (1, -1, ONE)], 10)
    got = j.substitute(Monomial(1, 1, 0), 9)
    assert got[1] == ONE and got[0] == ONE
    # zeta + zeta^{-1} q^2 at zeta = q -> 2q
    j2 = JSeries.from_terms(1, 1, [(0, 1, ONE), (2, -1, ONE)], 10)
    assert j2.substitute(Monomial(1, 1, 0), 9)[1] == Cyc8(2)


def test_dzeta_at_one_power_rule():
    j = JSeries.from_terms(1, 4, [(0, F(1, 2), ONE)], 5)
    got = j.dzeta_at_one()
    assert got[0] == Cyc8(F(1, 2))
    j2 = JSeries.from_terms(1, 4, [(0, 1, ONE), (0, -1, ONE)], 5)
    assert j2.dzeta_at_one().is_zero()


def test_zeta_dzeta_at_q_power_rule():
    for r in range(-2, 3):
        j = JSeries.from_terms(1, 1, [(0, r, ONE)], 9)
        got = j.zeta_dzeta_at_q(9 + min(r, 0))
        if r == 0:
            assert got.is_zero()
        else:
            # [zeta d/dzeta zeta^r]_{zeta=q} = r q^r
            assert got[r] == Cyc8(r)


def test_substitution_is_multiplicative():
    rng = random.Random(5)
    for _ in range(10):
        t1 = [(rng.randint(0, 6), rng.randint(-3, 3), Cyc8(rng.randint(-3, 3)))
              for _ in range(4)]
        t2 = [(rng.randint(0, 6), rng.randint(-3, 3), Cyc8(rng.randint(-3, 3)))
              for _ in range(4)]
        a = JSeries.from_terms(1, 1, t1, 14)
        b = JSeries.from_terms(1, 1, t2, 14)
        # zeta-exponents of a, b and a * b are at least -6: at zeta = q
        # nothing past O(q^14) lands below q^8
        for val, landing in ((Monomial(1, 0, 0), None), (Monomial(1, 1, 0), 8)):
            lhs = (a * b).substitute(val, landing)
            rhs = a.substitute(val, landing) * b.substitute(val, landing)
            common = min(lhs.order_exp(), rhs.order_exp())
            assert lhs.truncate(common) == rhs.truncate(common)


def _jterms(j):
    return {(F(k, j.D), F(r, j.Dz)): c
            for r in j.rows for k, c in j.zeta_slice(F(r, j.Dz)).coeff.items()}


def test_jseries_product_order_and_terms_match_brute_force():
    # rows with different floors: the order takes the floor over all rows
    a = JSeries.from_terms(2, 1, [(F(-3, 2), 1, Cyc8(2)), (0, 0, ONE), (1, 0, I),
                                  (3, -1, Cyc8(-1)), (F(7, 2), 2, ONE)], 5)
    b = JSeries.from_terms(2, 1, [(-1, 2, ONE), (F(1, 2), 0, Cyc8(3)), (2, -1, I),
                                  (F(9, 2), 1, Cyc8(-2))], 6)
    assert (a.floor_key(), b.floor_key()) == (-3, -2)
    p = a * b
    assert p.order == min(a.order + b.floor_key(), b.order + a.floor_key()) == 8
    assert all(k < p.order for tables in p.rows.values() for t in tables for k in t)
    brute = {}
    for (qa, za), ca in _jterms(a).items():
        for (qb, zb), cb in _jterms(b).items():
            if (qa + qb) * 2 < p.order:
                key = (qa + qb, za + zb)
                brute[key] = brute.get(key, Cyc8(0)) + ca * cb
    assert _jterms(p) == {key: c for key, c in brute.items() if not c.is_zero()}


def test_jseries_rows_are_held_to_the_series_order():
    # a row known only to O(q^3) cannot stand in a series claimed to O(q^10):
    # it would compare equal to one that differs at q^5
    with pytest.raises(UncertifiedOrder):
        JSeries(1, 1, {0: QSeries(1, {1: Cyc8(1)}, 3)}, 10)
    # a row known past the order keeps no key at or past it; a row left
    # with none is not stored
    j = JSeries(1, 1, {0: QSeries(1, {1: ONE, 12: ONE}, 20), 1: QSeries(1, {10: I}, 10)}, 10)
    assert j.rows == {0: ({1: 1}, {}, {}, {})}
    assert j == JSeries.from_terms(1, 1, [(1, 0, ONE)], 10)
    with pytest.raises(LatticeMismatch):
        JSeries(2, 1, {0: QSeries.one(1, 10)}, 20)


@pytest.mark.parametrize("D, Dz", [(1, 1), (2, 2)])
def test_jseries_arithmetic_matches_per_row_qseries(D, Dz):
    # every operation of the shared rows against QSeries arithmetic on the
    # zeta-slices, on every zeta-exponent the operands or results can reach
    rng = random.Random(900 + 10 * D + Dz)
    zs = [F(r, Dz) for r in range(-7, 8)]
    for _ in range(6):
        a, b = (JSeries(D, Dz, {r: rand_mixed_series(rng, D, order, nterms=4, floor=-2 * D)
                                for r in rng.sample(range(-3, 4), 3)}, order)
                for order in (rng.randint(8, 14) * D, rng.randint(8, 14) * D))
        s = rand_mixed_series(rng, D, rng.randint(8, 14) * D, nterms=4, floor=-D)
        c, qe, ze = rand_coeff(rng), F(rng.randint(-2 * D, 2 * D), D), F(rng.choice([-2, 1]), Dz)
        cut = F(rng.randint(2, 10) * D - 1, D)
        for got, row in ((a + b, lambda z: a.zeta_slice(z) + b.zeta_slice(z)),
                         (a - b, lambda z: a.zeta_slice(z) - b.zeta_slice(z)),
                         (-a, lambda z: -a.zeta_slice(z)),
                         (a.scale(c), lambda z: a.zeta_slice(z).scale(c)),
                         (a.truncate(cut), lambda z: a.zeta_slice(z).truncate(cut))):
            assert all(got.zeta_slice(z) == row(z) for z in zs)
        shifted = a.mul_monomial(Monomial(c, qe, ze))
        assert shifted.order == a.order + qe * D
        assert all(shifted.zeta_slice(z + ze) == a.zeta_slice(z).mul_monomial(Monomial(c, qe))
                   for z in zs)
        # the product's order is one over all rows, at most each row's own
        p = a * s
        assert p.order == min(a.order + s.floor_key(), s.order + a.floor_key())
        for z in zs:
            want = a.zeta_slice(z) * s
            assert p.order <= want.order
            assert p.zeta_slice(z) == want.truncate(p.order_exp())


def test_jseries_first_mismatch_is_least_q_then_least_zeta():
    base = [(0, 0, ONE), (1, 3, ONE), (2, -4, ONE)]
    a = JSeries.from_terms(1, 1, base, 8)
    b = JSeries.from_terms(1, 1, base + [(3, -5, ONE), (1, 4, Cyc8(2)), (1, 2, I),
                                         (2, -6, ONE)], 8)
    assert a.first_mismatch(b) == (1, 2, Cyc8(0), I)
    assert b.first_mismatch(a) == (1, 2, I, Cyc8(0))
    c = JSeries.from_terms(1, 1, base + [(3, -5, ONE), (5, 4, ONE)], 8)
    assert a.first_mismatch(c) == (3, -5, Cyc8(0), ONE)
    assert a.first_mismatch(a.truncate(4)) is None


def test_substitution_raises_when_nothing_is_certified():
    q = Monomial(1, 1, 0)
    # zeta^2 q^3 + zeta q^4 at zeta = q lands at q^5, the certified order
    j = JSeries.from_terms(1, 1, [(3, 2, ONE), (4, 1, ONE)], 5)
    with pytest.raises(PrecisionExhausted):
        j.substitute(q, tail_landing=5)
    with pytest.raises(PrecisionExhausted):
        JSeries.from_terms(1, 1, [(1, 1, ONE)], 10).substitute(q, tail_landing=2)
    half = JSeries.from_terms(2, 2, [(0, F(1, 2), ONE)], 5)
    assert half.substitute(Monomial(1, 1, 0), 10) == QSeries.from_terms(2, [(F(1, 2), ONE)], 5)
    with pytest.raises(LatticeMismatch):
        half.substitute(Monomial(2, 1, 0), 10)
    with pytest.raises(LatticeMismatch):
        j.substitute(Monomial(1, 0, 1))


def test_substitution_with_a_q_power_needs_the_tail_bound():
    # sum_k q^(2k) zeta^(-k) to O(q^10): at zeta = q the unstored
    # q^10 zeta^-5 lands on q^5, below any order the stored terms suggest
    j = JSeries.from_terms(1, 1, [(2 * k, -k, ONE) for k in range(5)], 10)
    q = Monomial(1, 1, 0)
    with pytest.raises(UncertifiedOrder):
        j.substitute(q)
    with pytest.raises(UncertifiedOrder):
        j.zeta_dzeta_at_q()
    assert j.substitute(q, 5) == QSeries.from_terms(1, [(k, ONE) for k in range(5)], 5)
    # zeta := -1 moves no term: the order stays
    assert j.substitute(Monomial(-1)).order_exp() == 10


def jseries_chain_reference(s, factors):
    """s times the factors (c, q_exp, z_exp, sign) one JSeries product at a
    time: a zeta-factor as its two-term JSeries, a zeta-free quotient as the
    QSeries.invert of its binomial; no factor's order caps the product's."""
    for c, qe, ze, sign in factors:
        top = F(s.order - s.floor_key(), s.D) + qe + 1
        if ze:
            b = JSeries.from_terms(s.D, s.Dz, [(0, 0, ONE), (qe, ze, c)], top)
        else:
            b = binomial_series(s.D, c, qe, top)
            b = JSeries.from_qseries(b if sign > 0 else b.invert(), s.Dz)
        s = s * b
    return s


@pytest.mark.parametrize("D, Dz", [(1, 1), (2, 2), (3, 1), (1, 2)])
def test_jseries_binomials_match_products_of_binomials(D, Dz):
    rng = random.Random(300 + 10 * D + Dz)
    coeffs = [Cyc8.zeta_pow(1), I, Cyc8(1, 2, 0, -1), Cyc8(2, 0, -1, 0).inverse()]
    for _ in range(8):
        order = rng.randint(8, 14) * D
        s = JSeries(D, Dz, {r: rand_mixed_series(rng, D, order, nterms=4, floor=-2 * D)
                            for r in rng.sample(range(-3, 4), 3)}, order)
        factors = []
        while len(factors) < 6:
            c = rng.choice(coeffs + [rand_coeff(rng)])
            qe = F(rng.randint(0, 3 * D), D)
            if rng.randrange(3):
                factors.append((c, qe, rng.choice([-2, -1, 1, 2]), 1))
            elif not (qe == 0 and (ONE + c).is_zero()):
                factors.append((c, qe, 0, rng.choice([1, -1])))
        got = s.binomials(factors)
        want = jseries_chain_reference(s, factors)
        assert got.order == want.order
        assert got.rows == want.rows and got == want
    with pytest.raises(NonExpandableDenominator):
        s.binomials([(-1, 1, 0, -1), (I, 1, 1, -1)])


def test_jseries_quotient_after_a_zeta_step_walks_the_rows_it_moved():
    # row 0 on 10Z and row 1 at q^3: the zeta-step puts q^4 and its
    # multiples into row 0 and makes row -1, so the quotient after it walks
    # row 0 from 4 + 5 in steps of 1, not from 10 + 5 in steps of 5
    s = JSeries(1, 1, {0: QSeries(1, {10: ONE, 20: Cyc8(2)}, 40), 1: QSeries(1, {3: I}, 40)}, 40)
    for c in (Cyc8(-1), Cyc8.zeta_pow(1)):
        factors = [(Cyc8(-1), 10, 0, -1), (c, 1, -1, 1), (Cyc8(-1), 5, 0, -1), (c, 2, 1, 1),
                   (Cyc8(F(1, 2)), 7, 0, 1)]
        got = s.binomials(factors)
        want = jseries_chain_reference(s, factors)
        assert got.order == want.order
        assert got.rows == want.rows and got == want


def test_jseries_ratio_sum_matches_a_chain_per_term():
    # zeta-steps in the carried ratio, zeta-carrying monomials
    rng = random.Random(800)
    D, Dz = 2, 1
    for _ in range(4):
        s, steps = JSeries.one(D, Dz, 9), []
        for n in range(1, 6):
            carried = [(rand_coeff(rng), F(rng.randint(0, 2 * D), D), rng.choice([-1, 1]), 1)
                       for _ in range(2)]
            carried.append((rng.choice([ONE, Cyc8(-1), I]), F(rng.randint(1, 2 * D), D), 0,
                            rng.choice([1, -1])))
            extra = [(Cyc8(-1), n, 0, -1)] * rng.randint(0, 2)
            steps.append(((rand_coeff(rng), n, rng.randint(-1, 1)), carried, extra))
        got = s.ratio_sum(steps)
        want = ratio_sum_reference(s, steps, jseries_chain_reference)
        assert got.order == want.order
        assert got.rows == want.rows and got == want


def jpochhammer_reference(D, Dz, base, n, order_exp, step=1):
    """(a; q^step)_n as one JSeries product per factor 1 - a*q^e."""
    out = JSeries.one(D, Dz, order_exp)
    for e in pochhammer_exponents(base.q_exp, n, order_exp, step):
        out = out * JSeries.from_terms(D, Dz, [(0, 0, ONE), (e, base.z_exp, -base.coeff)],
                                       order_exp)
    return out


@pytest.mark.parametrize("base, n, step", [
    (Monomial(1, 0, 1), 6, 1), (Monomial(1, 1, -1), None, 1), (Monomial(1, 1, -1), 5, 1),
    (Monomial(I, F(1, 2), 2), 5, F(1, 2)), (Monomial(I, F(1, 2), 2), None, 1),
    (Monomial(Cyc8.zeta_pow(1), F(-3, 2), -1), 6, F(1, 2)), (Monomial(3, -2, 1), None, 1),
])
def test_jpochhammer_matches_per_factor_products(base, n, step):
    for D, Dz, N in ((2, 1, 9), (2, 2, 7)):
        got = jpochhammer(D, Dz, base, n, N, step)
        want = jpochhammer_reference(D, Dz, base, n, N, step)
        assert got.order == want.order
        assert got.rows == want.rows and got == want


def test_jpochhammer_matches_qpochhammer_on_zeta_free_base():
    a = jpochhammer(1, 1, Monomial(1, 1, 0), None, 12)
    b = qpochhammer(1, Monomial(1, 1), None, 12)
    assert a.zeta_slice(0) == b
    lo, hi = a.zeta_support()
    assert lo == hi == 0


def test_output_order_meets_contract():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_series(rng, order=60, floor=-10)
        b = rand_series(rng, order=70, floor=-5)
        prod = a * b
        assert prod.order >= min(a.order + b.floor_key(), b.order + a.floor_key())


TABLE_HELPERS = {"_add_rows", "_binomial_rows", "_ratio_rows", "_assemble", "_multiply_tables",
                 "_divide_tables", "_spans", "_add_root"}


def test_component_tables_stay_behind_the_exact_kernel():
    # outside qseries and jseries no module imports a table helper; the one
    # exception is indefinite's _add_root, which builds pwz_rhs_cleared's
    # root tables
    found = set()
    for path in Path(pwomega.__file__).parent.glob("*.py"):
        if path.stem in ("qseries", "jseries"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("qseries"):
                found |= {(path.stem, a.name) for a in node.names if a.name in TABLE_HELPERS}
    assert found <= {("indefinite", "_add_root")}

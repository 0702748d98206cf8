"""Exact indefinite-theta layer: cone sums, the three series routes, the
cleared double-sum identity, and the quarter-shift decomposition."""

from fractions import Fraction

import pytest

from pwomega import indefinite
from pwomega.cyc8 import Cyc8, ONE
from pwomega.errors import WindowTooSmall
from pwomega.indefinite import (cone_exponent, cone_points, cone_sum_series,
                                weighted_triple_sum, g_equals_sum_of_f_mismatch,
                                g_half_jseries,
                                pbar_from_dzeta_brackets, pbar_omega_series,
                                pwz_coefficient_formula_sides, pwz_lhs_cleared,
                                pwz_rhs_cleared, tail_landing_bound)
from pwomega.jseries import JSeries
from pwomega.partitions import census
from pwomega.qseries import Monomial, over_qpochhammer, qpochhammer

F = Fraction


def _in_cone(k, l, n):
    return (k >= 1 and l >= 0 and n >= 0) or (k <= 0 and l <= -1 and n <= -1)


@pytest.mark.parametrize("form, N", [
    (cone_exponent, 20),
    (lambda k, l, n: F(k * (k + 1), 2) + 2 * k * l + 2 * k * n + 4 * l * n, 15),   # G
    (lambda k, l, n: F(k * (k + 1), 2) + k * l + k * n + l * n, 15),               # F
])
def test_cone_points_match_brute_force(form, N):
    # on both cones each form is at least max(|k|, |l|, |n|) - 1, so the box
    # [-N, N]^3 holds every point with exponent below N
    walked = list(cone_points(lambda k, l, n: form(k, l, n) < N))
    box = range(-N, N + 1)
    brute = {(k, l, n) for k in box for l in box for n in box
             if _in_cone(k, l, n) and form(k, l, n) < N}
    assert len(walked) == len(set(walked))
    assert set(walked) == brute


def test_empty_truncation_gives_zero_series():
    s = cone_sum_series(1)
    assert s.is_zero()


def test_kernel_minimum_exponents():
    # cone 1 starts at k=1 (exponent 1), cone 2 at k=0, l=n=-1 (exponent 2)
    s = cone_sum_series(8)
    assert s.coefficient(1, 1) == Cyc8(-1)
    assert s.coefficient(2, 0) == Cyc8(1)


def test_routes_agree_to_30():
    a = pbar_omega_series(30, "definition")
    b = pbar_omega_series(30, "triple_sum")
    assert a.first_mismatch(b) is None
    assert b[1] == Cyc8(1)


def test_oracle_route_matches():
    # exactly O(q^N), also past the registry's comparison depth of 26
    b = pbar_omega_series(40, "triple_sum")
    c = pbar_omega_series(40, "oracle")
    assert c.order_exp() == 40 and b.first_mismatch(c) is None
    assert c[7] == Cyc8(census("pbar_omega", 7)[6])


def test_zeta_bracket_route_matches_triple_sum():
    d = pbar_from_dzeta_brackets(25)
    b = pbar_omega_series(25, "triple_sum").refine(24)
    assert d.first_mismatch(b) is None


def test_tail_landing_bound_is_safe():
    # brute bound: enumerate cone-2 terms with q-exp in [N, N+200] and check
    # the landing exponents stay at or above the certified bound
    N = 30
    bound = tail_landing_bound(N)
    worst = None
    for u in range(0, 40):
        for s in range(1, 40):
            for t in range(1, 40):
                q = u * (u - 1) // 2 + s * (2 * u - 1) + t * (2 * u - 1) + 4 * s * t
                q = (u * (u + 1) // 2 + 2 * u * s + 2 * u * t + 4 * s * t + s + t
                     - u - s - t + 0)
                # q-exponent of the kernel at (k,l,n) = (-u,-s,-t)
                q = (F(u * (u - 1), 2) + 2 * u * s + 2 * u * t + 4 * s * t - s - t)
                if q < N or q > N + 200:
                    continue
                landing = q - u
                if worst is None or landing < worst:
                    worst = landing
    assert worst is None or worst >= bound


def test_g_half_jseries_prefactor():
    s = g_half_jseries(4)
    # leading term: 4i q^{3/8+1} zeta at (k,l,n) = (1,0,0) with sign -1
    assert s.coefficient(F(11, 8), 1) == Cyc8(0, 0, -4, 0)


def pwz_lhs_reference(N, W, D=2, Dz=1):
    """The cleared series as a sum of series: per n, two JSeries binomial
    products, the q-binomials row by row and a truncated series add."""
    N = F(N)
    euler = qpochhammer(D, Monomial(1, 1), None, N)
    pref = over_qpochhammer(euler * euler, Monomial(-1, 1), None, step=2)
    ratio = JSeries.one(D, Dz, N)
    acc = JSeries(D, Dz, {}, ratio.order)
    n = 1
    while n < N:
        ratio = ratio * JSeries.from_terms(D, Dz, [(0, 0, ONE), (n - 1, 1, -ONE)], N)
        ratio = ratio * JSeries.from_terms(D, Dz, [(0, 0, ONE), (n, -1, -ONE)], N)
        ratio = JSeries(D, Dz, {r: ratio.zeta_slice(F(r, Dz)).binomials(
                                    [(1, 2 * n - 1, 1), (-1, 2 * n - 1, -1), (-1, 2 * n, -1)])
                                for r in ratio.rows}, ratio.order)
        acc = acc + ratio.mul_monomial(Monomial(1, n, 0)).truncate(N)
        n += 1
    out = acc * pref
    assert max(abs(x) for x in out.zeta_support()) <= W
    return out.truncate(N)


@pytest.mark.parametrize("N, D, Dz", [(25, 2, 1)])
def test_pwz_lhs_chain_matches_series_construction(N, D, Dz):
    got = pwz_lhs_cleared(N, 25)
    want = pwz_lhs_reference(N, 25, D, Dz)
    assert got.order == want.order
    assert got.rows == want.rows and got == want


def test_pwz_cleared_identity():
    assert pwz_lhs_cleared(15, 25).first_mismatch(pwz_rhs_cleared(15, 25)) is None


def test_builders_live_on_their_lattices():
    # each builder has one lattice: the cleared pwz sides on (q^(1/2), zeta),
    # the specialized kernel on (q^(1/24), zeta^(1/4)), the cone sums and
    # P-bar-omega on integer exponents; a finer lattice is a refine away
    assert {(s.D, s.Dz) for s in (pwz_lhs_cleared(6, 25), pwz_rhs_cleared(6, 25))} == {(2, 1)}
    assert {(s.D, s.Dz) for s in (g_half_jseries(4),)} == {(24, 4)}
    assert {(s.D, s.Dz) for s in (cone_sum_series(4),)} == {(1, 1)}
    routes = [pbar_omega_series(12, m) for m in ("definition", "triple_sum", "oracle")]
    assert {s.D for s in routes + [weighted_triple_sum(4)]} == {1}
    assert routes[1].refine(24).order == 12 * 24
    assert routes[1].refine(24).first_mismatch(routes[0].refine(24)) is None


def test_pwz_low_coefficients():
    lhs = pwz_lhs_cleared(6, 25)
    assert lhs.coefficient(0, 0) == Cyc8(0)   # the n-sum starts at q^1
    assert lhs.coefficient(1, 1) == Cyc8(-1)


@pytest.mark.parametrize("j", [1, 2, 3])
def test_pwz_per_coefficient_formula(j):
    lhs, rhs = pwz_coefficient_formula_sides(pwz_lhs_cleared(16, 25), j)
    assert lhs.first_mismatch(rhs) is None


def test_pwz_coefficient_formula_reports_shifted_series():
    # zeta times the cleared series moves [zeta^(j-1)] into [zeta^j]
    shifted = pwz_lhs_cleared(10, 25).mul_monomial(Monomial(1, 0, 1))
    lhs, rhs = pwz_coefficient_formula_sides(shifted, 2)
    assert lhs.first_mismatch(rhs) is not None


def test_pwz_cleared_series_truncates_to_lower_order():
    # the thm-pwz parts check the per-j formula on the order-25 series cut at 20
    cut = pwz_lhs_cleared(25, 25).truncate(20)
    direct = pwz_lhs_cleared(20, 25)
    assert cut.order == direct.order
    assert cut.rows == direct.rows


def test_pwz_window_guard():
    with pytest.raises(WindowTooSmall):
        pwz_lhs_cleared(15, 2)


def test_g_decomposition_into_quarter_shifts():
    assert g_equals_sum_of_f_mismatch(12) is None


def test_weighted_sum_low_terms():
    # leading coefficients of the weighted cone sum: the q^1 term comes from
    # (j,n,l) = (1,0,0) with weight j (1 - q^j) and sign (-1)
    c = weighted_triple_sum(4)
    assert c[1] == Cyc8(-1)
    assert c[2] == Cyc8(1)


def test_g_decomposition_walks_both_cones_and_reports_a_dropped_term(monkeypatch):
    real, walks = cone_points, []

    def recording(inside):
        walks.append(list(real(inside)))
        return iter(walks[-1])

    monkeypatch.setattr(indefinite, "cone_points", recording)
    assert g_equals_sum_of_f_mismatch(15) is None
    qg = lambda k, l, n: F(k * (k + 1), 2) + 2 * k * l + 2 * k * n + 4 * l * n
    qf = lambda k, l, n: F(k * (k + 1), 2) + k * l + k * n + l * n
    assert walks[0] == list(real(lambda k, l, n: qg(k, l, n) < 15))
    assert walks[1:] == [list(real(lambda k, l, n: qf(k, l, n) < 15))] * 4
    assert sum(map(len, walks)) == 560

    seen = []

    def dropping_first_g_term(inside):
        points = real(inside)
        if not seen:                # G's walk comes first
            next(points)
        seen.append(inside)
        return points

    # G's first term, q^(1 - 1/8) zeta1^(1/2) (zeta2 zeta3)^(1/4) at (1, 0, 0),
    # left out: the F side's -4 there is unmatched
    monkeypatch.setattr(indefinite, "cone_points", dropping_first_g_term)
    assert g_equals_sum_of_f_mismatch(15) == ((7, 1, 1, 1), Cyc8(0), Cyc8(-4))

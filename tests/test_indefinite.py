"""Exact indefinite-theta layer: cone sums, the three series routes, the
cleared double-sum identity, and the quarter-shift decomposition."""

from fractions import Fraction

import pytest

from pwomega.cyc8 import Cyc8
from pwomega.errors import WindowTooSmall
from pwomega.indefinite import (cone_exponent, cone_points, cone_sum_series,
                                weighted_triple_sum, g_equals_sum_of_f_mismatch,
                                g_half_jseries,
                                pbar_from_dzeta_brackets, pbar_omega_series,
                                pwz_coefficient_formula_sides, pwz_lhs_cleared,
                                pwz_rhs_cleared, tail_landing_bound)
from pwomega.partitions import census
from pwomega.qseries import Monomial

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
    b = pbar_omega_series(26, "triple_sum")
    c = pbar_omega_series(26, "oracle")
    assert b.truncate(26).first_mismatch(c) is None
    assert c[7] == Cyc8(census("pbar_omega", 7))


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


def test_pwz_cleared_identity():
    assert pwz_lhs_cleared(15, 25).first_mismatch(pwz_rhs_cleared(15, 25)) is None


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
    # the thm-pwz runner checks the per-j formula on the order-25 series cut at 20
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

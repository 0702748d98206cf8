"""Exact indefinite theta machinery: the two-cone triple sums, the cleared
two-variable series identity behind the double-sum representation of the
overpartition series, its per-coefficient formula, and the three construction
routes for the series P-bar-omega itself.

The quadratic exponent form used throughout is

    Q(k, l, n) = k(k+1)/2 + 2kl + 2kn + 4ln + l + n

summed over the cones {k >= 1 or k = 0, l, n >= 0} and {k <= 0, l, n <= -1}
(the k = 0 slice of the first cone carries weight zero in every derived
series, and the derivative evaluations at zeta = 1 and zeta = q turn the
kernel into the weighted sum with weight k (1 - q^k))."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple

from .cyc8 import Cyc8, I
from .errors import WindowTooSmall
from .jseries import JSeries
from .partitions import census, genfun
from .qseries import (Monomial, QSeries, _add_root, _scale, over_qpochhammer,
                      pochhammer_factors, sum_of_series)

F = Fraction

ORACLE_CAP = 25     # the "oracle" route enumerates coefficients n <= ORACLE_CAP
# the lattices (q^(1/D), zeta^(1/Dz)) of zeta^(1/2) G(z, tau+1/2, tau+1/2) and
# the cleared pwz series (zeta on Z); cone sums and P-bar-omega live on Z
G_HALF_D, G_HALF_DZ = 24, 4
PWZ_D = 2


# ---------------------------------------------------------------------------
# the two-cone triple sums
# ---------------------------------------------------------------------------

def cone_points(inside: Callable[[int, int, int], bool]) -> Iterator[Tuple[int, int, int]]:
    """(k, l, n) over cone 1 {k >= 1, l, n >= 0}, then cone 2
    {k <= 0, l, n <= -1}, while inside(k, l, n) holds.

    Each cone is walked k outermost and n innermost, every coordinate
    stepping away from the apex ((1, 0, 0) or (0, -1, -1)); a walk along a
    coordinate stops at its first point outside, so inside must be monotone:
    once false, false at every point further from the apex.
    """
    for apex_k, apex_ln, step in ((1, 0, 1), (0, -1, -1)):
        k = apex_k
        while inside(k, apex_ln, apex_ln):
            l = apex_ln
            while inside(k, l, apex_ln):
                n = apex_ln
                while inside(k, l, n):
                    yield k, l, n
                    n += step
                l += step
            k += step


def cone_exponent(k: int, l: int, n: int) -> int:
    """Q(k, l, n) = k(k+1)/2 + 2kl + 2kn + 4ln + l + n."""
    return k * (k + 1) // 2 + 2 * k * l + 2 * k * n + 4 * l * n + l + n


def cone_sum_series(N) -> JSeries:
    """sum over both cones of (-1)^(k+l+n) q^Q(k,l,n) zeta^k to O(q^N)."""
    N = F(N)
    terms: List[Tuple[int, int, int]] = []
    for k, l, n in cone_points(lambda k, l, n: cone_exponent(k, l, n) < N):
        e = cone_exponent(k, l, n)
        assert e >= 0, f"cone term below zero exponent at {(k, l, n)}"
        terms.append((e, k, -1 if (k + l + n) % 2 else 1))
    return JSeries.from_terms(1, 1, terms, N)


def tail_landing_bound(N) -> int:
    """Exact lower bound for q-exponent + k over all cone terms with
    q-exponent >= N (needed when substituting zeta = q into the kernel).

    Cone 1 shifts right (k >= 0); cone 2 has k = -u with the least exponent
    at l = n = -1: Q = u(u-1)/2 + 4u + 2, so the landing exponent is
    min_u max(N, u(u-1)/2 + 4u + 2) - u.
    """
    N = int(math.ceil(N))
    best = N
    u = 0
    while True:
        qmin = u * (u - 1) // 2 + 4 * u + 2
        best = min(best, max(N, qmin) - u)
        if qmin - u > N:
            break
        u += 1
    return best


# ---------------------------------------------------------------------------
# P-bar-omega: three routes
# ---------------------------------------------------------------------------

def weighted_triple_sum(N) -> QSeries:
    """The weighted two-cone sum

        C(q) = (sum_{n,j,l>=0} + sum_{n,j,l<0}) j (1-q^j) (-1)^(j+n+l)
               q^(j(j+1)/2 + 2nj + 2lj + 4nl + n + l)

    so that P-bar-omega = -C(q) / (q)_inf^3."""
    N = F(N)
    terms: List[Tuple[int, int]] = []
    # the weight's q^k term moves cone-2 exponents (k <= 0) down by |k|
    for k, l, n in cone_points(lambda k, l, n: cone_exponent(k, l, n) < N + abs(k)):
        e = cone_exponent(k, l, n)
        w = -k if (k + l + n) % 2 else k
        terms += [(e, w), (e + k, -w)]
    return QSeries.from_terms(1, terms, N)


def pbar_omega_series(N, method: str = "definition") -> QSeries:
    """P-bar-omega to O(q^N) by "definition", "triple_sum", or "oracle"."""
    if method == "definition":
        return genfun("pbar_omega", N, side="definition")
    if method == "triple_sum":
        if F(N) <= 1:
            return QSeries.zero(1, N)   # the series starts at q^1
        c = over_qpochhammer(weighted_triple_sum(N), Monomial(1, 1), None, power=3)
        return -c.truncate(N)
    if method == "oracle":
        n_top = min(int(N), ORACLE_CAP + 1)
        return QSeries.from_terms(1, enumerate(census("pbar_omega", n_top - 1), 1), n_top)
    raise ValueError("method must be definition | triple_sum | oracle")


def g_half_jseries(N) -> JSeries:
    """zeta^(1/2) G(z, tau+1/2, tau+1/2; tau) = 4 i q^(3/8) * kernel,
    as an exact JSeries (integer zeta-powers times the stated prefactor)."""
    kern_order = int(math.ceil(F(N) - F(3, 8)))
    kern = cone_sum_series(kern_order)
    D, Dz = G_HALF_D, G_HALF_DZ
    lifted = JSeries(D, Dz, {r * Dz: kern.zeta_slice(r).refine(D) for r in kern.rows},
                     kern.order * D)
    return lifted.mul_monomial(Monomial(4 * I, F(3, 8), 0))


def pbar_from_dzeta_brackets(N) -> QSeries:
    """P-bar-omega via the zeta-derivative brackets of the kernel:

        i q^(-3/8)/(4 (q)_inf^3) ([d/dzeta S]_{zeta=1} - [zeta d/dzeta S]_{zeta=q})

    with S = zeta^(1/2) G(z, tau+1/2, tau+1/2).  Exercises the two bracket
    operations end to end; equals the triple_sum route exactly."""
    D = G_HALF_D
    pad = int(math.isqrt(2 * int(N))) + 6
    s = g_half_jseries(F(N) + pad)
    at_one = s.dzeta_at_one()
    landing = tail_landing_bound(F(N) + pad)
    at_q = s.zeta_dzeta_at_q(tail_landing=(landing * D + _scale(F(3, 8), D)))
    bracket = at_one - at_q
    out = bracket.mul_monomial(Monomial(I * F(1, 4), F(-3, 8)))
    return over_qpochhammer(out, Monomial(1, 1), None, power=3).truncate(N)


# ---------------------------------------------------------------------------
# the cleared two-variable identity (double-sum representation)
# ---------------------------------------------------------------------------

def pwz_lhs_cleared(N, W: int) -> JSeries:
    """(zeta, zeta^{-1} q, q)_inf * P-bar-omega(zeta; q), built after clearing
    the infinite products:

        (q)_inf^2 / (-q; q^2)_inf * sum_{n>=1} (zeta, zeta^{-1}q)_n
                                     (-q; q^2)_n q^n / (q)_{2n}.

    The n-sum is one ratio_sum with the ratio
    (zeta, zeta^{-1}q)_n (-q; q^2)_n / (q)_{2n}, times pref."""
    N, D = F(N), PWZ_D
    pref = QSeries.one(D, N).binomials(         # (q)_inf^2 / (-q; q^2)_inf, one chain
        pochhammer_factors(Monomial(1, 1), None, N) * 2
        + pochhammer_factors(Monomial(-1, 1), None, N, step=2, sign=-1))
    out = JSeries.one(D, 1, N).ratio_sum(
        ((1, n, 0), [(1, 2 * n - 1, 0, 1), (-1, 2 * n - 1, 0, -1), (-1, 2 * n, 0, -1),
                     (-1, n - 1, 1, 1), (-1, n, -1, 1)], [])
        for n in range(1, math.ceil(N))) * pref
    _check_window(out, W)
    return out.truncate(N)


def pwz_rhs_cleared(N, W: int) -> JSeries:
    """sum_{j>=1} sum_{n>=0} (-1)^(j+1) i^n (1 - zeta^j)(1 - zeta^{-j} q^j)
    q^(j(j+1)/2 + n(j+1/2)) / (1 + i q^(j+n+1/2)), geometric denominators.

    Exponents count half-steps h of q^(h/2), the keys on the lattice
    q^(1/PWZ_D); each coefficient (-1)^(j+1) i^n (-i)^k (+-1) is one root
    zeta8^m."""
    N = F(N)
    top, order = math.ceil(2 * N), _scale(N, PWZ_D)     # int h < 2N iff h < top
    rows: Dict[int, tuple] = {}
    for j in range(1, math.isqrt(top) + 1):
        for n, h0 in enumerate(range(j * (j + 1), top, 2 * j + 1)):
            for k, h in enumerate(range(h0, top, 2 * (j + n) + 1)):
                m = 4 * (j + 1) + 2 * n - 2 * k
                # (1 - zeta^j)(1 - zeta^{-j} q^j) = 1 - zeta^j - zeta^{-j}q^j + q^j
                for dz, dh, dm in ((0, 0, 0), (j, 0, 4), (-j, 2 * j, 4), (0, 2 * j, 0)):
                    if h + dh < top:
                        _add_root(rows, dz, h + dh, m + dm)
    out = JSeries._from_tables(PWZ_D, 1, order, rows)
    _check_window(out, W)
    return out


def g_equals_sum_of_f_mismatch(N: int):
    """Exact three-variable check of the quarter-shift decomposition

        G(z1,z2,z3) = sum_{0<=alpha,beta<=1} i^(-alpha-beta)
                      F(z1, z2/2 + alpha/2, z3/2 + beta/2)

    with both sides expanded as dictionaries over scaled exponent 4-tuples
    (q on the 1/8 lattice, z1 on 1/2, z2 and z3 on 1/4) with int
    coefficients.  Returns the first mismatching key, with both sides'
    coefficients, or None."""
    lhs, rhs = {}, {}

    def qg8(k, l, n):       # 8 * (k(k+1)/2 + 2kl + 2kn + 4ln)
        return 4 * k * (k + 1) + 16 * (k * l + k * n + 2 * l * n)

    def qf8(k, l, n):       # 8 * (k(k+1)/2 + kl + kn + ln)
        return 4 * k * (k + 1) + 8 * (k * l + k * n + l * n)

    top = 8 * N
    for k, l, n in cone_points(lambda k, l, n: qg8(k, l, n) < top):
        key = (qg8(k, l, n) - 1, 2 * k - 1, 4 * l + 1, 4 * n + 1)
        lhs[key] = lhs.get(key, 0) + 4 * (-1) ** abs(k)
    for alpha in (0, 1):
        for beta in (0, 1):
            # i^{-a-b} * (zeta2^{1/4} i^a)(zeta3^{1/4} i^b) = prefactor roots
            for k, l, n in cone_points(lambda k, l, n: qf8(k, l, n) < top):
                key = (qf8(k, l, n) - 1, 2 * k - 1, 2 * l + 1, 2 * n + 1)
                rhs[key] = rhs.get(key, 0) + (-1) ** abs(k + alpha * l + beta * n)
    for key in sorted(set(lhs) | set(rhs)):
        if lhs.get(key, 0) != rhs.get(key, 0):
            return key, Cyc8(lhs.get(key, 0)), Cyc8(rhs.get(key, 0))
    return None


def _check_window(j: JSeries, W: int):
    lo, hi = j.zeta_support()
    if lo < -W or hi > W:
        raise WindowTooSmall(f"zeta-support [{lo}, {hi}] exceeds window [-{W}, {W}]")


def pwz_coefficient_formula_sides(cleared: JSeries, j: int) -> Tuple[QSeries, QSeries]:
    """The two sides of the per-coefficient formula for [zeta^j] of the
    cleared series (pwz_lhs_cleared), normalized by 1 / (q)_inf:

        (-1)^j q^(j(j+1)/2) / (q)_inf * sum_{n>=0} i^n q^(n(j+1/2)) / (1 + i q^(j+1/2+n))

    both to the order of the cleared series.  Term n of the sum is the
    one-term series i^n q^(n(j+1/2)) divided by its binomial
    (QSeries.binomials); the terms add in one sum_of_series."""
    N = cleared.order_exp()
    D = cleared.D
    q = Monomial(1, 1)
    lhs = over_qpochhammer(cleared.zeta_slice(j), q, None)
    e = F(2 * j + 1, 2)
    terms = (QSeries.from_terms(D, [(n * e, Cyc8.zeta_pow(2 * n))], N).binomials([(I, e + n, -1)])
             for n in range(math.ceil(N / e)))
    rhs = sum_of_series(D, terms, _scale(N, D)).scale((-1) ** abs(j)).shift(F(j * (j + 1), 2))
    rhs = over_qpochhammer(rhs, q, None).truncate(N)
    return lhs.truncate(rhs.order_exp()), rhs

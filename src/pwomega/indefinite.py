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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .cyc8 import Cyc8, I, ONE
from .errors import UnboundedCone, WindowTooSmall
from .jseries import JSeries
from .partitions import census, genfun
from .qseries import Monomial, QSeries, geometric, qpochhammer

F = Fraction


# ---------------------------------------------------------------------------
# generic two-cone summation
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


@dataclass
class ConeSumSpec:
    """Two-cone triple sum with quadratic exponent Q and termwise weights.

    Q(k,l,n) = ckk k^2 + cll l^2 + cnn n^2 + ckl kl + ckn kn + cln ln
               + lk k + ll l + ln n
    summed over the cones of cone_points.  The term weight is
    (-1)^(k+l+n) and the zeta-exponent is k * zeta_weight.
    """

    ckk: Fraction
    cll: Fraction
    cnn: Fraction
    ckl: Fraction
    ckn: Fraction
    cln: Fraction
    lk: Fraction
    ll: Fraction
    ln: Fraction
    zeta_weight: Fraction = F(1)

    def q_exp(self, k: int, l: int, n: int) -> Fraction:
        return (self.ckk * k * k + self.cll * l * l + self.cnn * n * n
                + self.ckl * k * l + self.ckn * k * n + self.cln * l * n
                + self.lk * k + self.ll * l + self.ln * n)

    def validate(self):
        """Coercivity sanity check along cone generators and mixed rays."""
        rays1 = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)]
        rays2 = [(0, -1, -1), (-1, -1, -1), (-2, -1, -1), (-1, -3, -1),
                 (-1, -1, -3), (0, -1, -3)]
        for g in rays1:
            vals = [self.q_exp(max(1, t * g[0]), t * g[1], t * g[2])
                    for t in range(1, 13)]
            if vals[-1] <= vals[6] or vals[-1] <= 0:
                raise UnboundedCone(f"exponent not coercive along cone-1 ray {g}")
        for g in rays2:
            vals = [self.q_exp(min(0, t * g[0]), min(-1, t * g[1]), min(-1, t * g[2]))
                    for t in range(1, 13)]
            if vals[-1] <= vals[6] or vals[-1] <= 0:
                raise UnboundedCone(f"exponent not coercive along cone-2 ray {g}")


H_KERNEL_SPEC = ConeSumSpec(ckk=F(1, 2), cll=F(0), cnn=F(0), ckl=F(2), ckn=F(2),
                            cln=F(4), lk=F(1, 2), ll=F(1), ln=F(1), zeta_weight=F(1))


def cone_sum_series(spec: ConeSumSpec, N, D: int = 1, Dz: int = 1,
                    weight_fn: Optional[Callable[[int], List[Tuple[Fraction, Cyc8]]]] = None
                    ) -> JSeries:
    """Sum the two-cone triple series to O(q^N) as a JSeries in one zeta.

    weight_fn(k) may return a list of (extra q-exponent, coefficient) pairs
    multiplied onto every term with that k (used for the k (1 - q^k) weight);
    omitted means the plain kernel.
    """
    spec.validate()
    N = F(N)
    terms: List[Tuple[Fraction, Fraction, Cyc8]] = []

    def inside(k: int, l: int, n: int) -> bool:
        # weights of the form k(1 - q^k) can shift exponents left by |k|
        pad = abs(k) if weight_fn is not None else 0
        return spec.q_exp(k, l, n) < N + pad

    for k, l, n in cone_points(inside):
        e = spec.q_exp(k, l, n)
        assert e >= 0, f"cone term below zero exponent at {(k, l, n)}"
        s = Cyc8(-1 if (k + l + n) % 2 else 1)
        ze = k * spec.zeta_weight
        if weight_fn is None:
            if e < N:
                terms.append((e, ze, s))
            continue
        for de, c in weight_fn(k):
            if e + de < N:
                terms.append((e + de, ze, s * c))
    return JSeries.from_terms(D, Dz, terms, N)


def h_kernel_series(N, D: int = 1, Dz: int = 1) -> JSeries:
    """sum over both cones of (-1)^(k+l+n) q^Q(k,l,n) zeta^k."""
    return cone_sum_series(H_KERNEL_SPEC, N, D, Dz)


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

def weighted_triple_sum(N, D: int = 1) -> QSeries:
    """The weighted two-cone sum

        C(q) = (sum_{n,j,l>=0} + sum_{n,j,l<0}) j (1-q^j) (-1)^(j+n+l)
               q^(j(j+1)/2 + 2nj + 2lj + 4nl + n + l)

    so that P-bar-omega = -C(q) / (q)_inf^3."""
    def weight(k: int):
        if k == 0:
            return []
        return [(F(0), Cyc8(k)), (F(k), Cyc8(-k))]

    from dataclasses import replace
    spec = replace(H_KERNEL_SPEC, zeta_weight=F(0))
    j = cone_sum_series(spec, N, D, 1, weight_fn=weight)
    return j.zeta_slice(0)


def pbar_omega_series(N, method: str = "definition", D: int = 1,
                      oracle_cap: int = 25) -> QSeries:
    """P-bar-omega to O(q^N) by "definition", "triple_sum", or "oracle"."""
    if method == "definition":
        return genfun("pbar_omega", N, side="definition", D=D)
    if method == "triple_sum":
        if F(N) <= 1:
            return QSeries.zero(D, N)   # the series starts at q^1
        c = weighted_triple_sum(N, D)
        euler3 = qpochhammer(D, Monomial(1, 1), None, N).pow(3)
        return -(c * euler3.invert()).truncate(N)
    if method == "oracle":
        n_top = min(int(N), oracle_cap + 1)
        return QSeries.from_terms(D, [(n, Cyc8(census("pbar_omega", n)))
                                      for n in range(1, n_top)], n_top)
    raise ValueError("method must be definition | triple_sum | oracle")


def g_half_jseries(N, D: int = 24, Dz: int = 4) -> JSeries:
    """zeta^(1/2) G(z, tau+1/2, tau+1/2; tau) = 4 i q^(3/8) * kernel,
    as an exact JSeries (integer zeta-powers times the stated prefactor)."""
    kern_order = int(math.ceil(F(N) - F(3, 8)))
    kern = h_kernel_series(kern_order, 1, 1)
    lifted = JSeries(D, Dz, {r * Dz: row.refine(D) for r, row in kern.rows.items()},
                     kern.order * D)
    return lifted.mul_monomial(Monomial(4 * I, F(3, 8), 0))


def pbar_from_dzeta_brackets(N) -> QSeries:
    """P-bar-omega via the zeta-derivative brackets of the kernel:

        i q^(-3/8)/(4 (q)_inf^3) ([d/dzeta S]_{zeta=1} - [zeta d/dzeta S]_{zeta=q})

    with S = zeta^(1/2) G(z, tau+1/2, tau+1/2).  Exercises the two bracket
    operations end to end; equals the triple_sum route exactly."""
    D = 24
    pad = int(math.isqrt(2 * int(N))) + 6
    s = g_half_jseries(F(N) + pad, D)
    at_one = s.dzeta_at_one()
    landing = tail_landing_bound(F(N) + pad)
    at_q = s.zeta_dzeta_at_q(tail_landing=(landing * D + _scale38(D)))
    bracket = at_one - at_q
    euler = qpochhammer(D, Monomial(1, 1), None, F(N) + 1)
    pref = Monomial(I * F(1, 4), F(-3, 8))
    out = bracket.mul_monomial(pref) * euler.pow(3).invert()
    return out.truncate(N)


def _scale38(D: int) -> int:
    return (F(3, 8) * D).numerator


# ---------------------------------------------------------------------------
# the cleared two-variable identity (double-sum representation)
# ---------------------------------------------------------------------------

def pwz_lhs_cleared(N, W: int, D: int = 2, Dz: int = 1) -> JSeries:
    """(zeta, zeta^{-1} q, q)_inf * P-bar-omega(zeta; q), built after clearing
    the infinite products:

        (q)_inf^2 / (-q; q^2)_inf * sum_{n>=1} (zeta, zeta^{-1}q)_n
                                     (-q; q^2)_n q^n / (q)_{2n}.
    """
    N = F(N)
    euler = qpochhammer(D, Monomial(1, 1), None, N)
    minus_q_odd_inf = qpochhammer(D, Monomial(-1, 1), None, N, step=2)
    pref = JSeries.from_qseries((euler * euler) * minus_q_odd_inf.invert(), Dz)

    acc = JSeries.zero(D, Dz, N)
    zz = JSeries.one(D, Dz, N)          # (zeta, zeta^{-1} q)_n
    modd = QSeries.one(D, N)            # (-q; q^2)_n
    e2n = QSeries.one(D, N)             # (q)_{2n}
    n = 1
    while F(n) < N:
        zz = zz * JSeries.from_terms(D, Dz, [(0, 0, ONE), (n - 1, 1, -ONE)], N)
        zz = zz * JSeries.from_terms(D, Dz, [(0, 0, ONE), (n, -1, -ONE)], N)
        modd = modd * QSeries.from_terms(D, [(0, ONE), (2 * n - 1, ONE)], N)
        e2n = e2n * QSeries.from_terms(D, [(0, ONE), (2 * n - 1, -ONE)], N)
        e2n = e2n * QSeries.from_terms(D, [(0, ONE), (2 * n, -ONE)], N)
        term = (zz * (modd * e2n.invert())).mul_monomial(Monomial(1, n, 0))
        acc = acc + term.truncate(N)
        n += 1
    out = pref * acc
    _check_window(out, W)
    return out.truncate(N)


def pwz_rhs_cleared(N, W: int, D: int = 2, Dz: int = 1) -> JSeries:
    """sum_{j>=1} sum_{n>=0} (-1)^(j+1) i^n (1 - zeta^j)(1 - zeta^{-j} q^j)
    q^(j(j+1)/2 + n(j+1/2)) / (1 + i q^(j+n+1/2)), geometric denominators."""
    N = F(N)
    terms: List[Tuple[Fraction, Fraction, Cyc8]] = []
    j = 1
    while F(j * (j + 1), 2) < N:
        base = F(j * (j + 1), 2)
        n = 0
        while base + n * F(2 * j + 1, 2) < N:
            e0 = base + n * F(2 * j + 1, 2)
            c0 = Cyc8((-1) ** (j + 1)) * Cyc8.zeta_pow(2 * n)      # i^n
            k = 0
            while e0 + k * F(2 * (j + n) + 1, 2) < N:
                ck = c0 * Cyc8.zeta_pow(-2 * k)                    # (-i)^k
                e = e0 + k * F(2 * (j + n) + 1, 2)
                # (1 - zeta^j)(1 - zeta^{-j} q^j) = 1 - zeta^j - zeta^{-j}q^j + q^j
                for dz, dq, sgn in ((0, F(0), 1), (j, F(0), -1), (-j, F(j), -1), (0, F(j), 1)):
                    if e + dq < N:
                        terms.append((e + dq, F(dz), ck * Cyc8(sgn)))
                k += 1
            n += 1
        j += 1
    out = JSeries.from_terms(D, Dz, terms, N)
    _check_window(out, W)
    return out


def g_equals_sum_of_f_mismatch(N: int):
    """Exact three-variable check of the quarter-shift decomposition

        G(z1,z2,z3) = sum_{0<=alpha,beta<=1} i^(-alpha-beta)
                      F(z1, z2/2 + alpha/2, z3/2 + beta/2)

    with both sides expanded as dictionaries over scaled exponent 4-tuples
    (q on the 1/8 lattice, z1 on 1/2, z2 and z3 on 1/4).  Returns the first
    mismatching key or None."""
    lhs: Dict[Tuple[int, int, int, int], Cyc8] = {}
    rhs: Dict[Tuple[int, int, int, int], Cyc8] = {}

    def add(target, key, c):
        s = target.get(key, Cyc8(0)) + c
        if s.is_zero():
            target.pop(key, None)
        else:
            target[key] = s

    def qg(k, l, n):
        return F(k * (k + 1), 2) + 2 * k * l + 2 * k * n + 4 * l * n

    def qf(k, l, n):
        return F(k * (k + 1), 2) + k * l + k * n + l * n

    for k, l, n in cone_points(lambda k, l, n: qg(k, l, n) < N):
        e = qg(k, l, n) - F(1, 8)
        if e < N:
            add(lhs, ((e * 8).numerator, 2 * k - 1, 4 * l + 1, 4 * n + 1),
                Cyc8(4 * (-1) ** k))
    for alpha in (0, 1):
        for beta in (0, 1):
            # i^{-a-b} * (zeta2^{1/4} i^a)(zeta3^{1/4} i^b) = prefactor roots
            for k, l, n in cone_points(lambda k, l, n: qf(k, l, n) < N):
                e = qf(k, l, n) - F(1, 8)
                if e >= N:
                    continue
                c = Cyc8((-1) ** k) * Cyc8((-1) ** (alpha * l + beta * n))
                key = ((e * 8).numerator, 2 * k - 1, 2 * l + 1, 2 * n + 1)
                add(rhs, key, c)
    for key in sorted(set(lhs) | set(rhs)):
        if lhs.get(key, Cyc8(0)) != rhs.get(key, Cyc8(0)):
            return key, lhs.get(key, Cyc8(0)), rhs.get(key, Cyc8(0))
    return None


def _check_window(j: JSeries, W: int):
    lo, hi = j.zeta_support()
    if lo < -W or hi > W:
        raise WindowTooSmall(f"zeta-support [{lo}, {hi}] exceeds window [-{W}, {W}]")


def pwz_identity_mismatch(N, W: int = 25):
    """First mismatching coefficient of the cleared identity, or None."""
    return pwz_lhs_cleared(N, W).first_mismatch(pwz_rhs_cleared(N, W))


def pwz_coefficient_formula_mismatch(j: int, N):
    """Check [zeta^j] of the cleared-and-normalized series against

        (-1)^j q^(j(j+1)/2) / (q)_inf * sum_{n>=0} i^n q^(n(j+1/2)) / (1 + i q^(j+1/2+n)).
    """
    N = F(N)
    D = 2
    lhs_full = pwz_lhs_cleared(N, max(25, j + 2))
    euler_inv = qpochhammer(D, Monomial(1, 1), None, N).invert()
    lhs = lhs_full.zeta_slice(j) * euler_inv

    terms = []
    n = 0
    while n * F(2 * j + 1, 2) < N:
        e0 = n * F(2 * j + 1, 2)
        k = 0
        while e0 + k * F(2 * (j + n) + 1, 2) < N:
            c = Cyc8.zeta_pow(2 * n) * Cyc8.zeta_pow(-2 * k)
            terms.append((e0 + k * F(2 * (j + n) + 1, 2), c))
            k += 1
        n += 1
    rhs = QSeries.from_terms(D, terms, N).scale((-1) ** j).shift(F(j * (j + 1), 2))
    rhs = (rhs * euler_inv).truncate(N)
    return lhs.truncate(rhs.order_exp()).first_mismatch(rhs)

"""Exact Dedekind eta, eta quotients, Jacobi theta and Appell-Lerch mu at
torsion points, and the two classical q-series lemmas (finite Jacobi triple
product, Heine).

Everything here is formal: series live on the fractional q-lattice and the
coefficients are 8th cyclotomic rationals.  theta specialized at z = a*tau + b
folds e^(2*pi*i*n*(a*tau + b + 1/2)) into q-powers and roots of unity, which
stays inside Q(zeta8) exactly when the denominator of b divides 4.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, count, repeat, takewhile
from typing import List, Tuple, Union

from .cyc8 import Cyc8, ONE
from .errors import (BadSpec, NonExpandableDenominator, RootOfUnityOutsideCyc8,
                     SpecializationPole)
from .jseries import JSeries
from .qseries import Monomial, QSeries, _scale, pochhammer_factors, sum_of_series

F = Fraction
Rat = Union[int, Fraction]

# the q-lattices q^(1/D) of eta, eta quotients, theta and mu at torsion
# points, and of Heine's sides; the finite triple product lives on (q, zeta)
TORSION_D = 24
HEINE_D = 2


# ---------------------------------------------------------------------------
# eta and eta quotients
# ---------------------------------------------------------------------------

def eta_series(N) -> QSeries:
    """eta(tau) = q^(1/24) prod (1 - q^n), via the pentagonal expansion."""
    terms = []
    k = 0
    while True:
        exps = [F(kk * (3 * kk - 1), 2) + F(1, 24) for kk in ((k, -k) if k else (0,))]
        live = [e for e in exps if e < F(N)]
        for e in live:
            terms.append((e, Cyc8((-1) ** k)))
        if not live and k > 0:
            break
        k += 1
    return QSeries.from_terms(TORSION_D, terms, N)


@dataclass
class EtaQuotient:
    """prod_i eta(m_i * tau)^(r_i), optionally times a monomial prefactor."""

    factors: List[Tuple[int, int]]
    prefactor: Monomial = field(default_factory=lambda: Monomial(1, 0, 0))

    def leading_exponent(self) -> Fraction:
        return sum((F(m * r, 24) for m, r in self.factors), F(0)) + self.prefactor.q_exp

    FORMAT = re.compile(r"eta\(([1-9]\d*)\)(?:\^(-?\d+))?")

    @staticmethod
    def parse(text: str) -> "EtaQuotient":
        """Parse "eta(1)^3 * eta(4) / eta(2)^2" with optional "q^{k/D}" factor."""
        pre = Monomial(1, 0, 0)
        factors: List[Tuple[int, int]] = []
        # pull out q^{...} prefactors first; their braces may contain '/'
        def grab(m):
            nonlocal pre
            pre = pre * Monomial(1, F(m.group(1) if m.group(1) is not None else m.group(2)), 0)
            return "1"
        text = re.sub(r"q\^\{(-?\d+(?:/[1-9]\d*)?)\}|q\^(-?\d+)", grab, text)
        num, _, den = text.partition("/")
        for side, sign in ((num, 1), (den, -1)):
            for piece in side.split("*"):
                piece = piece.strip()
                if not piece or piece == "1":
                    continue
                m = EtaQuotient.FORMAT.fullmatch(piece)
                if not m:
                    raise BadSpec(f"cannot parse eta-quotient factor {piece!r}")
                factors.append((int(m.group(1)), sign * int(m.group(2) or 1)))
        return EtaQuotient(factors, pre)

    def __str__(self) -> str:
        num = [f"eta({m})^{r}" for m, r in self.factors if r > 0]
        den = [f"eta({m})^{-r}" for m, r in self.factors if r < 0]
        s = " * ".join(num) if num else "1"
        if self.prefactor.q_exp:
            s = f"q^{{{self.prefactor.q_exp}}} * " + s
        if den:
            s += " / " + " * ".join(den)
        return s


def eta_quotient_series(spec: EtaQuotient, N) -> QSeries:
    """The quotient to O(q^N): one binomial chain of the factors of
    (q^m; q^m)_inf^(sign r), |r| times each, at order N minus the leading
    exponent, times the prefactor's coefficient and q^(leading exponent)."""
    lead = spec.leading_exponent()
    top = F(N) - lead
    factors = []
    for m, r in spec.factors:
        sign = 1 if r > 0 else -1
        factors += pochhammer_factors(Monomial(1, m), None, top, step=m, sign=sign) * abs(r)
    pre = spec.prefactor
    return QSeries.one(TORSION_D, top).binomials(factors).mul_monomial(
        Monomial(pre.coeff, lead, pre.z_exp))


# ---------------------------------------------------------------------------
# theta at torsion points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TorsionPoint:
    """z = a*tau + b with exact rationals a, b."""

    a: Fraction
    b: Fraction

    def __init__(self, a: Rat, b: Rat):
        object.__setattr__(self, "a", F(a))
        object.__setattr__(self, "b", F(b))

    def shifted(self, lam: int, mu: int) -> "TorsionPoint":
        return TorsionPoint(self.a + lam, self.b + mu)


def theta_series_at_torsion(z: TorsionPoint, N) -> QSeries:
    """theta(a*tau+b; tau) = sum_{n in 1/2+Z} q^(n^2/2 + n a) e^(2 pi i n (b + 1/2)).

    Exact to O(q^N); requires denominator(b) | 4 (roots of unity stay in
    Q(zeta8)) and the induced exponents on the 1/24 lattice.
    """
    if 4 % z.b.denominator != 0:
        raise RootOfUnityOutsideCyc8(f"b = {z.b} needs a root of unity outside Q(zeta8)")
    terms = []
    k_max = _isqrt_ceil(2 * F(N)) + int(2 * abs(z.a)) + 4
    for k in range(-k_max, k_max + 1):
        n = F(2 * k + 1, 2)
        e = n * n / 2 + n * z.a
        if e < F(N):
            root = Cyc8.from_root_of_unity(n * (z.b + F(1, 2)))
            terms.append((e, root))
    return QSeries.from_terms(TORSION_D, terms, N)


def _isqrt_ceil(x: Fraction) -> int:
    return math.isqrt(max(0, int(x))) + 1


def theta_elliptic_shift_reference(z: TorsionPoint, lam: int, mu: int, N) -> QSeries:
    """(-1)^(lam+mu) q^(-lam^2/2) zeta^(-lam) theta(z) for zeta = e^(2 pi i z):
    the right-hand side of the elliptic shift law, as an exact series."""
    base = theta_series_at_torsion(z, F(N) + F(lam * lam, 2) + lam * z.a + 2)
    sign = Cyc8((-1) ** abs(lam + mu))
    root = Cyc8.from_root_of_unity(F(-lam) * z.b)
    shift = -F(lam * lam, 2) - lam * z.a
    return base.mul_monomial(Monomial(sign * root, shift, 0)).truncate(N)


# ---------------------------------------------------------------------------
# exact mu at torsion points
# ---------------------------------------------------------------------------

def mu_torsion_series(z1: TorsionPoint, z2: TorsionPoint, N) -> QSeries:
    """Exact Laurent-Puiseux expansion of mu(a1 tau + b1, a2 tau + b2; tau).

    Each bilateral-sum term is one quotient step by 1 - e^(2 pi i b1) q^(n + a1)
    (QSeries.binomials, which folds n + a1 <= 0 into a monomial), and the
    terms add in one sum_of_series; the denominator vanishes identically at
    n = -a1 when a1 and b1 are integers.
    """
    a1, b1, a2, b2 = z1.a, z1.b, z2.a, z2.b
    if a1.denominator == 1 and b1.denominator == 1:
        raise SpecializationPole(f"denominator vanishes identically at n={-a1}")
    N = F(N)
    # conservative symmetric n-window: exponents grow like n^2/2 - |a2| n - |n + a1|
    n_max = 3 + int(2 * (abs(a2) + 2)) + _isqrt_ceil(2 * (N - min(0, _series_floor_bound(a1, a2)) + 4))
    root_b1 = Cyc8.from_root_of_unity(b1)
    D = TORSION_D

    def terms():
        for n in range(-n_max, n_max + 1):
            # (-1)^n e^(2 pi i n b2) q^(n(n+1)/2 + n a2) / (1 - e^(2 pi i b1) q^(n + a1)),
            # the sign folded into the root: (-1)^n e^(2 pi i n b2) = e^(2 pi i n (b2 + 1/2))
            root = Cyc8.from_root_of_unity(n * (b2 + F(1, 2)))
            seed = QSeries.from_terms(D, [(F(n * (n + 1), 2) + n * a2, root)], N + 8)
            yield seed.binomials([(-root_b1, n + a1, -1)])
    acc = sum_of_series(D, terms(), _scale(N + 8, D))
    theta2 = theta_series_at_torsion(z2, N + 8)
    pref = Monomial(Cyc8.from_root_of_unity(b1 / 2), a1 / 2)
    out = acc * theta2.invert()
    return out.mul_monomial(pref).truncate(N)


def _series_floor_bound(a1: Fraction, a2: Fraction) -> Fraction:
    # crude lower bound of the term floors: minimum of n(n+1)/2 + n a2 - max(0, -(n+a1))
    best = F(0)
    for n in range(-12, 13):
        e = F(n * (n + 1), 2) + n * a2 + min(0, n + a1)
        best = min(best, e)
    return best


# ---------------------------------------------------------------------------
# finite Jacobi triple product (two-variable, exact)
# ---------------------------------------------------------------------------

def finite_jtp_sides(n: int, N) -> Tuple[JSeries, JSeries]:
    """Both sides of the finite triple-product identity

        (zeta; q)_n (zeta^{-1} q; q)_n / (q)_{2n}
            = sum_{j=-n}^{n} (-1)^j zeta^j q^(j(j-1)/2) / ((q)_{n-j} (q)_{n+j})

    The left side is one zeta-chain; the right side is its rows, row j one
    q-chain from the seed (-1)^j q^(j(j-1)/2).
    """
    q = Monomial(1, 1)
    # one chain: / (q)_2n while there is one row, then (zeta, zeta^-1 q)_n
    lhs = JSeries.one(1, 1, N).binomials(
        [(-1, e, 0, -1) for e in range(1, 2 * n + 1)]
        + [(-1, j, 1, 1) for j in range(n)] + [(-1, j + 1, -1, 1) for j in range(n)])
    rhs = JSeries(1, 1, {
        j: QSeries.from_terms(1, [(j * (j - 1) // 2, (-1) ** abs(j))], N).binomials(
            pochhammer_factors(q, n - j, N, sign=-1) + pochhammer_factors(q, n + j, N, sign=-1))
        for j in range(-n, n + 1)}, _scale(N, 1))
    return lhs, rhs


# ---------------------------------------------------------------------------
# Heine transformation (monomial parameters, exact)
# ---------------------------------------------------------------------------

def _neg_floor_of_poch(mono: Monomial) -> Fraction:
    """A floor bound for (mono; q)_n uniform in n: its negative factor exponents summed."""
    return sum((mono.q_exp + j for j in range(math.ceil(-mono.q_exp))), F(0))


def heine_sides(a: Monomial, b: Monomial, c: Monomial, z: Monomial, N) -> Tuple[QSeries, QSeries]:
    """Both sides of Heine's transformation

        sum_{n>=0} (a)_n (b)_n z^n / ((c)_n (q)_n)
          = (c/b)_inf (b z)_inf / ((c)_inf (z)_inf)
            * sum_{n>=0} (a b z / c)_n (b)_n (c/b)^n / ((b z)_n (q)_n)

    with monomial parameters.  The analytic constraint |c| < |b| becomes the
    formal requirement that c/b, z, c and b*z all carry positive q-exponent.
    Both sides are returned to their common certified order, which is below
    N when a parameter has a negative q-exponent.
    """
    cb = c * b.pow(-1)
    bz = b * z
    abz_c = a * b * z * c.pow(-1)
    for name, mono in (("z", z), ("c/b", cb), ("c", c), ("b*z", bz)):
        if mono.q_exp <= 0:
            raise NonExpandableDenominator(
                f"Heine needs positive q-exponent for {name}, got {mono.q_exp}")

    lhs = _phi21(a, b, c, z, N)
    # the prefactor's factors up to the order minus the floor of the sum it
    # multiplies, which is below 0 when a or b has a negative q-exponent
    phi = _phi21(abz_c, b, bz, cb, N)
    reach = F(phi.order - phi.floor_key(), HEINE_D)
    rhs = phi.binomials(
        pochhammer_factors(cb, None, reach) + pochhammer_factors(bz, None, reach)
        + pochhammer_factors(c, None, reach, sign=-1) + pochhammer_factors(z, None, reach, sign=-1))
    common = min(lhs.order_exp(), rhs.order_exp(), N)
    return lhs.truncate(common), rhs.truncate(common)


def _phi21(a: Monomial, b: Monomial, c: Monomial, z: Monomial, N) -> QSeries:
    """sum_{n>=0} (a)_n (b)_n z^n / ((c)_n (q)_n) to O(q^N) as one ratio_sum,
    for z with positive q-exponent: the n-th term starts at or above
    n * z.q_exp plus the floors of (a)_n and (b)_n, which ends the sum."""
    neg_pad = _neg_floor_of_poch(a) + _neg_floor_of_poch(b)
    return QSeries.one(HEINE_D, N).ratio_sum(
        ((zc, n * z.q_exp),
         [(-a.coeff, a.q_exp + n - 1, 1), (-b.coeff, b.q_exp + n - 1, 1),
          (-c.coeff, c.q_exp + n - 1, -1), (-1, n, -1)] if n else [], [])
        for n, zc in zip(takewhile(lambda n: n * z.q_exp + neg_pad < F(N), count()),
                         accumulate(repeat(z.coeff), Cyc8.__mul__, initial=ONE)))

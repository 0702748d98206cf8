"""Truncated Laurent-Puiseux series in q with Cyc8 coefficients.

Exponents live on a fixed fractional lattice: a series with lattice denominator
D stores the coefficient of q^(k/D) under the integer key k.  Every series
carries an explicit truncation order (scaled): coefficients are certified
exactly for all exponents strictly below order/D and no key >= order is kept.
All arithmetic propagates the worst-case order; nothing is silently extended.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple, Union

from .cyc8 import Cyc8, ONE
from .errors import (DivergentProduct, LatticeMismatch,
                     NonInvertibleLeadingTerm)

Rat = Union[int, Fraction]

DEFAULT_LATTICE = 24


def _scale(exp: Rat, D: int) -> int:
    e = Fraction(exp) * D
    if e.denominator != 1:
        raise LatticeMismatch(f"exponent {Fraction(exp)} not on the 1/{D} lattice")
    return e.numerator


class Monomial:
    """c * q^a * zeta^b with exact coefficient and exponents."""

    __slots__ = ("coeff", "q_exp", "z_exp")

    def __init__(self, coeff=1, q_exp: Rat = 0, z_exp: Rat = 0):
        self.coeff = coeff if isinstance(coeff, Cyc8) else Cyc8(coeff)
        self.q_exp = Fraction(q_exp)
        self.z_exp = Fraction(z_exp)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.coeff * other.coeff, self.q_exp + other.q_exp,
                        self.z_exp + other.z_exp)

    def pow(self, r: Rat) -> "Monomial":
        """Raise to an exact power; the coefficient must be a known root times
        a rational for fractional r, so we only allow integer r here."""
        r = Fraction(r)
        if r.denominator != 1:
            raise ValueError("fractional powers of general monomials are not defined")
        k = r.numerator
        base = self.coeff if k >= 0 else self.coeff.inverse()
        c = ONE
        for _ in range(abs(k)):
            c = c * base
        return Monomial(c, self.q_exp * k, self.z_exp * k)

    def __repr__(self):
        return f"Monomial({self.coeff!r}, q_exp={self.q_exp}, z_exp={self.z_exp})"


class QSeries:
    """Sparse truncated Laurent-Puiseux series in q over Q(zeta8)."""

    __slots__ = ("D", "coeff", "order")

    def __init__(self, D: int, coeff: Optional[Dict[int, Cyc8]] = None,
                 order: int = 0):
        if D <= 0:
            raise ValueError("lattice denominator must be positive")
        self.D = D
        self.order = order          # scaled: exponents k/D with k < order are certified
        self.coeff = {}
        if coeff:
            for k, c in coeff.items():
                if k < order and not c.is_zero():
                    self.coeff[k] = c

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(D: int, order_exp: Rat) -> "QSeries":
        return QSeries(D, {}, _scale(order_exp, D))

    @staticmethod
    def one(D: int, order_exp: Rat) -> "QSeries":
        return QSeries(D, {0: ONE}, _scale(order_exp, D))

    @staticmethod
    def from_terms(D: int, terms: Iterable[Tuple[Rat, Cyc8]], order_exp: Rat) -> "QSeries":
        out: Dict[int, Cyc8] = {}
        order = _scale(order_exp, D)
        for exp, c in terms:
            k = _scale(exp, D)
            if k >= order:
                continue
            c = out.get(k, Cyc8(0)) + (c if isinstance(c, Cyc8) else Cyc8(c))
            if c.is_zero():
                out.pop(k, None)
            else:
                out[k] = c
        return QSeries(D, out, order)

    @staticmethod
    def monomial(D: int, mono: Monomial, order_exp: Rat) -> "QSeries":
        if mono.z_exp != 0:
            raise LatticeMismatch("zeta-carrying monomial cannot become a QSeries")
        return QSeries.from_terms(D, [(mono.q_exp, mono.coeff)], order_exp)

    # -- inspection ------------------------------------------------------------

    def floor_key(self) -> int:
        """Least stored scaled exponent (order when the series is zero)."""
        return min(self.coeff) if self.coeff else self.order

    def order_exp(self) -> Fraction:
        return Fraction(self.order, self.D)

    def __getitem__(self, exp: Rat) -> Cyc8:
        k = _scale(exp, self.D)
        if k >= self.order:
            raise IndexError(f"coefficient of q^{Fraction(exp)} is beyond the truncation order")
        return self.coeff.get(k, Cyc8(0))

    def terms(self) -> Iterable[Tuple[Fraction, Cyc8]]:
        for k in sorted(self.coeff):
            yield Fraction(k, self.D), self.coeff[k]

    def is_zero(self) -> bool:
        return not self.coeff

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.first_mismatch(other) is None

    __hash__ = None   # mutable container semantics

    def first_mismatch(self, other: "QSeries") -> Optional[Tuple[Fraction, Cyc8, Cyc8]]:
        """Smallest exponent (below the common order) where the two differ."""
        self._check(other)
        common = min(self.order, other.order)
        keys = {k for k in self.coeff if k < common} | {k for k in other.coeff if k < common}
        for k in sorted(keys):
            a = self.coeff.get(k, Cyc8(0))
            b = other.coeff.get(k, Cyc8(0))
            if a != b:
                return Fraction(k, self.D), a, b
        return None

    # -- lattice management ------------------------------------------------------

    def _check(self, other: "QSeries"):
        if self.D != other.D:
            raise LatticeMismatch(f"lattice 1/{self.D} vs 1/{other.D}")

    def refine(self, D2: int) -> "QSeries":
        """Re-express on a finer lattice (D2 must be a multiple of D)."""
        if D2 % self.D != 0:
            raise LatticeMismatch(f"1/{D2} does not refine 1/{self.D}")
        m = D2 // self.D
        return QSeries(D2, {k * m: c for k, c in self.coeff.items()}, self.order * m)

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        order = min(self.order, other.order)
        out = {k: c for k, c in self.coeff.items() if k < order}
        for k, c in other.coeff.items():
            if k >= order:
                continue
            s = out.get(k, Cyc8(0)) + c
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return QSeries(self.D, out, order)

    def __neg__(self) -> "QSeries":
        return QSeries(self.D, {k: -c for k, c in self.coeff.items()}, self.order)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scale(self, c) -> "QSeries":
        c = c if isinstance(c, Cyc8) else Cyc8(c)
        if c.is_zero():
            return QSeries(self.D, {}, self.order)
        return QSeries(self.D, {k: c * v for k, v in self.coeff.items()}, self.order)

    def shift(self, exp: Rat) -> "QSeries":
        """Multiply by q^exp."""
        s = _scale(exp, self.D)
        return QSeries(self.D, {k + s: c for k, c in self.coeff.items()}, self.order + s)

    def mul_monomial(self, mono: Monomial) -> "QSeries":
        if mono.z_exp != 0:
            raise LatticeMismatch("zeta-carrying monomial on a QSeries")
        return self.shift(mono.q_exp).scale(mono.coeff)

    def __mul__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        order = min(self.order + other.floor_key(), other.order + self.floor_key())
        return sum_of_products(self.D, [(self, other)], order)

    def truncate(self, order_exp: Rat) -> "QSeries":
        order = min(self.order, _scale(order_exp, self.D))
        return QSeries(self.D, {k: c for k, c in self.coeff.items() if k < order}, order)

    def invert(self) -> "QSeries":
        """Laurent inversion.

        Writing A = q^(f/D) * U with U a unit power series known to order
        (order - f), the result q^(-f/D) * U^(-1) is certified to order
        (order - 2f).
        """
        if not self.coeff:
            raise NonInvertibleLeadingTerm("cannot invert the zero series")
        f = self.floor_key()
        n = self.order - f       # available length of the unit part
        u = {k - f: c for k, c in self.coeff.items()}
        lead = u[0]
        lead_inv = lead.inverse()
        inv: Dict[int, Cyc8] = {0: lead_inv}
        support = sorted(k for k in u if k > 0)
        for k in range(1, n):
            acc = None
            for j in support:
                if j > k:
                    break
                c = inv.get(k - j)
                if c is None:
                    continue
                t = u[j] * c
                acc = t if acc is None else acc + t
            if acc is not None and not acc.is_zero():
                inv[k] = -lead_inv * acc
        return QSeries(self.D, {k - f: c for k, c in inv.items()}, n - f)

    def pow(self, k: int) -> "QSeries":
        if k < 0:
            return self.invert().pow(-k)
        if k == 0:
            return QSeries.one(self.D, self.order_exp())
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    # -- numerics / serialization ----------------------------------------------------

    def eval_mpc(self, mp, q):
        """Sum the stored terms at a numeric q (mpmath complex)."""
        out = mp.mpc(0)
        for k in sorted(self.coeff):
            out += self.coeff[k].to_mpc(mp) * mp.power(q, mp.mpf(k) / self.D)
        return out

    def to_pairs(self):
        """JSON form: ascending [exponent "k/D", coefficient] pairs."""
        return [[str(Fraction(k, self.D)), str(self.coeff[k])] for k in sorted(self.coeff)]

    def __repr__(self):
        ts = [f"({c})q^{e}" for e, c in list(self.terms())[:6]]
        more = " + ..." if len(self.coeff) > 6 else ""
        return f"QSeries[D={self.D}, O(q^{self.order_exp()})]: " + " + ".join(ts) + more


def sum_of_products(D: int, pairs: Iterable[Tuple[QSeries, QSeries]],
                    order: int) -> QSeries:
    """sum of a * b over the pairs, accumulated in one dictionary and kept
    below the scaled order (which the caller certifies)."""
    out: Dict[int, Cyc8] = {}
    for a, b in pairs:
        for ka, ca in a.coeff.items():
            for kb, cb in b.coeff.items():
                k = ka + kb
                if k >= order:
                    continue
                s = out.get(k)
                p = ca * cb
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
    return QSeries(D, out, order)


def geometric(D: int, exp: Rat, order_exp: Rat, ratio_coeff=1) -> QSeries:
    """1/(1 - c*q^exp) = sum_k c^k q^(k*exp), requires exp > 0."""
    from .errors import NonExpandableDenominator

    e = Fraction(exp)
    if e <= 0:
        raise NonExpandableDenominator("denominator exponent must be positive")
    out = []
    c = ONE
    ratio = ratio_coeff if isinstance(ratio_coeff, Cyc8) else Cyc8(ratio_coeff)
    k = 0
    while k * e < Fraction(order_exp):
        out.append((k * e, c))
        c = c * ratio
        k += 1
    return QSeries.from_terms(D, out, order_exp)


def pochhammer_exponents(q_exp: Rat, n: Optional[int], order_exp: Rat,
                         step: Rat = 1) -> Iterable[Fraction]:
    """The factor exponents q_exp + j*step (j = 0 .. n-1) of (a; q^step)_n.

    n=None means the infinite product; its factors that are 1 mod q^order are
    dropped, which requires step > 0 (otherwise the product diverges).
    """
    step = Fraction(step)
    order = Fraction(order_exp)
    if n is None and step <= 0:
        raise DivergentProduct("infinite q-Pochhammer with non-increasing exponents")
    j = 0
    while n is None or j < n:
        e = q_exp + j * step
        if n is None and e >= order:
            return
        yield e
        j += 1


def qpochhammer(D: int, base: Monomial, n: Optional[int], order_exp: Rat,
                step: Rat = 1) -> QSeries:
    """(a; q^step)_n = prod_{j=0}^{n-1} (1 - a*q^(j*step)) truncated at order."""
    if base.z_exp != 0:
        raise LatticeMismatch("use jseries.jpochhammer for zeta-carrying bases")
    result = QSeries.one(D, order_exp)
    for e in pochhammer_exponents(base.q_exp, n, order_exp, step):
        result = result * QSeries.from_terms(D, [(0, ONE), (e, -base.coeff)], order_exp)
    return result

"""Exact arithmetic in the 8th cyclotomic field Q(zeta8).

Elements are stored as c0 + c1*z + c2*z^2 + c3*z^3 with z = zeta8 = e^(pi*i/4)
and z^4 = -1, coefficients exact rationals.  z^2 plays the role of i, so the
field contains every root of unity of order dividing 8.  This is the
coefficient ring of all formal series in the package.

Each component is a Python int whenever it is integral and a Fraction only
when it is not (an inverse of a non-unit, a 1/4 prefactor); an integral
Fraction is always stored as its int.  Almost every coefficient the series
code builds lies in Z[zeta8], so its arithmetic is plain int arithmetic, and
equality, hashing and text form do not depend on how a value was produced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

Rat = Union[int, Fraction]


def _canonical(x) -> Rat:
    """x as an exact rational: an int when integral, else a Fraction.  A
    float is refused (TypeError): it holds a binary approximation, not the
    value it was written as."""
    if isinstance(x, float):
        raise TypeError("an exact value takes no float")
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def mul4(a, b) -> Tuple[Rat, Rat, Rat, Rat]:
    """Components of the product of two component 4-tuples: the
    convolution reduced by zeta^4 = -1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
            a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
            a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0)


class Cyc8:
    """c0 + c1*zeta8 + c2*zeta8^2 + c3*zeta8^3, with zeta8^4 = -1."""

    __slots__ = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: Rat = 0, c1: Rat = 0, c2: Rat = 0, c3: Rat = 0):
        self.c0 = c0 if type(c0) is int else _canonical(c0)
        self.c1 = c1 if type(c1) is int else _canonical(c1)
        self.c2 = c2 if type(c2) is int else _canonical(c2)
        self.c3 = c3 if type(c3) is int else _canonical(c3)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zeta_pow(k: int) -> "Cyc8":
        """zeta8^k for any integer k."""
        k %= 8
        sign = 1
        if k >= 4:
            k -= 4
            sign = -1
        c = [0, 0, 0, 0]
        c[k] = sign
        return Cyc8(*c)

    @staticmethod
    def i() -> "Cyc8":
        return Cyc8(0, 0, 1, 0)

    @staticmethod
    def from_root_of_unity(t: Rat) -> "Cyc8":
        """e^(2*pi*i*t) for a rational t with denominator dividing 8.

        Raises RootOfUnityOutsideCyc8 otherwise.
        """
        from .errors import RootOfUnityOutsideCyc8

        t = Fraction(t)
        if 8 % t.denominator != 0:
            raise RootOfUnityOutsideCyc8(f"e^(2*pi*i*{t}) is not in Q(zeta8)")
        return Cyc8.zeta_pow(int(t * 8))

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.c0 or self.c1 or self.c2 or self.c3)

    def is_rational(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    def components(self) -> Tuple[Rat, Rat, Rat, Rat]:
        return self.c0, self.c1, self.c2, self.c3

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Cyc8") -> "Cyc8":
        other = _coerce(other)
        return Cyc8(self.c0 + other.c0, self.c1 + other.c1,
                    self.c2 + other.c2, self.c3 + other.c3)

    __radd__ = __add__

    def __neg__(self) -> "Cyc8":
        return Cyc8(-self.c0, -self.c1, -self.c2, -self.c3)

    def __sub__(self, other: "Cyc8") -> "Cyc8":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Cyc8":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Cyc8":
        other = _coerce(other)
        # rational fast path: the bulk of series arithmetic stays rational
        if self.is_rational():
            a = self.c0
            return Cyc8(a * other.c0, a * other.c1, a * other.c2, a * other.c3)
        if other.is_rational():
            b = other.c0
            return Cyc8(self.c0 * b, self.c1 * b, self.c2 * b, self.c3 * b)
        return Cyc8(*mul4(self.components(), other.components()))

    __rmul__ = __mul__

    def galois(self, k: int) -> "Cyc8":
        """Galois conjugate zeta8 -> zeta8^k, k odd."""
        if k % 2 == 0:
            raise ValueError("Galois conjugation needs odd exponent")
        out = Cyc8(self.c0)
        for j, c in ((1, self.c1), (2, self.c2), (3, self.c3)):
            if c:
                out = out + c * Cyc8.zeta_pow(j * k)
        return out

    def inverse(self) -> "Cyc8":
        """Multiplicative inverse; every nonzero element is a unit."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta8)")
        if self.is_rational():
            return Cyc8(Fraction(1) / self.c0)
        conj = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * conj
        assert norm.is_rational() and norm.c0 != 0
        return (Fraction(1) / norm.c0) * conj

    def __truediv__(self, other) -> "Cyc8":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other) -> "Cyc8":
        return _coerce(other) * self.inverse()

    # -- comparisons / hashing --------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyc8(other)
        if not isinstance(other, Cyc8):
            return NotImplemented
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    # -- conversions ---------------------------------------------------------------

    def to_mpc(self, mp):
        """Embed into mpmath complex numbers at the current working precision."""
        s = mp.sqrt(mp.mpf(2)) / 2
        z1 = mp.mpc(s, s)            # zeta8
        z2 = mp.mpc(0, 1)            # zeta8^2
        z3 = mp.mpc(-s, s)           # zeta8^3
        out = mp.mpc(self.c0.numerator) / self.c0.denominator
        for coeff, root in ((self.c1, z1), (self.c2, z2), (self.c3, z3)):
            if coeff:
                out += (mp.mpc(coeff.numerator) / coeff.denominator) * root
        return out

    def __str__(self) -> str:
        parts = []
        for coeff, sym in ((self.c0, ""), (self.c1, "*z8"), (self.c2, "*z8^2"), (self.c3, "*z8^3")):
            if coeff:
                parts.append(f"{coeff}{sym}")
        if not parts:
            return "0"
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Cyc8({self.c0}, {self.c1}, {self.c2}, {self.c3})"

    @staticmethod
    def parse(text: str) -> "Cyc8":
        """Parse the canonical text form "p/q + p/q*z8 + p/q*z8^2 + p/q*z8^3"."""
        text = text.replace(" ", "").replace("-", "+-")
        coeffs = [Fraction(0)] * 4
        for term in text.split("+"):
            if not term:
                continue
            if "*z8" in term:
                num, _, tail = term.partition("*z8")
                k = 1 if not tail else int(tail.lstrip("^"))
            else:
                num, k = term, 0
            if num in ("", "-"):
                num += "1"
            coeffs[k] += Fraction(num)
        return Cyc8(*coeffs)


def _coerce(x) -> Cyc8:
    if isinstance(x, Cyc8):
        return x
    if isinstance(x, (int, Fraction)):
        return _SMALL.get(x) or Cyc8(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into Cyc8")


# shared constants, _coerce's small ints among them: no Cyc8 is written after __init__
_SMALL = {k: Cyc8(k) for k in range(-8, 9)}
ONE = _SMALL[1]
I = Cyc8.i()

"""Congruence groups, multiplier systems, weight-k transformation residuals,
and the differential operators (lowering, xi, hyperbolic Laplacian) as
finite-difference checkers.

The operators share one stencil (_stencil: a failure at any point raises
StencilThroughSingularity) and one Richardson step (_richardson); d/d(tau-bar),
which lowering and xi are built on, takes 8 evaluations of f, the Laplacian 10.

The eta-multiplier psi is implemented from its explicit two-case formula
(Jacobi/Kronecker symbols extended to negative arguments in Shimura's
convention) and validated numerically against eta in the test suite.  The
half-integer automorphy factor uses the principal branch of (c tau + d)^(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from mpmath import mp

from .errors import DomainViolation, NotUnimodular, StencilThroughSingularity

F = Fraction


# ---------------------------------------------------------------------------
# group elements and membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise NotUnimodular(f"det = {self.a * self.d - self.b * self.c}")

    @staticmethod
    def parse(text: str) -> "GroupElement":
        a, b, c, d = (int(x) for x in text.split(","))
        return GroupElement(a, b, c, d)

    def __str__(self):
        return f"{self.a},{self.b},{self.c},{self.d}"

    def act(self, tau):
        tau = mp.mpc(tau)
        return (self.a * tau + self.b) / (self.c * tau + self.d)

    def jfactor(self, tau):
        return self.c * mp.mpc(tau) + self.d

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(self.a * other.a + self.b * other.c,
                            self.a * other.b + self.b * other.d,
                            self.c * other.a + self.d * other.c,
                            self.c * other.b + self.d * other.d)


T_MAT = GroupElement(1, 1, 0, 1)
S_MAT = GroupElement(0, -1, 1, 0)


def in_gamma(M: GroupElement) -> bool:
    """The paper group: 4|c and c/4 = (d-1)/2 = b (mod 2)."""
    if M.c % 4 != 0:
        return False
    # 4|c and det 1 force d odd
    return (M.c // 4) % 2 == ((M.d - 1) // 2) % 2 == M.b % 2


def group_membership(M: GroupElement) -> str:
    """Strictest of {"Gamma", "Gamma0_4", "SL2Z"} containing M."""
    if in_gamma(M):
        return "Gamma"
    if M.c % 4 == 0:
        return "Gamma0_4"
    return "SL2Z"


# ---------------------------------------------------------------------------
# Kronecker / Legendre symbols and epsilon_d
# ---------------------------------------------------------------------------

def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n); for odd n this is the Jacobi symbol extended to
    negative n by (a/-1) = sign-of-a, matching Shimura's convention."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -sign
    # factor out twos of n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if abs(a) % 8 in (3, 5):
            sign = -sign
    a %= n
    # Jacobi symbol by reciprocity
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def epsilon_d(d: int) -> complex:
    """1 if d = 1 (mod 4), i if d = 3 (mod 4)."""
    if d % 2 == 0:
        raise DomainViolation("epsilon_d needs odd d")
    return mp.mpc(1) if d % 4 == 1 else mp.mpc(0, 1)


def shimura_multiplier(M: GroupElement, k: Fraction):
    """The half-integer-weight automorphy multiplier (c/d) epsilon_d^(-2k)."""
    k = F(k)
    if (2 * k).denominator != 1:
        raise DomainViolation("k must be a half-integer")
    e = epsilon_d(M.d)
    return kronecker(M.c, M.d) * e ** int(-2 * k % 4)


# ---------------------------------------------------------------------------
# multiplier values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierValue:
    """A root of unity e^(2 pi i turns) with exact rational 'turns'."""

    turns: Fraction
    sign: int = 1          # extra +-1 from a Legendre symbol

    def __post_init__(self):
        object.__setattr__(self, "turns", F(self.turns) % 1)

    def value(self):
        return self.sign * mp.expjpi(2 * mp.mpf(self.turns.numerator) / self.turns.denominator) \
            if self.turns else mp.mpc(self.sign)

    def __mul__(self, other: "MultiplierValue") -> "MultiplierValue":
        return MultiplierValue(self.turns + other.turns, self.sign * other.sign)

    def inverse(self) -> "MultiplierValue":
        return MultiplierValue(-self.turns, self.sign)

    def pow(self, k: int) -> "MultiplierValue":
        return MultiplierValue(self.turns * k, self.sign ** (k % 2) if self.sign < 0 else 1)


def psi_multiplier(M: GroupElement) -> MultiplierValue:
    """The eta multiplier: eta(M tau) = psi(M) (c tau + d)^(1/2) eta(tau).

    Two-case closed formula with the symbol (d/|c|) for odd c and Shimura's
    (c/d) for even c.
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    if c % 2 != 0:
        sym = kronecker(d, abs(c))
        exponent = F((a + d) * c - b * d * (c * c - 1) - 3 * c, 24)
    else:
        sym = kronecker(c, d)
        exponent = F(a * c * (1 - d * d) + d * (b - c + 3) - 3, 24)
    return MultiplierValue(exponent, sym)


def _conjugated_psi(M: GroupElement, m: int) -> MultiplierValue:
    """psi of [[a, m*b], [c/m, d]]; needs m | c."""
    if M.c % m != 0:
        raise DomainViolation(f"chi multiplier needs {m} | c")
    return psi_multiplier(GroupElement(M.a, m * M.b, M.c // m, M.d))


def chi_multiplier(k: int, M: GroupElement) -> MultiplierValue:
    """The four auxiliary multipliers attached to the eta-quotient blocks
    f1..f4 and to the completed weight-1/2 piece.

    chi1 is the multiplier of eta(4 tau)^3 (the cube of the conjugated eta
    multiplier); chi3 and chi4 are the multipliers of eta(4t)/eta(2t)^2 and
    eta(2t)^5/(eta(t)^2 eta(4t)^2); chi2 is the two-case eighth-root formula
    on the paper group, split by 8|c versus 4||c.
    """
    if k == 1:
        return _conjugated_psi(M, 4).pow(3)
    if k == 3:
        return _conjugated_psi(M, 4) * _conjugated_psi(M, 2).pow(2).inverse()
    if k == 4:
        return _conjugated_psi(M, 2).pow(5) * (
            psi_multiplier(M).pow(2) * _conjugated_psi(M, 4).pow(2)).inverse()
    if k == 2:
        c, d = M.c, M.d
        if c % 4 != 0:
            raise DomainViolation("chi2 needs 4 | c")
        if c % 8 == 0:
            if (d - 1) % 4 != 0:
                raise DomainViolation("chi2 with 8|c needs d = 1 (mod 4)")
            # i^(c/8) (-1)^((d-1)/4)
            return MultiplierValue(F(c // 8, 4) + F((d - 1) // 4, 2))
        # i e^(-pi i c/16)
        return MultiplierValue(F(1, 4) - F(c, 32))
    raise ValueError("k must be in {1, 2, 3, 4}")


# ---------------------------------------------------------------------------
# weight-k transformation residual
# ---------------------------------------------------------------------------

def power_principal(w, k: Fraction):
    """(w)^k with the principal square-root branch for half-integer k."""
    k = F(k)
    wk = mp.mpc(w) ** int(k) if k.denominator == 1 else None
    if wk is not None:
        return wk
    if (2 * k).denominator != 1:
        raise ValueError("weight must be a half-integer")
    m = int(k - F(1, 2))
    return mp.mpc(w) ** m * mp.sqrt(mp.mpc(w))


def weight_transform_residual(f: Callable, k: Fraction, mult: MultiplierValue,
                              M: GroupElement, tau) -> float:
    """|f(M tau) - mult (c tau + d)^k f(tau)| / max(|f(M tau)|, |f(tau)|)."""
    tau = mp.mpc(tau)
    left = f(M.act(tau))
    right = f(tau)
    rhs = mult.value() * power_principal(M.jfactor(tau), k) * right
    scale = max(abs(left), abs(right))
    if scale == 0:
        return 0.0
    return float(abs(left - rhs) / scale)


# ---------------------------------------------------------------------------
# finite-difference differential operators
# ---------------------------------------------------------------------------

# the steps are the doubles nearest 1e-4 and 1e-3, whatever the precision
# in effect when this module is first imported
FD_STEP_FIRST = mp.mpf(1e-4)
FD_STEP_SECOND = mp.mpf(1e-3)


def _stencil(f: Callable, *points):
    """[f(p) for p in points]; a pole or domain failure at any point raises
    StencilThroughSingularity."""
    try:
        return [f(p) for p in points]
    except Exception as exc:
        raise StencilThroughSingularity(str(exc)) from exc


def _richardson(d: Callable, h):
    """(4 d(h/2) - d(h)) / 3: one Richardson level on a central difference d."""
    d1 = d(h)
    return (4 * d(h / 2) - d1) / 3


def dtaubar_fd(f: Callable, tau):
    """Wirtinger d/d(tau-bar) = (d/du + i d/dv)/2 by central differences with
    one Richardson level."""
    def d(h):
        fu_p, fu_m, fv_p, fv_m = _stencil(f, tau + h, tau - h, tau + 1j * h, tau - 1j * h)
        du = (fu_p - fu_m) / (2 * h)
        dv = (fv_p - fv_m) / (2 * h)
        return (du + 1j * dv) / 2

    return _richardson(d, FD_STEP_FIRST)


def lowering_fd(f: Callable, tau):
    """L f = -2 i v^2 d/d(tau-bar) f, by central differences (one Richardson)."""
    tau = mp.mpc(tau)
    return -2j * tau.imag ** 2 * dtaubar_fd(f, tau)


def xi_fd(f: Callable, k: Fraction, tau):
    """xi_k f = 2 i v^k conj(d/d(tau-bar) f) = v^(k-2) conj(L f)."""
    tau = mp.mpc(tau)
    return 2j * power_principal(tau.imag, F(k)) * mp.conj(dtaubar_fd(f, tau))


def laplacian_fd(f: Callable, k: Fraction, tau):
    """Weight-k hyperbolic Laplacian by central second differences:
    -v^2 (f_uu + f_vv) + i k v (f_u + i f_v), one Richardson level."""
    tau = mp.mpc(tau)

    def d(h):
        fc, fu_p, fu_m, fv_p, fv_m = _stencil(f, tau, tau + h, tau - h, tau + 1j * h, tau - 1j * h)
        fuu = (fu_p - 2 * fc + fu_m) / h ** 2
        fvv = (fv_p - 2 * fc + fv_m) / h ** 2
        fu = (fu_p - fu_m) / (2 * h)
        fv = (fv_p - fv_m) / (2 * h)
        v = tau.imag
        kk = mp.mpf(F(k).numerator) / F(k).denominator
        return -v * v * (fuu + fvv) + 1j * kk * v * (fu + 1j * fv)

    return _richardson(d, FD_STEP_SECOND)

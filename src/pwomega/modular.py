"""Congruence groups, multiplier systems, weight-k transformation residuals,
and the differential operators (lowering, xi, hyperbolic Laplacian) as
finite-difference checkers.

The operators share one stencil (_stencil: a failure at any point raises
StencilThroughSingularity) and one Richardson step (_richardson); d/d(tau-bar),
which lowering and xi are built on, takes 8 evaluations of f, the Laplacian 9.

The eta-multiplier psi comes from Rademacher's formula (a Dedekind sum, summed
directly; no Kronecker symbols), and every other multiplier from psi; the test
suite checks each against eta and its eta-quotients.  The half-integer
automorphy factor uses the principal branch of (c tau + d)^(1/2).
"""

from __future__ import annotations

import math
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


# ---------------------------------------------------------------------------
# multiplier values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiplierValue:
    """A root of unity e^(2 pi i turns) with exact rational 'turns' mod 1."""

    turns: Fraction

    def __post_init__(self):
        object.__setattr__(self, "turns", F(self.turns) % 1)

    def value(self):
        return mp.expjpi(2 * mp.mpf(self.turns.numerator) / self.turns.denominator) \
            if self.turns else mp.mpc(1)

    def __mul__(self, other: "MultiplierValue") -> "MultiplierValue":
        return MultiplierValue(self.turns + other.turns)

    def inverse(self) -> "MultiplierValue":
        return MultiplierValue(-self.turns)

    def pow(self, k: int) -> "MultiplierValue":
        return MultiplierValue(self.turns * k)


def _saw(x: Fraction) -> Fraction:
    """The sawtooth ((x)) = x - floor(x) - 1/2 at a non-integer x: psi takes
    it only at k/c and dk/c with 0 < k < c and gcd(d, c) = 1."""
    return x - math.floor(x) - F(1, 2)


def psi_multiplier(M: GroupElement) -> MultiplierValue:
    """The eta multiplier: eta(M tau) = psi(M) (c tau + d)^(1/2) eta(tau).

    Rademacher's formula: for c > 0, psi = e^(2 pi i t) with
    t = (a+d)/(24c) - s(d,c)/2 - 1/8 and s the Dedekind sum; for c = 0,
    d = 1, t = b/24.  Any other M acts as -M, and the principal root of
    c tau + d differs from that of -(c tau + d) by i (c < 0) or -i (c = 0).
    """
    a, b, c, d = M.a, M.b, M.c, M.d
    if c < 0 or (c == 0 and d < 0):
        quarter = F(1, 4) if c else F(-1, 4)
        return psi_multiplier(GroupElement(-a, -b, -c, -d)) * MultiplierValue(quarter)
    if c == 0:
        return MultiplierValue(F(b, 24))
    dedekind = sum((_saw(F(k, c)) * _saw(F(d * k, c)) for k in range(1, c)), F(0))
    return MultiplierValue(F(a + d, 24 * c) - dedekind / 2 - F(1, 8))


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
    eta(2t)^5/(eta(t)^2 eta(4t)^2).  chi2 = chi1^(-1): xi_(1/2) maps f2 to a
    nonzero multiple of eta(4 tau)^3 (the f2-shadow identity) and conjugates
    the multiplier, so chi2 is defined wherever chi1 is (4 | c).
    """
    if k == 1:
        return _conjugated_psi(M, 4).pow(3)
    if k == 2:
        return chi_multiplier(1, M).inverse()
    if k == 3:
        return _conjugated_psi(M, 4) * _conjugated_psi(M, 2).pow(2).inverse()
    if k == 4:
        return _conjugated_psi(M, 2).pow(5) * (
            psi_multiplier(M).pow(2) * _conjugated_psi(M, 4).pow(2)).inverse()
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
    -v^2 (f_uu + f_vv) + i k v (f_u + i f_v), one Richardson level; f(tau)
    is taken once for both levels."""
    tau = mp.mpc(tau)
    fc, = _stencil(f, tau)

    def d(h):
        fu_p, fu_m, fv_p, fv_m = _stencil(f, tau + h, tau - h, tau + 1j * h, tau - 1j * h)
        fuu = (fu_p - 2 * fc + fu_m) / h ** 2
        fvv = (fv_p - 2 * fc + fv_m) / h ** 2
        fu = (fu_p - fu_m) / (2 * h)
        fv = (fv_p - fv_m) / (2 * h)
        v = tau.imag
        kk = mp.mpf(F(k).numerator) / F(k).denominator
        return -v * v * (fuu + fvv) + 1j * kk * v * (fu + 1j * fv)

    return _richardson(d, FD_STEP_SECOND)

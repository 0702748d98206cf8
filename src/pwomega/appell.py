"""Zwegers' mu-function machinery: mu-hat at a given precision, the
modular-law residuals of mu-hat and theta, the holomorphic/non-holomorphic
split of R at the quarter points, and the closed-form tau-bar derivatives of R.

Every function but mu_hat_numeric computes at the working precision in
effect, which the caller sets with kernels.workprec; every bilateral sum
truncates its Gaussian tail below the working epsilon.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from mpmath import mp

from . import kernels
from .cyc8 import Cyc8
from .errors import PrecisionUnreachable
from .kernels import workprec
from .modular import GroupElement, psi_multiplier
from .qseries import Monomial

F = Fraction


# ---------------------------------------------------------------------------
# mu-hat and the modular-law residuals
# ---------------------------------------------------------------------------

def mu_hat_numeric(z1, z2, tau, P: int):
    """mu-hat(z1, z2; tau) under kernels.workprec(P)."""
    # sets its own precision: the benchmark's warm-up calls it with this signature
    with workprec(P):
        return kernels.muhat(z1, z2, tau)


def mu_hat_transform_check(M: GroupElement, z1, z2, tau) -> float:
    """Residual of the weight-1/2 modular law for the completed mu."""
    z1, z2, tau = mp.mpc(z1), mp.mpc(z2), mp.mpc(tau)
    j = M.jfactor(tau)
    left = kernels.muhat(z1 / j, z2 / j, M.act(tau))
    right = (psi_multiplier(M).pow(-3).value() * mp.sqrt(j)
             * mp.expjpi(-M.c * (z1 - z2) ** 2 / j) * kernels.muhat(z1, z2, tau))
    return float(abs(left - right) / max(abs(left), abs(right)))


def theta_transform_check(M: GroupElement, z, tau) -> float:
    """Residual of theta's weight-1/2 law with multiplier psi^3."""
    z, tau = mp.mpc(z), mp.mpc(tau)
    j = M.jfactor(tau)
    left = kernels.theta(z / j, M.act(tau))
    right = (psi_multiplier(M).pow(3).value() * mp.sqrt(j)
             * mp.expjpi(M.c * z * z / j) * kernels.theta(z, tau))
    scale = max(abs(left), abs(right), mp.mpf(1))
    return float(abs(left - right) / scale)


# ---------------------------------------------------------------------------
# closed-form tau-bar derivatives of R at torsion points
# ---------------------------------------------------------------------------

def _conj_theta(a, b, tau):
    """a, v = Im tau, e^(-2 pi a^2 v), and theta, d/dz theta at modulus
    -tau-bar and z = -(a tau-bar + b), from one pass (TauPlan.theta_taylor).
    With n over 1/2 + Z and x_n = e^(-pi i n^2 tau-bar - 2 pi i n (a tau-bar + b)),

        sum (-1)^(n-1/2) x_n = -i theta,   sum (-1)^(n-1/2) n x_n = -theta'/(2 pi).
    """
    a, b = F(a), F(b)
    aa = mp.mpf(a.numerator) / a.denominator
    tb = mp.conj(mp.mpc(tau))
    plan = kernels.TauPlan(-tb)
    z = -(aa * tb + mp.mpf(b.numerator) / b.denominator)
    v = -tb.imag
    return aa, v, mp.exp(-2 * mp.pi * aa * aa * v), *plan.theta_taylor(z, 1)


def dtaubar_R_numeric(a, b, tau):
    """d/d(tau-bar) of tau -> R(a tau + b; tau):

        (i/sqrt(2v)) e^(-2 pi a^2 v) sum_{n in 1/2+Z} (-1)^(n+1/2) (n+a) x_n
        = (i/sqrt(2v)) e^(-2 pi a^2 v) (theta'/(2 pi) + i a theta)

    in the notation of _conj_theta."""
    aa, v, gauss, th, dth = _conj_theta(a, b, tau)
    return 1j / mp.sqrt(2 * v) * gauss * (dth / (2 * mp.pi) + 1j * aa * th)


def dz_dtaubar_R_numeric(a, b, tau):
    """d/d(tau-bar) of tau -> [d/dz R(z)]_{z = a tau + b}:

        e^(-2 pi a^2 v)/(2 sqrt(2v)) sum (-1)^(n-1/2) (1/v + 4 pi a (a+n)) x_n
        = e^(-2 pi a^2 v)/(2 sqrt(2v)) (-i (1/v + 4 pi a^2) theta - 2 a theta')

    in the notation of _conj_theta."""
    aa, v, gauss, th, dth = _conj_theta(a, b, tau)
    return (gauss / (2 * mp.sqrt(2 * v))
            * (-1j * (1 / v + 4 * mp.pi * aa * aa) * th - 2 * aa * dth))


# ---------------------------------------------------------------------------
# holomorphic / purely non-holomorphic split of R(tau/2 + 1/4)
# ---------------------------------------------------------------------------

def R_quarter_split(tau) -> Tuple[Monomial, "mp.mpc"]:
    """R(tau/2 + 1/4) = e^(pi i/4) q^(1/8) + N1(tau) with N1 purely
    non-holomorphic:

        N1 = e^(-pi i/4) q^(1/8) sum_{n in Z} (-1)^n
             (sgn(2n+1) - E((2n+1) sqrt(2v))) q^(-(2n+1)^2 / 2).

    Returns the holomorphic monomial (exact) and the numeric N1 value.
    """
    holo = Monomial(Cyc8.zeta_pow(1), F(1, 8))
    tau = mp.mpc(tau)
    v = tau.imag
    if v <= 0:
        raise PrecisionUnreachable("R_quarter_split needs Im(tau) > 0")
    root = mp.sqrt((mp.prec + 16) * mp.ln(2) / (2 * mp.pi * v))
    kernels._check_terms(v, 2 * root + 7)      # the 2 nmax + 1 terms, in mpf
    nmax, s2v = int(root) + 3, mp.sqrt(2 * v)
    acc = mp.mpc(0)
    for n in range(-nmax, nmax + 1):
        m = 2 * n + 1
        sgn = 1 if m > 0 else -1
        acc += ((-1) ** n * kernels.sgn_minus_E(sgn, m * s2v)
                * kernels.qpow(tau, -mp.mpf(m * m) / 2))
    n1 = mp.expjpi(-mp.mpf(1) / 4) * kernels.qpow(tau, mp.mpf(1) / 8) * acc
    return holo, n1


def R_holo_split_residual(tau) -> Tuple[float, float]:
    """Consistency of the split: residuals of
    R(tau/2+1/4) = holo + N1   and   R(tau/2+3/4) = -i N1 + e^(3 pi i/4) q^(1/8)."""
    tau = mp.mpc(tau)
    holo, n1 = R_quarter_split(tau)
    hval = holo.coeff.to_mpc(mp) * kernels.qpow(tau, mp.mpf(1) / 8)
    r1 = abs(kernels.R(tau / 2 + mp.mpf(1) / 4, tau) - (hval + n1))
    r2 = abs(kernels.R(tau / 2 + mp.mpf(3) / 4, tau)
             - (-1j * n1 + mp.expjpi(mp.mpf(3) / 4) * kernels.qpow(tau, mp.mpf(1) / 8)))
    return float(r1), float(r2)

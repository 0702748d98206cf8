"""Arbitrary-precision numeric kernels: eta, theta, the error-integral factor,
Zwegers' R-function with its z-derivatives, and the Appell-Lerch mu-function.

Conventions:
  * q^x means e^(2 pi i tau x); zeta = e^(2 pi i z); tau = u + i v with v > 0.
  * every function computes at the CURRENT mpmath working precision and
    truncates tails below 2^-(prec+TAIL_GUARD) relative to the largest term,
    so callers get full working accuracy; public wrappers add GUARD bits.
  * R and its z-derivatives treat z as a real-analytic variable: the
    derivative is the Wirtinger d/dz, with the E-factor's dependence on
    y = Im z entering through dy/dz = 1/(2i).
  * theta and mu are evaluated through a per-tau plan (TauPlan, MuPlan):
    the factors of each term that depend on tau alone (theta's
    e^(pi i n^2 tau + pi i n), the powers q^n, and mu's numerators for a
    fixed second argument) are built once per tau by multiplicative ratio
    recurrence, and a point costs two exponentials plus, per term, one
    multiply-add (theta, by Horner's rule) or one multiply, divide and pole
    check (mu).  theta(z, tau) and mu(z1, z2, tau) are one-point uses of a
    plan, so each bilateral sum has one implementation.
  * rounding: the k-th recurrence factor carries a relative error of about
    k^2/2 ulps; weighted by the Gaussian decay e^(-pi v k^2) of the terms
    this is at most about 1/(2 pi e v) ulps of the largest term (6 ulps at
    v = 0.0104).  The composite layer's primitive allowance, 2^16 ulps of
    the working precision (completion._prim_err), covers it, and the tests
    check the composite budgets against precision doubling at v = 0.0104.
"""

from __future__ import annotations

from mpmath import mp

from .errors import PoleProximity, PrecisionUnreachable

GUARD = 56          # extra working bits used by public wrappers
TAIL_GUARD = 10     # tail cut at 2^-(prec+TAIL_GUARD) * max_term


def workprec(P: int):
    return mp.workprec(P + GUARD)


def _eps():
    return mp.mpf(2) ** (-(mp.prec + TAIL_GUARD))


def qpow(tau, e):
    """e^(2 pi i tau e)."""
    return mp.expjpi(2 * mp.mpc(tau) * e)


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def eta(tau):
    """Dedekind eta via the pentagonal-number expansion."""
    tau = mp.mpc(tau)
    v = tau.imag
    if v <= 0:
        raise PrecisionUnreachable("eta needs Im(tau) > 0")
    eps = _eps()
    # |q|^(k(3k-1)/2) < eps  once  pi*v*k^2 > prec*ln2 roughly
    kmax = int(mp.sqrt((mp.prec + TAIL_GUARD + 8) * mp.ln(2) / (3 * mp.pi * v))) + 3
    acc = mp.mpc(1)
    for k in range(1, kmax + 1):
        acc += (-1) ** k * (qpow(tau, k * (3 * k - 1) // 2) + qpow(tau, k * (3 * k + 1) // 2))
    return qpow(tau, mp.mpf(1) / 24) * acc


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def _halfint_window(v, y):
    """Index window (over n = k + 1/2) outside which
    exp(-pi v n^2 - 2 pi n y) is below the tail cut, widened by 4 indices
    on each side."""
    L = (mp.prec + TAIL_GUARD + 8) * mp.ln(2)
    root = mp.sqrt(y * y + v * L / mp.pi)
    lo = int(mp.floor((-y - root) / v)) - 4
    hi = int(mp.ceil((-y + root) / v)) + 4
    return lo, hi


class TauPlan:
    """The factors of the theta and mu sums that depend on tau alone, built
    once per tau and shared by every point evaluated through the plan.

    theta's coefficients a_k = e^(pi i n^2 tau + pi i n), n = k + 1/2, start
    from a_0 = i q^(1/8) and follow the ratio a_(k+1)/a_k = -q^(k+1); the
    reflection n -> -n gives a_(-1-k) = -a_k.  The powers q^m and q^-m come
    from repeated multiplication.  Tables grow on demand, so each point is
    summed over exactly its own tail-cut window.

    A plan computes at the working precision in effect when it is built and
    must be used at that precision; it lives no longer than the evaluation
    that builds it.
    """

    def __init__(self, tau):
        tau = mp.mpc(tau)
        if tau.imag <= 0:
            raise PrecisionUnreachable("theta needs Im(tau) > 0")
        self.v = tau.imag
        self._qpos = [mp.mpc(1), mp.expjpi(2 * tau)]     # q^m, m >= 0
        self._qneg = [mp.mpc(1), mp.expjpi(-2 * tau)]    # q^-m, m >= 0
        a0 = 1j * mp.expjpi(tau / 4)
        self._apos = [a0]                                # a_k, k >= 0
        self._aneg = [-a0]                               # a_(-1-k), k >= 0

    def qpow(self, m: int):
        """q^m for integer m."""
        table = self._qpos if m >= 0 else self._qneg
        m = abs(m)
        while len(table) <= m:
            table.append(table[-1] * table[1])
        return table[m]

    def _theta_coeffs(self, lo, hi):
        """a_k for k = hi, hi-1, ..., lo."""
        apos, aneg = self._apos, self._aneg
        while len(apos) <= max(hi, -1 - lo):
            apos.append(-apos[-1] * self.qpow(len(apos)))
            aneg.append(-apos[-1])
        desc = apos[max(lo, 0):hi + 1][::-1] if hi >= 0 else []
        if lo < 0:
            desc += aneg[max(0, -1 - hi):-lo]
        return desc

    def _halfint_sum(self, z, weighted):
        """sum over k in z's window of a_k e^(2 pi i n z), times n if
        weighted, by Horner's rule in x = e^(2 pi i z)."""
        z = mp.mpc(z)
        lo, hi = _halfint_window(self.v, z.imag)
        x = mp.expjpi(2 * z)
        acc = mp.mpc(0)
        for k, a in zip(range(hi, lo - 1, -1), self._theta_coeffs(lo, hi)):
            acc = acc * x + (a * (k + mp.mpf(1) / 2) if weighted else a)
        return acc * mp.expjpi((2 * lo + 1) * z)

    def theta(self, z):
        """Jacobi theta: sum over n in 1/2+Z of e^(pi i n^2 tau + 2 pi i n (z+1/2))."""
        return self._halfint_sum(z, False)

    def theta_dz(self, z):
        """d/dz of theta (holomorphic derivative)."""
        return 2j * mp.pi * self._halfint_sum(z, True)

    def mu(self, w) -> "MuPlan":
        """The plan of z -> mu(z, w; tau) for this tau and a fixed w."""
        return MuPlan(self, w)


class MuPlan:
    """mu(., w; tau) for a fixed second argument w: theta(w) and the
    numerators c_n = (-1)^n e^(2 pi i n w) q^(n(n+1)/2) are computed once,
    c_(n+1) = -e^(2 pi i w) q^(n+1) c_n for n >= 0 and
    c_(n-1) = -e^(-2 pi i w) q^(-n) c_n for n <= 0."""

    def __init__(self, plan: TauPlan, w):
        self.plan = plan
        self.w = mp.mpc(w)
        self.theta_w = plan.theta(self.w)
        self._ratio = (-mp.expjpi(2 * self.w), -mp.expjpi(-2 * self.w))
        self._cpos = [mp.mpc(1)]    # c_n, n >= 0
        self._cneg = [mp.mpc(1)]    # c_-n, n >= 0

    def _numerators(self, A):
        """c_n for n = -A .. A."""
        cpos, cneg = self._cpos, self._cneg
        up, down = self._ratio
        while len(cpos) <= A:
            cpos.append(cpos[-1] * up * self.plan.qpow(len(cpos)))
        while len(cneg) <= A:
            cneg.append(cneg[-1] * down * self.plan.qpow(len(cneg) - 1))
        return cneg[A:0:-1] + cpos[:A + 1]

    def __call__(self, z1):
        """mu(z1, w; tau) by its defining bilateral sum."""
        z1 = mp.mpc(z1)
        plan = self.plan
        v = plan.v
        L = (mp.prec + TAIL_GUARD + 8) * mp.ln(2)
        A = int(mp.sqrt(L / (mp.pi * v))) + int((abs(z1.imag) + abs(self.w.imag)) / v) + 6
        pole_cut = mp.mpf(2) ** (-(mp.prec - GUARD // 2) / 2)
        z1_fac = mp.expjpi(2 * z1)
        acc = mp.mpc(0)
        for n, c in zip(range(-A, A + 1), self._numerators(A)):
            t = z1_fac * plan.qpow(n)
            den = 1 - t
            if abs(den) < pole_cut * max(1, abs(t)):
                raise PoleProximity(f"mu denominator at n={n} has modulus {abs(den)}")
            acc += c / den
        return mp.expjpi(z1) / self.theta_w * acc


def theta(z, tau):
    """Jacobi theta: sum over n in 1/2+Z of e^(pi i n^2 tau + 2 pi i n (z+1/2))."""
    return TauPlan(tau).theta(z)


def theta_dz(z, tau):
    """d/dz of theta (holomorphic derivative)."""
    return TauPlan(tau).theta_dz(z)


# ---------------------------------------------------------------------------
# the error-integral factor
# ---------------------------------------------------------------------------

def E_func(w):
    """E(w) = 2 int_0^w e^(-pi t^2) dt = erf(sqrt(pi) w), real w."""
    return mp.erf(mp.sqrt(mp.pi) * w)


def sgn_minus_E(sign_n: int, w):
    """sgn(n) - E(w), via erfc when the signs agree (cancellation-free)."""
    if w == 0:
        return mp.mpf(sign_n)
    if (w > 0) == (sign_n > 0):
        return sign_n * mp.erfc(mp.sqrt(mp.pi) * abs(w))
    return sign_n - E_func(w)


# ---------------------------------------------------------------------------
# R and its z-derivatives
# ---------------------------------------------------------------------------

def _R_terms(z, tau, d_order, formal=False):
    """Common core for R (d_order 0) and its first z-derivative (d_order 1).

    formal=False differentiates in the Wirtinger sense (the E-factor's
    dependence on y = Im z enters with dy/dz = 1/(2i)); formal=True applies
    the power rule to the zeta-powers only, treating the E-factors as
    constants (the derivative along the real z-direction).
    """
    z, tau = mp.mpc(z), mp.mpc(tau)
    v, y = tau.imag, z.imag
    if v <= 0:
        raise PrecisionUnreachable("R needs Im(tau) > 0")
    s2v = mp.sqrt(2 * v)
    lo, hi = _halfint_window(v, -y)   # zeta^{-n}: the hump sits at +y/v
    acc = mp.mpc(0)
    inv2i = 0 if formal else 1 / (2j)
    for k in range(lo, hi + 1):
        n = k + mp.mpf(1) / 2
        sign_n = 1 if n > 0 else -1
        w = (n + y / v) * s2v
        c0 = sgn_minus_E(sign_n, w)
        phase = (-1) ** k * mp.expjpi(-n * n * tau - 2 * n * z)
        if d_order == 0:
            acc += c0 * phase
            continue
        dw = mp.sqrt(2 / v)                      # dw/dy
        c1 = -2 * mp.exp(-mp.pi * w * w) * dw    # d/dy of (sgn - E)
        acc += (-2j * mp.pi * n * c0 + inv2i * c1) * phase
    return acc


def R(z, tau):
    """Zwegers' non-holomorphic R-function."""
    return _R_terms(z, tau, 0)


def R_dz(z, tau, formal=False):
    """d/dz of R: Wirtinger by default, power-rule-only with formal=True."""
    return _R_terms(z, tau, 1, formal)


# ---------------------------------------------------------------------------
# mu and its completion
# ---------------------------------------------------------------------------

def mu(z1, z2, tau):
    """Appell-Lerch mu(z1, z2; tau) by its defining bilateral sum."""
    return TauPlan(tau).mu(z2)(z1)


def muhat(z1, z2, tau):
    """Completed mu: mu + (i/2) R(z1 - z2)."""
    return mu(z1, z2, tau) + 0.5j * R(z1 - z2, tau)

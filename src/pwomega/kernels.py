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
  * theta and mu are evaluated through a per-tau plan (TauPlan, MuPlan)
    whose inner loops run on Gaussian integers, the way mpmath's own series
    loops (libelefun) do: a complex x is held as the integer pair
    (floor(2^W Re x), floor(2^W Im x)) with W = prec + FIXED_GUARD, and a
    product is four integer multiplies and a shift right by W.  The tau-only
    tables (q^m, theta's Gaussian weights q^(j(j-1)/2), mu's numerators) are
    built once per plan by ratio recurrence in fixed point; the few
    exponentials a point needs are taken at W bits; each sum is converted
    to an mpc once.  theta(z, tau) and mu(z1, z2, tau) are one-point uses of
    a plan, so each bilateral sum has one implementation.
  * cost per node: theta, two exponentials and one division at W bits, then
    one fixed-point complex multiply-add per term; a mu bundle (every second
    argument w used at that node), one exponential and one division at W
    bits, then per term one fixed-point denominator, one integer reciprocal
    and one squared-modulus pole check shared by the bundle, plus one
    complex multiply-add per w.
  * boundedness: theta is anchored at its largest term k* = floor(-Im z/v)
    and summed outward on each side by Horner's rule in a ratio of modulus
    at most 1 (one pass over the whole window would close with the factor
    e^(pi i (2 lo + 1) z), which at Im z = v/2, v = 1.36 scales the
    accumulated rounding by about 1e20).  mu's terms with n = -k < 0 are
    rewritten as zeta^-1 (-c_-k q^k)/(1 - zeta^-1 q^k), so every numerator
    and every t q^m in a denominator has modulus at most about 1 for the
    points the contour passes use (|Im z|, |Im w| <= 1.1 v).  Farther out,
    mu's terms shrink with 1/max(|zeta|, |zeta^-1 q|) while the rounding of
    a reciprocal does not, so the bound below grows by about 9 bits per
    unit of Im z outside [0, v] (2^11 ulps of the working precision at
    Im z = -2, v = 0.5).
  * rounding, in units of 2^-W: converting an exponential taken at W bits
    costs at most 3, a fixed-point product at most 2, and the recurrences
    put at most about 5m + 5/(pi v) on a table entry of index m.  A side of
    N terms therefore accumulates at most about N (2N + 5/(pi v) + 20)
    units relative to its largest term (for mu: after dividing each term by
    its denominator, the conditioning every evaluation of the sum shares).
    At v = 0.0104 and prec = 248 a side has N <= 83 terms, which gives at
    most 2^16 units per window, i.e. 2^-(prec+8) relative: below one unit
    of the working precision and 2^24 times inside the composite layer's
    primitive allowance of 2^16 ulps (completion._prim_err).  Against
    per-term sums at 100 more bits, at nodes around 0 and tau and at the
    four w's of the F-hat pass, theta, theta' and mu are within 4 ulps of
    the working precision for Im tau in {1.36, 0.93, 0.1, 0.0104}.
"""

from __future__ import annotations

from mpmath import mp
from mpmath.libmp import to_fixed

from .errors import PoleProximity, PrecisionUnreachable

GUARD = 56          # extra working bits used by public wrappers
TAIL_GUARD = 10     # tail cut at 2^-(prec+TAIL_GUARD) * max_term
# fixed-point bits below the working precision: a window's rounding stays
# under 2^17 units of 2^-W for Im tau >= 0.009 (module docstring), 7 bits
# short of one unit of the working precision
FIXED_GUARD = 24


def workprec(P: int):
    return mp.workprec(P + GUARD)


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
    # |q|^(k(3k-1)/2) is below the tail cut once pi*v*k^2 > prec*ln2 roughly
    kmax = int(mp.sqrt((mp.prec + TAIL_GUARD + 8) * mp.ln(2) / (3 * mp.pi * v))) + 3
    acc = mp.mpc(1)
    for k in range(1, kmax + 1):
        acc += (-1) ** k * (qpow(tau, k * (3 * k - 1) // 2) + qpow(tau, k * (3 * k + 1) // 2))
    return qpow(tau, mp.mpf(1) / 24) * acc


# ---------------------------------------------------------------------------
# fixed-point Gaussian integers
# ---------------------------------------------------------------------------

def _fix(x, W: int):
    """The Gaussian integer (floor(2^W Re x), floor(2^W Im x)) of an mpc."""
    re, im = x._mpc_
    return to_fixed(re, W), to_fixed(im, W)


def _mul(a, b, W: int):
    """Product of two Gaussian integers at scale 2^W, at scale 2^W."""
    (ar, ai), (br, bi) = a, b
    return (ar * br - ai * bi) >> W, (ar * bi + ai * br) >> W


def _to_mpc(x, e: int):
    """The Gaussian integer x at scale 2^e as an mpc at the working precision."""
    return mp.mpc(mp.mpf((x[0], -e)), mp.mpf((x[1], -e)))


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
    once per tau in fixed point at W = prec + FIXED_GUARD bits and shared by
    every point evaluated through the plan.

    The tables are the powers q^m and the Gaussian weights
    g_j = q^(j(j-1)/2), m, j >= 0, from g_(j+1) = g_j q^j; all have modulus at
    most 1.  They grow on demand, so each point is summed over exactly its
    own tail-cut window.

    A plan computes at the working precision in effect when it is built and
    must be used at that precision; it lives no longer than the evaluation
    that builds it.
    """

    def __init__(self, tau):
        tau = mp.mpc(tau)
        if tau.imag <= 0:
            raise PrecisionUnreachable("theta needs Im(tau) > 0")
        self.tau, self.v = tau, tau.imag
        self.prec = mp.prec
        self.W = W = mp.prec + FIXED_GUARD
        # the z- and w-independent part of a mu window
        self._mu_A0 = int(mp.sqrt((mp.prec + TAIL_GUARD + 8) * mp.ln(2) / (mp.pi * self.v)))
        with mp.workprec(W):
            self._q_mpc = mp.expjpi(2 * tau)
        self._q = [(1 << W, 0), _fix(self._q_mpc, W)]     # q^m
        self._g = [(1 << W, 0), (1 << W, 0)]             # q^(j(j-1)/2)

    def _qpowers(self, m: int):
        """The table q^0 .. q^m (at least)."""
        Q, W = self._q, self.W
        while len(Q) <= m:
            Q.append(_mul(Q[-1], Q[1], W))
        return Q

    def _gauss(self, j: int):
        """The table g_0 .. g_j (at least)."""
        g = self._g
        Q = self._qpowers(j)
        while len(g) <= j:
            g.append(_mul(g[-1], Q[len(g) - 1], self.W))
        return g

    def _halfint_sum(self, z, weighted):
        """sum over k in z's window of T_k = a_k e^(2 pi i n z), n = k + 1/2,
        times 2n if weighted.

        With k* = floor(-Im z / v), the term of largest modulus up to one
        index, T_(k*+j) = T_k* a^j g_j and T_(k*-j) = T_k* b^j g_j, where
        a = -q^(k*+1) e^(2 pi i z) and b = -q^(-k*) e^(-2 pi i z) both have
        modulus at most 1; each side is summed by Horner's rule in a or b."""
        z = mp.mpc(z)
        lo, hi = _halfint_window(self.v, z.imag)
        k0 = int(mp.floor(-z.imag / self.v))
        W, tau = self.W, self.tau
        with mp.workprec(W):
            n0 = mp.mpf(2 * k0 + 1) / 2
            peak = mp.expjpi(n0 * (n0 * tau + 2 * z + 1))
            a = -mp.expjpi(2 * ((k0 + 1) * tau + z))
            a, b = _fix(a, W), _fix(self._q_mpc / a, W)
        g = self._gauss(max(hi - k0, k0 - lo))
        total = [0, 0]
        for ratio, J, step in ((a, hi - k0, 2), (b, k0 - lo, -2)):
            ar, ai = ratio
            sr = si = 0
            for j in range(J, -1, -1):
                gr, gi = g[j]
                if weighted:
                    wt = 2 * k0 + 1 + step * j
                    gr, gi = wt * gr, wt * gi
                sr, si = ((sr * ar - si * ai) >> W) + gr, ((sr * ai + si * ar) >> W) + gi
            total[0] += sr
            total[1] += si
        # the peak term was summed by both sides
        wt0 = 2 * k0 + 1 if weighted else 1
        total[0] -= wt0 << W
        return peak * _to_mpc(total, W)

    def theta(self, z):
        """Jacobi theta: sum over n in 1/2+Z of e^(pi i n^2 tau + 2 pi i n (z+1/2))."""
        return self._halfint_sum(z, False)

    def theta_dz(self, z):
        """d/dz of theta (holomorphic derivative)."""
        return 1j * mp.pi * self._halfint_sum(z, True)

    def mu(self, *ws) -> "MuPlan":
        """The plan of z -> [mu(z, w; tau) for w in ws] for this tau."""
        return MuPlan(self, ws)


class MuPlan:
    """mu(., w; tau) for a bundle of second arguments w, summed in one pass
    per point: the denominators, their reciprocals and the pole check are
    shared by every w.

    The numerators c_n = (-1)^n e^(2 pi i n w) q^(n(n+1)/2) follow
    c_(n+1) = -e^(2 pi i w) q^(n+1) c_n and c_(n-1) = -e^(-2 pi i w) q^(-n) c_n.
    A term with n = -k < 0 is rewritten as

        c_-k / (1 - zeta q^-k) = zeta^-1 (-c_-k q^k) / (1 - zeta^-1 q^k),

    so both sides of the sum have the form N_m / (1 - t q^m), m >= 0, with
    t = zeta or zeta^-1 and every N_m, q^m of modulus at most about 1."""

    def __init__(self, plan: TauPlan, ws):
        self.plan = plan
        self.ws = [mp.mpc(w) for w in ws]
        self.theta_w = [plan.theta(w) for w in self.ws]
        W = plan.W
        with mp.workprec(W):
            self._up = [_fix(-mp.expjpi(2 * w), W) for w in self.ws]
            self._down = [_fix(-mp.expjpi(-2 * w), W) for w in self.ws]
        one = [(1 << W, 0)] * len(self.ws)
        self._cpos = [one]    # [c_n for each w], n >= 0
        self._cneg = [one]    # [c_-k for each w], k >= 0
        self._neg = [None]    # [-c_-k q^k for each w], k >= 1
        self._wy = max(abs(w.imag) for w in self.ws)

    def _numerators(self, A):
        """Grow the numerator rows through index A."""
        W = self.plan.W
        Q = self.plan._qpowers(A)
        cpos, cneg, neg = self._cpos, self._cneg, self._neg
        while len(cpos) <= A:
            m = len(cpos)
            cpos.append([_mul(_mul(c, u, W), Q[m], W) for c, u in zip(cpos[-1], self._up)])
        while len(cneg) <= A:
            k = len(cneg)
            cneg.append([_mul(_mul(c, d, W), Q[k - 1], W) for c, d in zip(cneg[-1], self._down)])
            neg.append([(-r, -i) for r, i in (_mul(c, Q[k], W) for c in cneg[-1])])

    def __call__(self, z):
        """[mu(z, w; tau) for each w of the bundle] by the defining
        bilateral sum, each summed over n = -A .. A for the widest window."""
        z = mp.mpc(z)
        plan = self.plan
        W = plan.W
        A = plan._mu_A0 + int((abs(z.imag) + self._wy) / plan.v) + 6
        self._numerators(A)
        with mp.workprec(W):
            h = mp.expjpi(z)
            zeta = h * h
            zinv = 1 / zeta
        pos = self._side(_fix(zeta, W), self._cpos, 0, A, 1)
        neg = self._side(_fix(zinv, W), self._neg, 1, A, -1)
        return [h / th * (_to_mpc(p, 2 * W) + zinv * _to_mpc(n, 2 * W))
                for th, p, n in zip(self.theta_w, pos, neg)]

    def _side(self, t, rows, m0, A, sign):
        """[sum over m0 <= m <= A of rows[m][i] / (1 - t q^m) for each w_i],
        as Gaussian integers at scale 2^(2W); raises PoleProximity when a
        denominator is below 2^(-(prec-28)/2) max(1, |t q^m|)."""
        W = self.plan.W
        Q = self.plan._qpowers(A)
        s = self.plan.prec - GUARD // 2
        one, one2, num = 1 << W, 1 << (2 * W), 1 << (3 * W)
        near = 1 << (2 * W + 2 - s)      # |den|^2 2^s >= 4 rules out a pole
        tr0, ti0 = t
        sums = [[0, 0] for _ in self.ws]
        for m in range(m0, A + 1):
            qr, qi = Q[m]
            tr = (tr0 * qr - ti0 * qi) >> W
            ti = (tr0 * qi + ti0 * qr) >> W
            dr, di = one - tr, -ti
            M = dr * dr + di * di
            if M < near and (M << s) < max(one2, tr * tr + ti * ti):
                raise PoleProximity(f"mu denominator at n={sign * m} has modulus "
                                    f"{mp.sqrt(mp.mpf(M)) / 2 ** W}")
            k = num // M
            rr, ri = (dr * k) >> W, -(di * k) >> W        # 1/(1 - t q^m)
            for acc, (cr, ci) in zip(sums, rows[m]):
                acc[0] += cr * rr - ci * ri
                acc[1] += cr * ri + ci * rr
        return sums


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

def _R_terms(z, tau, formal=False):
    """R(z) and its first z-derivative, from one pass over the terms.

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
    # R = sum t_n, t_n = (sgn(n) - E(w_n)) phase_n; the power rule gives
    # -2 pi i sum n t_n, and the E-factor's y-dependence adds
    # (1/(2i)) d/dy (sgn - E) = i sqrt(2/v) e^(-pi w^2) per term
    r, rn, rw = mp.mpc(0), mp.mpc(0), mp.mpc(0)
    for k in range(lo, hi + 1):
        n = k + mp.mpf(1) / 2
        w = (n + y / v) * s2v
        phase = (-1) ** k * mp.expjpi(-n * n * tau - 2 * n * z)
        t = sgn_minus_E(1 if n > 0 else -1, w) * phase
        r += t
        rn += n * t
        if not formal:
            rw += mp.exp(-mp.pi * w * w) * phase
    return r, -2j * mp.pi * rn + 1j * mp.sqrt(2 / v) * rw


def R(z, tau):
    """Zwegers' non-holomorphic R-function."""
    return _R_terms(z, tau)[0]


def R_dz(z, tau, formal=False):
    """d/dz of R: Wirtinger by default, power-rule-only with formal=True."""
    return _R_terms(z, tau, formal)[1]


# ---------------------------------------------------------------------------
# mu and its completion
# ---------------------------------------------------------------------------

def mu(z1, z2, tau):
    """Appell-Lerch mu(z1, z2; tau) by its defining bilateral sum."""
    return TauPlan(tau).mu(z2)(z1)[0]


def muhat(z1, z2, tau):
    """Completed mu: mu + (i/2) R(z1 - z2)."""
    return mu(z1, z2, tau) + 0.5j * R(z1 - z2, tau)

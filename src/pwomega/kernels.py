"""Arbitrary-precision numeric kernels: eta, theta, the error-integral factor,
Zwegers' R-function with its z-derivatives, and the Appell-Lerch mu-function.

Conventions:
  * q^x means e^(2 pi i tau x); zeta = e^(2 pi i z); tau = u + i v with v > 0.
  * every function computes at the CURRENT mpmath working precision and
    truncates tails below 2^-(prec+TAIL_GUARD) relative to the largest term,
    so callers get full working accuracy.  A sum whose window would take
    more than MAX_TERMS terms raises PrecisionUnreachable before any table
    is built (_check_terms).  workprec(P), which sets P + GUARD working
    bits, is the numeric layer's one precision boundary: the registry's one
    check (_check) and the tests open it.
  * R and its z-derivatives treat z as a real-analytic variable: the
    derivative is the Wirtinger d/dz, with the E-factor's dependence on
    y = Im z entering through dy/dz = 1/(2i).
  * the inner loops run on Gaussian integers, the way mpmath's own series
    loops (libelefun) do: a complex x is held as the integer pair
    (floor(2^W Re x), floor(2^W Im x)), a product is four integer multiplies
    and a shift right by W, and each sum is converted to an mpc once.
    theta and mu go through a per-tau plan (TauPlan, MuPlan, W = prec +
    FIXED_GUARD) whose tau-only tables are built once by ratio recurrence;
    theta(z, tau) and mu(z1, z2, tau) are one-point uses of a plan, so each
    bilateral sum has one implementation.
  * cost per point: theta, two exponentials and one division at W bits,
    then one fixed-point complex multiply-add per term; a mu bundle (every
    second argument w used at that point), one exponential and two
    divisions at W bits, then per term one fixed-point denominator, one
    integer reciprocal and one squared-modulus pole check shared by the
    bundle, plus one complex multiply-add per w; jets at the centers 0 and
    tau (TauPlan.theta_taylor, MuPlan.laurent), one more multiply-add per
    term and derivative.  At the centers the terms come in mirror pairs:
    theta's pass sums one side and adds the other as a fixed-point fold
    (at any z with 2 Im z / v and 2 Im z Re tau / v - 2 Re z integers), and
    a Laurent pass takes no reciprocal of its own: both its sides read the
    plan's table of 1/(1 - q^m) and q^m/(1 - q^m)^2, built once per tau.
  * R (_R_terms): a window's seeds cost two unit phases and four real
    exponentials; per term, one fixed-point unit-phase step, two complex
    multiply-adds, four mpf products for the m_n and h_n recurrences (none
    on a side's tail, which needs h_n alone, in fixed point), and
    erfc(x_n) m_n at the bits the term needs: mpmath's below x_n = 2, else
    ErfcTable's, on weights built once per precision, with an exponential
    only for the trapezoid's pole term.  Shifts of z by multiples of 1/2
    leave every x_n and erfc as they are, so one pass serves them all: a
    shift multiplies each term by a unit (-i)^j (-1)^(jk), which costs a
    second set of sums over odd k only when some shift is an odd multiple
    of 1/2, and nothing per term otherwise.  Where 2 Im z / Im tau is an
    integer J (every R the completion takes), the terms n and -n - J share
    x_n, m_n and h_n, and their erfc(x_n) m_n is taken once.  The window's
    ends come from a
    walk inward from theta's window, and its length check is taken in
    floats.  eta costs two exponentials, then five fixed-point products per
    pentagonal index.
  * the rounding bounds of theta, mu, R and eta are derived once, in the
    README's numerical error policy; each sum stays within a few units of the
    working precision of its largest term (tests/test_kernels.py measures
    every kernel against per-term sums at 100 more bits).
"""

from __future__ import annotations

import functools
import math

from mpmath import mp
from mpmath.libmp import (fone, from_int, from_man_exp, ftwo, mpf_add, mpf_cos_sin_pi, mpf_div,
                          mpf_erfc, mpf_exp, mpf_mul, mpf_neg, mpf_pi, mpf_shift, mpf_sqrt,
                          mpf_sub, round_nearest, to_fixed, to_int)

from .errors import PoleProximity, PrecisionUnreachable

GUARD = 56          # extra working bits that workprec adds
TAIL_GUARD = 10     # tail cut at 2^-(prec+TAIL_GUARD) * max_term
# fixed-point bits below the working precision: a window's rounding stays
# under 2^17 units of 2^-W for Im tau >= 0.009 (README, numerical error
# policy), 7 bits short of one unit of the working precision
FIXED_GUARD = 24
ERFC_GUARD = 16     # fixed-point bits of ErfcTable above the bits it serves
# the most terms one sum may take: far above the few hundred of any window
# at Im tau >= 0.009, below the ~1e5 of a window at Im tau = 1e-9
MAX_TERMS = 1 << 16
# below this Im tau a half-integer window takes over 4 sqrt(ln 2 / (pi v))
# > MAX_TERMS terms at any precision, so its length is refused in mpf
FLOAT_V_MIN = mp.mpf(2) ** -30


def workprec(P: int):
    """The context that computes P-bit results, at P + GUARD working bits."""
    return mp.workprec(P + GUARD)


def _check_terms(v, terms):
    """Refuse a sum at Im(tau) = v of more than MAX_TERMS terms, before it
    builds a table; terms is an int or an mpf, or a float when v is at least
    FLOAT_V_MIN (below it, a float v underflows)."""
    if terms > MAX_TERMS:
        raise PrecisionUnreachable(f"a sum at Im(tau) = {mp.nstr(v, 3)} would take "
                                   f"{mp.nstr(mp.mpf(terms), 3)} terms, over the limit {MAX_TERMS}")


def qpow(tau, e):
    """e^(2 pi i tau e)."""
    return mp.expjpi(2 * mp.mpc(tau) * e)


# ---------------------------------------------------------------------------
# eta
# ---------------------------------------------------------------------------

def eta(tau):
    """Dedekind eta via the pentagonal-number expansion, by ratio recurrence
    on Gaussian integers: a_k = q^(k(3k-1)/2) follows a_(k+1) = a_k q^(3k+1),
    the ratio stepping by q^3, and the partner term q^(k(3k+1)/2) is a_k q^k."""
    tau = mp.mpc(tau)
    v = tau.imag
    if v <= 0:
        raise PrecisionUnreachable("eta needs Im(tau) > 0")
    # |q|^(k(3k-1)/2) is below the tail cut once pi*v*k^2 > prec*ln2 roughly
    kmax = int(mp.sqrt((mp.prec + TAIL_GUARD + 8) * mp.ln(2) / (3 * mp.pi * v))) + 3
    _check_terms(v, 2 * kmax + 1)
    # every value has modulus at most 1; a_k and its partner carry at most
    # about 5k^2 units of 2^-W, so the sum carries under 2 kmax^3
    W = mp.prec + 3 * kmax.bit_length() + 2
    with mp.workprec(W):
        q = _fix(qpow(tau, 1), W)
    q3 = _mul(_mul(q, q, W), q, W)
    one = 1 << W
    # (-1)^k a_k, from the ratio -q^(3k+1)
    a, ratio, qk = (one, 0), (-q[0], -q[1]), (one, 0)
    sr, si = one, 0
    for _ in range(kmax):
        a = _mul(a, ratio, W)
        ratio = _mul(ratio, q3, W)
        qk = _mul(qk, q, W)
        tr, ti = _mul(a, (one + qk[0], qk[1]), W)
        sr, si = sr + tr, si + ti
    with mp.workprec(W):
        out = qpow(tau, mp.mpf(1) / 24) * _to_mpc((sr, si), W)
    return +out


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
    prec = mp.prec
    return mp.make_mpc((from_man_exp(x[0], -e, prec, round_nearest),
                        from_man_exp(x[1], -e, prec, round_nearest)))


# ---------------------------------------------------------------------------
# theta
# ---------------------------------------------------------------------------

def _halfint_window(v, y):
    """Index window (over n = k + 1/2) outside which
    exp(-pi v n^2 - 2 pi n y) is below the tail cut, widened by 4 indices
    on each side; one longer than MAX_TERMS is refused.  Below Im tau =
    FLOAT_V_MIN every window is longer than MAX_TERMS at any precision, and
    the length is taken in mpf, since v would underflow a float; above it,
    in floats."""
    if v < FLOAT_V_MIN:
        _check_terms(v, 2 * mp.sqrt(y * y + v * (mp.prec + TAIL_GUARD + 8) * math.log(2) / math.pi) / v)
    fv, fy = float(v), float(y)
    root = math.sqrt(fy * fy + fv * (mp.prec + TAIL_GUARD + 8) * math.log(2) / math.pi)
    _check_terms(v, 2 * root / fv)
    return math.floor((-fy - root) / fv) - 4, math.ceil((-fy + root) / fv) + 4


class TauPlan:
    """The factors of the theta and mu sums that depend on tau alone, built
    once per tau in fixed point at W = prec + FIXED_GUARD bits and shared by
    every point evaluated through the plan.

    The tables are the powers q^m and the Gaussian weights
    g_j = q^(j(j-1)/2), m, j >= 0, from g_(j+1) = g_j q^j, all of modulus at
    most 1, and the Laurent reciprocals 1/(1 - q^m) and q^m/(1 - q^m)^2,
    m >= 1.  They grow on demand, so each point is summed over exactly its
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
        self._lr, self._lx = [], []                      # r_m, q^m r_m^2 (m >= 1)

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

    def _reciprocals(self, t, m0: int, m1: int, n0: int, step: int):
        """[r_m = 1/(1 - x_m) for m0 <= m < m1], x_m = t q^m, as Gaussian
        integers at scale 2^W.  Raises PoleProximity when a denominator is
        below 2^(-(prec-28)/2) max(1, |x_m|); term m is term n = n0 + step m
        of a mu sum."""
        W = self.W
        Q = self._qpowers(m1)
        cut = self.prec - GUARD // 2
        one, one2, num = 1 << W, 1 << (2 * W), 1 << (3 * W)
        near = 1 << (2 * W + 2 - cut)      # |den|^2 2^cut >= 4 rules out a pole
        tr0, ti0 = t
        out = []
        for m in range(m0, m1):
            qr, qi = Q[m]
            tr = (tr0 * qr - ti0 * qi) >> W
            ti = (tr0 * qi + ti0 * qr) >> W
            dr, di = one - tr, -ti
            M = dr * dr + di * di
            if M < near and (M << cut) < max(one2, tr * tr + ti * ti):
                raise PoleProximity(f"mu denominator at n={n0 + step * m} has modulus "
                                    f"{mp.sqrt(mp.mpf(M)) / 2 ** W}")
            k = num // M
            out.append(((dr * k) >> W, -(di * k) >> W))
        return out

    def _laurent_table(self, m: int):
        """The tables [r_m] and [x_m r_m^2] for m = 1 .. m (at least),
        x_m = q^m and r_m = 1/(1 - x_m): the reciprocals of MuPlan.laurent."""
        R, X, W = self._lr, self._lx, self.W
        for rr, ri in self._reciprocals((1 << W, 0), len(R) + 1, m + 1, 0, 1):
            R.append((rr, ri))
            # x r^2 = r^2 - r, since x r = r - 1
            X.append((((rr * rr - ri * ri) >> W) - rr, ((2 * rr * ri) >> W) - ri))
        return R, X

    def _halfint_sums(self, z, K: int):
        """[sum over k in z's window of (2n)^j T_k for j = 0..K], where
        T_k = a_k e^(2 pi i n z), n = k + 1/2.

        With k* = floor(-Im z / v), the term of largest modulus up to one
        index, T_(k*+j) = T_k* a^j g_j and T_(k*-j) = T_k* b^j g_j, where
        a = -q^(k*+1) e^(2 pi i z) and b = -q^(-k*) e^(-2 pi i z) both have
        modulus at most 1; each side is summed by Horner's rule in a or b,
        one accumulator per power of the weight 2n.

        At a mirror, J = 2 Im z / v and L = J Re tau - 2 Re z both exact
        integers (z = 0 and z = tau among them), T_(-n-J) = r T_n with
        r = (-1)^((L-1)(J+1)), and -n - J is term k* - j or k* - 1 - j for
        n = k* + j + 1/2 as J is odd or even: the a-side alone is summed,
        over the longer half, and the mirror added as
        r (-2n - 2J)^j = r (-1)^j sum_i C(j, i) (2J)^(j-i) (2n)^i."""
        z = mp.mpc(z)
        lo, hi = _halfint_window(self.v, z.imag)
        k0 = int(mp.floor(-z.imag / self.v))
        W, tau = self.W, self.tau
        J = 2 * z.imag / self.v
        L = J * tau.real - 2 * z.real
        mirror = J == int(J) and L == int(L)
        with mp.workprec(W):
            n0 = mp.mpf(2 * k0 + 1) / 2
            peak = mp.expjpi(n0 * (n0 * tau + 2 * z + 1))
            a = -mp.expjpi(2 * ((k0 + 1) * tau + z))
            a, b = _fix(a, W), _fix(self._q_mpc / a, W)
        g = self._gauss(max(hi - k0, k0 - lo))
        sides = ((a, max(hi - k0, k0 - lo), 2),) if mirror else ((a, hi - k0, 2), (b, k0 - lo, -2))
        totals = [[0, 0] for _ in range(K + 1)]
        for (ar, ai), top, step in sides:
            accs = [[0, 0] for _ in range(K + 1)]
            for j in range(top, -1, -1):
                gr, gi = g[j]
                wt = 2 * k0 + 1 + step * j
                for acc in accs:
                    sr, si = acc
                    acc[0] = ((sr * ar - si * ai) >> W) + gr
                    acc[1] = ((sr * ai + si * ar) >> W) + gi
                    gr, gi = wt * gr, wt * gi
            for total, acc in zip(totals, accs):
                total[0] += acc[0]
                total[1] += acc[1]
        if mirror:
            J, L = int(J), int(L)
            r = -1 if (L - 1) * (J + 1) & 1 else 1
            totals = [[s + r * (-1) ** j * sum(math.comb(j, i) * (2 * J) ** (j - i) * totals[i][c]
                                               for i in range(j + 1))
                       for c, s in enumerate(totals[j])] for j in range(K + 1)]
        if not mirror or J & 1:
            # the peak term was summed twice: by both sides, or as its own mirror
            for j, total in enumerate(totals):
                total[0] -= (2 * k0 + 1) ** j << W
        return [peak * _to_mpc(total, W) for total in totals]

    def theta(self, z):
        """Jacobi theta: sum over n in 1/2+Z of e^(pi i n^2 tau + 2 pi i n (z+1/2))."""
        return self._halfint_sums(z, 0)[0]

    def theta_taylor(self, z, K: int):
        """[theta^(k)(z) / k! for k = 0..K], from one pass over the terms:
        the k-th derivative weights each term by (2 pi i n)^k."""
        return [(1j * mp.pi) ** k * s / mp.factorial(k)
                for k, s in enumerate(self._halfint_sums(z, K))]

    def mu(self, *ws) -> "MuPlan":
        """The plan of z -> [mu(z, w; tau) for w in ws] for this tau."""
        return MuPlan(self, ws)


class MuPlan:
    """mu(., w; tau) for a bundle of second arguments w, summed in one pass
    per point: the denominators, their reciprocals and the pole check are
    shared by every w.

    The numerators c_n = (-1)^n e^(2 pi i n w) q^(n(n+1)/2) follow
    c_(n+1) = -e^(2 pi i w) q^(n+1) c_n and c_(n-1) = -e^(-2 pi i w) q^(-n) c_n.
    The sum is split at s = ceil(-Im z / v), the least n with
    |zeta q^n| <= 1; since -c_n q^-n = e^(2 pi i w) c_(n-1), a term with
    n < s is rewritten as

        c_n / (1 - zeta q^n) = zeta^-1 e^(2 pi i w) c_(n-1) / (1 - zeta^-1 q^-n),

    so both sides of the sum have the form c_(s+m) / (1 - t q^m) or
    c_(s-2-m) / (1 - t' q^m), m >= 0, with t = zeta q^s and t' = q / t of
    modulus at most 1 for every z."""

    def __init__(self, plan: TauPlan, ws):
        self.plan = plan
        self.ws = [mp.mpc(w) for w in ws]
        self.theta_w = [plan.theta(w) for w in self.ws]
        W = plan.W
        with mp.workprec(W):
            self._ew = [mp.expjpi(2 * w) for w in self.ws]
            self._up = [_fix(-e, W) for e in self._ew]
            self._down = [_fix(-1 / e, W) for e in self._ew]
        self._c = [[(1 << W, 0)] * len(self.ws)]     # [c_n for each w], n >= -c0
        self._c0 = 0
        self._wy = max(abs(w.imag) for w in self.ws)

    def _numerators(self, lo: int, hi: int):
        """Grow the numerator table through lo <= n <= hi (lo <= 0 <= hi)."""
        W = self.plan.W
        Q = self.plan._qpowers(max(hi, -lo))
        c = self._c
        while len(c) - self._c0 <= hi:
            n = len(c) - self._c0
            c.append([_mul(_mul(x, u, W), Q[n], W) for x, u in zip(c[-1], self._up)])
        down, row = [], c[0]
        for n in range(-self._c0, lo, -1):
            row = [_mul(_mul(x, d, W), Q[-n], W) for x, d in zip(row, self._down)]
            down.append(row)
        if down:
            self._c = down[::-1] + c
            self._c0 += len(down)

    def _window(self, y):
        A = self.plan._mu_A0 + int((abs(y) + self._wy) / self.plan.v) + 6
        _check_terms(self.plan.v, 2 * A + 1)
        return A

    def _rows(self, s: int, A: int):
        """The numerators of both sides of the sum over -A <= n <= A split at
        s: [c_(s+m) for m >= 0] and [c_(s-2-m) for m >= 0]."""
        self._numerators(-A - 1, A)
        c, c0 = self._c, self._c0
        return c[c0 + s:c0 + A + 1], c[c0 - A - 1:c0 + s - 1][::-1]

    def __call__(self, z):
        """[mu(z, w; tau) for each w of the bundle] by the defining
        bilateral sum, each summed over n = -A .. A for the widest window."""
        z = mp.mpc(z)
        plan = self.plan
        W = plan.W
        s = -int(mp.floor(z.imag / plan.v))
        with mp.workprec(W):
            h = mp.expjpi(z)
            zinv = 1 / (h * h)
            t = h * h * plan._q_mpc ** s
            tq = plan._q_mpc / t
        pos, neg = self._rows(s, self._window(z.imag))
        psum = self._side(pos, plan._reciprocals(_fix(t, W), 0, len(pos), s, 1))
        nsum = self._side(neg, plan._reciprocals(_fix(tq, W), 0, len(neg), s - 1, -1))
        return [h / th * (_to_mpc(p, 2 * W) + zinv * e * _to_mpc(n, 2 * W))
                for th, e, p, n in zip(self.theta_w, self._ew, psum, nsum)]

    def laurent(self, nstar: int):
        """[[a_-1, a_0, a_1] for each w of the bundle]: the Laurent
        coefficients of mu(c + delta, w; tau) in delta at its pole
        c = -nstar tau, nstar in (0, -1), from one pass.

        The pass splits at s = nstar, where t = 1 and t' = q exactly.  The
        singular term n = nstar (m = 0 on the t-side) is left out of the
        sum, and enters in closed form, 1/(1 - e^x) = -1/x + 1/2 - x/12 +
        O(x^3) with x = 2 pi i delta; every other term 1/(1 - x_m e^(+-x))
        contributes r + (+-x) x_m r^2, with r = 1/(1 - x_m) and x_m = q^m on
        the t-side, q^(m+1) on the q-side: both read the plan's table of
        1/(1 - q^m) and q^m/(1 - q^m)^2 (TauPlan._laurent_table)."""
        if nstar not in (0, -1):
            raise ValueError("the Laurent pass is centred at 0 or tau")
        plan = self.plan
        W = plan.W
        c = -nstar * plan.tau
        pos, neg = self._rows(nstar, self._window(c.imag))
        recips, jets = plan._laurent_table(max(len(pos) - 1, len(neg)))
        # entry m of the table is recips[m - 1]: the t-side term m >= 1 reads
        # entry m, the q-side term m >= 0 entry m + 1
        tsum, tjet = self._side(pos[1:], recips), self._side(pos[1:], jets)
        qsum, qjet = self._side(neg, recips), self._side(neg, jets)
        x = 2j * mp.pi
        hc = mp.expjpi(c)
        out = []
        for th, e, p, p1, n, n1, row in zip(self.theta_w, self._ew, tsum, tjet, qsum, qjet, pos[0]):
            a = _to_mpc(row, W)
            t_side = [-a / x, _to_mpc(p, 2 * W) + a / 2, x * (_to_mpc(p1, 2 * W) - a / 12)]
            q_side = [0, _to_mpc(n, 2 * W), -x * _to_mpc(n1, 2 * W)]
            # mu = e^(pi i z) / theta(w) (t_side + zeta^-1 e^(2 pi i w) q_side)
            out.append([(hc * u + e / hc * d) / th for u, d in
                        zip(_times_exp(t_side, 1j * mp.pi), _times_exp(q_side, -1j * mp.pi))])
        return out

    def _side(self, rows, recips):
        """[sum over m of rows[m][i] recips[m] for each w_i], as Gaussian
        integers at scale 2^(2W)."""
        sums = [[0, 0] for _ in self.ws]
        for row, (rr, ri) in zip(rows, recips):
            for acc, (cr, ci) in zip(sums, row):
                acc[0] += cr * rr - ci * ri
                acc[1] += cr * ri + ci * rr
        return sums


def _times_exp(coeffs, a):
    """[b_-1, b_0, b_1]: the Laurent coefficients of
    (coeffs[0]/delta + coeffs[1] + coeffs[2] delta) e^(a delta) through delta^1."""
    lm, l0, l1 = coeffs
    return [lm, l0 + a * lm, l1 + a * l0 + a * a / 2 * lm]


def theta(z, tau):
    """Jacobi theta: sum over n in 1/2+Z of e^(pi i n^2 tau + 2 pi i n (z+1/2))."""
    return TauPlan(tau).theta(z)


def theta_dz(z, tau):
    """d/dz of theta (holomorphic derivative)."""
    return TauPlan(tau).theta_taylor(z, 1)[1]


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


class ErfcTable:
    """erfc(x) m in fixed point for x >= 2, at up to bits, from
    H = m e^(-x^2).  Where mpmath's erfc would take 1 - erf(x) at about
    1.44 x^2 more bits (covers), the trapezoid rule with step h = pi/c,
    c = sqrt((bits + 12) ln 2) (Chiarella & Reichel 1968, Matta & Reichel 1971):

        erfc(x) = (2hx/pi) e^(-x^2) [1/(2x^2) + sum_(k>=1) G_k/(k^2 h^2 + x^2)]
                  - 2/(e^(2cx) - 1),   G_k = e^(-k^2 h^2),

    the last term being the pole of its integrand; beyond, mpmath's divergent
    series, e^(-x^2) S(x)/(x sqrt(pi)).  The weights depend on bits alone:
    erfc_table keeps one table per bits.  Where the sums stop, and what they
    leave, are stated in the README's numerical error policy."""

    def __init__(self, bits: int):
        self.bits = bits
        self.F = F = bits + ERFC_GUARD
        G = F + 8                                             # the recurrence's scale
        with mp.workprec(G):
            h = mp.pi / mp.sqrt((bits + 12) * mp.ln(2))
            self._hp = to_fixed((2 * h / mp.pi)._mpf_, F)      # 2h/pi
            self._c2f = float(2 * mp.pi / h)                    # 2c = 2 pi/h
            self._c2 = to_fixed((2 * mp.pi / h)._mpf_, F)
            self._sqpi = to_fixed(mp.sqrt(mp.pi)._mpf_, F)
            h2 = to_fixed((h * h)._mpf_, F)
            g = to_fixed(mp.exp(-h * h)._mpf_, G)              # G_1
        step = (g * g) >> G                                   # e^(-2h^2)
        ratio = (step * g) >> G                               # G_2 / G_1
        self._terms, k = [], 1
        while g >= 1 << (G - bits - 4):
            self._terms.append((g << (F - 8), k * k * h2))     # G_k at scale 2^(2F)
            g, ratio = (g * ratio) >> G, (ratio * step) >> G
            k += 1

    @staticmethod
    def covers(x_floor: int, bits: int) -> bool:
        """True when mpmath's erfc at bits would take 1 - erf(x), floor(x) = x_floor."""
        return x_floor >= 2 and 1.44 * x_floor * x_floor <= bits + 20 + 2 * x_floor.bit_length()

    def _at(self, X: int, W: int, bits: int) -> int:
        """x = X / 2^W at scale 2^F, for bits up to the table's."""
        if bits > self.bits:
            raise ValueError(f"an erfc table for {self.bits} bits cannot serve {bits}")
        return X >> (W - self.F) if W >= self.F else X << (self.F - W)

    def erfc_times(self, X: int, W: int, bits: int, m, H: int) -> int:
        """erfc(x) m at scale 2^W within 2^-bits relative, for x = X / 2^W
        the table covers at bits, an mpf m and H = m e^(-x^2) at scale 2^W."""
        F = self.F
        X = self._at(X, W, bits)
        X2 = (X * X) >> F
        s = (1 << (2 * F)) // (2 * X2)
        stop = 1 << (2 * F - bits - 4)
        for g, k2 in self._terms:
            if g < stop:
                break
            s += g // (k2 + X2)
        out = (((((self._hp * X) >> F) * s) >> F) * H) >> F
        # the pole term is about 2 sqrt(pi) x e^(x^2 - 2 pi x/h) of erfc(x)
        xf = X / (1 << F)
        p = bits + ERFC_GUARD + int(math.log2(3.6 * xf) + (xf - self._c2f) * xf * math.log2(math.e))
        if p > 0:
            p = max(p, 24)
            u = mpf_exp(from_man_exp(-((self._c2 * X) >> F), -F), p)     # e^(-2 pi x/h)
            out -= to_fixed(mpf_div(mpf_shift(mpf_mul(u, m), 1), mpf_sub(fone, u, p), p), W)
        return out

    def asymptotic_times(self, X: int, W: int, bits: int, H: int) -> int:
        """erfc(x) m at scale 2^W within 2^-bits relative, for x = X / 2^W
        beyond the table's range at bits and H = m e^(-x^2) at scale 2^W:
        S(x) = sum_k (-1)^k (2k-1)!!/(2x^2)^k at F bits, stopped as mpmath stops it."""
        F = bits + ERFC_GUARD
        X = self._at(X, W, bits) >> (self.F - F)
        t = (X * X) >> (F - 1)                                # 2x^2
        s, term, prev, k = 1 << F, 1 << F, 0, 1
        while True:
            term = ((term * (2 * k - 1)) << F) // t
            if k > 4 and term > prev or not term:
                break
            s += -term if k & 1 else term
            prev, k = term, k + 1
        return (H * s) // ((X * self._sqpi) >> self.F)


@functools.lru_cache(maxsize=8)
def erfc_table(bits: int) -> ErfcTable:
    """The ErfcTable for bits, kept: a table depends on bits alone."""
    return ErfcTable(bits)


# ---------------------------------------------------------------------------
# R and its z-derivatives
# ---------------------------------------------------------------------------

def _R_window(v, y):
    """R's index window lo..hi (n = k + 1/2) at the working precision and
    [log2 B_n for k = lo..hi], B_n the a-priori bound on |t_n| of the
    README's numerical error policy: each term left out has B_n, and the
    derivative sum's |2k+1| B_n, below 2^-(prec+TAIL_GUARD) B_max.  The
    ends are found by walking inward from theta's window, which holds B_max."""
    lo, hi = _halfint_window(v, y)   # wider than needed
    fa, cv = float(y / v), math.pi * float(v) / math.log(2)

    def lb(k):
        na = k + 0.5 + fa
        return 1 + cv * (na * na - fa * fa) if (na >= 0) != (k >= 0) else -cv * (na * na + fa * fa)

    # log2 B_n is a quadratic in k on each stretch where the signs of n and
    # n + a are fixed, concave (vertex at n + a = 0) where they agree and
    # convex where they differ, so its largest value on lo..hi is at a
    # stretch end or next to n + a = 0
    kb = math.ceil(-0.5 - fa)
    top = max(lb(k) for k in (lo, hi, -1, 0, kb - 2, kb - 1, kb, kb + 1) if lo <= k <= hi)
    cut = top - mp.prec - TAIL_GUARD
    while lb(lo) + math.log2(abs(2 * lo + 1)) < cut:
        lo += 1
    while lb(hi) + math.log2(abs(2 * hi + 1)) < cut:
        hi -= 1
    return lo, hi, [lb(k) for k in range(lo, hi + 1)]


def _times_unit(x, j: int):
    """(-i)^j x for a Gaussian integer x."""
    a, b = x
    return ((a, b), (b, -a), (-a, -b), (-b, a))[j % 4]


def _R_terms(z, tau, shifts=None):
    """R(z), its Wirtinger z-derivative and the E-factor part of that
    derivative, from one pass over the terms; with shifts, a list of those
    three for R(z + s), one per s in shifts, every s a multiple of 1/2,
    from the same pass.

    The derivative is the power rule on the zeta-powers plus the E-part, the
    E-factors' dependence on y = Im z entering with dy/dz = 1/(2i); the
    power rule alone (R's derivative along the real z-direction) is the
    derivative minus the E-part.

    R = sum over n in 1/2 + Z of t_n = (sgn(n) - E(w_n)) p_n with
    p_n = (-1)^(n-1/2) e^(-pi i (n^2 tau + 2 n z)) and w_n = (n + a) sqrt(2v),
    a = y/v.  The pass walks outward from n = 1/2 on both sides; the unit
    e_n = p_n / m_n (a Gaussian integer at scale 2^W), m_n = |p_n| and
    h_n = m_n e^(-x_n^2), x_n = sqrt(pi) |w_n| (mpf at wp bits; h_n alone,
    in fixed point, on a side's tail), follow ratio recurrences seeded once
    per window.  sgn - E is sgn erfc(x_n) when the signs of n and w_n agree
    and sgn (2 - erfc(x_n)) when they differ.  Term n's erfc is taken at
    prec + TAIL_GUARD - floor(log2(B_max/B_n)) bits, at least 53, with B_n
    the a-priori bound on |t_n| (_R_window).  The bounds, and the rounding
    they allow, are derived once, in the README's numerical error policy.

    Where 2a is an exact integer J (checked on the mpf a), the terms n and
    n' = -n - J have n' + a = -(n + a) and the same m_n and h_n, so the
    pass keys erfc(x_n) m_n by |2(n + a)| = |2k + 1 + J| and takes it once
    per pair, before the sign and sgn-differs transforms.  The pair's value
    is at the larger of its terms' bits: their bits differ only when one
    term's signs differ (|n| < |a|, the larger B_n), and that term's partner
    lies on the same side further out, so the walk meets it first.  Each
    term keeps its own route, and so its own switch to the fixed-point h_n
    tail.

    A shift s = j/2 leaves Im z, and so every x_n, m_n and erfc, as they
    are: it multiplies t_n by e^(-2 pi i n s) = (-i)^j (-1)^(jk).  With T
    the sum over every k and O the sum over odd k, R(z + s) is (-i)^j T for
    even j and (-i)^j (T - 2 O) for odd j, and likewise both derivatives;
    so R(z - 1) = -R(z) exactly, and O is summed only when some j is odd.
    """
    js = [0] if shifts is None else [int(2 * s) for s in shifts]
    if shifts is not None and any(j != 2 * s for j, s in zip(js, shifts)):
        raise ValueError(f"R's shifts must be multiples of 1/2, not {list(shifts)}")
    alt = any(j & 1 for j in js)
    z, tau = mp.mpc(z), mp.mpc(tau)
    if tau.imag <= 0:
        raise PrecisionUnreachable("R needs Im(tau) > 0")
    (u, v), (x, y) = tau._mpc_, z._mpc_
    lo, hi, lbs = _R_window(tau.imag, z.imag)
    top, prec = max(lbs), mp.prec
    # a value j steps from its seed carries at most about j^2/2 + 3j + 3
    # units of 2^-wp (of 2^-W for e_n) from its recurrence
    wp = prec + TAIL_GUARD + 2 * max(hi, -lo).bit_length()
    W = wp - math.floor(top)
    rnd = round_nearest
    mul, div, add = (functools.partial(f, prec=wp, rnd=rnd) for f in (mpf_mul, mpf_div, mpf_add))
    # the seeds: real ones at wp bits; the units from e^(-pi i u/4) and
    # e^(-pi i x) at wp + 8 bits, multiplied out at scale 2^G, G = W + 8
    G = W + 8
    pi = mpf_pi(wp)
    pv, py, a = mul(pi, v), mul(pi, y), div(y, v)
    C = to_fixed(mpf_sqrt(mpf_shift(pv, 1), wp, rnd), W)    # x_n = C |2(n + a)| / 2^(W+1)
    A2 = to_fixed(a, W + 1)                                  # 2a at scale 2^W
    J = to_int(mpf_shift(a, 1), rnd)
    paired = mpf_shift(a, 1) == from_int(J)                  # 2a = J exactly
    seen = {}       # erfc(x_n) m_n by |2(n + a)|, when paired
    eq, ex = ((to_fixed(c, G), to_fixed(s, G)) for c, s in
              (mpf_cos_sin_pi(mpf_neg(t), wp + 8) for t in (mpf_shift(u, -2), x)))
    e0, ex = _mul(eq, ex, G), _mul(ex, ex, G)               # e_(1/2), e^(-2 pi i x)
    for _ in range(3):
        eq = _mul(eq, eq, G)                                 # e^(-2 pi i u) at the end
    ed = (-ex[0], ex[1])                                     # e_(-1/2) / e_(1/2)
    eu = _mul(ex, (-eq[0], -eq[1]), G)                       # e_(3/2) / e_(1/2)
    e1, ed = _mul(e0, ed, G), _mul(ed, eq, G)
    e0, eu, e1, ed, estep = ((r >> 8, i >> 8) for r, i in (e0, eu, e1, ed, eq))
    l0 = add(mpf_shift(pv, -2), py)                          # log m_(1/2)
    mq, my, m0, h0 = (mpf_exp(t, wp, rnd) for t in (mpf_shift(pv, 1), mpf_shift(py, 1), l0,
                                                      mpf_neg(add(l0, mpf_shift(mul(py, a), 1)))))
    mqy = mul(mq, my)
    # per side: first k, stop, step; e, m, h at the first k and their ratios
    sides = ((0, hi + 1, 1, e0, eu, m0, mqy, h0, div(fone, mqy)),
             (-1, lo - 1, -1, e1, ed, div(m0, my), div(mq, my), mul(h0, my), div(my, mq)))
    mstep, hstep = mq, div(fone, mq)
    table = erfc_table(max(53, prec + TAIL_GUARD))
    r0 = r1 = n0 = n1 = w0 = w1 = 0
    odd = (0,) * 6      # the six sums over odd k
    for k0, stop, step, (er, ei), ratio, m, mr, h, hr in sides:
        H = None        # h_n at scale 2^W on the side's tail
        for k in range(k0, stop, step):
            nw = ((2 * k + 1) << W) + A2                    # 2(n + a) at scale 2^W
            bits = max(53, prec + TAIL_GUARD - int(top - lbs[k - lo]))
            X = (C * abs(nw)) >> (W + 1)
            xf, hf = X >> W, to_fixed(h, W) if H is None else H
            key = abs(2 * k + 1 + J)                        # |2(n + a)| when paired
            fm = seen.get(key) if paired else None
            asymptotic = xf >= 2 and not ErfcTable.covers(xf, bits)
            if fm is None:
                if xf < 2:
                    fm = to_fixed(mpf_mul(mpf_erfc(from_man_exp(X, -W), bits, rnd), m), W)
                elif asymptotic:
                    fm = table.asymptotic_times(X, W, bits, hf)
                else:
                    fm = table.erfc_times(X, W, bits, m, hf)
                if paired:
                    seen[key] = fm
            if asymptotic and H is None and (nw >= 0) == (k >= 0):
                # x_n only grows from here on and the bits only fall
                H, HR, HSTEP = hf, to_fixed(hr, W), to_fixed(hstep, W)
            if (nw >= 0) != (k >= 0):
                fm = 2 * to_fixed(m, W) - fm
            if H is None:
                m, mr, h, hr = mul(m, mr), mul(mr, mstep), mul(h, hr), mul(hr, hstep)
            else:
                H, HR = (H * HR) >> W, (HR * HSTEP) >> W
            if k < 0:
                fm = -fm                                    # t_n / e_n at scale 2^W
            tr, ti = (fm * er) >> W, (fm * ei) >> W
            gr, gi = (hf * er) >> W, (hf * ei) >> W
            r0 += tr
            r1 += ti
            n0 += (2 * k + 1) * tr
            n1 += (2 * k + 1) * ti
            w0 += gr
            w1 += gi
            if alt and k & 1:
                odd = tuple(a + b for a, b in zip(odd, (tr, ti, (2 * k + 1) * tr,
                                                        (2 * k + 1) * ti, gr, gi)))
            er, ei = _mul((er, ei), ratio, W)
            ratio = _mul(ratio, estep, W)
    # d/dz: the power rule gives -2 pi i sum n t_n = -pi i (n0 + i n1), and
    # the E-factor's y-dependence adds (1/(2i)) d/dy (sgn - E) = i sqrt(2/v)
    # g_n p_n per term, i sqrt(2/v) (w0 + i w1); both at scale 2^(2W)
    PI = to_fixed(pi, W)
    S = to_fixed(mpf_sqrt(div(ftwo, v), wp, rnd), W)
    total = (r0, r1, n0, n1, w0, w1)
    out = []
    for j in js:
        sums = [t - 2 * o for t, o in zip(total, odd)] if j & 1 else total
        (r0, r1), (n0, n1), (w0, w1) = (_times_unit(sums[i:i + 2], j) for i in (0, 2, 4))
        epart = (-S * w1, S * w0)
        out.append((_to_mpc((r0, r1), W),
                    _to_mpc((PI * n1 + epart[0], epart[1] - PI * n0), 2 * W),
                    _to_mpc(epart, 2 * W)))
    return out[0] if shifts is None else out


def R(z, tau):
    """Zwegers' non-holomorphic R-function."""
    return _R_terms(z, tau)[0]


def R_dz(z, tau):
    """The Wirtinger d/dz of R."""
    return _R_terms(z, tau)[1]


# ---------------------------------------------------------------------------
# mu and its completion
# ---------------------------------------------------------------------------

def mu(z1, z2, tau):
    """Appell-Lerch mu(z1, z2; tau) by its defining bilateral sum."""
    return TauPlan(tau).mu(z2)(z1)[0]


def muhat(z1, z2, tau):
    """Completed mu: mu + (i/2) R(z1 - z2)."""
    return mu(z1, z2, tau) + 0.5j * R(z1 - z2, tau)

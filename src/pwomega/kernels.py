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
    term and derivative.
  * R (_R_terms): a window costs seven exponentials (three unit phases, four
    real Gaussian seeds), then per term five mpf products (the m_n and h_n
    recurrences, erfc times m_n), one fixed-point unit-phase step, two
    fixed-point complex multiply-adds, and erfc(x_n) at the bits the term
    needs: for 2 <= x_n below mpmath's asymptotic range a trapezoid sum of
    about (bits + 12) ln 2 / pi integer divisions on weights built once per
    window, and an exponential while its pole term counts (ErfcTable, within
    0.2 ulp of the term's bits); elsewhere mpmath's erfc, which is cheap
    there.  eta costs two exponentials, then five fixed-point products per
    pentagonal index.
  * the rounding bounds of theta, mu, R and eta are derived once, in the
    README's numerical error policy; each sum stays within a few units of the
    working precision of its largest term (tests/test_kernels.py measures
    every kernel against per-term sums at 100 more bits).
"""

from __future__ import annotations

import math

from mpmath import mp
from mpmath.libmp import (fone, from_man_exp, mpf_div, mpf_erfc, mpf_exp, mpf_mul, mpf_shift,
                          mpf_sub, round_nearest, to_fixed, to_float)

from .errors import PoleProximity, PrecisionUnreachable

GUARD = 56          # extra working bits used by public wrappers
TAIL_GUARD = 10     # tail cut at 2^-(prec+TAIL_GUARD) * max_term
# fixed-point bits below the working precision: a window's rounding stays
# under 2^17 units of 2^-W for Im tau >= 0.009 (README, numerical error
# policy), 7 bits short of one unit of the working precision
FIXED_GUARD = 24
ERFC_GUARD = 16     # fixed-point bits of ErfcTable above the bits it serves


def workprec(P: int):
    return mp.workprec(P + GUARD)


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

    def _halfint_sums(self, z, K: int):
        """[sum over k in z's window of (2n)^j T_k for j = 0..K], where
        T_k = a_k e^(2 pi i n z), n = k + 1/2.

        With k* = floor(-Im z / v), the term of largest modulus up to one
        index, T_(k*+j) = T_k* a^j g_j and T_(k*-j) = T_k* b^j g_j, where
        a = -q^(k*+1) e^(2 pi i z) and b = -q^(-k*) e^(-2 pi i z) both have
        modulus at most 1; each side is summed by Horner's rule in a or b,
        one accumulator per power of the weight 2n."""
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
        totals = [[0, 0] for _ in range(K + 1)]
        for (ar, ai), J, step in ((a, hi - k0, 2), (b, k0 - lo, -2)):
            accs = [[0, 0] for _ in range(K + 1)]
            for j in range(J, -1, -1):
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
        # the peak term was summed by both sides
        for j, total in enumerate(totals):
            total[0] -= (2 * k0 + 1) ** j << W
        return [peak * _to_mpc(total, W) for total in totals]

    def theta(self, z):
        """Jacobi theta: sum over n in 1/2+Z of e^(pi i n^2 tau + 2 pi i n (z+1/2))."""
        return self._halfint_sums(z, 0)[0]

    def theta_dz(self, z):
        """d/dz of theta (holomorphic derivative)."""
        return 1j * mp.pi * self._halfint_sums(z, 1)[1]

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
        return self.plan._mu_A0 + int((abs(y) + self._wy) / self.plan.v) + 6

    def _sides(self, s: int, A: int, t, tq, m0: int, jet: bool):
        """Both sides of the sum over -A <= n <= A split at s (see _side),
        the t-side from m = m0."""
        self._numerators(-A - 1, A)
        c, c0 = self._c, self._c0
        pos = self._side(t, c[c0 + s:c0 + A + 1], m0, s, 1, jet)
        neg = self._side(tq, c[c0 - A - 1:c0 + s - 1][::-1], 0, s - 1, -1, jet)
        return pos, neg

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
        (pos, _), (neg, _) = self._sides(s, self._window(z.imag), _fix(t, W), _fix(tq, W), 0, False)
        return [h / th * (_to_mpc(p, 2 * W) + zinv * e * _to_mpc(n, 2 * W))
                for th, e, p, n in zip(self.theta_w, self._ew, pos, neg)]

    def laurent(self, nstar: int):
        """[[a_-1, a_0, a_1] for each w of the bundle]: the Laurent
        coefficients of mu(c + delta, w; tau) in delta at its pole
        c = -nstar tau, nstar in (0, -1), from one pass.

        The pass splits at s = nstar, where t = 1 and t' = q exactly.  The
        singular term n = nstar (m = 0 on the t-side) is left out of the
        sum and of its pole check, and enters in closed form,
        1/(1 - e^x) = -1/x + 1/2 - x/12 + O(x^3) with x = 2 pi i delta; every
        other term 1/(1 - x_m e^(+-x)) contributes r + (+-x) x_m r^2, with
        r = 1/(1 - x_m)."""
        if nstar not in (0, -1):
            raise ValueError("the Laurent pass is centred at 0 or tau")
        plan = self.plan
        W = plan.W
        c = -nstar * plan.tau
        (pos, pos1), (neg, neg1) = self._sides(nstar, self._window(c.imag),
                                              (1 << W, 0), plan._q[1], 1, True)
        x = 2j * mp.pi
        hc = mp.expjpi(c)
        out = []
        for th, e, p, p1, n, n1, row in zip(self.theta_w, self._ew, pos, pos1, neg, neg1,
                                            self._c[self._c0 + nstar]):
            a = _to_mpc(row, W)
            t_side = [-a / x, _to_mpc(p, 2 * W) + a / 2, x * (_to_mpc(p1, 2 * W) - a / 12)]
            q_side = [0, _to_mpc(n, 2 * W), -x * _to_mpc(n1, 2 * W)]
            # mu = e^(pi i z) / theta(w) (t_side + zeta^-1 e^(2 pi i w) q_side)
            out.append([(hc * u + e / hc * d) / th for u, d in
                        zip(_times_exp(t_side, 1j * mp.pi), _times_exp(q_side, -1j * mp.pi))])
        return out

    def _side(self, t, rows, m0: int, n0: int, step: int, jet: bool):
        """[sum over m0 <= m < len(rows) of rows[m][i] r_m for each w_i] and,
        with jet, [the same sum of rows[m][i] x_m r_m^2], where x_m = t q^m
        and r_m = 1/(1 - x_m), as Gaussian integers at scale 2^(2W).  Raises
        PoleProximity when a denominator is below 2^(-(prec-28)/2)
        max(1, |x_m|); term m is term n = n0 + step m of the sum."""
        W = self.plan.W
        Q = self.plan._qpowers(len(rows))
        cut = self.plan.prec - GUARD // 2
        one, one2, num = 1 << W, 1 << (2 * W), 1 << (3 * W)
        near = 1 << (2 * W + 2 - cut)      # |den|^2 2^cut >= 4 rules out a pole
        tr0, ti0 = t
        sums = [[0, 0] for _ in self.ws]
        sums1 = [[0, 0] for _ in self.ws]
        for m in range(m0, len(rows)):
            qr, qi = Q[m]
            tr = (tr0 * qr - ti0 * qi) >> W
            ti = (tr0 * qi + ti0 * qr) >> W
            dr, di = one - tr, -ti
            M = dr * dr + di * di
            if M < near and (M << cut) < max(one2, tr * tr + ti * ti):
                raise PoleProximity(f"mu denominator at n={n0 + step * m} has modulus "
                                    f"{mp.sqrt(mp.mpf(M)) / 2 ** W}")
            k = num // M
            rr, ri = (dr * k) >> W, -(di * k) >> W        # 1/(1 - x_m)
            for acc, (cr, ci) in zip(sums, rows[m]):
                acc[0] += cr * rr - ci * ri
                acc[1] += cr * ri + ci * rr
            if jet:
                # x r^2 = r^2 - r, since x r = r - 1
                xr, xi = ((rr * rr - ri * ri) >> W) - rr, ((2 * rr * ri) >> W) - ri
                for acc, (cr, ci) in zip(sums1, rows[m]):
                    acc[0] += cr * xr - ci * xi
                    acc[1] += cr * xi + ci * xr
        return sums, sums1


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


class ErfcTable:
    """erfc(x) where mpmath's erfc would take 1 - erf(x) at about 1.44 x^2
    more bits (covers), by the trapezoid rule with step h = pi/c,
    c = sqrt((bits + 12) ln 2), on (2x/pi) e^(-x^2) int_0^oo e^(-t^2)/(t^2 + x^2) dt
    (Chiarella & Reichel 1968, Matta & Reichel 1971):

        erfc(x) = (2hx/pi) e^(-x^2) [1/(2x^2) + sum_(k>=1) G_k/(k^2 h^2 + x^2)]
                  - 2/(e^(2cx) - 1),   G_k = e^(-k^2 h^2).

    The last term is the integrand's pole at t = ix.  The weights are built
    once, by ratio recurrence in fixed point at F = bits + ERFC_GUARD bits,
    and serve every bits up to the table's.  Where the sum and the pole term
    stop, and what the rule leaves, are stated once, in the README's
    numerical error policy."""

    def __init__(self, bits: int):
        self.F = F = bits + ERFC_GUARD
        G = F + 8                                             # the recurrence's scale
        with mp.workprec(G):
            h = mp.pi / mp.sqrt((bits + 12) * mp.ln(2))
            self._hp = to_fixed((2 * h / mp.pi)._mpf_, F)      # 2h/pi
            self._c2f = float(2 * mp.pi / h)                    # 2c = 2 pi/h
            self._c2 = to_fixed((2 * mp.pi / h)._mpf_, F)
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

    def erfc_times(self, x, bits: int, m, hm):
        """erfc(x) m as an mpf, to within 2^-bits relative, for an mpf x the
        table covers at bits (at most the table's); hm = m e^(-x^2)."""
        F = self.F
        X = to_fixed(x, F)
        X2 = (X * X) >> F
        s = (1 << (2 * F)) // (2 * X2)
        stop = 1 << (2 * F - bits - 4)
        for g, k2 in self._terms:
            if g < stop:
                break
            s += g // (k2 + X2)
        out = mpf_mul(from_man_exp((((self._hp * X) >> F) * s) >> F, -F), hm)
        # the pole term is about 2 sqrt(pi) x e^(x^2 - 2 pi x/h) of erfc(x)
        xf = to_float(x)
        p = bits + ERFC_GUARD + int(math.log2(3.6 * xf) + (xf - self._c2f) * xf * math.log2(math.e))
        if p > 0:
            p = max(p, 24)
            u = mpf_exp(from_man_exp(-((self._c2 * X) >> F), -F), p)     # e^(-2 pi x/h)
            pole = mpf_div(mpf_shift(mpf_mul(u, m), 1), mpf_sub(fone, u, p), p)
            out = mpf_sub(out, pole, F)
        return out


# ---------------------------------------------------------------------------
# R and its z-derivatives
# ---------------------------------------------------------------------------

def _R_window(v, y):
    """R's index window lo..hi (n = k + 1/2) at the working precision and
    {k: log2 B_n} on it, B_n the a-priori bound on |t_n| of the README's
    numerical error policy: each term left out has B_n, and the derivative
    sum's |2k+1| B_n, below 2^-(prec+TAIL_GUARD) B_max."""
    lo, hi = _halfint_window(v, y)   # wider than needed; B_n peaks at n = -y/v
    fa, cv = float(y / v), math.pi * float(v) / math.log(2)
    lbs = {}
    for k in range(lo, hi + 1):
        na = k + 0.5 + fa
        lbs[k] = 1 + cv * (na * na - fa * fa) if (na >= 0) != (k >= 0) else -cv * (na * na + fa * fa)
    cut = max(lbs.values()) - mp.prec - TAIL_GUARD
    kept = [k for k, lb in lbs.items() if lb + math.log2(abs(2 * k + 1)) >= cut]
    return kept[0], kept[-1], lbs


def _R_terms(z, tau, formal=False):
    """R(z) and its first z-derivative, from one pass over the terms.

    formal=False differentiates in the Wirtinger sense (the E-factor's
    dependence on y = Im z enters with dy/dz = 1/(2i)); formal=True applies
    the power rule to the zeta-powers only, treating the E-factors as
    constants (the derivative along the real z-direction).

    R = sum over n in 1/2 + Z of t_n = (sgn(n) - E(w_n)) p_n with
    p_n = (-1)^(n-1/2) e^(-pi i (n^2 tau + 2 n z)) and w_n = (n + a) sqrt(2v),
    a = y/v.  The pass walks outward from n = 1/2 on both sides; the unit
    e_n = p_n / m_n (a Gaussian integer at scale 2^W), m_n = |p_n| =
    e^(pi (n^2 v + 2 n y)) and h_n = m_n e^(-x_n^2), x_n = sqrt(pi) |w_n|
    (mpf at wp bits), follow ratio recurrences seeded once per window.
    sgn - E is sgn erfc(x_n) when the signs of n and w_n agree and
    sgn (2 - erfc(x_n)) when they differ.  Term n's erfc is taken at
    prec + TAIL_GUARD - floor(log2(B_max/B_n)) bits, at least 53, with B_n
    the a-priori bound on |t_n| (_R_window); ErfcTable takes its
    e^(-x_n^2) m_n from h_n.  The bounds, and the rounding they allow, are
    derived once, in the README's numerical error policy.
    """
    z, tau = mp.mpc(z), mp.mpc(tau)
    v, y = tau.imag, z.imag
    if v <= 0:
        raise PrecisionUnreachable("R needs Im(tau) > 0")
    lo, hi, lbs = _R_window(v, y)
    top, prec = max(lbs.values()), mp.prec
    # a value j steps from its seed carries at most about j^2/2 + 3j + 3
    # units of 2^-wp (of 2^-W for e_n) from its recurrence
    wp = prec + TAIL_GUARD + 2 * max(hi, -lo).bit_length()
    W = wp - math.floor(top)
    rnd = round_nearest
    with mp.workprec(wp):
        C = to_fixed(mp.sqrt(2 * mp.pi * v)._mpf_, W)       # x_n = C |2(n + a)| / 2^(W+1)
        A2 = to_fixed((2 * y / v)._mpf_, W)                  # 2a at scale 2^W
        u, x = tau.real, z.real
        ex, eq = mp.expjpi(-2 * x), mp.expjpi(-2 * u)
        estep = _fix(eq, W)
        e0 = _fix(mp.expjpi(-u / 4 - x), W)                  # e_(1/2)
        ed = _fix(-mp.conj(ex), W)                           # e_(-1/2) / e_(1/2)
        eu = _fix(-ex * eq, W)                               # e_(3/2) / e_(1/2)
        mq, my = mp.exp(2 * mp.pi * v), mp.exp(2 * mp.pi * y)
        m0 = mp.exp(mp.pi * (v / 4 + y))                     # m_(1/2)
        h0 = mp.exp(-mp.pi * (v / 4 + y + 2 * y * y / v))    # h_(1/2)
        # per side: first k, stop, step; e, m, h at the first k and their ratios
        sides = ((0, hi + 1, 1, e0, eu, m0, mq * my, h0, 1 / (mq * my)),
                 (-1, lo - 1, -1, _mul(e0, ed, W), _mul(ed, estep, W),
                  m0 / my, mq / my, h0 * my, my / mq))
        mstep, hstep = mq._mpf_, (1 / mq)._mpf_
    erfcs = None       # the trapezoid weights, built for the first term that uses them
    r0 = r1 = n0 = n1 = w0 = w1 = 0
    for k0, stop, step, (er, ei), ratio, m, mr, h, hr in sides:
        m, mr, h, hr = m._mpf_, mr._mpf_, h._mpf_, hr._mpf_
        for k in range(k0, stop, step):
            nw = ((2 * k + 1) << W) + A2                    # 2(n + a) at scale 2^W
            bits = max(53, prec + TAIL_GUARD - int(top - lbs[k]))
            X = (C * abs(nw)) >> (W + 1)
            if ErfcTable.covers(X >> W, bits):
                erfcs = erfcs or ErfcTable(max(53, prec + TAIL_GUARD))
                f = erfcs.erfc_times(from_man_exp(X, -W), bits, m, h)
            else:
                f = mpf_mul(mpf_erfc(from_man_exp(X, -W), bits, rnd), m)
            if (nw >= 0) != (k >= 0):
                f = mpf_sub(mpf_shift(m, 1), f, wp, rnd)
            fm = to_fixed(f, W) if k >= 0 else -to_fixed(f, W)   # t_n / e_n at scale 2^W
            tr, ti = (fm * er) >> W, (fm * ei) >> W
            r0 += tr
            r1 += ti
            n0 += (2 * k + 1) * tr
            n1 += (2 * k + 1) * ti
            if not formal:
                hf = to_fixed(h, W)
                w0 += (hf * er) >> W
                w1 += (hf * ei) >> W
            er, ei = _mul((er, ei), ratio, W)
            ratio = _mul(ratio, estep, W)
            m = mpf_mul(m, mr, wp, rnd)
            mr = mpf_mul(mr, mstep, wp, rnd)
            h = mpf_mul(h, hr, wp, rnd)
            hr = mpf_mul(hr, hstep, wp, rnd)
    with mp.workprec(wp):
        # d/dz: the power rule gives -2 pi i sum n t_n, and the E-factor's
        # y-dependence adds (1/(2i)) d/dy (sgn - E) = i sqrt(2/v) g_n p_n per term
        dz = (-1j * mp.pi * _to_mpc((n0, n1), W)
              + 1j * mp.sqrt(2 / v) * _to_mpc((w0, w1), W))
    return _to_mpc((r0, r1), W), +dz


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

"""Planned theta and mu evaluations (kernels.TauPlan, fixed point) against
per-term bilateral sums in mpmath: one complex exponential per term, with
the same windows and the same pole check.  R and eta (ratio recurrences,
R's erfc at the precision each term needs) against their per-term sums at
100 more bits, and R's trapezoid and asymptotic erfc (kernels.ErfcTable)
against mpmath's erfc at 100 more bits."""

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from contour_oracle import contour_radius
from mpmath import mp

from pwomega import appell, kernels
from pwomega.completion import _w_point
from pwomega.errors import PoleProximity
from pwomega.kernels import GUARD, TAIL_GUARD, _halfint_window, qpow, workprec

P = 192
# the _prim_err allowance: a primitive may differ from the exact sum by this,
# relative, at working precision P + GUARD
REL_TOL = mp.mpf(2) ** (-(P + GUARD - 16))
IM_TAUS = ("1.36", "1", "0.1", "0.0104")
IM_TAUS_R = ("1.36", "0.93", "0.1", "0.0104")


def theta_reference(z, tau, order=0):
    """theta^(order)(z) / order!, term by term."""
    z, tau = mp.mpc(z), mp.mpc(tau)
    lo, hi = _halfint_window(tau.imag, z.imag)
    acc = mp.mpc(0)
    for k in range(lo, hi + 1):
        n = k + mp.mpf(1) / 2
        term = mp.expjpi(n * n * tau + 2 * n * (z + mp.mpf(1) / 2))
        acc += (2 * mp.pi * 1j * n) ** order * term
    return acc / mp.factorial(order)


def R_reference(z, tau):
    """[R, its Wirtinger d/dz, the E-factor part of that d/dz] term by term:
    one complex exponential, one erf or erfc and one exponential per term,
    over the kernel's window widened by 2 |Im z| / Im tau + 2 indices on
    each side."""
    z, tau = mp.mpc(z), mp.mpc(tau)
    v, y = tau.imag, z.imag
    s2v = mp.sqrt(2 * v)
    lo, hi = _halfint_window(v, y)
    pad = int(2 * abs(y / v)) + 2
    r, rn, rw = mp.mpc(0), mp.mpc(0), mp.mpc(0)
    for k in range(lo - pad, hi + pad + 1):
        n = k + mp.mpf(1) / 2
        w = (n + y / v) * s2v
        phase = (-1) ** k * mp.expjpi(-n * n * tau - 2 * n * z)
        t = kernels.sgn_minus_E(1 if n > 0 else -1, w) * phase
        r += t
        rn += n * t
        rw += mp.exp(-mp.pi * w * w) * phase
    rw = 1j * mp.sqrt(2 / v) * rw
    return r, -2j * mp.pi * rn + rw, rw


def eta_reference(tau):
    """The pentagonal-number sum, two qpow calls per k."""
    tau = mp.mpc(tau)
    kmax = int(mp.sqrt((mp.prec + TAIL_GUARD + 8) * mp.ln(2) / (3 * mp.pi * tau.imag))) + 3
    acc = mp.mpc(1)
    for k in range(1, kmax + 1):
        acc += (-1) ** k * (qpow(tau, k * (3 * k - 1) // 2) + qpow(tau, k * (3 * k + 1) // 2))
    return qpow(tau, mp.mpf(1) / 24) * acc


def mu_reference(z1, z2, tau):
    z1, z2, tau = mp.mpc(z1), mp.mpc(z2), mp.mpc(tau)
    v = tau.imag
    L = (mp.prec + TAIL_GUARD + 8) * mp.ln(2)
    A = int(mp.sqrt(L / (mp.pi * v))) + int((abs(z1.imag) + abs(z2.imag)) / v) + 6
    pole_cut = mp.mpf(2) ** (-(mp.prec - GUARD // 2) / 2)
    acc = mp.mpc(0)
    z1_fac = mp.expjpi(2 * z1)
    for n in range(-A, A + 1):
        qn = qpow(tau, n)
        den = 1 - z1_fac * qn
        if abs(den) < pole_cut * max(1, abs(z1_fac * qn)):
            raise PoleProximity(f"mu denominator at n={n} has modulus {abs(den)}")
        acc += (-1) ** n * mp.expjpi(2 * n * z2 + n * (n + 1) * tau) / den
    return mp.expjpi(z1) / theta_reference(z2, tau) * acc


def _contour_points(tau):
    """Seven of the 128 contour nodes around each removable center."""
    r = contour_radius(tau)
    return [c + r * mp.expjpi(2 * mp.mpf(j) / 128)
            for c in (mp.mpc(0), tau) for j in (1, 19, 40, 64, 77, 100, 127)]


def _close(got, want):
    return abs(got - want) <= REL_TOL * abs(want)


def _w_points(tau):
    """The four second arguments of the F-hat contour pass."""
    return [_w_point(tau, 0), _w_point(tau, 1), tau + mp.mpf(1) / 2, tau + mp.mpf(3) / 2]


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_planned_theta_matches_per_term_sum(im_tau):
    with workprec(P):
        tau = mp.mpc("0.11", im_tau)
        plan = kernels.TauPlan(tau)
        # -tau/2 and tau/2 + 1/2 are mirrors whose peak term is its own mirror
        for z in _contour_points(tau) + _w_points(tau) + [-tau / 2, tau / 2 + mp.mpf(1) / 2]:
            want = theta_reference(z, tau)
            assert _close(plan.theta(z), want), z
            assert _close(kernels.theta(z, tau), want), z
            assert _close(plan.theta_taylor(z, 1)[1], theta_reference(z, tau, order=1)), z
        for z in (mp.mpc(0), tau):
            assert _close(plan.theta_taylor(z, 1)[1], theta_reference(z, tau, order=1))
            # the weighted pass; theta vanishes at 0 and tau, so its k = 0
            # term is held to the absolute allowance
            got = plan.theta_taylor(z, 3)
            assert abs(got[0]) <= REL_TOL
            if z == 0:
                # the fold pairs n with -n, and T_(-n) = -T_n: theta is odd
                assert got[0] == got[2] == 0
            for k in (1, 2, 3):
                want = theta_reference(z, tau, order=k)
                assert abs(got[k] - want) <= REL_TOL * (abs(want) + 1), (z, k)


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_planned_mu_matches_per_term_sum(im_tau):
    with workprec(P):
        tau = mp.mpc("0.11", im_tau)
        plan = kernels.TauPlan(tau)
        for w in (_w_point(tau, 0), tau + mp.mpf(3) / 2):
            mu_w = plan.mu(w)
            for z in _contour_points(tau)[::3]:
                want = mu_reference(z, w, tau)
                got, = mu_w(z)
                assert _close(got, want), (z, w)
                assert _close(kernels.mu(z, w, tau), want), (z, w)


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_mu_bundle_matches_one_point_mu(im_tau):
    with workprec(P):
        tau = mp.mpc("0.11", im_tau)
        ws = _w_points(tau)
        bundle = kernels.TauPlan(tau).mu(*ws)
        for z in _contour_points(tau)[::2]:
            for got, w in zip(bundle(z), ws):
                assert _close(got, kernels.mu(z, w, tau)), (z, w)


def test_planned_mu_raises_at_denominator_zero():
    with workprec(P):
        tau = mp.mpc("0.11", "0.0104")
        plan = kernels.TauPlan(tau)
        mu_w = plan.mu(_w_point(tau, 0))
        bundle = plan.mu(*_w_points(tau))
        for z in (mp.mpc(0), tau, 1 - 2 * tau):
            with pytest.raises(PoleProximity):
                mu_reference(z, _w_point(tau, 0), tau)
            for planned in (mu_w, bundle):
                with pytest.raises(PoleProximity):
                    planned(z)
        # a node on the contour stays clear of the poles
        mu_w(_contour_points(tau)[0])
        bundle(_contour_points(tau)[0])
        # the cut is |1 - zeta| < 2^(-(prec - GUARD/2)/2): z = x/(2 pi) times
        # the cut, with |1 - zeta| ~ 2 pi z, raises below it and not above it
        cut = mp.mpf(2) ** (-(mp.prec - GUARD // 2) / 2)
        for x, raises in (("0.7", True), ("1.4", False)):
            z = mp.mpf(x) * cut / (2 * mp.pi)
            for planned in (lambda: mu_reference(z, _w_point(tau, 0), tau), lambda: mu_w(z)):
                if raises:
                    with pytest.raises(PoleProximity):
                        planned()
                else:
                    planned()


@pytest.mark.parametrize("z", ["0.3-2j", "0.3+2j"])
def test_mu_far_from_the_strip_keeps_working_precision(z):
    # mu's split index follows Im z, so every t q^m in a denominator has
    # modulus at most 1, even two units of Im z outside the strip
    args = (mp.mpc(complex(z)), mp.mpc("0.1", "0.2"), mp.mpc("0.1", "0.5"))
    with mp.workprec(192):
        got = kernels.mu(*args)
    with mp.workprec(292):
        want = mu_reference(*args)
        assert abs(got - want) < 16 * mp.mpf(2) ** -192 * abs(want)


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_mu_laurent_pass_matches_point_evaluations(im_tau):
    # from per-term sums at c +- delta, delta ~ 10^-10:
    # (mu(c+d) + mu(c-d))/2 = a_0 + O(d^2) and
    # (mu(c+d) - mu(c-d))/2 = a_-1/d + a_1 d + O(d^3)
    with workprec(P):
        tau = mp.mpc("0.11", im_tau)
        ws = _w_points(tau)
        bundle = kernels.TauPlan(tau).mu(*ws)
        d = mp.mpc("3e-11", "1e-10")
        for nstar in (0, -1):
            c = -nstar * tau
            for (am, a0, a1), w in zip(bundle.laurent(nstar), ws):
                plus, minus = mu_reference(c + d, w, tau), mu_reference(c - d, w, tau)
                tol = mp.mpf(10) ** -12 * (abs(am) + abs(a0) + abs(a1))
                assert abs((plus - minus) / 2 * d - am) < tol, (nstar, w)
                assert abs((plus + minus) / 2 - a0) < tol, (nstar, w)
                assert abs(((plus - minus) / 2 - am / d) / d - a1) < tol, (nstar, w)


def _old_side(plan, t, rows, m0):
    """MuPlan._side as first written, each side of a Laurent pass taking its
    own reciprocals: [sum over m0 <= m < len(rows) of rows[m][i] r_m] and
    [the same sum of rows[m][i] x_m r_m^2], x_m = t q^m, r_m = 1/(1 - x_m)."""
    W = plan.W
    Q = plan._qpowers(len(rows))
    (tr0, ti0), width = t, len(rows[0])
    sums, sums1 = [[0, 0] for _ in range(width)], [[0, 0] for _ in range(width)]
    for m in range(m0, len(rows)):
        qr, qi = Q[m]
        tr, ti = (tr0 * qr - ti0 * qi) >> W, (tr0 * qi + ti0 * qr) >> W
        dr, di = (1 << W) - tr, -ti
        k = (1 << (3 * W)) // (dr * dr + di * di)
        rr, ri = (dr * k) >> W, -(di * k) >> W
        xr, xi = ((rr * rr - ri * ri) >> W) - rr, ((2 * rr * ri) >> W) - ri
        for acc, acc1, (cr, ci) in zip(sums, sums1, rows[m]):
            acc[0] += cr * rr - ci * ri
            acc[1] += cr * ri + ci * rr
            acc1[0] += cr * xr - ci * xi
            acc1[1] += cr * xi + ci * xr
    return sums, sums1


def _laurent_two_sided(bundle, nstar):
    """MuPlan.laurent as first written: the t-side's x_m = q^m (m >= 1) and
    the q-side's x_m = q^(m+1) (m >= 0) each from its own pass (_old_side)."""
    plan = bundle.plan
    W = plan.W
    c = -nstar * plan.tau
    pos, neg = bundle._rows(nstar, bundle._window(c.imag))
    (ps, p1s), (ns, n1s) = _old_side(plan, (1 << W, 0), pos, 1), _old_side(plan, plan._q[1], neg, 0)
    x = 2j * mp.pi
    hc = mp.expjpi(c)
    to_mpc, times_exp = kernels._to_mpc, kernels._times_exp
    out = []
    for th, e, p, p1, n, n1, row in zip(bundle.theta_w, bundle._ew, ps, p1s, ns, n1s, pos[0]):
        a = to_mpc(row, W)
        t_side = [-a / x, to_mpc(p, 2 * W) + a / 2, x * (to_mpc(p1, 2 * W) - a / 12)]
        q_side = [0, to_mpc(n, 2 * W), -x * to_mpc(n1, 2 * W)]
        out.append([(hc * u + e / hc * d) / th for u, d in
                    zip(times_exp(t_side, 1j * mp.pi), times_exp(q_side, -1j * mp.pi))])
    return out


@pytest.mark.parametrize("im_tau", IM_TAUS)
def test_mu_laurent_table_keeps_the_two_sided_pass(im_tau):
    # both sides of a Laurent pass read the plan's one table of 1/(1 - q^m)
    # and q^m/(1 - q^m)^2, bit for bit what each side took on its own
    with workprec(P):
        tau = mp.mpc("0.11", im_tau)
        bundle = kernels.TauPlan(tau).mu(*_w_points(tau))
        for nstar in (0, -1):
            assert bundle.laurent(nstar) == _laurent_two_sided(bundle, nstar), nstar


def _R_points(tau):
    """z on both sides of the sign change of w_(1/2), z with w_(1/2) = 0 and
    w_(-1/2) = 0 exactly (Im z = -+v/2; -w_0 is the point fcal_derivs uses),
    and generic z."""
    v = tau.imag
    ys = ["0.3", "-0.7", "-0.49", "-0.51", "0.5"]
    return [mp.mpc("0.17", 0) + 1j * mp.mpf(y) * v for y in ys] + [-_w_point(tau, 0)]


def _ulps(got, want):
    return float(abs(got - want) / (mp.mpf(2) ** -mp.prec * max(1, abs(want))))


@pytest.mark.parametrize("im_tau", IM_TAUS_R)
def test_R_matches_per_term_sum(im_tau):
    # the recurrences and the per-term erfc precision hold every term to
    # 2^-(prec+TAIL_GUARD) of the largest, so R, R_dz and R_dz's E-part
    # stay within 2 units of the working precision of max(1, |value|)
    # (measured: at most 0.8); without the guard bits R_dz reaches 8.6
    tau = mp.mpc("0.11", im_tau)
    for z in _R_points(tau):
        with mp.workprec(P + GUARD + 100):
            want = R_reference(z, tau)
        with workprec(P):
            got, = kernels._R_terms(z, tau)
            for g, w in zip(got, want):
                assert abs(g - w) <= REL_TOL * max(1, abs(w)), (z, g, w)
                assert _ulps(g, w) <= 2, (z, _ulps(g, w))


def test_R_window_follows_its_largest_terms():
    # |t_n| peaks at n = -Im z / Im tau: two units of Im tau above the strip
    # the window must reach 12 indices further down than one centred at
    # +Im z / Im tau; at Im z = 6 every kept term lies between n = 0 and
    # n = -Im z / Im tau, where sgn(n) and w_n differ, and the outer ones
    # take the asymptotic erfc on h_n
    tau = mp.mpc("0.11", "0.5")
    for z in (mp.mpc("0.2", "3"), mp.mpc("0.2", "6")):
        with mp.workprec(P + GUARD + 100):
            want = R_reference(z, tau)
        with workprec(P):
            got, = kernels._R_terms(z, tau)
            for g, w in zip(got, want):
                assert _ulps(g, w) <= 2, (z, g, w)


@pytest.mark.parametrize("im_tau", IM_TAUS_R)
def test_R_window_ends_at_the_weighted_tail_cut(im_tau):
    # every term R leaves out has (2k+1) B_n below 2^-(prec+TAIL_GUARD)
    # B_max, so the derivative sum is cut where R is, and the end terms of
    # the window reach that cut, so no term is summed below it
    tau = mp.mpc("0.11", im_tau)
    v = tau.imag

    def bound(k, a):
        na = k + mp.mpf(1) / 2 + a
        if (na >= 0) != (k >= 0):
            return 2 * mp.exp(mp.pi * v * (na * na - a * a))
        return mp.exp(-mp.pi * v * (na * na + a * a))

    with workprec(P):
        for z in _R_points(tau):
            a = z.imag / v
            lo, hi, _ = kernels._R_window(v, z.imag)
            cut = mp.mpf(2) ** -(mp.prec + TAIL_GUARD) * max(bound(k, a) for k in range(lo, hi + 1))
            for k in [*range(lo - 40, lo), *range(hi + 1, hi + 41)]:
                assert abs(2 * k + 1) * bound(k, a) < cut, (z, k)
            for k in (lo, hi):
                assert abs(2 * k + 1) * bound(k, a) >= cut * (1 - mp.mpf(10) ** -9), (z, k)


def _old_halfint_window(v, y):
    """_halfint_window as first written: the length in mpf, then the window
    in floats."""
    terms = 2 * mp.sqrt(y * y + v * (mp.prec + TAIL_GUARD + 8) * math.log(2) / math.pi) / v
    assert terms <= kernels.MAX_TERMS
    v, y = float(v), float(y)
    root = math.sqrt(y * y + v * (mp.prec + TAIL_GUARD + 8) * math.log(2) / math.pi)
    return math.floor((-y - root) / v) - 4, math.ceil((-y + root) / v) + 4


def _old_R_window(v, y):
    """_R_window as first written: {k: log2 B_n} over theta's whole window,
    its peak, and the first and last k whose weighted bound reaches the cut."""
    lo, hi = _old_halfint_window(v, y)
    fa, cv = float(y / v), math.pi * float(v) / math.log(2)
    lbs = {}
    for k in range(lo, hi + 1):
        na = k + 0.5 + fa
        lbs[k] = 1 + cv * (na * na - fa * fa) if (na >= 0) != (k >= 0) else -cv * (na * na + fa * fa)
    cut = max(lbs.values()) - mp.prec - TAIL_GUARD
    kept = [k for k, lb in lbs.items() if lb + math.log2(abs(2 * k + 1)) >= cut]
    return kept[0], kept[-1], lbs


@pytest.mark.parametrize("prec", [128, 192])
def test_windows_match_their_first_formulas(prec):
    # the float length check and the inward walk give the windows, and every
    # term's log2 B_n, of the per-index formulas, from Im tau = 0.0104 up and
    # out to |Im z| = 6 Im tau
    with workprec(prec):
        for im_tau in ("0.0104", "0.03", "0.1", "0.5", "0.93", "1.36"):
            v = mp.mpf(im_tau)
            for a in ("-6", "-2.5", "-1", "-0.51", "-0.5", "-0.49", "-0.1", "0", "0.3", "0.5",
                      "1", "3.7", "6"):
                y = mp.mpf(a) * v
                assert _halfint_window(v, y) == _old_halfint_window(v, y), (im_tau, a)
                lo, hi, lbs = kernels._R_window(v, y)
                want_lo, want_hi, want = _old_R_window(v, y)
                assert (lo, hi) == (want_lo, want_hi), (im_tau, a)
                assert lbs == [want[k] for k in range(lo, hi + 1)], (im_tau, a)
                assert max(lbs) == max(want.values()), (im_tau, a)


@pytest.mark.parametrize("im_tau", IM_TAUS_R)
def test_R_shift_pass_matches_one_shift_passes(im_tau):
    # one pass serves R(z + s) for s in (0, -1/2) and (0, -1): each within
    # 2 units of the working precision of max(1, |value|) of its own pass at
    # z + s, shift 0 bit for bit, and shift -1 the exact negation of shift 0;
    # the points carry 53 bits, so z + s is exact
    tau = mp.mpc("0.11", im_tau)
    points = _R_points(tau)
    with workprec(P):
        for z in points:
            for shifts in ((0, -F(1, 2)), (0, -1)):
                got = kernels._R_terms(z, tau, shifts)
                assert got[0] == kernels._R_terms(z, tau)[0]
                for s, terms in zip(shifts, got):
                    for g, w in zip(terms, kernels._R_terms(z + s, tau)[0]):
                        assert _ulps(g, w) <= 2, (z, s, g, w)
            zero, minus_one = kernels._R_terms(z, tau, (0, -1))
            assert all(a == -b for a, b in zip(zero, minus_one)), z
        with pytest.raises(ValueError):
            kernels._R_terms(points[0], tau, (0, F(1, 4)))


# Im z / Im tau = a at the mirror points (2a an integer), and the near miss
# a = -1/2 + 2^-30, which pairs nothing
MIRROR_AS = [mp.mpf(a) for a in ("-6", "-1.5", "-1", "-0.5", "0", "0.5", "1", "1.5", "6")]
NEAR_MISS_A = mp.mpf("-0.5") + mp.mpf(2) ** -30


def _mirror_points(tau):
    """z = 0.17 + i a Im tau, Im z exact, for a in MIRROR_AS and NEAR_MISS_A."""
    return [mp.mpc(mp.mpf("0.17"), mp.fmul(a, tau.imag, exact=True))
            for a in MIRROR_AS + [NEAR_MISS_A]]


@pytest.mark.parametrize("im_tau", IM_TAUS_R)
def test_R_mirror_pairs_match_per_term_sum(im_tau):
    # where 2 Im z / Im tau = J is an integer, the terms n and -n - J share
    # one erfc; R, R_dz and R_dz's E-part, unshifted and from the shift
    # passes (0, -1/2) and (0, -1), stay within 2 units of the working
    # precision of max(1, |value|), as they do at the near miss
    tau = mp.mpc("0.11", im_tau)
    for z in _mirror_points(tau):
        with mp.workprec(P + GUARD + 100):
            want = {0: R_reference(z, tau), -F(1, 2): R_reference(z - mp.mpf(1) / 2, tau)}
            want[-1] = [-w for w in want[0]]
        with workprec(P):
            for shifts in ((0,), (0, -F(1, 2)), (0, -1)):
                got = kernels._R_terms(z, tau, shifts)
                for s, terms in zip(shifts, got):
                    for g, w in zip(terms, want[s]):
                        assert _ulps(g, w) <= 2, (z, s, _ulps(g, w))


def _record_erfc_bits(monkeypatch):
    """[the bits of each erfc R takes], through all three of its routes."""
    calls = []
    for name in ("erfc_times", "asymptotic_times"):
        route = getattr(kernels.ErfcTable, name)
        monkeypatch.setattr(kernels.ErfcTable, name, lambda self, X, W, bits, *rest, route=route:
                            calls.append(bits) or route(self, X, W, bits, *rest))
    monkeypatch.setattr(kernels, "mpf_erfc", lambda x, bits, rnd, route=kernels.mpf_erfc:
                        calls.append(bits) or route(x, bits, rnd))
    return calls


@pytest.mark.parametrize("im_tau", IM_TAUS_R)
def test_R_takes_one_erfc_per_mirror_pair(im_tau, monkeypatch):
    # at z = -w_0 and -2 w_0 (a = -1/2 and -1) a pass takes one erfc per
    # distinct |2(n + a)| = |2k + 1 + 2a| in its window, at the larger of
    # the two terms' bits; at a generic a and at the near miss, one per term
    # at its own bits
    tau = mp.mpc("0.11", im_tau)
    w0 = _w_point(tau, 0)
    calls = _record_erfc_bits(monkeypatch)
    with workprec(P):
        for z, J in ((-w0, -1), (-w0 - w0, -2), (_R_points(tau)[0], None),
                     (_mirror_points(tau)[-1], None)):
            lo, hi, lbs = kernels._R_window(tau.imag, z.imag)
            want = {}
            for k in range(lo, hi + 1):
                key = k if J is None else abs(2 * k + 1 + J)
                bits = max(53, mp.prec + TAIL_GUARD - int(max(lbs) - lbs[k - lo]))
                want[key] = max(want.get(key, 0), bits)
            calls.clear()
            kernels.R(z, tau)
            assert sorted(calls) == sorted(want.values()), (z, len(calls), len(want))
            assert J is None or len(calls) < (hi - lo + 1) * 3 // 4


@pytest.mark.parametrize("im_tau", IM_TAUS_R)
def test_eta_matches_per_term_sum(im_tau):
    tau = mp.mpc("0.11", im_tau)
    with mp.workprec(P + GUARD + 100):
        want = eta_reference(tau)
    with workprec(P):
        got = kernels.eta(tau)
        assert abs(got - want) <= REL_TOL * abs(want)
        assert _ulps(got, want) <= 2, _ulps(got, want)


def _erfc_edges(bits):
    """x = 2, the largest x the table covers at bits, and points between."""
    top = 2
    while kernels.ErfcTable.covers(top + 1, bits):
        top += 1
    edge = mp.mpf(top + 1) - mp.mpf(2) ** -40
    return [mp.mpf(2), mp.mpf(top), edge] + [2 + (edge - 2) * mp.mpf(j) / 7 for j in (1, 3, 5, 6)]


def _erfc_times(table, x, bits, m):
    """[m erfc(x) at 100 more bits, the table's erfc(x) m]: the table's inputs
    and result at a fixed-point scale 2^W that puts at least bits + 20 bits
    in x and in the value."""
    with mp.workprec(bits + 100):
        want = m * mp.erfc(x)
        W = bits + 20 + max(0, -int(mp.floor(mp.log(want, 2))))
        X, H = (int(mp.floor(t * mp.mpf(2) ** W)) for t in (x, m * mp.exp(-x * x)))
        if kernels.ErfcTable.covers(X >> W, bits):
            got = table.erfc_times(X, W, bits, m._mpf_, H)
        else:
            got = table.asymptotic_times(X, W, bits, H)
        return want, mp.mpf(got) / mp.mpf(2) ** W


@pytest.mark.parametrize("bits", [53, 120, 192, 258, 330])
def test_erfc_table_matches_mpmath(bits):
    # the trapezoid sum stays within 1 ulp of the requested bits at both
    # ends of mpmath's 1 - erf range, x = 2 and 1.44 floor(x)^2 = bits + 20
    # + 2 mag(x), and between them; R takes the table at its largest bits
    # from the memo, uses it for terms that need fewer, and scales by m_n
    # far from 1
    assert not kernels.ErfcTable.covers(1, bits) and kernels.ErfcTable.covers(2, bits)
    for table_bits, m in ((bits, mp.mpf(1)), (330, mp.mpf(10) ** 40)):
        table = kernels.erfc_table(table_bits)
        for x in _erfc_edges(bits):
            want, got = _erfc_times(table, x, bits, m)
            assert abs(got - want) <= mp.mpf(2) ** -bits * want, (table_bits, x)


@pytest.mark.parametrize("bits", [53, 120, 192, 258, 330])
def test_erfc_asymptotic_matches_mpmath(bits):
    # beyond the trapezoid's range the divergent series, on e^(-x^2) m from
    # the caller, stays within 1 ulp of the requested bits from the first x
    # the table leaves to it up to x = 40
    first = 2
    while kernels.ErfcTable.covers(first, bits):
        first += 1
    xs = [mp.mpf(first), mp.mpf(first) + mp.mpf(1) / 3, mp.mpf(first + 1) - mp.mpf(2) ** -40]
    xs += [mp.mpf(x) + mp.mpf(1) / 7 for x in range(first + 1, 41, 3)]
    for table_bits, m in ((bits, mp.mpf(1)), (330, mp.mpf(10) ** 40)):
        table = kernels.erfc_table(table_bits)
        for x in xs:
            assert not kernels.ErfcTable.covers(int(x), bits)
            want, got = _erfc_times(table, x, bits, m)
            assert abs(got - want) <= mp.mpf(2) ** -bits * want, (table_bits, x)


def test_oracles_stay_on_mpmath_erfc(monkeypatch):
    # R's per-term oracle, sgn_minus_E and appell's N1 sum are the routes R
    # is checked against, so none of them may reach the trapezoid erfc or
    # the asymptotic series on h_n; R reaches both
    tau = mp.mpc("0.11", "0.1")
    z = _R_points(tau)[0]
    for branch in ("erfc_times", "asymptotic_times"):
        def refuse(*args):
            raise AssertionError(f"the table's {branch} was reached")

        with monkeypatch.context() as patch:
            patch.setattr(kernels.ErfcTable, branch, refuse)
            with workprec(P):
                with pytest.raises(AssertionError, match=branch):
                    kernels.R(z, tau)
                R_reference(z, tau)
                for sign in (1, -1):
                    kernels.sgn_minus_E(sign, mp.mpf("2.5"))
                    kernels.sgn_minus_E(sign, mp.mpf("9.5"))
                appell.R_quarter_split(tau)


def test_erfc_table_memo_keeps_R_bit_identical():
    # a table depends on its bits alone: R and R_dz at P = 128, then 192,
    # then 128 again equal their cold-memo values bit for bit, and the
    # second 128 reuses the first one's table
    tau = mp.mpc("0.11", "0.1")
    z = _R_points(tau)[-1]

    def values(prec):
        with workprec(prec):
            return kernels.R(z, tau), kernels.R_dz(z, tau)

    cold = {}
    for prec in (128, 192):
        kernels.erfc_table.cache_clear()
        cold[prec] = values(prec)
    kernels.erfc_table.cache_clear()
    assert [values(prec) for prec in (128, 192, 128)] == [cold[128], cold[192], cold[128]]
    assert kernels.erfc_table.cache_info().misses == 2


# Runs in a child process under a 1 GiB address-space limit: without the
# window check these calls fill memory or loop for ~1e150 steps.
TINY_IM_TAU_SCRIPT = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mpmath import mp
from pwomega import appell, kernels
from pwomega.errors import PrecisionUnreachable
from pwomega.registry import run_identity

calls = {"R": lambda t: kernels.R(t + mp.mpf(1) / 2, t), "theta": lambda t: kernels.theta(0.3, t),
         "mu": lambda t: kernels.mu(0.3, 0.1, t), "eta": kernels.eta,
         "R_quarter_split": appell.R_quarter_split}
for v in ("1e-9", "1e-300", "1e-400", "0", "-0.5"):
    tau = mp.mpc(mp.mpf("0.1"), mp.mpf(v))
    for name, call in calls.items():
        try:
            call(tau)
        except PrecisionUnreachable:
            continue
        raise SystemExit(f"{name} at Im tau = {v} raised no PrecisionUnreachable")
report = run_identity("theta-shifts", {"taus": [(0.1, 1e-300)]})
assert report.status == "error", report
assert report.witness["error"] == "PrecisionUnreachable", report
"""


def test_tiny_im_tau_is_refused_before_any_table():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", TINY_IM_TAU_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

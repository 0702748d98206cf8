"""Numeric machinery for the completed objects: the indefinite triple sum F
and its mu-representation, the completion defect R*, the combined H-hat
functions, the generating kernel FF(z) = q^(-1/8) zeta^(1/2) theta(z)
mu-hat(z, tau/2 + 1/4), and the completed weight-1 object built from its
first two z-derivatives at 0.

All z-differentiation at the removable points 0 and tau splits each
quantity into a holomorphic block and the R-block.  A holomorphic block is
a product of theta, mu and exponentials; each factor's truncated Laurent
jet at the center comes from one kernel pass (kernels.TauPlan.theta_taylor,
kernels.MuPlan.laurent), and the block is assembled once at the center in
jet arithmetic (Jet).  Its coefficients below delta^0 must cancel within
their rounding budget, which is what removability means numerically.  The
R-block is differentiated termwise through the explicit Wirtinger sums in
kernels.  Composite results are returned as Approx(value, err) with a
conservative absolute-error estimate.

contour_derivs (trapezoidal Cauchy-integral differentiation) has no caller
here: it is the tests' independent route to every block's jet, with its
circle geometry in tests/contour_oracle.py.  It stays in the package while
the benchmark's traced run wraps it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from mpmath import mp

from . import kernels
from .errors import ContourThroughPole, PoleProximity, PrecisionUnreachable
from .indefinite import cone_points, pbar_omega_series
from .kernels import GUARD, qpow, workprec

F = Fraction

CONTOUR_MAX_NODES = 1024    # contour_derivs gives up past this many nodes
# extra bits for the jets at a center, whose pole parts cancel when a block
# is assembled
JET_GUARD = 24


@dataclass
class Approx:
    value: object          # mpmath complex
    err: float             # conservative absolute error estimate

    def __abs__(self):
        return abs(self.value)


def _prim_err(scale, P: int) -> float:
    """Coarse absolute-error allowance for one primitive evaluated at
    working precision P + GUARD."""
    return float((abs(scale) + 1) * mp.mpf(2) ** (-(P + GUARD - 16)))


# ---------------------------------------------------------------------------
# truncated Laurent jets at a removable center
# ---------------------------------------------------------------------------

def _conv(a, b, n: int):
    """The first n coefficients of the product of the series a and b."""
    return [sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1))
            for k in range(n)]


@dataclass
class Jet:
    """The truncated Laurent series sum c[i] delta^(val + i), delta = z -
    center, of a function at a center: every coefficient through
    delta^exact is known (len(c) = exact - val + 1), c[i] to within the
    absolute rounding bound err[i].  Products and sums carry the bounds
    forward to first order, so a coefficient's bound covers whatever
    cancelled in it."""
    val: int
    exact: int
    c: List
    err: List[float]

    @classmethod
    def kernel(cls, coeffs, val: int, P: int) -> "Jet":
        """Coefficients of delta^val, delta^(val+1), ... from one kernel
        pass, each within the primitive allowance _prim_err."""
        return cls(val, val + len(coeffs) - 1, list(coeffs), [_prim_err(x, P) for x in coeffs])

    @classmethod
    def exp(cls, a, K: int, P: int) -> "Jet":
        """e^(a delta) through delta^K."""
        return cls.kernel([a ** k / mp.factorial(k) for k in range(K + 1)], 0, P)

    def _at(self, k: int):
        i = k - self.val
        return (self.c[i], self.err[i]) if 0 <= i < len(self.c) else (0, 0.0)

    def __add__(self, other: "Jet") -> "Jet":
        val, exact = min(self.val, other.val), min(self.exact, other.exact)
        terms = [(self._at(k), other._at(k)) for k in range(val, exact + 1)]
        return Jet(val, exact, [a + b for (a, _), (b, _) in terms],
                   [ea + eb for (_, ea), (_, eb) in terms])

    def scale(self, s) -> "Jet":
        return Jet(self.val, self.exact, [s * x for x in self.c],
                   [float(abs(s)) * e for e in self.err])

    def __mul__(self, other: "Jet") -> "Jet":
        val = self.val + other.val
        exact = min(self.exact + other.val, other.exact + self.val)
        n = exact - val + 1
        abs_a = [float(abs(x)) for x in self.c]
        abs_b = [float(abs(x)) for x in other.c]
        err = [x + y + z for x, y, z in zip(_conv(abs_a, other.err, n),
                                            _conv(self.err, abs_b, n),
                                            _conv(self.err, other.err, n))]
        return Jet(val, exact, _conv(self.c, other.c, n), err)

    def recip(self) -> "Jet":
        """1/self, from its leading coefficient c[0] != 0."""
        a = self.c
        b = [1 / a[0]]
        for k in range(1, len(a)):
            b.append(-sum(a[i] * b[k - i] for i in range(1, k + 1)) / a[0])
        abs_b = [float(abs(x)) for x in b]
        # d(1/a) = -d(a) / a^2, to first order
        err = _conv(_conv(abs_b, abs_b, len(b)), self.err, len(b))
        return Jet(-self.val, self.exact - 2 * self.val, b, err)

    def regular(self, name: str, order: int = 0) -> "Jet":
        """This jet from delta^order on, after checking that every
        coefficient below delta^order vanishes within its bound: otherwise
        the center is not removable for name at this precision, and
        PrecisionUnreachable names the block and the residue."""
        for k in range(self.val, order):
            x, e = self._at(k)
            if abs(x) > e:
                raise PrecisionUnreachable(
                    f"{name}: the delta^{k} coefficient {mp.nstr(abs(x), 5)} exceeds its "
                    f"rounding budget {e:.3g}")
        i = max(0, order - self.val)
        return Jet(self.val + i, self.exact, self.c[i:], self.err[i:])

    def deriv(self, m: int) -> Approx:
        """The m-th z-derivative at the center, m <= exact."""
        if m > self.exact:
            raise ValueError(f"the jet is known through delta^{self.exact}, not delta^{m}")
        x, e = self._at(m)
        f = mp.factorial(m)
        return Approx(f * mp.mpc(x), float(f) * e)


# ---------------------------------------------------------------------------
# contour differentiation of holomorphic blocks (the tests' independent
# route to the jets' coefficients)
# ---------------------------------------------------------------------------

def contour_derivs(f: Callable, center, radius, orders: Tuple[int, ...],
                   P: int) -> List[Dict[int, Approx]]:
    """Derivatives g^(m)(center), m in orders, of every component g of the
    vector-valued f(z) = (g_0(z), g_1(z), ...), each g holomorphic on the
    closed disk, by trapezoidal quadrature on |z - center| = radius.

    All components share one pass, and f is called once per node.  The nodes
    start as the 64th roots of unity; each doubling interleaves the new odd
    nodes e^(2 pi i (2j+1)/2M) with the old ones, so every value is reused.
    A component has settled when every requested coefficient moved by less
    than 2^-(P+6) relative on the last doubling, which certifies the
    exponentially small aliasing error; the pass stops when all have.
    Returns one {order: Approx} dict per component.
    """
    radius = mp.mpf(radius)
    tol = mp.mpf(2) ** (-(P + 6))
    M = 64
    roots = [mp.expjpi(2 * mp.mpf(j) / M) for j in range(M)]
    vals = [f(center + radius * root) for root in roots]
    prev = None
    while True:
        twiddle = [mp.conj(root) for root in roots]
        outs = []
        for c in range(len(vals[0])):
            out = {}
            for m in orders:
                acc = mp.mpc(0)
                for j, val in enumerate(vals):
                    acc += val[c] * twiddle[j * m % M]
                out[m] = mp.factorial(m) * acc / (M * radius ** m) if m else acc / M
            outs.append(out)
        if prev is not None:
            settled = True
            results = []
            for out, old in zip(outs, prev):
                deltas = {m: abs(out[m] - old[m]) for m in orders}
                scale = max(max(abs(out[m]) for m in orders), mp.mpf(1))
                settled = settled and all(d <= tol * scale for d in deltas.values())
                results.append({m: Approx(out[m], float(deltas[m] + tol * abs(out[m]) + tol))
                                for m in orders})
            if settled:
                return results
        if 2 * M > CONTOUR_MAX_NODES:
            raise ContourThroughPole(f"contour quadrature did not stabilize by "
                                     f"{CONTOUR_MAX_NODES} nodes (radius {radius})")
        prev = outs
        odd = [mp.expjpi(2 * mp.mpf(j) / (2 * M)) for j in range(1, 2 * M, 2)]
        odd_vals = [f(center + radius * root) for root in odd]
        roots = [x for pair in zip(roots, odd) for x in pair]
        vals = [x for pair in zip(vals, odd_vals) for x in pair]
        M *= 2


# ---------------------------------------------------------------------------
# the triple cone sum, numerically
# ---------------------------------------------------------------------------

def F_cone_numeric(z1, z2, z3, tau, P: int = 113):
    """F(z1,z2,z3;tau) by direct two-cone summation; needs |Im z_j| < v/2.

    The term T(k,l,n) = (-1)^k q^e zeta1^k zeta2^l zeta3^n,
    e = k(k+1)/2 + kl + kn + ln, comes from the one before it on its cone
    line: along n (step s = +-1, the cone's direction) the ratio is
    q^(s(k+l)) zeta3^s, and a line starts from the one before it in l or k.
    The q-powers come from one table and the zetas from three seeds, 20 bits
    above the working precision, so the rounding a term gathers along its
    chain of ratios stays below the working precision.  The cut is the
    magnitude test -2 pi (v e + k y1 + l y2 + n y3) > -(prec+10) ln 2 in
    floats with the bound lowered by 1, so float rounding can add points
    next to the cut but never drop one; along each cone direction the left
    side falls by at least pi v per step, so the test stays monotone."""
    with workprec(P):
        z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
        v = tau.imag
        for z in (z1, z2, z3):
            if abs(z.imag) >= v / 2:
                raise PoleProximity("cone sum needs |Im z_j| < v/2")
        logeps = -(mp.prec + 10) * math.log(2) - 1
        fv, y1, y2, y3 = (float(x) for x in (v, z1.imag, z2.imag, z3.imag))

        def qexp(k, l, n):
            return k * (k + 1) // 2 + k * l + k * n + l * n

        def inside(k, l, n):
            return -2 * math.pi * (fv * qexp(k, l, n) + k * y1 + l * y2 + n * y3) > logeps

        with mp.workprec(mp.prec + 20):
            zeta = [mp.expjpi(2 * z) for z in (z1, z2, z3)]
            zinv = [1 / x for x in zeta]
            Q = [mp.mpc(1), qpow(tau, 1)]

            def qp(m):
                while len(Q) <= m:
                    Q.append(Q[-1] * Q[1])
                return Q[m]

            acc = mp.mpc(0)
            for k, l, n in cone_points(inside):
                if (k, l, n) in ((1, 0, 0), (0, -1, -1)):      # a cone's apex
                    s, a = (1, 0) if k else (-1, -1)
                    zs = zeta if k else zinv
                    head = line = term = -qp(1) * zs[0] if k else qp(1) * zs[1] * zs[2]
                elif l == a and n == a:                         # the next k
                    head *= -qp(qexp(k, a, a) - qexp(k - s, a, a)) * zs[0]
                    line = term = head
                elif n == a:                                    # the next l
                    line *= qp(qexp(k, l, a) - qexp(k, l - s, a)) * zs[1]
                    term = line
                else:
                    term *= ratio
                if n == a:
                    ratio = qp(s * (k + l)) * zs[2]
                acc += term
        pref = qpow(tau, -F(1, 8)) * mp.expjpi(-z1 + z2 + z3)
        return +(pref * acc)


def F_mu_numeric(z1, z2, z3, tau, P: int = 113):
    """F via its Appell-Lerch representation:
    i theta(z1) mu(z1,z2) mu(z1,z3) - eta^3 theta(z2+z3)/(theta(z2) theta(z3))
    * mu(z1, z2+z3); z1 must avoid the lattice (removable singularities)."""
    with workprec(P):
        z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
        eta3 = kernels.eta(tau) ** 3
        t1 = 1j * kernels.theta(z1, tau) * kernels.mu(z1, z2, tau) * kernels.mu(z1, z3, tau)
        t2 = (eta3 * kernels.theta(z2 + z3, tau)
              / (kernels.theta(z2, tau) * kernels.theta(z3, tau))
              * kernels.mu(z1, z2 + z3, tau))
        return +(t1 - t2)


# ---------------------------------------------------------------------------
# R*: the completion defect of F
# ---------------------------------------------------------------------------

def Rstar_numeric(z1, z2, z3, tau, P: int = 113):
    """R*(z1,z2,z3;tau) = F-hat - F.  Generic z1 uses the four-term formula;
    z1 = 0 and z1 = tau (removable 0*inf products) use their closed forms."""
    with workprec(P):
        z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
        if z1 == 0:
            return +_rstar_zero(z2, z3, tau)
        if z1 == tau:
            return +_rstar_tau(z2, z3, tau)
        th1 = kernels.theta(z1, tau)
        eta3 = kernels.eta(tau) ** 3
        out = (-mp.mpf(1) / 2 * th1 * kernels.mu(z1, z2, tau) * kernels.R(z1 - z3, tau)
               - mp.mpf(1) / 2 * th1 * kernels.R(z1 - z2, tau) * kernels.mu(z1, z3, tau)
               - 0.25j * th1 * kernels.R(z1 - z2, tau) * kernels.R(z1 - z3, tau)
               - 0.5j * eta3 * kernels.theta(z2 + z3, tau)
               / (kernels.theta(z2, tau) * kernels.theta(z3, tau))
               * kernels.R(z1 - z2 - z3, tau))
        return +out


def _rstar_zero(z2, z3, tau):
    """(i/2) eta^3 (R(z2)/theta(z3) + R(z3)/theta(z2)
                    - theta(z2+z3) R(z2+z3)/(theta(z2) theta(z3)))."""
    eta3 = kernels.eta(tau) ** 3
    th2, th3 = kernels.theta(z2, tau), kernels.theta(z3, tau)
    return 0.5j * eta3 * (kernels.R(z2, tau) / th3 + kernels.R(z3, tau) / th2
                          - kernels.theta(z2 + z3, tau) * kernels.R(z2 + z3, tau) / (th2 * th3))


def _rstar_tau(z2, z3, tau):
    """Limit of the four-term formula at z1 = tau, where theta(z1) -> 0 and
    mu(z1, w) blows up: theta(z)mu(z,w) -> -i eta^3 e^(-2 pi i w)/theta(w)."""
    eta3 = kernels.eta(tau) ** 3
    th2, th3 = kernels.theta(z2, tau), kernels.theta(z3, tau)
    p2 = -1j * eta3 * mp.expjpi(-2 * z2) / th2
    p3 = -1j * eta3 * mp.expjpi(-2 * z3) / th3
    return (-mp.mpf(1) / 2 * (p2 * kernels.R(tau - z3, tau) + p3 * kernels.R(tau - z2, tau))
            - 0.5j * eta3 * kernels.theta(z2 + z3, tau) / (th2 * th3)
            * kernels.R(tau - z2 - z3, tau))


def rstar_tau_shift_rhs(z2, z3, tau, P: int = 113):
    """Right side of the shift law for R*(tau, z2, z3):

        -q^(1/2) zeta2^{-1} zeta3^{-1} R*(0,z2,z3)
        + i q^(3/8) zeta2^{-1/2} zeta3^{-1/2} eta^3
          (zeta3^{-1/2}/theta(z3) + zeta2^{-1/2}/theta(z2)
           - theta(z2+z3)/(theta(z2) theta(z3)))."""
    with workprec(P):
        z2, z3, tau = (mp.mpc(w) for w in (z2, z3, tau))
        eta3 = kernels.eta(tau) ** 3
        th2, th3 = kernels.theta(z2, tau), kernels.theta(z3, tau)
        a = -qpow(tau, F(1, 2)) * mp.expjpi(-2 * (z2 + z3)) * _rstar_zero(z2, z3, tau)
        b = (1j * qpow(tau, F(3, 8)) * mp.expjpi(-z2 - z3) * eta3
             * (mp.expjpi(-z3) / th3 + mp.expjpi(-z2) / th2
                - kernels.theta(z2 + z3, tau) / (th2 * th3)))
        return +(a + b)


# ---------------------------------------------------------------------------
# F-hat at the removable centers 0 and tau, per quarter-shift pair
# ---------------------------------------------------------------------------

def _w_point(tau, g: int):
    return tau / 2 + mp.mpf(1) / 4 + mp.mpf(g) / 2


def _center_jets(plan, mus, nstar: int, P: int):
    """At the removable center c = -nstar tau (nstar in (0, -1)): theta's
    jet from delta^1 on (theta(c) = 0) through delta^3, and the Laurent jet
    of mu(., w) for each w of the bundle mus, from delta^-1 through
    delta^1."""
    theta = Jet.kernel(plan.theta_taylor(-nstar * plan.tau, 3), 0, P).regular("theta", 1)
    return theta, [Jet.kernel(a, -1, P) for a in mus.laurent(nstar)]


def _fhat_blocks(tau, P: int, nstar: int):
    """The holomorphic blocks of F-hat(z, w_a, w_b) at the center
    c = -nstar tau as jets through delta^1:

        p_g  = theta(z) mu(z, w_g),                                g = 0, 1
        h_ab = i theta mu(z, w_a) mu(z, w_b) + c2_ab mu(z, w_a + w_a)  (a = b)
                                             + c2_ab e^(-2 pi i z) / theta  (a != b)

    Returns (p, h, theta jet, th_w, th_ww, eta^3) with h keyed by (a, b),
    all computed JET_GUARD bits above the working precision."""
    with mp.workprec(mp.prec + JET_GUARD):
        eta3 = kernels.eta(tau) ** 3
        plan = kernels.TauPlan(tau)
        w = [_w_point(tau, g) for g in (0, 1)]
        # mu(., w_g) and mu(., w_g + w_g), with w_0 + w_0 = tau + 1/2 and
        # w_1 + w_1 = tau + 3/2, in one bundle
        mus = plan.mu(w[0], w[1], tau + mp.mpf(1) / 2, tau + mp.mpf(3) / 2)
        th_w, th_ww = mus.theta_w[:2], mus.theta_w[2:]
        theta, mu = _center_jets(plan, mus, nstar, P)
        e_over_theta = (Jet.exp(-2j * mp.pi, 3, P).scale(mp.expjpi(2 * nstar * tau))
                        * theta.recip())
        p = [(theta * mu[g]).regular(f"theta mu(w{g})") for g in (0, 1)]
        h = {}
        for a in (0, 1):
            for b in (0, 1):
                if a == b:
                    second = mu[2 + a].scale(-eta3 * th_ww[a] / (th_w[a] * th_w[b]))
                else:
                    second = e_over_theta.scale(1j * eta3 * eta3 / (th_w[a] * th_w[b]))
                h[a, b] = ((p[a] * mu[b]).scale(1j) + second).regular(f"F-hat block ({a}, {b})")
        return p, h, theta, th_w, th_ww, eta3


def _fhat_center_data(tau, P: int, nstar: int):
    """For each (alpha, beta), (Fhat(c), dz Fhat(c)) at the center
    c = -nstar tau: the holomorphic blocks from their jets, the R-blocks
    from closed-form values."""
    tau = mp.mpc(tau)
    center = -nstar * tau
    p, hol, theta, th_w, th_ww, eta3 = _fhat_blocks(tau, P, nstar)
    p = [(jet.deriv(0), jet.deriv(1)) for jet in p]
    thp_center = theta.deriv(1).value

    # R and dR/dz at center - w_g and center - w_g - w_g
    w = [_w_point(tau, g) for g in (0, 1)]
    R_w, Rdz_w = zip(*(kernels._R_terms(center - w[g], tau) for g in (0, 1)))
    R_ww, Rdz_ww = zip(*(kernels._R_terms(center - w[g] - w[g], tau) for g in (0, 1)))

    out = {}
    for (alpha, beta), jet in hol.items():
        h, pa, pb = (jet.deriv(0), jet.deriv(1)), p[alpha], p[beta]
        c_ab = th_ww[alpha] / (th_w[alpha] * th_w[beta]) if alpha == beta else 0
        rstar = (-mp.mpf(1) / 2 * (pa[0].value * R_w[beta] + pb[0].value * R_w[alpha]))
        drstar = (-mp.mpf(1) / 2 * (pa[1].value * R_w[beta] + pa[0].value * Rdz_w[beta]
                                    + pb[1].value * R_w[alpha] + pb[0].value * Rdz_w[alpha])
                  - 0.25j * thp_center * R_w[alpha] * R_w[beta])
        if alpha == beta:
            rstar += -0.5j * eta3 * c_ab * R_ww[alpha]
            drstar += -0.5j * eta3 * c_ab * Rdz_ww[alpha]
        val = Approx(h[0].value + rstar,
                     h[0].err + pa[0].err + pb[0].err + _prim_err(rstar, P))
        dval = Approx(h[1].value + drstar,
                      h[1].err + pa[1].err + pb[1].err + _prim_err(drstar, P))
        out[(alpha, beta)] = (val, dval)
    return out


# ---------------------------------------------------------------------------
# H-hat and its two combinations
# ---------------------------------------------------------------------------

def Fhat_numeric(z1, z2, z3, tau, P: int = 113):
    """F-hat = F (mu-representation) + R*, at generic z1."""
    with workprec(P):
        return +(F_mu_numeric(z1, z2, z3, tau, P) + Rstar_numeric(z1, z2, z3, tau, P))


def Hhat_numeric(z, tau, P: int = 113):
    """H-hat(z;tau) = q^(-1/4) zeta sum_{a,b} i^(-a-b)
                      F-hat(z, tau/2+1/4+a/2, tau/2+1/4+b/2)."""
    with workprec(P):
        z, tau = mp.mpc(z), mp.mpc(tau)
        acc = mp.mpc(0)
        for alpha in (0, 1):
            for beta in (0, 1):
                weight = (-1j) ** (alpha + beta)
                f = _fhat_generic(z, alpha, beta, tau, P)
                acc += weight * f
        return +(qpow(tau, -F(1, 4)) * mp.expjpi(2 * z) * acc)


def _fhat_generic(z, alpha, beta, tau, P):
    """F-hat(z, w_a, w_b) at generic z, with the continuity form of the second
    term when w_a + w_b lies on the lattice (alpha + beta odd)."""
    w_a, w_b = _w_point(tau, alpha), _w_point(tau, beta)
    eta3 = kernels.eta(tau) ** 3
    th_a, th_b = kernels.theta(w_a, tau), kernels.theta(w_b, tau)
    t1 = 1j * kernels.theta(z, tau) * kernels.muhat(z, w_a, tau) * kernels.muhat(z, w_b, tau)
    if (alpha + beta) % 2 == 0:
        s = w_a + w_b
        t2 = -eta3 * kernels.theta(s, tau) / (th_a * th_b) * kernels.muhat(z, s, tau)
    else:
        t2 = 1j * eta3 * eta3 * mp.expjpi(-2 * z) / (th_a * th_b * kernels.theta(z, tau))
    return t1 + t2


def hhat1_numeric(tau, P: int = 160) -> Approx:
    """H-hat-1 = -(H-hat(0) + q^(-1/2) H-hat(tau)) / 2, via the removable-center
    assembly; the target identity is H-hat-1 = 0."""
    with workprec(P):
        tau = mp.mpc(tau)
        d0 = _fhat_center_data(tau, P, 0)
        dt = _fhat_center_data(tau, P, -1)
        h11 = mp.mpc(0)
        h12 = mp.mpc(0)
        err = 0.0
        for (alpha, beta), (f0, _) in d0.items():
            weight = (-1j) ** (alpha + beta)
            h11 += weight * f0.value
            err += abs(weight) * f0.err
        for (alpha, beta), (ft, _) in dt.items():
            weight = (-1j) ** (alpha + beta)
            h12 += weight * ft.value
            err += abs(weight) * ft.err
        q14 = qpow(tau, F(1, 4))
        val = -(h11 / q14 + h12 * q14) / 2
        err *= float(max(abs(q14), abs(1 / q14)))
        return Approx(+val, err)


def hhat2_numeric(tau, P: int = 160) -> Approx:
    """H-hat-2 = [d/dzeta H-hat(z)]_{zeta=1}
               - [d/dzeta (q^(-1/2) zeta^{-1} H-hat(z+tau))]_{zeta=1}."""
    with workprec(P):
        tau = mp.mpc(tau)
        d0 = _fhat_center_data(tau, P, 0)
        dt = _fhat_center_data(tau, P, -1)
        two_pi_i = 2j * mp.pi
        h21 = mp.mpc(0)
        h22 = mp.mpc(0)
        err = 0.0
        for (alpha, beta), (f0, df0) in d0.items():
            weight = (-1j) ** (alpha + beta)
            h21 += weight * (f0.value + df0.value / two_pi_i)
            err += f0.err + df0.err
        for (alpha, beta), (ft, dft) in dt.items():
            weight = (-1j) ** (alpha + beta)
            h22 += weight * dft.value / two_pi_i
            err += dft.err
        q14 = qpow(tau, F(1, 4))
        val = h21 / q14 - h22 * q14
        err *= float(max(abs(q14), abs(1 / q14)))
        return Approx(+val, err)


# ---------------------------------------------------------------------------
# FF(z) and the completed weight-1 object
# ---------------------------------------------------------------------------

def fcal_numeric(z, tau, P: int = 113):
    """FF(z;tau) = q^(-1/8) zeta^(1/2) theta(z) mu-hat(z, tau/2 + 1/4)."""
    with workprec(P):
        z, tau = mp.mpc(z), mp.mpc(tau)
        return +(qpow(tau, -F(1, 8)) * mp.expjpi(z) * kernels.theta(z, tau)
                 * kernels.muhat(z, _w_point(tau, 0), tau))


def _fcal_block(tau, P: int):
    """The holomorphic block q^(-1/8) e^(pi i z) theta(z) mu(z, w0) of FF
    as a jet at 0 through delta^2, and theta's jet there, computed
    JET_GUARD bits above the working precision."""
    with mp.workprec(mp.prec + JET_GUARD):
        plan = kernels.TauPlan(tau)
        theta, (mu,) = _center_jets(plan, plan.mu(_w_point(tau, 0)), 0, P)
        block = (Jet.exp(1j * mp.pi, 3, P) * theta * mu).scale(qpow(tau, -F(1, 8)))
        return block.regular("FF"), theta


def fcal_derivs(tau, P: int = 160) -> Tuple[Approx, Approx, Approx]:
    """(FF(0), FF'(0), FF''(0)): the holomorphic block q^(-1/8) e^(pi i z)
    theta(z) mu(z, w0) is differentiated through its jet at 0; the R-block
    contributes

        FF'(0)  += (i/2) q^(-1/8) theta'(0) R(-w0)
        FF''(0) += (i/2) q^(-1/8) (2 pi i theta'(0) R(-w0) + 2 theta'(0) R'(-w0))

    using theta(0) = 0 and theta''(0) = 0.
    """
    with workprec(P):
        tau = mp.mpc(tau)
        q18 = qpow(tau, -F(1, 8))
        g, theta = _fcal_block(tau, P)
        f0, f1, f2 = (g.deriv(m) for m in (0, 1, 2))
        thp = theta.deriv(1).value
        R0, R1 = kernels._R_terms(-_w_point(tau, 0), tau)
        c1 = 0.5j * q18 * thp * R0
        c2 = 0.5j * q18 * (2j * mp.pi * thp * R0 + 2 * thp * R1)
        return (f0, Approx(f1.value + c1, f1.err + _prim_err(c1, P)),
                Approx(f2.value + c2, f2.err + _prim_err(c2, P)))


def phat_omega_numeric(tau, P: int = 160) -> Approx:
    """The completed weight-1 object

        i FF'(0)^2 / (4 pi^2 eta^6)
        + e^(-pi i/4) eta(4 tau) FF''(0) / (4 pi^2 eta^3 eta(2 tau)^2).
    """
    with workprec(P):
        tau = mp.mpc(tau)
        _, f1, f2 = fcal_derivs(tau, P)
        eta1 = kernels.eta(tau)
        eta2 = kernels.eta(2 * tau)
        eta4 = kernels.eta(4 * tau)
        pi2 = mp.pi ** 2
        t1 = 1j * f1.value ** 2 / (4 * pi2 * eta1 ** 6)
        t2 = (mp.expjpi(-F(1, 4)) * eta4 * f2.value
              / (4 * pi2 * eta1 ** 3 * eta2 ** 2))
        err = (2 * abs(f1.value) * f1.err / abs(4 * pi2 * eta1 ** 6)
               + abs(eta4 / (4 * pi2 * eta1 ** 3 * eta2 ** 2)) * f2.err)
        return Approx(+(t1 + t2), float(err) + _prim_err(t1 + t2, P))


# ---------------------------------------------------------------------------
# the f-family, the lowering identity, and the closed tau-bar derivative
# ---------------------------------------------------------------------------

def f_family_numeric(k: int, tau, P: int = 113):
    """f1 = v^(3/2) eta(-4 conj tau)^3, f2 = FF'(0)/eta^3,
    f3 = eta(4 tau)/eta(2 tau)^2,
    f4 = v^(1/2) eta(-2 conj tau)^5 / (eta(-conj tau)^2 eta(-4 conj tau)^2)."""
    with workprec(P):
        tau = mp.mpc(tau)
        v = tau.imag
        tb = mp.conj(tau)
        if k == 1:
            return +(v ** mp.mpf(1.5) * kernels.eta(-4 * tb) ** 3)
        if k == 2:
            return +(fcal_derivs(tau, P)[1].value / kernels.eta(tau) ** 3)
        if k == 3:
            return +(kernels.eta(4 * tau) / kernels.eta(2 * tau) ** 2)
        if k == 4:
            return +(mp.sqrt(v) * kernels.eta(-2 * tb) ** 5
                     / (kernels.eta(-tb) ** 2 * kernels.eta(-4 * tb) ** 2))
        raise ValueError("k must be 1..4")


def lowering_rhs(tau, P: int = 113, corrected: bool = False):
    """Right side of the lowering identity.

    corrected=False is the printed combination
        e^(3 pi i/4) sqrt(2)/pi f1 f2 - e^(pi i/4)/(2 sqrt(2) pi) f3 f4;
    corrected=True replaces the second term by the one following from the
    closed tau-bar derivative of FF''(0),
        - 1/(2 sqrt(2) pi) f3 * v^(1/2) eta(-2 conj tau)^2 / eta(-4 conj tau).
    """
    with workprec(P):
        tau = mp.mpc(tau)
        f1 = f_family_numeric(1, tau, P)
        f2 = f_family_numeric(2, tau, P)
        f3 = f_family_numeric(3, tau, P)
        first = mp.expjpi(F(3, 4)) * mp.sqrt(2) / mp.pi * f1 * f2
        if corrected:
            tb = mp.conj(tau)
            g4 = mp.sqrt(tau.imag) * kernels.eta(-2 * tb) ** 2 / kernels.eta(-4 * tb)
            return +(first - f3 * g4 / (2 * mp.sqrt(2) * mp.pi))
        f4 = f_family_numeric(4, tau, P)
        return +(first - mp.expjpi(F(1, 4)) / (2 * mp.sqrt(2) * mp.pi) * f3 * f4)


def dtaubar_fcal2_closed(tau, P: int = 113):
    """Closed form of d/d(tau-bar) FF''(0) (Wirtinger convention):
    pi e^(-pi i/4) eta^3 v^(-3/2) eta(-2 conj tau)^2 / (sqrt2 eta(-4 conj tau))."""
    with workprec(P):
        tau = mp.mpc(tau)
        tb = mp.conj(tau)
        return +(mp.pi * mp.expjpi(-F(1, 4)) * kernels.eta(tau) ** 3
                 / (mp.sqrt(2) * tau.imag ** mp.mpf(1.5))
                 * kernels.eta(-2 * tb) ** 2 / kernels.eta(-4 * tb))


def nonholo_plateau(tau, P: int = 113):
    """The non-decaying non-holomorphic part of the completed object: the
    difference between the Wirtinger and power-rule-only second derivatives,

        e^(-pi i/4) eta(4 tau)/(4 pi^2 eta^3 eta(2 tau)^2)
            * i q^(-1/8) theta'(0) (R'(-w0) - R'_formal(-w0)),

    whose magnitude approaches sqrt(2/v) eta(4 tau)/(2 pi eta(2 tau)^2)."""
    with workprec(P):
        tau = mp.mpc(tau)
        w0 = _w_point(tau, 0)
        delta = kernels.R_dz(-w0, tau) - kernels.R_dz(-w0, tau, formal=True)
        return +(mp.expjpi(-F(1, 4)) * kernels.eta(4 * tau)
                 / (4 * mp.pi ** 2 * kernels.eta(tau) ** 3 * kernels.eta(2 * tau) ** 2)
                 * 1j * qpow(tau, -F(1, 8)) * kernels.theta_dz(0, tau) * delta)


def dtaubar_fcal1_closed(tau, P: int = 113):
    """Closed form of d/d(tau-bar) FF'(0):
    pi e^(3 pi i/4) sqrt(2) v^(-1/2) eta(tau)^3 eta(-4 conj tau)^3."""
    with workprec(P):
        tau = mp.mpc(tau)
        return +(mp.pi * mp.expjpi(F(3, 4)) * mp.sqrt(2) / mp.sqrt(tau.imag)
                 * kernels.eta(tau) ** 3 * kernels.eta(-4 * mp.conj(tau)) ** 3)


def f2_shadow_closed(tau, P: int = 113):
    """2 sqrt(2) e^(-pi i/4) pi eta(4 tau)^3."""
    with workprec(P):
        tau = mp.mpc(tau)
        return +(2 * mp.sqrt(2) * mp.expjpi(-F(1, 4)) * mp.pi * kernels.eta(4 * tau) ** 3)


def holomorphic_part_numeric(tau, N: int, P: int = 113):
    """P-bar-omega(q) + 1/4 - eta(4 tau)/(2 eta(2 tau)^2), with the series
    summed from its exact coefficients to O(q^N)."""
    with workprec(P):
        tau = mp.mpc(tau)
        series = pbar_omega_series(N, method="triple_sum")
        q = qpow(tau, 1)
        val = series.eval_mpc(mp, q)
        return +(val + mp.mpf(1) / 4
                 - kernels.eta(4 * tau) / (2 * kernels.eta(2 * tau) ** 2))

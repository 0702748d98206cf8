"""Numeric machinery for the completed objects: the indefinite triple sum F
and its mu-representation, the completion defect R*, the combined H-hat
functions, the generating kernel FF(z) = q^(-1/8) zeta^(1/2) theta(z)
mu-hat(z, tau/2 + 1/4), and the completed weight-1 object built from its
first two z-derivatives at 0.

All z-differentiation at the removable points 0 and tau goes through one
jet per block (Jet).  A block is a product of theta, mu-hat = mu + (i/2) R
and exponentials; each factor's truncated jet at the center comes from one
kernel pass (kernels.TauPlan.theta_taylor, kernels.MuPlan.laurent, and
kernels._R_terms for R and its Wirtinger z-derivative), and the block is
assembled once at the center in jet arithmetic.  Its coefficients below
delta^0 must cancel within their rounding budget, which is what
removability means numerically.  The H-hat composites build one kernel
bundle per tau (the plan, the four-point mu bundle, the theta(w)'s and
eta^3) for both centers, and two R passes per center, each serving a
shift of z by 1/2 or 1 (kernels._R_terms).  Every kernel pass here is at a
mirror point, where half of its terms repeat the other half: each R has
2 Im z / Im tau an integer and takes one erfc per mirror pair, theta's
Taylor pass at 0 or tau sums one side and folds in the other, and the mu
Laurent passes of both centers read one table of reciprocals on the plan.
Composite results are returned as Approx(value, err), err a conservative
absolute-error estimate carried by the jets from the kernels' allowances.

Every function computes at the working precision in effect, which the caller
sets with kernels.workprec.  Only the jets raise it, by JET_GUARD bits, and
they read the caller's bits first: the rounding allowances are taken there.

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
from .kernels import GUARD, _fix, _mul, _to_mpc, qpow

F = Fraction

CONTOUR_MAX_NODES = 1024    # contour_derivs gives up past this many nodes
# extra bits for the jets at a center, whose pole parts cancel when a block
# is assembled
JET_GUARD = 24


@dataclass
class Approx:
    value: object          # mpmath complex
    err: float             # conservative absolute error estimate


def _prim_err(scale, bits: int) -> float:
    """Coarse absolute-error allowance for one primitive evaluated at bits
    working bits."""
    return float((abs(scale) + 1) * mp.mpf(2) ** (16 - bits))


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
    center, of a function at a center: c[i] is d_z^k f / k! at k = val + i,
    d_z the Wirtinger z-derivative, which obeys Leibniz's rule, so products
    hold for the non-holomorphic R as well (R is known through delta^1).
    Every coefficient through delta^exact is known (len(c) = exact - val +
    1), c[i] to within the absolute rounding bound err[i].  Products and
    sums carry the bounds forward to first order, so a coefficient's bound
    covers whatever cancelled in it."""
    val: int
    exact: int
    c: List
    err: List[float]

    @classmethod
    def kernel(cls, coeffs, val: int, bits: int) -> "Jet":
        """Coefficients of delta^val, delta^(val+1), ... from one kernel
        pass, each within the primitive allowance _prim_err at bits."""
        return cls(val, val + len(coeffs) - 1, list(coeffs), [_prim_err(x, bits) for x in coeffs])

    @classmethod
    def exp(cls, a, K: int, bits: int) -> "Jet":
        """e^(a delta) through delta^K."""
        return cls.kernel([a ** k / mp.factorial(k) for k in range(K + 1)], 0, bits)

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

def contour_derivs(f: Callable, center, radius,
                   orders: Tuple[int, ...]) -> List[Dict[int, Approx]]:
    """Derivatives g^(m)(center), m in orders, of every component g of the
    vector-valued f(z) = (g_0(z), g_1(z), ...), each g holomorphic on the
    closed disk, by trapezoidal quadrature on |z - center| = radius.

    All components share one pass, and f is called once per node.  The nodes
    start as the 64th roots of unity; each doubling interleaves the new odd
    nodes e^(2 pi i (2j+1)/2M) with the old ones, so every value is reused.
    A component has settled when every requested coefficient moved by less
    than 2^-(P+6) relative on the last doubling, P = prec - GUARD the
    precision asked of kernels.workprec, which certifies the
    exponentially small aliasing error; the pass stops when all have.
    Returns one {order: Approx} dict per component.
    """
    radius = mp.mpf(radius)
    tol = mp.mpf(2) ** (GUARD - 6 - mp.prec)
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

def F_cone_numeric(z1, z2, z3, tau):
    """F(z1,z2,z3;tau) by direct two-cone summation; needs |Im z_j| < v/2.

    The term T(k,l,n) = (-1)^k q^e zeta1^k zeta2^l zeta3^n,
    e = k(k+1)/2 + kl + kn + ln, comes from the one before it on its cone
    line: along n (step s = +-1, the cone's direction) the ratio is
    q^(s(k+l)) zeta3^s, and a line starts from the one before it in l or k.
    The walk runs on the kernels' Gaussian integers at scale 2^W
    (kernels._mul) from its own table of q-powers and three zeta seeds.
    With |Im z_j| < v/2 every term and every ratio has modulus below 1, so
    a step adds at most about
    max |zeta_j| m < e^(pi v) m units of 2^-W to a term (q^m the ratio's
    q-power), and W = prec + 40 + pi v log2(e) keeps the sum's rounding far
    below the working precision.  The cut is the
    magnitude test -2 pi (v e + k y1 + l y2 + n y3) > -(prec+10) ln 2 in
    floats with the bound lowered by 1, so float rounding can add points
    next to the cut but never drop one; along each cone direction the left
    side falls by at least pi v per step, so the test stays monotone."""
    z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
    v = tau.imag
    for z in (z1, z2, z3):
        if abs(z.imag) >= v / 2:
            raise PoleProximity("cone sum needs |Im z_j| < v/2")
    logeps = -(mp.prec + 10) * math.log(2) - 1
    fv, y1, y2, y3 = (float(x) for x in (v, z1.imag, z2.imag, z3.imag))
    W = mp.prec + 40 + math.ceil(math.pi * fv * math.log2(math.e))

    def qexp(k, l, n):
        return k * (k + 1) // 2 + k * l + k * n + l * n

    def inside(k, l, n):
        return -2 * math.pi * (fv * qexp(k, l, n) + k * y1 + l * y2 + n * y3) > logeps

    with mp.workprec(W):
        # zeta1^(+-1) enters with the sign (-1)^k of its term
        zeta, zinv = ([_fix(sign * mp.expjpi(2 * t * z), W)
                       for sign, z in zip((-1, 1, 1), (z1, z2, z3))] for t in (1, -1))
        q = _fix(qpow(tau, 1), W)
    Q = [(1 << W, 0), q]

    def qp(m):
        while len(Q) <= m:
            Q.append(_mul(Q[-1], q, W))
        return Q[m]

    acc0 = acc1 = 0
    for k, l, n in cone_points(inside):
        if (k, l, n) in ((1, 0, 0), (0, -1, -1)):      # a cone's apex
            s, a = (1, 0) if k else (-1, -1)
            zs = zeta if k else zinv
            head = line = term = _mul(qp(1), zs[0], W) if k else _mul(_mul(qp(1), zs[1], W), zs[2], W)
        elif l == a and n == a:                         # the next k
            head = line = term = _mul(head, _mul(qp(qexp(k, a, a) - qexp(k - s, a, a)), zs[0], W), W)
        elif n == a:                                    # the next l
            line = term = _mul(line, _mul(qp(qexp(k, l, a) - qexp(k, l - s, a)), zs[1], W), W)
        else:
            term = _mul(term, ratio, W)
        if n == a:
            ratio = _mul(qp(s * (k + l)), zs[2], W)
        acc0 += term[0]
        acc1 += term[1]
    pref = qpow(tau, -F(1, 8)) * mp.expjpi(-z1 + z2 + z3)
    return pref * _to_mpc((acc0, acc1), W)


def F_mu_numeric(z1, z2, z3, tau):
    """F via its Appell-Lerch representation:
    i theta(z1) mu(z1,z2) mu(z1,z3) - eta^3 theta(z2+z3)/(theta(z2) theta(z3))
    * mu(z1, z2+z3); z1 must avoid the lattice (removable singularities).
    One mu bundle over z2, z3, z2+z3 gives the mu's and the thetas below."""
    z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
    plan = kernels.TauPlan(tau)
    bundle = plan.mu(z2, z3, z2 + z3)
    m2, m3, m23 = bundle(z1)
    th2, th3, th23 = bundle.theta_w
    t1 = 1j * plan.theta(z1) * m2 * m3
    t2 = kernels.eta(tau) ** 3 * th23 / (th2 * th3) * m23
    return t1 - t2


# ---------------------------------------------------------------------------
# R*: the completion defect of F
# ---------------------------------------------------------------------------

def Rstar_numeric(z1, z2, z3, tau):
    """R*(z1,z2,z3;tau) = F-hat - F.  Generic z1 uses the four-term formula;
    z1 = 0 and z1 = tau (removable 0*inf products) use their closed forms."""
    z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
    if z1 == 0:
        return _rstar_zero(z2, z3, tau)
    if z1 == tau:
        return _rstar_tau(z2, z3, tau)
    th1 = kernels.theta(z1, tau)
    eta3 = kernels.eta(tau) ** 3
    out = (-mp.mpf(1) / 2 * th1 * kernels.mu(z1, z2, tau) * kernels.R(z1 - z3, tau)
           - mp.mpf(1) / 2 * th1 * kernels.R(z1 - z2, tau) * kernels.mu(z1, z3, tau)
           - 0.25j * th1 * kernels.R(z1 - z2, tau) * kernels.R(z1 - z3, tau)
           - 0.5j * eta3 * kernels.theta(z2 + z3, tau)
           / (kernels.theta(z2, tau) * kernels.theta(z3, tau))
           * kernels.R(z1 - z2 - z3, tau))
    return out


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


def rstar_tau_shift_rhs(z2, z3, tau):
    """Right side of the shift law for R*(tau, z2, z3):

        -q^(1/2) zeta2^{-1} zeta3^{-1} R*(0,z2,z3)
        + i q^(3/8) zeta2^{-1/2} zeta3^{-1/2} eta^3
          (zeta3^{-1/2}/theta(z3) + zeta2^{-1/2}/theta(z2)
           - theta(z2+z3)/(theta(z2) theta(z3)))."""
    z2, z3, tau = (mp.mpc(w) for w in (z2, z3, tau))
    eta3 = kernels.eta(tau) ** 3
    th2, th3 = kernels.theta(z2, tau), kernels.theta(z3, tau)
    a = -qpow(tau, F(1, 2)) * mp.expjpi(-2 * (z2 + z3)) * _rstar_zero(z2, z3, tau)
    b = (1j * qpow(tau, F(3, 8)) * mp.expjpi(-z2 - z3) * eta3
         * (mp.expjpi(-z3) / th3 + mp.expjpi(-z2) / th2
            - kernels.theta(z2 + z3, tau) / (th2 * th3)))
    return a + b


# ---------------------------------------------------------------------------
# F-hat at the removable centers 0 and tau, per quarter-shift pair
# ---------------------------------------------------------------------------

def _w_point(tau, g: int):
    return tau / 2 + mp.mpf(1) / 4 + mp.mpf(g) / 2


def _R_jets(z, tau, shifts=(0,)) -> List[Jet]:
    """[R(z + s + delta) through delta^1 for s in shifts]: R and its
    Wirtinger d/dz from one pass (kernels._R_terms), at the working
    precision (R, the costliest kernel at the cusp, gets no JET_GUARD)."""
    return [Jet.kernel(t[:2], 0, mp.prec) for t in kernels._R_terms(z, tau, shifts)]


def _muhat_jet(mu: Jet, R: Jet) -> Jet:
    """mu-hat = mu + (i/2) R, from the jets of mu(., w) and R(. - w)."""
    return mu + R.scale(0.5j)


def _center_jets(plan, mus, nstar: int, bits: int):
    """At the removable center c = -nstar tau (nstar in (0, -1)): theta's
    jet from delta^1 on (theta(c) = 0) through delta^3, and the Laurent jet
    of mu(., w) for each w of the bundle mus, from delta^-1 through
    delta^1, with the primitive allowances at bits."""
    theta = Jet.kernel(plan.theta_taylor(-nstar * plan.tau, 3), 0, bits).regular("theta", 1)
    return theta, [Jet.kernel(a, -1, bits) for a in mus.laurent(nstar)]


def _fhat_bundle(tau):
    """What F-hat's kernel jets at both centers share, built once per tau:
    the plan, the mu bundle over w_0, w_1, w_0 + w_0 = tau + 1/2 and
    w_1 + w_1 = tau + 3/2, the second terms' coefficients
    diag_a = -eta^3 theta(w_a + w_a) / theta(w_a)^2, and the cross term's
    i eta^6 / (theta(w_0) theta(w_1))."""
    eta3 = kernels.eta(tau) ** 3
    plan = kernels.TauPlan(tau)
    w = [_w_point(tau, g) for g in (0, 1)]
    mus = plan.mu(w[0], w[1], tau + mp.mpf(1) / 2, tau + mp.mpf(3) / 2)
    th_w, th_ww = mus.theta_w[:2], mus.theta_w[2:]
    diag = [-eta3 * th_ww[a] / (th_w[a] * th_w[a]) for a in (0, 1)]
    return plan, mus, diag, 1j * eta3 * eta3 / (th_w[0] * th_w[1])


def _fhat_kernels(bundle, nstar: int, bits: int):
    """At the center c = -nstar tau, from _fhat_bundle's bundle, with the
    primitive allowances at bits: theta's jet, the mu bundle's jets, diag,
    and the jet of the second term i eta^6 e^(-2 pi i z) / (theta(w_0)
    theta(w_1) theta(z))."""
    plan, mus, diag, cross = bundle
    theta, mu = _center_jets(plan, mus, nstar, bits)
    jet = Jet.exp(-2j * mp.pi, 3, bits).scale(mp.expjpi(2 * nstar * plan.tau)) * theta.recip()
    return theta, mu, diag, jet.scale(cross)


def _fhat_blocks(theta, mu, diag, cross):
    """F-hat(z, w_a, w_b) at a center as jets through delta^1, keyed by
    (a, b), from the kernel jets of _fhat_kernels with the mu-type jets mu
    (mu-hat's for F-hat, mu's for its holomorphic part F):

        i theta m(w_a) m(w_b) + diag_a m(w_a + w_a)   (a = b)
                              + cross                 (a != b)

    Their delta^-1 coefficients must cancel."""
    p = [theta * mu[g] for g in (0, 1)]
    h = {}
    for a in (0, 1):
        for b in (0, 1):
            second = mu[2 + a].scale(diag[a]) if a == b else cross
            h[a, b] = ((p[a] * mu[b]).scale(1j) + second).regular(f"F-hat block ({a}, {b})")
    return h


def _fhat_center_jets(tau):
    """{nstar: F-hat(z, w_a, w_b) at c = -nstar tau as jets through delta^1,
    keyed by (a, b)} for both centers: the blocks of mu-hat's jets,
    JET_GUARD bits above the working precision, with the primitive
    allowances at the working precision.  One kernel bundle serves both
    centers, and two R passes serve each: w_1 = w_0 + 1/2, so R at c - w_0
    and c - w_1 come from one pass, and R at c - 2 w_0 and c - 2 w_1 from
    another."""
    bits = mp.prec
    w0 = _w_point(tau, 0)
    R = {}
    for nstar in (0, -1):
        center = -nstar * tau
        R[nstar] = (_R_jets(center - w0, tau, (0, -F(1, 2)))
                    + _R_jets(center - w0 - w0, tau, (0, -1)))
    with mp.workprec(bits + JET_GUARD):
        bundle = _fhat_bundle(tau)
        out = {}
        for nstar in (0, -1):
            theta, mu, diag, cross = _fhat_kernels(bundle, nstar, bits)
            out[nstar] = _fhat_blocks(theta, [_muhat_jet(m, r) for m, r in zip(mu, R[nstar])],
                                      diag, cross)
        return out


# ---------------------------------------------------------------------------
# H-hat and its two combinations
# ---------------------------------------------------------------------------

def Hhat_numeric(z, tau):
    """H-hat(z;tau) = q^(-1/4) zeta sum_{a,b} i^(-a-b)
                      F-hat(z, tau/2+1/4+a/2, tau/2+1/4+b/2)."""
    z, tau = mp.mpc(z), mp.mpc(tau)
    acc = sum((-1j) ** (a + b) * _fhat_generic(z, a, b, tau) for a in (0, 1) for b in (0, 1))
    return qpow(tau, -F(1, 4)) * mp.expjpi(2 * z) * acc


def _fhat_generic(z, alpha, beta, tau):
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


def _hhat_sums(tau):
    """The quarter-shift sum sum_{a,b} i^(-a-b) F-hat(z, w_a, w_b) as one
    jet at each removable center, 0 and tau, and q^(1/4)."""
    tau = mp.mpc(tau)
    sums = []
    for blocks in _fhat_center_jets(tau).values():
        jets = [h.scale((-1j) ** (a + b)) for (a, b), h in blocks.items()]
        sums.append(jets[0] + jets[1] + jets[2] + jets[3])
    return sums, qpow(tau, F(1, 4))


def hhat1_numeric(tau) -> Approx:
    """H-hat-1 = -(H-hat(0) + q^(-1/2) H-hat(tau)) / 2, via the removable-center
    assembly; the target identity is H-hat-1 = 0."""
    (s0, st), q14 = _hhat_sums(tau)
    f0, ft = s0.deriv(0), st.deriv(0)
    val = -(f0.value / q14 + ft.value * q14) / 2
    return Approx(val, (f0.err + ft.err) * float(max(abs(q14), abs(1 / q14))))


def hhat2_numeric(tau) -> Approx:
    """H-hat-2 = [d/dzeta H-hat(z)]_{zeta=1}
               - [d/dzeta (q^(-1/2) zeta^{-1} H-hat(z+tau))]_{zeta=1}."""
    (s0, st), q14 = _hhat_sums(tau)
    f0, df0, dft = s0.deriv(0), s0.deriv(1), st.deriv(1)
    two_pi_i = 2j * mp.pi
    val = (f0.value + df0.value / two_pi_i) / q14 - dft.value / two_pi_i * q14
    return Approx(val, (f0.err + df0.err + dft.err) * float(max(abs(q14), abs(1 / q14))))


# ---------------------------------------------------------------------------
# FF(z) and the completed weight-1 object
# ---------------------------------------------------------------------------

def fcal_numeric(z, tau):
    """FF(z;tau) = q^(-1/8) zeta^(1/2) theta(z) mu-hat(z, tau/2 + 1/4)."""
    z, tau = mp.mpc(z), mp.mpc(tau)
    return (qpow(tau, -F(1, 8)) * mp.expjpi(z) * kernels.theta(z, tau)
             * kernels.muhat(z, _w_point(tau, 0), tau))


def _fcal_block(tau, theta, mu, bits: int) -> Jet:
    """q^(-1/8) e^(pi i z) theta(z) m(z) at 0 through delta^2, from theta's
    jet and the jet of a mu-type m (mu-hat(., w0) for FF), with the
    primitive allowances at bits."""
    return (Jet.exp(1j * mp.pi, 3, bits) * theta * mu).scale(qpow(tau, -F(1, 8))).regular("FF")


def fcal_derivs(tau) -> Tuple[Approx, Approx, Approx]:
    """(FF(0), FF'(0), FF''(0)) from FF's jet at 0, JET_GUARD bits above the
    working precision.  R's jet stops at delta^1, but theta(0) = 0 keeps
    FF's through delta^2."""
    tau = mp.mpc(tau)
    bits = mp.prec
    R, = _R_jets(-_w_point(tau, 0), tau)
    with mp.workprec(bits + JET_GUARD):
        plan = kernels.TauPlan(tau)
        theta, (mu,) = _center_jets(plan, plan.mu(_w_point(tau, 0)), 0, bits)
        ff = _fcal_block(tau, theta, _muhat_jet(mu, R), bits)
    return tuple(ff.deriv(m) for m in (0, 1, 2))


def phat_omega_numeric(tau) -> Approx:
    """The completed weight-1 object

        i FF'(0)^2 / (4 pi^2 eta^6)
        + e^(-pi i/4) eta(4 tau) FF''(0) / (4 pi^2 eta^3 eta(2 tau)^2).
    """
    tau = mp.mpc(tau)
    _, f1, f2 = fcal_derivs(tau)
    eta1 = kernels.eta(tau)
    eta2 = kernels.eta(2 * tau)
    eta4 = kernels.eta(4 * tau)
    pi2 = mp.pi ** 2
    t1 = 1j * f1.value ** 2 / (4 * pi2 * eta1 ** 6)
    t2 = (mp.expjpi(-F(1, 4)) * eta4 * f2.value
          / (4 * pi2 * eta1 ** 3 * eta2 ** 2))
    err = (2 * abs(f1.value) * f1.err / abs(4 * pi2 * eta1 ** 6)
           + abs(eta4 / (4 * pi2 * eta1 ** 3 * eta2 ** 2)) * f2.err)
    return Approx(t1 + t2, float(err) + _prim_err(t1 + t2, mp.prec))


# ---------------------------------------------------------------------------
# the f-family, the lowering identity, and the closed tau-bar derivative
# ---------------------------------------------------------------------------

def f_family_numeric(k: int, tau):
    """f1 = v^(3/2) eta(-4 conj tau)^3, f2 = FF'(0)/eta^3,
    f3 = eta(4 tau)/eta(2 tau)^2,
    f4 = v^(1/2) eta(-2 conj tau)^5 / (eta(-conj tau)^2 eta(-4 conj tau)^2)."""
    tau = mp.mpc(tau)
    v = tau.imag
    tb = mp.conj(tau)
    if k == 1:
        return v ** mp.mpf(1.5) * kernels.eta(-4 * tb) ** 3
    if k == 2:
        return fcal_derivs(tau)[1].value / kernels.eta(tau) ** 3
    if k == 3:
        return kernels.eta(4 * tau) / kernels.eta(2 * tau) ** 2
    if k == 4:
        return (mp.sqrt(v) * kernels.eta(-2 * tb) ** 5
                 / (kernels.eta(-tb) ** 2 * kernels.eta(-4 * tb) ** 2))
    raise ValueError("k must be 1..4")


def lowering_rhs(tau, corrected: bool = False):
    """Right side of the lowering identity.

    corrected=False is the printed combination
        e^(3 pi i/4) sqrt(2)/pi f1 f2 - e^(pi i/4)/(2 sqrt(2) pi) f3 f4;
    corrected=True replaces the second term by the one following from the
    closed tau-bar derivative of FF''(0),
        - 1/(2 sqrt(2) pi) f3 * v^(1/2) eta(-2 conj tau)^2 / eta(-4 conj tau).
    """
    tau = mp.mpc(tau)
    f1 = f_family_numeric(1, tau)
    f2 = f_family_numeric(2, tau)
    f3 = f_family_numeric(3, tau)
    first = mp.expjpi(F(3, 4)) * mp.sqrt(2) / mp.pi * f1 * f2
    if corrected:
        tb = mp.conj(tau)
        g4 = mp.sqrt(tau.imag) * kernels.eta(-2 * tb) ** 2 / kernels.eta(-4 * tb)
        return first - f3 * g4 / (2 * mp.sqrt(2) * mp.pi)
    f4 = f_family_numeric(4, tau)
    return first - mp.expjpi(F(1, 4)) / (2 * mp.sqrt(2) * mp.pi) * f3 * f4


def dtaubar_fcal2_closed(tau):
    """Closed form of d/d(tau-bar) FF''(0) (Wirtinger convention):
    pi e^(-pi i/4) eta^3 v^(-3/2) eta(-2 conj tau)^2 / (sqrt2 eta(-4 conj tau))."""
    tau = mp.mpc(tau)
    tb = mp.conj(tau)
    return (mp.pi * mp.expjpi(-F(1, 4)) * kernels.eta(tau) ** 3
             / (mp.sqrt(2) * tau.imag ** mp.mpf(1.5))
             * kernels.eta(-2 * tb) ** 2 / kernels.eta(-4 * tb))


def nonholo_plateau(tau):
    """The non-decaying non-holomorphic part of the completed object: the
    difference between the Wirtinger and power-rule-only second derivatives,

        e^(-pi i/4) eta(4 tau)/(4 pi^2 eta^3 eta(2 tau)^2)
            * i q^(-1/8) theta'(0) R'_E(-w0),

    with R'_E the E-factor part of R's Wirtinger derivative
    (kernels._R_terms).  Its magnitude approaches
    sqrt(2/v) eta(4 tau)/(2 pi eta(2 tau)^2)."""
    tau = mp.mpc(tau)
    delta = kernels._R_terms(-_w_point(tau, 0), tau)[2]
    return (mp.expjpi(-F(1, 4)) * kernels.eta(4 * tau)
             / (4 * mp.pi ** 2 * kernels.eta(tau) ** 3 * kernels.eta(2 * tau) ** 2)
             * 1j * qpow(tau, -F(1, 8)) * kernels.theta_dz(0, tau) * delta)


def dtaubar_fcal1_closed(tau):
    """Closed form of d/d(tau-bar) FF'(0):
    pi e^(3 pi i/4) sqrt(2) v^(-1/2) eta(tau)^3 eta(-4 conj tau)^3."""
    tau = mp.mpc(tau)
    return (mp.pi * mp.expjpi(F(3, 4)) * mp.sqrt(2) / mp.sqrt(tau.imag)
             * kernels.eta(tau) ** 3 * kernels.eta(-4 * mp.conj(tau)) ** 3)


def f2_shadow_closed(tau):
    """2 sqrt(2) e^(-pi i/4) pi eta(4 tau)^3."""
    tau = mp.mpc(tau)
    return 2 * mp.sqrt(2) * mp.expjpi(-F(1, 4)) * mp.pi * kernels.eta(4 * tau) ** 3


def holomorphic_part_numeric(tau, N: int):
    """P-bar-omega(q) + 1/4 - eta(4 tau)/(2 eta(2 tau)^2), with the series
    summed from its exact coefficients to O(q^N)."""
    tau = mp.mpc(tau)
    series = pbar_omega_series(N, method="triple_sum")
    q = qpow(tau, 1)
    val = series.eval_mpc(mp, q)
    return (val + mp.mpf(1) / 4
             - kernels.eta(4 * tau) / (2 * kernels.eta(2 * tau) ** 2))

"""Completed objects: the triple-sum/Appell-Lerch duality, the completion
defect R*, the combined H-hat functions, the kernel FF and its derivatives,
the weight-1 object, and the f-family."""

from fractions import Fraction

import pytest
from contour_oracle import assert_contour_clear, contour_radius
from mpmath import mp

from pwomega import completion, kernels
from pwomega.classical import EtaQuotient, eta_quotient_series
from pwomega.errors import ContourThroughPole, PoleProximity, PrecisionUnreachable
from pwomega.indefinite import cone_points
from pwomega.kernels import qpow, workprec
from pwomega.modular import (GroupElement, dtaubar_fd, lowering_fd,
                             psi_multiplier, power_principal, xi_fd)
from pwomega.registry import BRZ_POINTS

F = Fraction
P = 160
TAU = mp.mpc("0.11", "0.93")
Z123 = (mp.mpc("0.13", "0.21"), mp.mpc("-0.07", "0.11"), mp.mpc("0.19", "-0.15"))


@pytest.fixture(autouse=True)
def _prec():
    with workprec(P):
        yield


def test_cone_vs_mu_representation():
    a = completion.F_cone_numeric(*Z123, TAU)
    b = completion.F_mu_numeric(*Z123, TAU)
    assert abs(a - b) < 1e-40
    # the cone sum is refused where it needs |Im z_j| < v/2
    for j, y in enumerate((TAU.imag / 2, -TAU.imag / 2, TAU.imag)):
        z = list(Z123)
        z[j] = mp.mpc(0.1, y)
        with pytest.raises(PoleProximity):
            completion.F_cone_numeric(*z, TAU)


@pytest.mark.parametrize("pt", BRZ_POINTS)
def test_F_mu_numeric_is_the_product_of_public_kernels(pt):
    # one plan and one mu bundle over z2, z3, z2 + z3 give the F of the
    # formula's eight one-point kernel calls
    z1, z2, z3, tau = (mp.mpc(*x) for x in pt)
    got = completion.F_mu_numeric(z1, z2, z3, tau)
    th = [kernels.theta(w, tau) for w in (z1, z2, z3, z2 + z3)]
    want = +(1j * th[0] * kernels.mu(z1, z2, tau) * kernels.mu(z1, z3, tau)
             - kernels.eta(tau) ** 3 * th[3] / (th[1] * th[2]) * kernels.mu(z1, z2 + z3, tau))
    assert abs(got - want) <= mp.mpf(2) ** -(mp.prec - 4) * abs(want)


def F_cone_reference(z1, z2, z3, tau):
    """The cone sum point by point: the cut in mpf, two exponentials per
    point.  Returns the value and the points summed."""
    z1, z2, z3, tau = (mp.mpc(w) for w in (z1, z2, z3, tau))
    v = tau.imag
    logeps = -(mp.prec + 10) * mp.ln(2)

    def logmag(k, l, n):
        q_exp = k * (k + 1) / mp.mpf(2) + k * l + k * n + l * n
        return -2 * mp.pi * (v * q_exp + k * z1.imag + l * z2.imag + n * z3.imag)

    points, acc = [], mp.mpc(0)
    for k, l, n in cone_points(lambda k, l, n: logmag(k, l, n) > logeps):
        e = k * (k + 1) // 2 + k * l + k * n + l * n
        acc += (-1) ** k * qpow(tau, e) * mp.expjpi(2 * (k * z1 + l * z2 + n * z3))
        points.append((k, l, n))
    return qpow(tau, -F(1, 8)) * mp.expjpi(-z1 + z2 + z3) * acc, points


@pytest.mark.parametrize("pt", BRZ_POINTS)
def test_cone_walk_matches_per_point_sum(pt, monkeypatch):
    walked = []

    def recording(inside):
        for point in cone_points(inside):
            walked.append(point)
            yield point

    monkeypatch.setattr(completion, "cone_points", recording)
    args = [mp.mpc(*x) for x in pt]
    got = completion.F_cone_numeric(*args)
    want, points = F_cone_reference(*args)
    # the float cut keeps every point the mpf cut keeps
    assert set(points) <= set(walked)
    assert abs(got - want) <= mp.mpf(2) ** -P * abs(want)


def test_F_symmetry_in_last_arguments():
    z1, z2, z3 = Z123
    a = completion.F_mu_numeric(z1, z2, z3, TAU)
    b = completion.F_mu_numeric(z1, z3, z2, TAU)
    assert abs(a - b) < 1e-40


def test_F_removable_at_z1_zero():
    z1, z2, z3 = Z123
    vals = [completion.F_mu_numeric(t * mp.mpc("0.1", "0.05"), z2, z3, TAU)
            for t in (mp.mpf(1) / 10, mp.mpf(1) / 40, mp.mpf(1) / 160, mp.mpf(1) / 640)]
    steps = [abs(vals[i + 1] - vals[i]) for i in range(3)]
    # linear convergence in |z1|: successive steps shrink ~4x
    assert steps[0] > 3 * steps[1] > 9 * steps[2]


def test_fhat_equals_f_plus_rstar_matches_direct_evaluation():
    z1, z2, z3 = Z123
    got = completion.F_mu_numeric(z1, z2, z3, TAU) + completion.Rstar_numeric(z1, z2, z3, TAU)
    eta3 = kernels.eta(TAU) ** 3
    want = (1j * kernels.theta(z1, TAU) * kernels.muhat(z1, z2, TAU)
            * kernels.muhat(z1, z3, TAU)
            - eta3 * kernels.theta(z2 + z3, TAU)
            / (kernels.theta(z2, TAU) * kernels.theta(z3, TAU))
            * kernels.muhat(z1, z2 + z3, TAU))
    assert abs(got - want) < 1e-40


def test_rstar_zero_closed_form_is_the_limit():
    z1, z2, z3 = Z123
    closed = completion.Rstar_numeric(mp.mpc(0), z2, z3, TAU)
    near = completion.Rstar_numeric(mp.mpc("1e-9", "3e-10"), z2, z3, TAU)
    assert abs(closed - near) < 1e-7


def test_rstar_tau_limit_and_shift_law():
    _, z2, z3 = Z123
    lim = completion.Rstar_numeric(TAU, z2, z3, TAU)
    rhs = completion.rstar_tau_shift_rhs(z2, z3, TAU)
    assert abs(lim - rhs) < 1e-40
    near = completion.Rstar_numeric(TAU + mp.mpc("1e-9", "3e-10"), z2, z3, TAU)
    assert abs(lim - near) < 1e-7


def test_fcal_value_closed_form():
    f0, _, _ = completion.fcal_derivs(TAU)
    th = kernels.theta(TAU / 2 + mp.mpf(1) / 4, TAU)
    closed = -1j * kernels.eta(TAU) ** 3 * qpow(TAU, -F(1, 8)) / th
    assert abs(f0.value - closed) < 1e-40
    # the constant term of the paired expansion vanishes
    assert abs(f0.value ** 2 + kernels.eta(TAU) ** 6 * qpow(TAU, -F(1, 4)) / th ** 2) < 1e-40


def test_fcal_derivs_match_wirtinger_fd():
    with workprec(200):
        f0, f1, f2 = completion.fcal_derivs(TAU)
        h = mp.mpf(10) ** -6

        def fc(z):
            return completion.fcal_numeric(z, TAU)

        dz = ((fc(h) - fc(-h)) / (2 * h)
              - 1j * (fc(1j * h) - fc(-1j * h)) / (2 * h)) / 2
        assert abs(f1.value - dz) < 1e-8
        fxx = (fc(h) - 2 * f0.value + fc(-h)) / h ** 2
        fyy = (fc(1j * h) - 2 * f0.value + fc(-1j * h)) / h ** 2
        fxy = (fc(h + 1j * h) - fc(h - 1j * h) - fc(-h + 1j * h) + fc(-h - 1j * h)) / (4 * h ** 2)
        assert abs(f2.value - (fxx - fyy - 2j * fxy) / 4) < 1e-8


def test_fcal_pole_on_lattice():
    with pytest.raises(PoleProximity):
        completion.fcal_numeric(0, TAU)


@pytest.mark.parametrize("radius", [0.05, 0.1])
def test_contour_derivs_components_share_one_pass(radius):
    # f = (e^z, 1/(z-2)): each component within its own err of the closed form
    center = mp.mpc("0.3", "-0.2")
    calls = []

    def f(z):
        calls.append(z)
        return (mp.exp(z), 1 / (z - 2))

    exp_d, pole_d = completion.contour_derivs(f, center, radius, (0, 1, 2))
    assert len(calls) == len(set(calls))     # one evaluation per node
    for m in (0, 1, 2):
        assert abs(exp_d[m].value - mp.exp(center)) <= exp_d[m].err
        want = (-1) ** m * mp.factorial(m) / (center - 2) ** (m + 1)
        assert abs(pole_d[m].value - want) <= pole_d[m].err
        assert exp_d[m].err < 1e-40 and pole_d[m].err < 1e-40


def test_contour_derivs_pole_just_outside_raises():
    radius = mp.mpf("0.1")
    with pytest.raises(ContourThroughPole):
        completion.contour_derivs(lambda z: (mp.exp(z), 1 / (z - radius * 1.01)),
                                  mp.mpc(0), radius, (0, 1))


def test_contour_through_lattice_is_rejected():
    with pytest.raises(ContourThroughPole):
        assert_contour_clear(0, 1.2, TAU)


def test_jet_products_track_valuation_and_exact_order():
    J = completion.Jet
    sin = J(1, 3, [mp.mpf(1), mp.mpf(0), -mp.mpf(1) / 6], [0.0, 0.0, 0.0])   # delta - delta^3/6
    pole = J(-1, 0, [mp.mpf(1), mp.mpf(2)], [0.0, 1e-30])                      # 1/delta + 2
    prod = sin * pole
    # known through delta^min(3 - 1, 0 + 1): (1 + 2 delta + O(delta^2))
    assert (prod.val, prod.exact) == (0, 1)
    assert prod.c == [1, 2] and prod.err == [0.0, 1e-30]
    with pytest.raises(ValueError):
        prod.deriv(2)
    inv = sin.recip()                                  # 1/delta + delta/6 + O(delta^2)
    assert (inv.val, inv.exact) == (-1, 1)
    assert inv.c[0] == 1 and inv.c[1] == 0 and abs(inv.c[2] - mp.mpf(1) / 6) < 1e-30
    total = prod + inv
    assert (total.val, total.exact) == (-1, 1) and total.err == [0.0, 0.0, 1e-30]
    with pytest.raises(PrecisionUnreachable, match="delta\\^-1"):
        total.regular("prod + inv")
    assert prod.regular("prod").deriv(1).value == 2


def _holomorphic_blocks(tau, nstar):
    """F's blocks at c = -nstar tau, and FF's holomorphic block at 0: the
    jet assembly of F-hat and FF fed mu's jets instead of mu-hat's, at the
    jets' guard precision as in the package."""
    bits = mp.prec
    with mp.workprec(bits + completion.JET_GUARD):
        bundle = completion._fhat_bundle(tau)
        theta, mu, diag, cross = completion._fhat_kernels(bundle, nstar, bits)
        plan = kernels.TauPlan(tau)
        theta0, (mu0,) = completion._center_jets(plan, plan.mu(completion._w_point(tau, 0)), 0, bits)
        return (completion._fhat_blocks(theta, mu, diag, cross),
                completion._fcal_block(tau, theta0, mu0, bits))


@pytest.mark.parametrize("im_tau", ["1.36", "0.93", "0.1", "0.0104"])
def test_jets_match_contour_quadrature(im_tau):
    # every holomorphic block against trapezoidal quadrature of its own
    # point function, within the quadrature's error estimate
    tau = mp.mpc("0.11", im_tau)
    r = contour_radius(tau)
    plan = kernels.TauPlan(tau)
    q18 = qpow(tau, -F(1, 8))
    mu_w0 = plan.mu(completion._w_point(tau, 0))
    _, ff = _holomorphic_blocks(tau, 0)
    want, = completion.contour_derivs(
        lambda z: (q18 * mp.expjpi(z) * plan.theta(z) * mu_w0(z)[0],), 0, r, (0, 1, 2))
    for m in (0, 1, 2):
        assert abs(ff.deriv(m).value - want[m].value) <= want[m].err, ("FF", m)

    eta3 = kernels.eta(tau) ** 3
    ws = [completion._w_point(tau, 0), completion._w_point(tau, 1),
          tau + mp.mpf(1) / 2, tau + mp.mpf(3) / 2]
    mus = plan.mu(*ws)
    th = mus.theta_w

    def blocks(z):
        t, mu = plan.theta(z), mus(z)
        out = []
        for a in (0, 1):
            for b in (0, 1):
                second = (-eta3 * th[2 + a] / (th[a] * th[b]) * mu[2 + a] if a == b
                          else 1j * eta3 ** 2 / (th[a] * th[b]) * mp.expjpi(-2 * z) / t)
                out.append(1j * t * mu[a] * mu[b] + second)
        return out

    for nstar in (0, -1):
        h, _ = _holomorphic_blocks(tau, nstar)
        wants = completion.contour_derivs(blocks, -nstar * tau, r, (0, 1))
        for (ab, jet), want in zip(h.items(), wants):
            for m in (0, 1):
                assert abs(jet.deriv(m).value - want[m].value) <= want[m].err, (nstar, ab, m)


def test_R_part_of_the_center_jets_is_the_rstar_closed_form():
    # F-hat's block from mu-hat's jets minus F's from mu's, at delta^0, is
    # R*(c, w_a, w_b) at c = 0 and c = tau, by the closed forms' own route
    for nstar, fhat in completion._fhat_center_jets(TAU).items():
        c = -nstar * TAU
        f, _ = _holomorphic_blocks(TAU, nstar)
        for (a, b), jet in fhat.items():
            got = jet.deriv(0).value - f[a, b].deriv(0).value
            want = completion.Rstar_numeric(c, completion._w_point(TAU, a),
                                            completion._w_point(TAU, b), TAU)
            assert abs(got - want) < 1e-40, (nstar, a, b)


def test_jet_exactness_guards_R_missing_second_derivative():
    # R's jet stops at delta^1; FF's jet still reaches delta^2 because
    # theta(0) = 0, but a product of mu-hat and R without theta does not
    w0 = completion._w_point(TAU, 0)
    R, = completion._R_jets(-w0, TAU)
    assert (R.val, R.exact) == (0, 1)
    plan = kernels.TauPlan(TAU)
    theta, (mu,) = completion._center_jets(plan, plan.mu(w0), 0, mp.prec)
    mu_hat = completion._muhat_jet(mu, R)
    ff = completion._fcal_block(TAU, theta, mu_hat, mp.prec)
    assert ff.exact == 2
    assert abs(ff.deriv(2).value - completion.fcal_derivs(TAU)[2].value) < 1e-40
    with pytest.raises(ValueError):
        (mu_hat * R).deriv(2)


def test_non_removable_block_is_refused():
    # i theta mu(w_a) mu(w_b) alone keeps a pole at the center; only the
    # second term of the F-hat block cancels it
    plan = kernels.TauPlan(TAU)
    w = completion._w_point(TAU, 0)
    for nstar in (0, -1):
        theta, (mu,) = completion._center_jets(plan, plan.mu(w), nstar, mp.prec)
        assert (theta * mu).regular("theta mu").val == 0
        with pytest.raises(PrecisionUnreachable, match="theta mu mu"):
            (theta * mu * mu).regular("theta mu mu")
        with pytest.raises(PrecisionUnreachable, match="1/theta"):
            theta.recip().regular("1/theta")


def test_jet_allowances_are_taken_at_the_working_precision(monkeypatch):
    # the jets are assembled JET_GUARD bits up, but a kernel coefficient's
    # allowance is (|x| + 1) 2^(16 - prec) at the caller's prec, so the
    # blocks' bounds stay far above that allowance taken JET_GUARD bits up
    floor = 2.0 ** (16 - mp.prec - completion.JET_GUARD // 2)
    assert completion.fcal_derivs(TAU)[0].err > floor
    # with R's jet an exact zero, F-hat's blocks keep only the allowances of
    # the holomorphic kernels
    monkeypatch.setattr(completion, "_R_jets", lambda z, tau, shifts=(0,):
                        [completion.Jet(0, 1, [0, 0], [0.0, 0.0]) for _ in shifts])
    for blocks in completion._fhat_center_jets(TAU).values():
        assert min(jet.err[0] for jet in blocks.values()) > floor


def test_hhat1_vanishes():
    val = completion.hhat1_numeric(TAU)
    assert abs(val.value) < 1e-40
    assert abs(val.value) < val.err


def test_hhat2_equals_minus_4i_eta3_phat():
    h2 = completion.hhat2_numeric(TAU)
    ph = completion.phat_omega_numeric(TAU)
    assert abs(h2.value + 4j * kernels.eta(TAU) ** 3 * ph.value) < 1e-40


def test_hhat_shift_by_tau_matches_quarter_shift_rewrite():
    # H-hat(z + tau) = q^(1/4) zeta^2 sum i^(alpha+beta) F-hat(z, w_a, w_b)
    z = mp.mpc("0.23", "0.07")
    lhs = completion.Hhat_numeric(z + TAU, TAU)
    acc = mp.mpc(0)
    for alpha in (0, 1):
        for beta in (0, 1):
            acc += (1j) ** (alpha + beta) * completion._fhat_generic(
                z, alpha, beta, TAU)
    rhs = qpow(TAU, F(1, 4)) * mp.expjpi(4 * z) * acc
    assert abs(lhs - rhs) < 1e-38


def test_hhat_weight_32_law():
    # H-hat(z/(c tau+d); M tau) = psi^-3 e^{-pi i (ab + cd/4)/2} (c tau+d)^{3/2}
    #                              e^{-pi i c z^2/(c tau+d)} H-hat(z; tau)
    M = GroupElement(7, 5, 4, 3)
    z = mp.mpc("0.13", "0.02")
    j = M.jfactor(TAU)
    lhs = completion.Hhat_numeric(z / j, M.act(TAU))
    mult = (psi_multiplier(M).pow(-3).value()
            * mp.expjpi(-(M.a * M.b + mp.mpf(M.c) * M.d / 4) / 2))
    rhs = (mult * power_principal(j, F(3, 2))
           * mp.expjpi(-M.c * z * z / j) * completion.Hhat_numeric(z, TAU))
    assert abs(lhs - rhs) / abs(rhs) < 1e-40


def test_phat_weight1_under_gamma():
    for M in (GroupElement(7, 5, 4, 3), GroupElement(1, 2, 0, 1)):
        left = completion.phat_omega_numeric(M.act(TAU)).value
        right = completion.phat_omega_numeric(TAU).value
        res = abs(left - mp.expjpi(mp.mpf(M.c) / 8) * M.jfactor(TAU) * right)
        assert res / max(abs(left), abs(right)) < 1e-40


def test_error_budgets_are_honest():
    # doubling the precision moves the value by less than the reported budget
    def at(prec, f, tau):
        with workprec(prec):
            return f(tau)

    lo = at(96, completion.phat_omega_numeric, TAU)
    hi = at(192, completion.phat_omega_numeric, TAU)
    assert abs(lo.value - hi.value) < lo.err
    lo1 = at(96, completion.hhat1_numeric, TAU)
    assert abs(lo1.value) < lo1.err
    # the hardest benchmark point: M tau with Im M tau ~ 0.0104, where the
    # kernel windows, and the recurrences that fill them, are longest
    with workprec(320):
        t = GroupElement.parse("1,0,8,1").act(mp.mpc("0.319919", "1.360718"))
        assert abs(t.imag - mp.mpf("0.0104")) < mp.mpf("0.0001")
    p192 = at(192, completion.phat_omega_numeric, t)
    p320 = at(320, completion.phat_omega_numeric, t)
    assert abs(p192.value - p320.value) < p192.err
    # H-hat-2's R-part budget comes from the jets too
    lo2 = at(96, completion.hhat2_numeric, TAU)
    hi2 = at(192, completion.hhat2_numeric, TAU)
    assert abs(lo2.value - hi2.value) < lo2.err
    h192 = at(192, completion.hhat2_numeric, t)
    h320 = at(320, completion.hhat2_numeric, t)
    assert abs(h192.value - h320.value) < h192.err


def test_f3_dual_route():
    series = eta_quotient_series(EtaQuotient([(4, 1), (2, -2)]), 60)
    via_series = series.eval_mpc(mp, qpow(TAU, 1))
    direct = completion.f_family_numeric(3, TAU)
    assert abs(via_series - direct) < 1e-35


def test_f1_f4_reality_structure():
    v = TAU.imag
    f1 = completion.f_family_numeric(1, -mp.conj(TAU))
    assert abs(v ** mp.mpf(-1.5) * f1 - kernels.eta(4 * TAU) ** 3) < 1e-35
    f4 = completion.f_family_numeric(4, -mp.conj(TAU))
    want = (kernels.eta(2 * TAU) ** 5
            / (kernels.eta(TAU) ** 2 * kernels.eta(4 * TAU) ** 2))
    assert abs(v ** mp.mpf(-0.5) * f4 - want) < 1e-35


def test_chi2_matches_f2_transform():
    # f2 transforms with weight 1/2 and multiplier chi2 wherever 4 | c: on the
    # paper group (8|c and 4||c, c of both signs) and outside it
    from pwomega.modular import chi_multiplier, in_gamma
    paper_group = ("1,0,8,1", "1,2,0,1", "7,5,4,3", "3,-1,4,-1", "-1,1,-4,3", "1,0,-8,1")
    for mat in paper_group + ("1,1,0,1", "3,1,8,3"):
        M = GroupElement.parse(mat)
        assert in_gamma(M) == (mat in paper_group)
        left = completion.f_family_numeric(2, M.act(TAU))
        right = completion.f_family_numeric(2, TAU)
        ratio = left / (power_principal(M.jfactor(TAU), F(1, 2)) * right)
        assert abs(ratio - chi_multiplier(2, M).value()) < 1e-40, mat


def test_lowering_identity_corrected_form():
    Lfd = lowering_fd(lambda t: completion.phat_omega_numeric(t).value, TAU)
    rhs = completion.lowering_rhs(TAU, corrected=True)
    assert abs(Lfd - rhs) < 1e-6


def test_dtaubar_fcal_closed_forms():
    d1 = dtaubar_fd(lambda t: completion.fcal_derivs(t)[1].value, TAU)
    assert abs(d1 - completion.dtaubar_fcal1_closed(TAU)) < 1e-6
    d2 = dtaubar_fd(lambda t: completion.fcal_derivs(t)[2].value, TAU)
    assert abs(d2 - completion.dtaubar_fcal2_closed(TAU)) < 1e-6


def test_f2_shadow():
    xi = xi_fd(lambda t: completion.f_family_numeric(2, t), F(1, 2), TAU)
    assert abs(xi - completion.f2_shadow_closed(TAU)) < 1e-6


def test_plateau_term_makes_holpart_decay():
    res = {}
    for v in (3, 4):
        t = mp.mpc("0.3", v)
        ph = completion.phat_omega_numeric(t).value
        hol = completion.holomorphic_part_numeric(t, 120)
        res[v] = abs(ph - completion.nonholo_plateau(t) - hol)
    assert res[4] < 1e-8
    assert res[3] > 10 * res[4]

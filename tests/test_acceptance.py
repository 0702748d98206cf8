"""Acceptance gate: the eleven contract criteria, each at its stated
tolerance, printing one pass/fail line.

Two criteria pin known failures and are marked strict-xfail so the recorded
outcome stays visible (see the README analysis):

  * criterion 9's literal inequality is unattainable for the modular
    completed object: its non-holomorphic remainder carries an exactly
    computable non-decaying v^(-1/2) term (the plateau-subtracted variant,
    asserted here as a companion test, decays exponentially);
  * criterion 10's original-form lowering combination uses the wrong
    eta-quotient in its second term (the corrected combination, asserted as
    a companion test, matches to 1e-18).
"""

import time
from fractions import Fraction

import pytest
from mpmath import mp

from pwomega import completion, kernels
from pwomega.classical import (EtaQuotient, TorsionPoint, eta_quotient_series,
                               finite_jtp_sides, heine_sides,
                               theta_series_at_torsion)
from pwomega.cyc8 import Cyc8, I
from pwomega.indefinite import (pbar_omega_series, pwz_coefficient_formula_sides,
                                pwz_lhs_cleared, pwz_rhs_cleared)
from pwomega.kernels import qpow, workprec
from pwomega.modular import GroupElement, laplacian_fd, lowering_fd, xi_fd
from pwomega.partitions import census, genfun
from pwomega.qseries import Monomial
from pwomega.registry import run_identity

F = Fraction

TAUS = [mp.mpc(0.11, 0.93), mp.mpc(-0.23, 1.07), mp.mpc(0.31, 1.49)]
TAUS5 = TAUS + [mp.mpc(0.07, 0.84), mp.mpc(-0.41, 1.21)]


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    return ok


def test_criterion_01_triple_sum_representation():
    t0 = time.time()
    a = pbar_omega_series(61, "definition")
    b = pbar_omega_series(61, "triple_sum")
    ok = a.first_mismatch(b) is None
    for n, count in enumerate(census("pbar_omega", 25), 1):
        ok = ok and b[n] == Cyc8(count)
    elapsed = time.time() - t0
    assert report("criterion 1: triple-sum representation exact to O(q^60) + oracle",
                  ok, f"({elapsed:.1f}s)")
    assert elapsed < 30


def test_criterion_02_double_sum_identity():
    t0 = time.time()
    ok = pwz_lhs_cleared(25, 25).first_mismatch(pwz_rhs_cleared(25, 25)) is None
    cleared = pwz_lhs_cleared(20, 25)
    for j in (1, 2, 3):
        lhs, rhs = pwz_coefficient_formula_sides(cleared, j)
        ok = ok and lhs.first_mismatch(rhs) is None
    elapsed = time.time() - t0
    assert report("criterion 2: cleared double-sum identity O(q^25), window 25",
                  ok, f"({elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_03_section1_identities():
    t0 = time.time()
    ok = genfun("spt", 41) == genfun("spt", 41, side="appell")
    ok = ok and genfun("spt_omega", 41) == genfun("spt_omega", 41, side="appell")
    ok = ok and genfun("sptbar_omega", 41) == genfun("sptbar_omega", 41, side="appell")
    ok = ok and genfun("spt_g2", 41) == genfun("sptbar_omega", 41)
    ok = ok and genfun("p_omega", 41) == genfun("p_omega", 41, side="appell")
    elapsed = time.time() - t0
    assert report("criterion 3: five smallest-parts identities exact to O(q^40)",
                  ok, f"({elapsed:.1f}s)")
    assert elapsed < 30


def test_criterion_04_classical_lemmas():
    ok = True
    for n in range(0, 6):
        lhs, rhs = finite_jtp_sides(n, 30)
        ok = ok and lhs.first_mismatch(rhs) is None
    for j in (0, 1, 2):
        lhs, rhs = heine_sides(Monomial(I, F(2 * j + 1, 2)),
                               Monomial(-I, F(2 * j + 1, 2)),
                               Monomial(1, 2 * j + 1), Monomial(1, 1), 25)
        ok = ok and lhs.first_mismatch(rhs) is None
    assert report("criterion 4: finite triple product n<=5, Heine family j<=2", ok)


def test_criterion_05_indefinite_vs_appell_lerch():
    t0 = time.time()
    rep = run_identity("brz-F", {"prec": 192})
    elapsed = time.time() - t0
    assert report("criterion 5: cone sum vs Appell-Lerch form at 5 points < 1e-20",
                  rep.status == "pass", f"(worst {rep.worst_residual:.2e}, {elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_06_quarter_point_bundle():
    lhs1 = theta_series_at_torsion(TorsionPoint(1, F(1, 2)), 30)
    rhs1 = eta_quotient_series(EtaQuotient([(2, 2), (1, -1)], Monomial(-2, F(-1, 2))), 30)
    lhs2 = theta_series_at_torsion(TorsionPoint(F(1, 2), F(1, 4)), 30)
    rhs2 = eta_quotient_series(
        EtaQuotient([(2, 2), (4, -1)], Monomial(Cyc8.zeta_pow(-3), F(-1, 8))), 30)
    ok = lhs1 == rhs1 and lhs2 == rhs2
    with workprec(192):
        worst = 0.0
        for tau in TAUS:
            got = kernels.R(tau + mp.mpf(1) / 2, tau)
            worst = max(worst, float(abs(got - 2j * qpow(tau, F(3, 8)))))
    ok = ok and worst < 1e-20
    assert report("criterion 6: quarter-point eta-quotient forms + R(tau+1/2)",
                  ok, f"(R residual {worst:.2e})")


def test_criterion_07_hhat1_vanishes():
    t0 = time.time()
    worst = 0.0
    with workprec(192):
        for tau in TAUS5:
            worst = max(worst, float(abs(completion.hhat1_numeric(tau).value)))
    elapsed = time.time() - t0
    assert report("criterion 7: first combined H-hat vanishes at 5 points < 1e-20",
                  worst < 1e-20, f"(worst {worst:.2e}, {elapsed:.0f}s)")


def test_criterion_08_weight_one_transformation():
    t0 = time.time()
    worst = 0.0
    with workprec(192):
        for mat in ("7,5,4,3", "1,0,8,1", "3,-1,4,-1"):
            M = GroupElement.parse(mat)
            for tau in TAUS:
                left = completion.phat_omega_numeric(M.act(tau)).value
                right = completion.phat_omega_numeric(tau).value
                res = abs(left - mp.expjpi(mp.mpf(M.c) / 8) * M.jfactor(tau) * right)
                worst = max(worst, float(res / max(abs(left), abs(right))))
    elapsed = time.time() - t0
    assert report("criterion 8: weight-1 transformation under three group elements",
                  worst < 1e-15, f"(worst {worst:.2e}, {elapsed:.0f}s)")
    assert elapsed < 300


@pytest.mark.xfail(strict=True, reason="the non-holomorphic remainder of "
                   "the completed object has a non-decaying v^(-1/2) term "
                   "(see README); the plateau-subtracted variant below passes")
def test_criterion_09_holomorphic_part_literal():
    with workprec(160):
        res = {}
        for v in (3, 4):
            tau = mp.mpc(0.3, v)
            ph = completion.phat_omega_numeric(tau).value
            hol = completion.holomorphic_part_numeric(tau, 120)
            res[v] = float(abs(ph - hol))
    ok = res[4] < 1e-8 and res[3] > 10 * res[4]
    report("criterion 9 (literal): |Phat - holomorphic part| < 1e-8 at v=4",
           ok, f"(residuals v3={res[3]:.3e}, v4={res[4]:.3e})")
    assert ok


def test_criterion_09_holomorphic_part_plateau_subtracted():
    with workprec(160):
        res = {}
        for v in (3, 4):
            tau = mp.mpc(0.3, v)
            ph = completion.phat_omega_numeric(tau).value
            hol = completion.holomorphic_part_numeric(tau, 120)
            res[v] = float(abs(ph - completion.nonholo_plateau(tau) - hol))
    ok = res[4] < 1e-8 and res[3] > 10 * res[4]
    assert report("criterion 9 (plateau-subtracted): q-series part is "
                  "Pbar + 1/4 - eta(4t)/(2 eta(2t)^2)",
                  ok, f"(residuals v3={res[3]:.3e}, v4={res[4]:.3e})")


@pytest.mark.xfail(strict=True, reason="the original-form lowering "
                   "combination carries the wrong eta-quotient in its second "
                   "term (see README); the corrected combination below passes")
def test_criterion_10_lowering_identity_literal():
    with workprec(160):
        Lfd = lowering_fd(lambda t: completion.phat_omega_numeric(t).value, TAUS[0])
        resid = float(abs(Lfd - completion.lowering_rhs(TAUS[0])))
    report("criterion 10 (literal): original-form lowering combination to 1e-6",
           resid < 1e-6, f"(residual {resid:.3e})")
    assert resid < 1e-6


def test_criterion_10_lowering_corrected_shadow_and_435():
    with workprec(160):
        tau = TAUS[0]
        Lfd = lowering_fd(lambda t: completion.phat_omega_numeric(t).value, tau)
        r_low = float(abs(Lfd - completion.lowering_rhs(tau, corrected=True)))
        xi = xi_fd(lambda t: completion.f_family_numeric(2, t), F(1, 2), tau)
        r_shadow = float(abs(xi - completion.f2_shadow_closed(tau)))
        from pwomega.modular import dtaubar_fd
        d = dtaubar_fd(lambda t: completion.fcal_derivs(t)[1].value, tau)
        r_435 = float(abs(d - completion.dtaubar_fcal1_closed(tau)))
    ok = r_low < 1e-6 and r_shadow < 1e-6 and r_435 < 1e-6
    assert report("criterion 10: corrected lowering + shadow of f2 + closed "
                  "tau-bar derivative, all to 1e-6",
                  ok, f"(residuals {r_low:.1e}, {r_shadow:.1e}, {r_435:.1e})")


def test_criterion_11_property_suites():
    rep = run_identity("mu-laws", {"prec": 128})
    ok = rep.status == "pass"
    with workprec(160):
        lap = laplacian_fd(
            lambda t: kernels.muhat(mp.mpc(t) / 2, mp.mpc(t) / 2 + mp.mpf(1) / 4, mp.mpc(t)),
            F(1, 2), mp.mpc(0.13, 1.02))
    ok = ok and abs(lap) < 1e-5
    assert report("criterion 11: mu/mu-hat/R law suite + torsion harmonicity",
                  ok, f"(laplacian {float(abs(lap)):.2e})")

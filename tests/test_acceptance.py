"""Acceptance gate: the contract, one row per registered identity.

Each row states a criterion, the exact params its registry report must carry
(orders, window, precision, tau-points, matrices, tolerances) and the status
the report must have.  The gate runs the suite once and reads its reports:
the registered check is the only implementation of each criterion, and a
default weakened in the registry (a lower order or precision, a looser
tolerance, fewer tau-points or matrices) fails its row.  So the contract's
numbers are literals here, never read from the registry.

Two criteria pin known failures (see the README analysis).  Their rows expect
the status "fail", and strict-xfail tests assert the literal criteria on the
report witnesses, failing outright if a report is an error:

  * criterion 9's literal inequality is unattainable for the modular
    completed object: its non-holomorphic remainder carries an exactly
    computable non-decaying v^(-1/2) term (the plateau-subtracted variant in
    the same witness, asserted as a companion test, decays exponentially);
  * criterion 10's original-form lowering combination uses the wrong
    eta-quotient in its second term (the corrected combination in the same
    witness, asserted as a companion test, matches to 2.9e-18).
"""

from collections import namedtuple

import pytest

from pwomega.registry import run_suite

TAUS3 = [[0.11, 0.93], [-0.23, 1.07], [0.31, 1.49]]
TAUS5 = TAUS3 + [[0.07, 0.84], [-0.41, 1.21]]
MATRICES = ["7,5,4,3", "1,0,8,1", "3,-1,4,-1"]

# seconds: the criterion's time bound, or None
Row = namedtuple("Row", "id criterion params status seconds")

CONTRACT = [
    Row("spt-andrews", "criterion 3: spt series = its Appell-Lerch form, exact to O(q^40)",
        {"order": 41}, "pass", 30),
    Row("spt-omega", "criterion 3: spt_omega series = its Appell-Lerch form, exact to O(q^40)",
        {"order": 41}, "pass", 30),
    Row("sptbar-omega", "criterion 3: overpartition spt series = its Appell-Lerch form, "
        "exact to O(q^40)", {"order": 41}, "pass", 30),
    Row("sptG2-equiv", "criterion 3: G2-type series = overpartition spt series, exact to O(q^40)",
        {"order": 41}, "pass", 30),
    Row("pomega-qomega", "criterion 3: P_omega = q omega(q), exact to O(q^40)",
        {"order": 41}, "pass", 30),
    Row("thm-pwz", "criterion 2: cleared double-sum identity O(q^25), window 25, "
        "per-j coefficients j <= 3", {"order": 25, "window": 25}, "pass", 60),
    Row("cor-pwrep", "criterion 1: triple-sum representation exact to O(q^60), three routes "
        "+ oracle", {"order": 61}, "pass", 30),
    Row("brz-F", "criterion 5: cone sum vs Appell-Lerch form at 5 points < 1e-20",
        {"prec": 192, "tolerance": 1e-20}, "pass", 60),
    Row("hhat1-zero", "criterion 7: first combined H-hat vanishes at 5 points < 1e-20",
        {"prec": 192, "taus": TAUS5, "tolerance": 1e-20}, "pass", None),
    Row("hhat2-phat", "criterion 12: second combined H-hat = -4i eta^3 P-hat at 3 points "
        "< 1e-20", {"prec": 192, "taus": TAUS3, "tolerance": 1e-20}, "pass", None),
    Row("phat-weight1", "criterion 8: weight-1 transformation, 3 group elements x 3 points "
        "< 1e-15", {"prec": 192, "taus": TAUS3, "matrices": MATRICES, "tolerance": 1e-15},
        "pass", 300),
    Row("phat-holpart", "criterion 9 (literal): |P-hat - holomorphic part| < 1e-8 at v = 4, "
        "tenfold decay from v = 3", {"prec": 160, "order": 120, "tolerance": 1e-8}, "fail", None),
    Row("phat-lowering", "criterion 10 (literal): original-form lowering combination + closed "
        "tau-bar derivative to 1e-6", {"prec": 160, "taus": TAUS3[:1], "tolerance": 1e-6},
        "fail", None),
    Row("f2-shadow", "criterion 10: shadow of f2 at 2 points to 1e-6",
        {"prec": 160, "taus": TAUS3[:2], "tolerance": 1e-6}, "pass", None),
    Row("theta-shifts", "criterion 6: quarter-point eta-quotient forms O(q^30), elliptic shifts, "
        "R(tau+1/2) < 1e-20", {"order": 30, "prec": 192, "taus": TAUS3, "tolerance": 1e-20},
        "pass", None),
    Row("mu-laws", "criterion 11: mu/mu-hat/R law suite + torsion harmonicity < 1e-5",
        {"prec": 128, "laplacian_tolerance": 1e-5, "tolerance": 2.0 ** -118}, "pass", None),
    Row("finite-jtp", "criterion 4: finite triple product n <= 5, exact to O(q^30)",
        {"order": 30}, "pass", None),
    Row("heine", "criterion 4: Heine, quarter-root family j <= 2 + random monomials, "
        "exact to O(q^25)", {"order": 25}, "pass", None),
]


@pytest.fixture(scope="module")
def reports():
    return {rep.id: rep for rep in run_suite()}


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} {detail}")
    return ok


def witness(reports, id):
    """The witness of a pinned failure; a report that is not a failure has
    none to read (an error is no verdict on the criterion)."""
    rep = reports[id]
    if rep.status != "fail":
        pytest.fail(f"{id} reported {rep.status}: {rep.witness}")
    return rep.witness


def test_contract_covers_each_registered_identity_once(reports):
    assert [row.id for row in CONTRACT] == list(reports)


@pytest.mark.parametrize("row", CONTRACT, ids=lambda row: row.id)
def test_criterion(reports, row):
    rep = reports[row.id]
    report(row.criterion, rep.status == "pass",
           f"({rep.id}: worst {rep.worst_residual}, {rep.elapsed_ms} ms)")
    assert rep.params == row.params
    assert rep.tolerance == row.params.get("tolerance")
    assert rep.status == row.status, rep.witness
    if row.status == "pass" and "tolerance" in row.params:
        assert rep.worst_residual < row.params["tolerance"]
    if row.seconds is not None:
        assert rep.elapsed_ms < 1000 * row.seconds


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the non-holomorphic remainder of the completed object has a "
                   "non-decaying v^(-1/2) term (see README); the plateau-subtracted variant "
                   "below passes")
def test_criterion_09_holomorphic_part_literal(reports):
    w = witness(reports, "phat-holpart")
    assert w["residual_v4"] < 1e-8 and w["residual_v3"] > 10 * w["residual_v4"]


def test_criterion_09_holomorphic_part_plateau_subtracted(reports):
    w = witness(reports, "phat-holpart")
    v3, v4 = w["plateau_subtracted_v3"], w["plateau_subtracted_v4"]
    assert report("criterion 9 (plateau-subtracted): q-series part is "
                  "Pbar + 1/4 - eta(4t)/(2 eta(2t)^2)",
                  v4 < 1e-8 and v3 > 10 * v4, f"(residuals v3={v3:.3e}, v4={v4:.3e})")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the original-form lowering combination carries the wrong "
                   "eta-quotient in its second term (see README); the corrected combination "
                   "below passes")
def test_criterion_10_lowering_identity_literal(reports):
    assert witness(reports, "phat-lowering")["original_form_residual"] < 1e-6


def test_criterion_10_lowering_corrected_shadow_and_435(reports):
    w = witness(reports, "phat-lowering")
    low, d435 = w["corrected_residual"], w["dtaubar_fcal1_residual"]
    shadow = reports["f2-shadow"]
    ok = low < 1e-6 and d435 < 1e-6 and shadow.status == "pass" and shadow.worst_residual < 1e-6
    assert report("criterion 10: corrected lowering + shadow of f2 + closed "
                  "tau-bar derivative, all to 1e-6",
                  ok, f"(residuals {low:.1e}, {shadow.worst_residual:.1e}, {d435:.1e})")

"""CLI harness: commands, exit codes, report schema, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from pwomega.cli import main
from pwomega.cyc8 import Cyc8
from pwomega.errors import UndeclaredParameter
from pwomega.jseries import JSeries
from pwomega.qseries import QSeries
from pwomega.registry import (DEFAULT_TAUS, _residual_check, _series_check, identity_ids,
                              run_identity)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    for ident in ("cor-pwrep", "thm-pwz", "hhat1-zero", "heine"):
        assert ident in out


def test_run_single_identity(capsys):
    code, out, _ = run_cli(capsys, "run", "finite-jtp", "--order", "18")
    assert code == 0
    report = json.loads(out)
    assert report["id"] == "finite-jtp"
    assert report["status"] == "pass"
    assert report["schema"] == 1


def test_run_unknown_identity(capsys):
    code, _, err = run_cli(capsys, "run", "nonexistent")
    assert code == 2
    assert "unknown identity" in err


def test_undeclared_override_is_refused(capsys):
    # brz-F reads no order and finite-jtp no prec: refused before the runner
    # starts, not echoed into a report
    code, out, err = run_cli(capsys, "run", "brz-F", "--order", "10")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'order'" in err
    code, out, err = run_cli(capsys, "run", "finite-jtp", "--prec", "10")
    assert code == 2 and out == "" and "'prec'" in err
    with pytest.raises(UndeclaredParameter, match="tolerance"):
        run_identity("heine", {"tolerance": 1.0})


def test_suite_passes_each_identity_its_declared_overrides(capsys):
    code, out, _ = run_cli(capsys, "suite", "--filter", "brz-*", "--order", "10")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass" and "order" not in report["params"]


@pytest.mark.parametrize("ident, read", [("theta-shifts", 3), ("hhat2-phat", 3),
                                         ("phat-weight1", 3), ("phat-lowering", 1),
                                         ("f2-shadow", 2)])
def test_numeric_identities_report_the_taus_they_read(ident, read):
    # each reads the first `read` default points; its report lists those
    rep = run_identity(ident)
    assert rep.status == ("fail" if ident == "phat-lowering" else "pass")
    assert rep.params["taus"] == [list(tau) for tau in DEFAULT_TAUS[:read]]


def test_cor_pwrep_below_the_oracle_cap(capsys):
    # the enumeration oracle stops at q^26; at order 20 both sides stop at 20
    code, out, _ = run_cli(capsys, "run", "cor-pwrep", "--order", "20")
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_suite_filter_selects_one(capsys):
    code, out, _ = run_cli(capsys, "suite", "--filter", "finite-jtp", "--order", "16")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 1 and lines[0]["id"] == "finite-jtp"


def test_forced_failure_gives_exit_1(capsys):
    code, out, _ = run_cli(capsys, "suite", "--filter", "brz-F",
                           "--tolerance", "0", "--prec", "96")
    assert code == 1
    report = json.loads(out.strip())
    assert report["status"] == "fail"
    assert report["witness"] is not None


def test_expand_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "expand", "pbar-omega", "--order", "10")
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"][0] == ["1", "1"]
    code, out, _ = run_cli(capsys, "expand", "eta", "--order", "2",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == '1/24,"1"'


def test_expand_empty_series(capsys):
    code, out, _ = run_cli(capsys, "expand", "pbar-omega", "--order", "0")
    assert code == 0
    assert json.loads(out)["terms"] == []


def test_expand_unknown_object(capsys):
    code, _, err = run_cli(capsys, "expand", "no-such-series", "--order", "5")
    assert code == 2
    assert "expandable objects" in err


def test_expand_unreadable_eta_quotient_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "expand", "eta-quotient:1^2,2^-1", "--order", "5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'1^2,2^-1'" in err


def test_every_listed_object_expands(capsys):
    from pwomega.cli import EXPANDABLE
    for name in EXPANDABLE:
        name = name.replace("<spec>", "q^{-1/8} * eta(2)^2 / eta(4)")
        assert main(["expand", name, "--order", "6"]) == 0, name
    capsys.readouterr()


def test_oracle_table(capsys):
    code, out, _ = run_cli(capsys, "oracle", "pbar-omega", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["n,count", "1,1", "2,2", "3,4", "4,5"]


def test_oracle_rejects_series_only_family(capsys):
    code, _, err = run_cli(capsys, "oracle", "spt-g2", "--n", "3")
    assert code == 2


def test_usage_error_exit_2(capsys):
    assert main(["expand"]) == 2
    assert main([]) == 2


def test_config_file_and_override(tmp_path, capsys):
    cfg = tmp_path / "pw.cfg"
    cfg.write_text("order = 12\n# comment\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "run", "finite-jtp")
    assert code == 0
    assert json.loads(out)["params"]["order"] == 12
    code, out, _ = run_cli(capsys, "--config", str(cfg), "run", "finite-jtp",
                           "--order", "14")
    assert json.loads(out)["params"]["order"] == 14


def test_bad_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "run", "finite-jtp")
    assert code == 2
    assert "config error" in err


def test_reports_deterministic_modulo_elapsed():
    a = run_identity("heine", {"order": 18}).to_dict()
    b = run_identity("heine", {"order": 18}).to_dict()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_registry_exposes_documented_ids():
    expected = {"spt-andrews", "spt-omega", "sptbar-omega", "sptG2-equiv",
                "pomega-qomega", "thm-pwz", "cor-pwrep", "brz-F", "hhat1-zero",
                "hhat2-phat", "phat-weight1", "phat-holpart", "phat-lowering",
                "f2-shadow", "theta-shifts", "mu-laws", "finite-jtp", "heine"}
    assert set(identity_ids()) == expected


def test_series_check_witness_keys():
    q1 = QSeries.from_terms(1, [(0, Cyc8(1)), (2, Cyc8(3))], 5)
    q2 = QSeries.from_terms(1, [(0, Cyc8(1)), (2, Cyc8(4))], 5)
    out = _series_check([("same", q1, q1), ("q", q1, q2)])
    assert out == {"ok": False, "witness": {"part": "q", "exponent": "2",
                                            "lhs": str(Cyc8(3)), "rhs": str(Cyc8(4))}}
    j1 = JSeries.from_terms(1, 1, [(1, -2, Cyc8(1))], 5)
    j2 = JSeries.from_terms(1, 1, [(1, -2, Cyc8(2))], 5)
    out = _series_check([("j", j1, j2)])
    assert out == {"ok": False, "witness": {"part": "j", "q_exponent": "1",
                                            "zeta_exponent": "-2",
                                            "lhs": str(Cyc8(1)), "rhs": str(Cyc8(2))}}
    assert _series_check([("q", q1, q1), ("j", j1, j1)]) == {"ok": True, "witness": None}


def test_series_check_fails_sides_of_different_orders():
    # these two agree below their common order, so they are equal only once
    # both are cut there
    a, b = QSeries(1, {0: Cyc8(1)}, 0), QSeries(1, {0: Cyc8(2)}, 5)
    assert a != b and a == b.truncate(0)
    out = _series_check([("q", a, b)])
    assert out == {"ok": False, "witness": {"part": "q", "orders": ["0", "5"]}}
    j1 = JSeries.from_terms(1, 1, [(0, 1, Cyc8(1)), (4, -1, Cyc8(3))], 3)
    j2 = JSeries.from_terms(1, 1, [(0, 1, Cyc8(1))], 5)
    assert j1 != j2 and j1 == j2.truncate(3)
    out = _series_check([("j", j1, j2)])
    assert out == {"ok": False, "witness": {"part": "j", "orders": ["3", "5"]}}
    assert _series_check([("j", j1, j2.truncate(3))]) == {"ok": True, "witness": None}
    half = QSeries.from_terms(2, [(0, Cyc8(1))], F(5, 2))
    assert _series_check([("h", half, half.truncate(2))])["witness"]["orders"] == ["5/2", "2"]


def test_series_check_builds_no_pair_after_a_mismatch():
    q1 = QSeries.from_terms(1, [(0, Cyc8(1))], 5)
    q2 = QSeries.from_terms(1, [(0, Cyc8(2))], 5)

    def pairs():
        yield "same", q1, q1
        yield "differ", q1, q2
        raise AssertionError("a pair was built after the first mismatch")

    assert _series_check(pairs())["witness"]["part"] == "differ"


def test_residual_check_fails_at_the_tolerance():
    assert _residual_check([(1e-3, {"part": "a"})], 1e-3, 53)["ok"] is False
    assert _residual_check([(1e-3, {"part": "a"})], 2e-3, 53) == {"ok": True, "worst": 1e-3,
                                                                   "witness": None}


def test_residual_check_witness_is_the_worst():
    out = _residual_check([(1.0, {"part": "a"}), (3.0, {"part": "b"}),
                           (2.0, {"part": "c"})], 0.5, 53)
    assert out == {"ok": False, "worst": 3.0, "witness": {"part": "b"}}


def test_no_residuals_is_a_failure(tmp_path, capsys):
    assert _residual_check([], 1.0, 53) == {"ok": False, "worst": None,
                                            "witness": {"part": "no residuals"}}
    assert run_identity("hhat1-zero", {"taus": []}).status == "fail"
    cfg = tmp_path / "empty-taus.cfg"
    cfg.write_text("taus =\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "run", "hhat1-zero")
    assert code == 1
    report = json.loads(out)
    assert report["worst_residual"] is None
    assert report["witness"] == {"part": "no residuals"}


def test_hhat1_zero_computes_at_its_precision():
    # at the default 53 bits H-hat-1 is nowhere near its 1e-20 tolerance
    rep = run_identity("hhat1-zero", {"taus": [(0.11, 0.93)]})
    assert rep.status == "pass" and rep.worst_residual < 1e-60


def test_mu_laws_zero_tolerance_fails():
    # a tolerance of 0 is a tolerance, not "use the default 2^(10 - prec)"
    rep = run_identity("mu-laws", {"tolerance": 0.0})
    assert rep.status == "fail"
    assert rep.tolerance == 0.0 and rep.params["tolerance"] == 0.0


def test_mu_laws_reports_the_tolerance_it_applied():
    rep = run_identity("mu-laws")
    assert rep.status == "pass"
    assert rep.tolerance == 2.0 ** -118 and rep.params["tolerance"] == 2.0 ** -118
    assert rep.to_dict()["tolerance"] == 2.0 ** -118


# Runs in a fresh interpreter: this one has long since imported mpmath.
BOUNDARY_SCRIPT = """
import sys
from pwomega import cli, registry
exact = [i.id for i in registry.REGISTRY if "prec" not in i.defaults]
for ident in exact:
    report = registry.run_identity(ident)
    assert report.status == "pass", report
assert cli.main(["list"]) == 0
assert cli.main(["expand", "pbar-omega", "--order", "20"]) == 0
assert cli.main(["expand", "mu(tau/2,tau/2+1/4)", "--order", "20"]) == 0
numeric = ["mpmath", "pwomega.kernels", "pwomega.completion", "pwomega.appell",
           "pwomega.modular"]
loaded = [m for m in numeric if m in sys.modules]
assert not loaded, f"the exact path loaded {loaded}"
report = registry.run_identity("brz-F")
assert report.status == "pass", report
print("exact identities:", len(exact))
"""


def test_exact_path_imports_no_numeric_module():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", BOUNDARY_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "exact identities: 9" in proc.stdout

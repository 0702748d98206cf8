"""CLI harness: commands, exit codes, report schema, determinism."""

import hashlib
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
from pwomega import registry
from pwomega.registry import _check, run_identity


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
    # brz-F reads no order and finite-jtp no prec: refused before the check
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


def test_phat_lowering_reads_every_point():
    # the second point is the worse one: the report is that point's
    two = run_identity("phat-lowering", {"taus": [(0.11, 0.93), (-0.23, 1.07)]})
    second = run_identity("phat-lowering", {"taus": [(-0.23, 1.07)]})
    first = run_identity("phat-lowering")
    assert two.status == second.status == first.status == "fail"
    assert two.worst_residual == second.worst_residual > first.worst_residual
    assert two.witness == dict(second.witness, tau=[-0.23, 1.07])
    assert "tau" not in first.witness


def test_phat_weight1_witness_names_tau_as_given(capsys):
    # a failing weight-1 check names its point as the report's params list it
    code, out, _ = run_cli(capsys, "run", "phat-weight1", "--tolerance", "0", "--tau", "0.11,0.93")
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert report["witness"]["tau"] == report["params"]["taus"][0] == [0.11, 0.93]
    assert report["witness"]["matrix"] in report["params"]["matrices"]


def test_spaced_negative_tau_is_read_as_a_value(capsys):
    code, spaced, err = run_cli(capsys, "run", "hhat2-phat", "--tau", "-0.23,1.07")
    assert code == 0, err
    code, joined, _ = run_cli(capsys, "run", "hhat2-phat", "--tau=-0.23,1.07")
    assert code == 0
    spaced, joined = json.loads(spaced), json.loads(joined)
    spaced.pop("elapsed_ms"), joined.pop("elapsed_ms")
    assert spaced == joined and spaced["params"]["taus"] == [[-0.23, 1.07]]


def test_cor_pwrep_below_the_oracle_cap(capsys):
    # cor-pwrep compares with the enumeration oracle to q^26; at order 20, to q^20
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


SAMPLE_SPEC = "q^{-1/8} * eta(2)^2 / eta(4)"


def test_every_listed_object_expands(capsys):
    from pwomega.cli import EXPANDABLE
    for name in EXPANDABLE:
        name = name.replace("<spec>", SAMPLE_SPEC)
        assert main(["expand", name, "--order", "6"]) == 0, name
    capsys.readouterr()


# SHA-256 of `expand NAME --order 20 --format FMT`: every listed object (the
# sample eta-quotient spec) and three alternative spellings
EXPAND_DIGESTS = {
    ("pbar-omega", "json"):
        "4cf332d28badbaabbf1570e01790d1e7440ab6774764b12283705990fd9375e0",
    ("pbar-omega", "csv"):
        "179574e59cc92a3deae37775f73f2e3bfa8a3adb55767421f69aaf2a5232855d",
    ("pbar-omega-def", "json"):
        "23295ae68fbf350553acc3b99b8aa5622673aa1a75a64d6af21fe46f8da6cbae",
    ("pbar-omega-def", "csv"):
        "179574e59cc92a3deae37775f73f2e3bfa8a3adb55767421f69aaf2a5232855d",
    ("eta", "json"):
        "dd7e860db772c43edac3ab7a2cf823711b910bbaf7270375b4db7e1707b7855f",
    ("eta", "csv"):
        "87d4193dc37c8510b5c3b82c237e7c8a33fdda4a3413564d8fef6b67b8f7c307",
    ("eta^3", "json"):
        "ddc1b97e7ed6ec6c671ead046eec67e7e5db11d66ec2f17a02afab2830eaa597",
    ("eta^3", "csv"):
        "1decc999d7ab5533be607facdbb7e65b8a844696d8d8ff841505a629637e2e77",
    ("euler", "json"):
        "13f8d6654443c8227b21e6381e63fe2cdb666addb1fc0bd45531c27e90c65bff",
    ("euler", "csv"):
        "bfe7b810b98d5537b7ab0c9150137e37ee35d426c217e3153c3907fe608ec433",
    ("eta-quotient:q^{-1/8} * eta(2)^2 / eta(4)", "json"):
        "86d176bd2ec755ba235188e13d289daafeb3d3d6d8108314cc4dcaf9ca88f359",
    ("eta-quotient:q^{-1/8} * eta(2)^2 / eta(4)", "csv"):
        "7a68b1ef79f9472de6f30711052cafde6da175b4a3db4beea8cd495dfbda7748",
    ("theta(tau+1/2)", "json"):
        "b7aac4bd90a77ccc08953b01c7c6e340770c15184bfcf81dde9da2c7849b85a3",
    ("theta(tau+1/2)", "csv"):
        "c188ad07c9b4c684d491a7d0c48ab32e2fc30a427a0ef2945aea916596c53476",
    ("theta(tau/2+1/4)", "json"):
        "8641d1623a763437a141ee27abc3dc21f030a8d436240f788eae7ccb4ffcccec",
    ("theta(tau/2+1/4)", "csv"):
        "4d9207eaf5fec391e71ad6beb7c3edd2911c4270bc1be60748d8994e3bf1c3a3",
    ("mu(tau/2,tau/2+1/4)", "json"):
        "d818ed6b41403237cd694a5bc434a901967c98af12a440ec4f3a59c5725c0f0b",
    ("mu(tau/2,tau/2+1/4)", "csv"):
        "a8244fd1cbddc473f836fd58c2586c96b09f74d868fa67bacd691fcda761d65e",
    ("spt", "json"):
        "9e482adfc80d4f2d4db14512ad71350a7d8027a4e30383a7b603a0515532201d",
    ("spt", "csv"):
        "7bab06181b8c7a720ef5ab895ae8216668718b4d5bc7c9bfc6f4928961000032",
    ("p_omega", "json"):
        "ce8c3507a9680559db6bce9149bc4127446982f78cf78f17e3227179504a8035",
    ("p_omega", "csv"):
        "b7bc98dceb11c6b99f26369ed432860791a947c57225bf5d594b0fe61af6b235",
    ("spt_omega", "json"):
        "7a2c893f8a0fa61843e408896ed9a248468e6df075afd47650c36ae6694f8f38",
    ("spt_omega", "csv"):
        "1a3d33d88054b7efe708ef052efc07787f9c7bbd28ca6121d9de68036e72a47f",
    ("pbar_omega", "json"):
        "419acaa7ba09b0f1b95338c3dd4cb79859df7bd3773f700de2d8552873e865b3",
    ("pbar_omega", "csv"):
        "179574e59cc92a3deae37775f73f2e3bfa8a3adb55767421f69aaf2a5232855d",
    ("sptbar_omega", "json"):
        "5abc97a0a86aa20d3e997aca841c97461a9488ebe32a6cf0c11eacd6951f4c7d",
    ("sptbar_omega", "csv"):
        "7b9076fe9268088b67de5ac0f2f25f3652cc1cf30dfdc2ca869652184d320d41",
    ("spt_g2", "json"):
        "858c78cb055b027d57177aff5645e8b044f58393b91de1aab057f9484b59ab12",
    ("spt_g2", "csv"):
        "7b9076fe9268088b67de5ac0f2f25f3652cc1cf30dfdc2ca869652184d320d41",
    ("spt-omega", "json"):
        "d99ae70b3e586d99b5cca9786a848665c9e24a08cce21428751e9f74d5b5c70f",
    ("spt-omega", "csv"):
        "1a3d33d88054b7efe708ef052efc07787f9c7bbd28ca6121d9de68036e72a47f",
    ("pbar_omega", "json"):
        "419acaa7ba09b0f1b95338c3dd4cb79859df7bd3773f700de2d8552873e865b3",
    ("pbar_omega", "csv"):
        "179574e59cc92a3deae37775f73f2e3bfa8a3adb55767421f69aaf2a5232855d",
    ("p-omega", "json"):
        "28c3ac84cb3a68bdb75ab2310d183f7ca910c46bdbb421d6a22d2a3c7629dadc",
    ("p-omega", "csv"):
        "b7bc98dceb11c6b99f26369ed432860791a947c57225bf5d594b0fe61af6b235",
}


def test_expand_output_is_pinned_byte_for_byte(capsys):
    from pwomega.cli import EXPANDABLE
    names = [name.replace("<spec>", SAMPLE_SPEC) for name in EXPANDABLE]
    got = {}
    for name in names + ["spt-omega", "pbar_omega", "p-omega"]:
        for fmt in ("json", "csv"):
            code, out, _ = run_cli(capsys, "expand", name, "--order", "20", "--format", fmt)
            assert code == 0, name
            got[name, fmt] = hashlib.sha256(out.encode()).hexdigest()
    assert got == EXPAND_DIGESTS


def test_oracle_table(capsys):
    code, out, _ = run_cli(capsys, "oracle", "pbar-omega", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["n,count", "1,1", "2,2", "3,4", "4,5"]


def test_oracle_rejects_series_only_family(capsys):
    code, _, err = run_cli(capsys, "oracle", "spt-g2", "--n", "3")
    assert code == 2


# SHA-256 of the oracle tables (n = 1..25) of the per-n enumeration the
# one-descent census replaced
ORACLE_DIGESTS = {
    "spt": "d338fa52d4f04bea1b0744539eb9b0538913428efe1dc6b3c2478147318f15bf",
    "p-omega": "91b591c26ccdd82acefd85e24bd96082e07c0da8b76d6690e91991e43c448e41",
    "spt-omega": "b8bcdd4be7f57ed9e99a9cf04355f92726ed261ab8d1e70e35df66de9a8392d2",
    "pbar-omega": "a5ab61eada337afafc27cf04483cdbe1c4f31b808155a29e71b27263b33a8547",
    "sptbar-omega": "912e0ea101c9741126fc07cd623af1c3b36122197075fd066a118e04f5903556",
}


@pytest.mark.parametrize("family", sorted(ORACLE_DIGESTS))
def test_oracle_table_is_pinned_byte_for_byte(capsys, family):
    code, out, err = run_cli(capsys, "oracle", family, "--n", "25")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[family]


def test_oracle_past_the_cap_prints_the_rows_below_it_first(capsys):
    # rows 1..50 as before, then the error for n = 51
    code, out, err = run_cli(capsys, "oracle", "pbar-omega", "--n", "53")
    assert code == 2 and err == "error: enumeration capped at n <= 50\n"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "973059934d0fe7ebb5eeab3eef90ff2b368a5152ce5ed0fc488412c56065fe6d")
    for n in ("0", "-1"):
        assert run_cli(capsys, "oracle", "spt-g2", "--n", n) == (0, "n,count\n", "")


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


def test_series_check_witness_keys():
    q1 = QSeries.from_terms(1, [(0, Cyc8(1)), (2, Cyc8(3))], 5)
    q2 = QSeries.from_terms(1, [(0, Cyc8(1)), (2, Cyc8(4))], 5)
    out = _check([("same", q1, q1), ("q", q1, q2)], None, None)
    assert out == {"ok": False, "witness": {"part": "q", "exponent": "2",
                                            "lhs": str(Cyc8(3)), "rhs": str(Cyc8(4))}}
    j1 = JSeries.from_terms(1, 1, [(1, -2, Cyc8(1))], 5)
    j2 = JSeries.from_terms(1, 1, [(1, -2, Cyc8(2))], 5)
    out = _check([("j", j1, j2)], None, None)
    assert out == {"ok": False, "witness": {"part": "j", "q_exponent": "1",
                                            "zeta_exponent": "-2",
                                            "lhs": str(Cyc8(1)), "rhs": str(Cyc8(2))}}
    assert _check([("q", q1, q1), ("j", j1, j1)], None, None) == {"ok": True, "witness": None}


def test_series_check_fails_sides_of_different_orders():
    # these two agree below their common order, so they are equal only once
    # both are cut there
    a, b = QSeries(1, {0: Cyc8(1)}, 0), QSeries(1, {0: Cyc8(2)}, 5)
    assert a != b and a == b.truncate(0)
    out = _check([("q", a, b)], None, None)
    assert out == {"ok": False, "witness": {"part": "q", "orders": ["0", "5"]}}
    j1 = JSeries.from_terms(1, 1, [(0, 1, Cyc8(1)), (4, -1, Cyc8(3))], 3)
    j2 = JSeries.from_terms(1, 1, [(0, 1, Cyc8(1))], 5)
    assert j1 != j2 and j1 == j2.truncate(3)
    out = _check([("j", j1, j2)], None, None)
    assert out == {"ok": False, "witness": {"part": "j", "orders": ["3", "5"]}}
    assert _check([("j", j1, j2.truncate(3))], None, None) == {"ok": True, "witness": None}
    half = QSeries.from_terms(2, [(0, Cyc8(1))], F(5, 2))
    assert _check([("h", half, half.truncate(2))], None, None)["witness"]["orders"] == ["5/2", "2"]


def test_series_check_builds_no_pair_after_a_mismatch():
    q1 = QSeries.from_terms(1, [(0, Cyc8(1))], 5)
    q2 = QSeries.from_terms(1, [(0, Cyc8(2))], 5)

    def pairs(*after):
        yield "same", q1, q1
        yield "differ", q1, q2
        yield from after
        raise AssertionError("a pair was built after the first mismatch")

    assert _check(pairs(), None, None)["witness"]["part"] == "differ"
    # nor is a numeric part after the failing pair
    assert _check(pairs((0.0, {"part": "numeric"})), 1.0, 53) == {
        "ok": False, "worst": None, "witness": {"part": "differ", "exponent": "0",
                                                "lhs": str(Cyc8(1)), "rhs": str(Cyc8(2))}}


@pytest.mark.parametrize("argv, part", [
    (("cor-pwrep", "--order", "0"), "definition-vs-triple"),
    (("finite-jtp", "--order", "0"), "n=0"),
    (("heine", "--order", "0"), "quarter-root family j=0"),
    (("thm-pwz", "--order", "0"), "cleared-identity"),
    (("spt-andrews", "--order", "1"), "spt"),
])
def test_exact_check_that_compared_nothing_fails(capsys, argv, part):
    # every coefficient these runs compare is zero on both sides
    code, out, _ = run_cli(capsys, "run", *argv)
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert report["witness"] == {"part": part, "compared": "nothing"}


def test_series_check_fails_with_no_parts_and_passes_a_nonzero_coefficient():
    assert _check([], None, None) == {"ok": False, "witness": {"part": "no parts"}}
    zero = QSeries.zero(1, 5)
    assert _check([("z", zero, zero)], None, None)["witness"] == {"part": "z",
                                                                  "compared": "nothing"}
    # a part with one non-zero coefficient compared is a check
    assert run_identity("heine", {"order": 1}).status == "pass"
    assert run_identity("sptG2-equiv", {"order": 2}).status == "pass"


def test_residual_check_fails_at_the_tolerance():
    assert _check([(1e-3, {"part": "a"})], 1e-3, 53)["ok"] is False
    assert _check([(1e-3, {"part": "a"})], 2e-3, 53) == {"ok": True, "worst": 1e-3,
                                                          "witness": None}


def test_residual_check_witness_is_the_worst():
    out = _check([(1.0, {"part": "a"}), (3.0, {"part": "b"}),
                  (2.0, {"part": "c"})], 0.5, 53)
    assert out == {"ok": False, "worst": 3.0, "witness": {"part": "b"}}


@pytest.mark.parametrize("parts", [[(1e-30, {"part": "a"}), (float("nan"), {"part": "nan"})],
                                   [(float("nan"), {"part": "nan"}), (1e-30, {"part": "a"})]])
def test_check_takes_a_nan_residual_as_the_worst(parts):
    out = _check(parts, 1e-20, 53)
    assert out["ok"] is False and out["witness"] == {"part": "nan"}


def test_no_residuals_is_a_failure(tmp_path, capsys):
    assert _check([], 1.0, 53) == {"ok": False, "worst": None,
                                   "witness": {"part": "no residuals"}}
    assert run_identity("hhat1-zero", {"taus": []}).status == "fail"
    lowering = run_identity("phat-lowering", {"taus": []})
    assert lowering.status == "fail" and lowering.witness == {"part": "no residuals"}
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
    # a tolerance of 0 is applied as given, like any other
    rep = run_identity("mu-laws", {"tolerance": 0.0})
    assert rep.status == "fail"
    assert rep.tolerance == 0.0 and rep.params["tolerance"] == 0.0


def test_mu_laws_tolerance_does_not_follow_prec():
    # the registered 2^-118 holds at every prec: at 1 and 8 bits the laws fail it
    for prec in (1, 8):
        rep = run_identity("mu-laws", {"prec": prec})
        assert rep.status == "fail" and rep.tolerance == 2.0 ** -118


def test_mu_laws_transform_laws_read_one_muhat(monkeypatch):
    # the S and T laws share mu-hat(z1, z2; tau0): one evaluation per run
    from mpmath import mp
    from pwomega import kernels

    at = (mp.mpc(0.21, 0.12), mp.mpc(-0.11, 0.31), mp.mpc(0.13, 1.1))
    calls = []
    muhat = kernels.muhat
    monkeypatch.setattr(kernels, "muhat", lambda *args: calls.append(args) or muhat(*args))
    assert run_identity("mu-laws").status == "pass"
    assert calls.count(at) == 1


def test_mu_laws_laplacian_is_a_stage_after_the_laws():
    rep = run_identity("mu-laws", {"laplacian_tolerance": 0.0})
    assert rep.status == "fail" and rep.witness == {"part": "laplacian muhat"}
    assert 0 < rep.worst_residual < 1e-5
    # the laws are decided before the Laplacian: they fail first
    rep = run_identity("mu-laws", {"tolerance": 0.0, "laplacian_tolerance": 0.0})
    assert rep.status == "fail" and rep.witness == {"part": "mu-symmetry"}


# the kernel values of mu-laws' trial 0 that a fault is planted in, and the
# trial-0 laws that read each one
MU_LAWS_READERS = {
    "none": set(),
    "mu(z2, z1)": {"mu-symmetry", "muhat-swap"},
    "R(z2 - z1)": {"muhat-swap", "muhat-negate"},
    "mu(-z1, -z2)": {"muhat-negate"},
    "mu(z1 + tau, z2)": {"mu-elliptic"},
    "R(z1 + 1)": {"R-shift-1"},
}


@pytest.mark.parametrize("value", list(MU_LAWS_READERS))
def test_mu_laws_each_law_reads_its_own_sides(monkeypatch, value):
    # a 2^-40 relative fault in one kernel value of trial 0 lifts exactly
    # the laws that read that value above 2^-50; a law whose two sides
    # shared one pass or value would stay below, and still pass
    import random
    from itertools import islice
    from mpmath import mp
    from pwomega import kernels

    ident = registry._BY_ID["mu-laws"]
    fault = 1 + mp.mpf(2) ** -40
    with kernels.workprec(ident.defaults["prec"]):
        rng = random.Random(20260)
        tau = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.4))
        z1 = mp.mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        z2 = mp.mpc(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2))
        mu_at = {"mu(z2, z1)": (z2, z1), "mu(-z1, -z2)": (-z1, -z2),
                 "mu(z1 + tau, z2)": (z1 + tau, z2)}.get(value)
        R_at = {"R(z2 - z1)": z2 - z1, "R(z1 + 1)": z1 + 1}.get(value)
        mu_call, R_terms = kernels.MuPlan.__call__, kernels._R_terms

        def faulty_mu(plan, z):
            out = mu_call(plan, z)
            if mu_at is not None and (z, plan.ws) == (mu_at[0], [mu_at[1]]):
                out = [x * fault for x in out]
            return out

        def faulty_R(z, tau, shifts=(0,)):
            out = R_terms(z, tau, shifts)
            if shifts == (0,) and z == R_at:
                out = [(out[0][0] * fault, *out[0][1:])]
            return out

        monkeypatch.setattr(kernels.MuPlan, "__call__", faulty_mu)
        monkeypatch.setattr(kernels, "_R_terms", faulty_R)
        parts = list(islice(ident.parts(ident.defaults), 7))
    assert [w["part"] for _, w in parts] == ["mu-symmetry", "muhat-swap", "muhat-negate",
                                            "muhat-minus-mu", "R-shift-1", "R-shift-tau",
                                            "mu-elliptic"]
    assert {w["part"] for res, w in parts if res > 2.0 ** -50} == MU_LAWS_READERS[value]


def test_phat_holpart_fails_on_its_decay_criterion():
    # below a tolerance of 1 the v = 4 residual passes; it does not decay
    # tenfold from v = 3, so the report is the v = 4 residual's
    rep = run_identity("phat-holpart", {"tolerance": 1.0})
    assert rep.status == "fail"
    assert rep.worst_residual == rep.witness["residual_v4"] < 1.0
    assert rep.witness["part"] == "literal holomorphic-part criterion"


def test_cor_pwrep_fails_on_a_g_mismatch(monkeypatch):
    monkeypatch.setattr(registry, "g_equals_sum_of_f_mismatch",
                        lambda N: ((7, 1, 1, 1), Cyc8(0), Cyc8(-4)))
    rep = run_identity("cor-pwrep", {"order": 20})
    assert rep.status == "fail"
    assert rep.witness == {"part": "G=sum F", "exponent": "(7, 1, 1, 1)",
                           "lhs": str(Cyc8(0)), "rhs": str(Cyc8(-4))}


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

#!/usr/bin/env python3
"""Mutation gate: each entry below is a deliberate one-line bug together with
the test files that must catch it.

For every entry the script copies src/, tests/ and pyproject.toml into a
fresh temporary directory, replaces the entry's text (which must occur exactly
once in its file), runs the named test files there with pytest, and counts the
mutant as killed when pytest fails.  It prints one line per mutant and the
survivors, and exits 1 when any mutant survives.  Run it from any directory
on a tree whose own tests pass:

    python tools/mutants.py

It takes no options and is not part of the tier-1 test run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, test files that must fail)
MUTANTS = [
    ("src/pwomega/indefinite.py",
     "cone_exponent(k, l, n) < N + abs(k))", "cone_exponent(k, l, n) < N)",
     ["tests/test_indefinite.py"]),
    ("src/pwomega/classical.py",
     "a.q_exp + n - 1)", "a.q_exp + n)",
     ["tests/test_classical.py"]),
    ("src/pwomega/partitions.py",
     "g.shift(e + m * n)", "g.shift(e + n)",
     ["tests/test_partitions.py"]),
    ("src/pwomega/kernels.py",
     "Q[-n], W)", "Q[1 - n], W)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "tr = (tr0 * qr - ti0 * qi) >> W", "tr = (tr0 * qr - ti0 * qi) >> (W - 1)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "(M << cut) < max(", "M < max(",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "zinv * e * _to_mpc(n, 2 * W)", "zinv * _to_mpc(n, 2 * W)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "s = -int(mp.floor(z.imag / plan.v))", "s = 0",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "k0 = int(mp.floor(-z.imag / self.v))", "k0 = int(mp.floor(-z.imag / self.v)) + 40",
     ["tests/test_kernels.py"]),
    # the jets at the removable centers
    ("src/pwomega/kernels.py",
     "(_to_mpc(p1, 2 * W) - a / 12)", "(_to_mpc(p1, 2 * W) + a / 12)",
     ["tests/test_kernels.py", "tests/test_completion.py"]),
    ("src/pwomega/kernels.py",
     "self._sides(nstar, self._window(c.imag),", "self._sides(0, self._window(c.imag),",
     ["tests/test_kernels.py", "tests/test_completion.py"]),
    ("src/pwomega/kernels.py",
     "xr, xi = ((rr * rr - ri * ri) >> W) - rr,", "xr, xi = ((rr * rr - ri * ri) >> W) + rr,",
     ["tests/test_kernels.py", "tests/test_completion.py"]),
    # R and eta by ratio recurrence, the cone walk along its lines
    ("src/pwomega/kernels.py",
     "bits = max(53, prec + TAIL_GUARD - int(", "bits = max(53, prec - int(",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "eu = _fix(-ex * eq, W)", "eu = _fix(-ex, W)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "q3 = _mul(_mul(q, q, W), q, W)", "q3 = _mul(q, q, W)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "W = mp.prec + 3 * kmax.bit_length() + 2", "W = mp.prec + 3 * kmax.bit_length() - 14",
     ["tests/test_kernels.py"]),
    # R's trapezoid erfc and its window
    ("src/pwomega/kernels.py",
     "out = mpf_sub(out, pole, F)", "out = out",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "mp.sqrt((bits + 12) * mp.ln(2))", "mp.sqrt((bits - 8) * mp.ln(2))",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "for g, k2 in self._terms:", "for g, k2 in self._terms[:-2]:",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "lb + math.log2(abs(2 * k + 1)) >= cut", "lb >= cut",
     ["tests/test_kernels.py"]),
    ("src/pwomega/completion.py",
     "ratio = qp(s * (k + l)) * zs[2]", "ratio = qp(s * (k + l + 1)) * zs[2]",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "exact = min(self.exact + other.val, other.exact + self.val)",
     "exact = max(self.exact + other.val, other.exact + self.val)",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "            if abs(x) > e:\n", "            if False:\n",
     ["tests/test_completion.py"]),
    ("src/pwomega/qseries.py",
     "sign = -1 if i + j >= 4 else 1", "sign = -1 if i + j > 4 else 1",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "x if j + ((i - j) & 3) >= 4 else -x", "x if j + ((i - j) & 3) > 4 else -x",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "p = k - e\n", "p = k - e + 1\n",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "[(self, binomial)], self.order)", "[(self, binomial)], self.order + e)",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "reach = Fraction(s.order - s.floor_key(), s.D)", "reach = s.order_exp()",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "is None and self.order == other.order", "is None",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/classical.py",
     "common = min(lhs.order_exp(), rhs.order_exp(), N)", "common = N",
     ["tests/test_classical.py"]),
    ("src/pwomega/registry.py",
     "mm = a.first_mismatch(b)", "mm = None",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "if a.order_exp() != b.order_exp():", "if False:",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "res > worst", "res < worst",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "ok = worst < tol", "ok = worst <= tol",
     ["tests/test_cli.py"]),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_mutant(path: str, old: str, new: str, tests) -> bool:
    """True when the named tests fail on the mutated copy."""
    with tempfile.TemporaryDirectory(prefix="pwomega-mutant-") as tmp:
        tmp = Path(tmp)
        _copy_tree(tmp)
        target = tmp / path
        text = target.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, expected once")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import pwomega; print(pwomega.__file__)"],
                               cwd=tmp, env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(tmp)):
            raise SystemExit(f"the mutated copy imports pwomega from {where!r}")
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                               "-p", "no:cacheprovider", *tests],
                              cwd=tmp, env=env, capture_output=True, text=True)
        return proc.returncode != 0


def main() -> int:
    survivors = []
    for path, old, new, tests in MUTANTS:
        t0 = time.perf_counter()
        killed = run_mutant(path, old, new, tests)
        label = f"{path}: {old!r} -> {new!r}"
        print(f"{'killed  ' if killed else 'SURVIVED'} {time.perf_counter() - t0:6.1f}s  {label}",
              flush=True)
        if not killed:
            survivors.append(label)
    print(f"{len(survivors)} survivors of {len(MUTANTS)} mutants")
    for label in survivors:
        print(f"  survivor: {label}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())

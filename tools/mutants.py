#!/usr/bin/env python3
"""Mutation gate: each entry below is a deliberate one-line bug together with
the test files that must catch it.

For every entry the script copies src/, tests/, pyproject.toml and README.md
into a fresh temporary directory, replaces the entry's text (which must occur
exactly once in its file), runs the named test files there with pytest, and
counts the mutant as killed when pytest fails.  It prints one line per mutant and the
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
     "a.q_exp + n - 1, 1)", "a.q_exp + n, 1)",
     ["tests/test_classical.py"]),
    ("src/pwomega/partitions.py",
     "(e + m * n, sign)", "(e + n, sign)",
     ["tests/test_acceptance.py"]),
    # the binomial walks of the exact builders: an eta factor one power
    # short, mu's root with the wrong sign, the squared Appell denominator
    # taken once
    ("src/pwomega/classical.py",
     "* abs(r)", "* (abs(r) - 1)",
     ["tests/test_classical.py"]),
    ("src/pwomega/classical.py",
     "[(-root_b1, n + a1, -1)]", "[(root_b1, n + a1, -1)]",
     ["tests/test_appell.py"]),
    ("src/pwomega/partitions.py",
     "[(-1, m * n, -1)] * 2", "[(-1, m * n, -1)]",
     ["tests/test_acceptance.py"]),
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
     "self._rows(nstar, self._window(c.imag))", "self._rows(0, self._window(c.imag))",
     ["tests/test_kernels.py", "tests/test_completion.py"]),
    ("src/pwomega/kernels.py",
     "X.append((((rr * rr - ri * ri) >> W) - rr,", "X.append((((rr * rr - ri * ri) >> W) + rr,",
     ["tests/test_kernels.py", "tests/test_completion.py"]),
    # each mirrored term once: R's erfc keyed by the signed 2(n + a), so no
    # pair shares it; the shared value stored after the sgn-differs
    # transform; pairing taken at a 2a merely near an integer; theta's fold
    # with the wrong sign, or with its self-mirrored peak counted twice; the
    # Laurent q-side term m reading the table's entry m, not m + 1
    ("src/pwomega/kernels.py",
     "key = abs(2 * k + 1 + J)", "key = 2 * k + 1 + J",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "seen[key] = fm", "seen[key] = 2 * to_fixed(m, W) - fm",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "paired = mpf_shift(a, 1) == from_int(J)",
     "paired = abs(mp.mpf(mpf_shift(a, 1)) - J) < mp.mpf(2) ** -20",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "r = -1 if (L - 1) * (J + 1) & 1 else 1", "r = 1 if (L - 1) * (J + 1) & 1 else -1",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "if not mirror or J & 1:", "if not mirror:",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "qsum, qjet = self._side(neg, recips), self._side(neg, jets)",
     "qsum, qjet = self._side(neg[1:], recips), self._side(neg[1:], jets)",
     ["tests/test_kernels.py"]),
    # R and eta by ratio recurrence, the cone walk along its lines
    ("src/pwomega/kernels.py",
     "bits = max(53, prec + TAIL_GUARD - int(", "bits = max(53, prec - int(",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "eu = _mul(ex, (-eq[0], -eq[1]), G)", "eu = (-ex[0], -ex[1])",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "q3 = _mul(_mul(q, q, W), q, W)", "q3 = _mul(q, q, W)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "W = mp.prec + 3 * kmax.bit_length() + 2", "W = mp.prec + 3 * kmax.bit_length() - 14",
     ["tests/test_kernels.py"]),
    # R's trapezoid erfc and its window
    ("src/pwomega/kernels.py",
     "        if p > 0:\n", "        if False:\n",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "mp.sqrt((bits + 12) * mp.ln(2))", "mp.sqrt((bits - 8) * mp.ln(2))",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "for g, k2 in self._terms:", "for g, k2 in self._terms[:-2]:",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "    while lb(hi) + math.log2(abs(2 * hi + 1)) < cut:\n", "    while lb(hi) < cut:\n",
     ["tests/test_kernels.py"]),
    # the asymptotic erfc on h_n stopped early (dropping only its last
    # nonzero term moves S by under 2^-(bits+4): no 1-ulp test can see it),
    # the table memo at fewer bits than R's terms need, F_mu's bundle with
    # its second and third arguments swapped
    ("src/pwomega/kernels.py",
     "k > 4 and term > prev or not term:", "k > 4 and term > prev or not term >> 20:",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "table = erfc_table(max(53, prec + TAIL_GUARD))", "table = erfc_table(max(53, prec + TAIL_GUARD) - 8)",
     ["tests/test_kernels.py"]),
    ("src/pwomega/completion.py",
     "bundle = plan.mu(z2, z3, z2 + z3)", "bundle = plan.mu(z2, z2 + z3, z3)",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "ratio = _mul(qp(s * (k + l)), zs[2], W)", "ratio = _mul(qp(s * (k + l + 1)), zs[2], W)",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "zip((-1, 1, 1), (z1, z2, z3))", "zip((1, 1, 1), (z1, z2, z3))",
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
    # the in-place quotient: the four-component step's sign, the rational
    # recurrence's read offset and sign, a walk by e that misses the keys of
    # the other residue classes (rational and four-component), the keys past
    # a lowered order kept
    ("src/pwomega/qseries.py",
     "m = (-c).components()", "m = c.components()",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "y = t.get(k - e)\n", "y = t.get(k - e + 1)\n",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "v = t.get(k, 0) - x * y", "v = t.get(k, 0) + x * y",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "                for k in range(lo + e, order, g):", "                for k in range(lo + e, order, e):",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "\n    for k in range(lo + e, order, g):", "\n    for k in range(lo + e, order, e):",
     ["tests/test_exactalg.py"]),
    # the chain's spans and its in-place product: a product walking its keys
    # ascending (reading keys it already wrote), a span keeping G after a
    # step by q^e, spans kept across a zeta-step that moved keys between rows
    ("src/pwomega/qseries.py",
     "for k in sorted(t, reverse=True):", "for k in sorted(t):",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "spans[r] = lo, g", "spans[r] = lo, spans[r][1]",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "            spans = None\n            continue\n", "            continue\n",
     ["tests/test_exactalg.py"]),
    # one enumeration per census: counted only at size N, the odd-part bound
    # applied before the smallest part is chosen; the oracle's error past the
    # cap dropped after its rows
    ("src/pwomega/partitions.py",
     "counts[size] += weight(mult_smallest, distinct)",
     "counts[size] += weight(mult_smallest, distinct) if size == N else 0",
     ["tests/test_partitions.py"]),
    ("src/pwomega/partitions.py",
     "    for p in range(1, N + 1):\n",
     "    for p in range(1, N + 1):\n        if constrained and p % 2 == 1 and p >= 2:\n            continue\n",
     ["tests/test_partitions.py"]),
    ("src/pwomega/cli.py",
     "        if args.n > top:\n", "        if False:\n",
     ["tests/test_cli.py"]),
    # a float taken as the Fraction of its binary value
    ("src/pwomega/cyc8.py",
     "    if isinstance(x, float):\n", "    if False:\n",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "for k in [k for k in t if k >= order]:", "for k in []:",
     ["tests/test_exactalg.py"]),
    # the carried-ratio walk: a step's extra factors applied to the carried
    # ratio, which the next step then multiplies on; the ratio run on the
    # series' own tables; the carried tables cut at the order minus the
    # fold shift as well; a folded monomial's coefficient dropped from the
    # terms
    ("src/pwomega/qseries.py",
     "_binomial_rows(_copy(rows), series._factors(extra), top, *mono)",
     "_binomial_rows(rows, series._factors(extra), top, *mono)",
     ["tests/test_partitions.py", "tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "rows, order = _copy(series.rows), series.order", "rows, order = series.rows, series.order",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "top = min(top, order - e)", "top = min(top, order - e - mono[1])",
     ["tests/test_classical.py", "tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "_add_rows(acc, term, c * tc,", "_add_rows(acc, term, c,",
     ["tests/test_classical.py", "tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "                if k < order:\n", "                if k < order + e:\n",
     ["tests/test_exactalg.py"]),
    # the binomial chain: the multiply step's sign, the folded monomial, the
    # last factor
    ("src/pwomega/qseries.py",
     "x = -x if j + l >= 4 else x", "x = x",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "_add_rows(acc, rows, coef, shift, dshift, order)",
     "_add_rows(acc, rows, coef, -shift, dshift, order)",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "for c, e, d, sign in factors:", "for c, e, d, sign in list(factors)[:-1]:",
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
    # an exact check that compared nothing passing
    ("src/pwomega/registry.py",
     "    elif a.is_zero() and b.is_zero():\n", "    elif False:\n",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "elif a.order_exp() != b.order_exp():", "elif False:",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "part[0] > worst or", "part[0] < worst or",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "_result(worst < tol, worst, wit, tol)", "_result(worst <= tol, worst, wit, tol)",
     ["tests/test_cli.py"]),
    # the check: a NaN residual passing after a finite one, or a finite one
    # replacing a NaN; the worst so far not decided before a part with its
    # own tolerance; a route's own mismatch ignored
    ("src/pwomega/registry.py",
     "part[0] > worst or part[0] != part[0]:", "part[0] > worst:",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "part[0] > worst or part[0] != part[0]:", "not part[0] <= worst:",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "                if worst is not None and not worst < tol:\n"
     "                    return _result(False, worst, wit, tol)\n", "",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "    if b is None:\n        mm = a\n", "    if b is None:\n        mm = None\n",
     ["tests/test_cli.py"]),
    # the criteria that are parts: phat-holpart's decay factor 10 taken as 1,
    # mu-laws' Laplacian dropped
    ("src/pwomega/registry.py",
     "yield res[4], witness, res[3] / 10", "yield res[4], witness, res[3] / 1",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "    yield float(abs(lap)), {\"part\": \"laplacian muhat\"}, params[\"laplacian_tolerance\"]\n",
     "",
     ["tests/test_cli.py"]),
    # the finite-difference steps rounded at the precision of modular's import
    ("src/pwomega/modular.py",
     "FD_STEP_FIRST = mp.mpf(1e-4)", "FD_STEP_FIRST = mp.mpf(10) ** -4",
     ["tests/test_modular.py"]),
    # every multiplier from psi, and psi from Rademacher's formula: its
    # -1/8 turn added, the c < 0 quarter turn with its sign flipped, the
    # sawtooth without its -1/2, chi2 taken as chi1 itself
    ("src/pwomega/modular.py",
     "- F(1, 8)", "+ F(1, 8)",
     ["tests/test_modular.py"]),
    ("src/pwomega/modular.py",
     "quarter = F(1, 4) if c", "quarter = F(-1, 4) if c",
     ["tests/test_modular.py"]),
    ("src/pwomega/modular.py",
     "- math.floor(x) - F(1, 2)", "- math.floor(x)",
     ["tests/test_modular.py"]),
    ("src/pwomega/modular.py",
     "return chi_multiplier(1, M).inverse()", "return chi_multiplier(1, M)",
     ["tests/test_completion.py"]),
    # the zeta-steps of the two-variable chains: the target row, the
    # q-shift, the order rows are taken in; the cleared pwz series' shifted
    # add and the walk's ratio one step short; G = sum F's and
    # pwz_rhs_cleared's int exponents
    ("src/pwomega/qseries.py",
     "acc.setdefault(r + d,", "acc.setdefault(r - d,",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "_add_rows(rows, rows, c, e, d, order)", "_add_rows(rows, rows, c, e + (d != 0), d, order)",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "sorted(rows, reverse=d > 0)", "sorted(rows, reverse=d < 0)",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/indefinite.py",
     "((1, n, 0), [(1, 2 * n - 1, 0, 1)", "((1, n - 1, 0), [(1, 2 * n - 1, 0, 1)",
     ["tests/test_indefinite.py"]),
    ("src/pwomega/qseries.py",
     "top = min(top, order - e)", "top = min(top, order - e - series.D)",
     ["tests/test_indefinite.py"]),
    ("src/pwomega/indefinite.py",
     "k * n + 2 * l * n)", "k * n + l * n)",
     ["tests/test_indefinite.py"]),
    ("src/pwomega/indefinite.py",
     "(-j, 2 * j, 4)", "(-j, 2 * j - 1, 4)",
     ["tests/test_indefinite.py"]),
    # the one n-ary sum keeping the caller's order past a shorter summand,
    # the triple product's row exponent, the pwz prefactor's (q)_inf once
    ("src/pwomega/qseries.py",
     "order = min(order, s.order)", "order = order",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/classical.py",
     "j * (j - 1) // 2", "j * (j + 1) // 2",
     ["tests/test_classical.py"]),
    ("src/pwomega/indefinite.py",
     "None, N) * 2", "None, N)",
     ["tests/test_indefinite.py"]),
    # stored tables: a chain run on a series' own rows, an integral
    # Fraction stored as is, the mismatch walk over one side's keys only, a
    # float term taken into a table, a row landing at the wrong zeta-power
    ("src/pwomega/qseries.py",
     "_binomial_rows(_copy(self.rows),", "_binomial_rows(self.rows,",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "{k: v if type(v) is int or v.denominator > 1 else v.numerator", "{k: v",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "for k in a.keys() | b.keys()", "for k in a",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "isinstance(c, (int, Fraction))", "isinstance(c, (int, Fraction, float))",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/jseries.py",
     "vc = val.pow(rr.numerator)", "vc = val.pow(rr.numerator + 1)",
     ["tests/test_exactalg.py"]),
    # the shared rows: a JSeries row certified below the series' order
    # taken, or its keys past the order kept; a zeta-shift ignored on
    # assembly; product rows paired into ra - rb; the mismatch scan over
    # self's rows only
    ("src/pwomega/jseries.py",
     "            if s.order < order:\n", "            if False:\n",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/jseries.py",
     "{k: v for k, v in t.items() if k < order}", "dict(t)",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "_add_rows(acc, rows, coef, shift, dshift, order)",
     "_add_rows(acc, rows, coef, shift, 0, order)",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "acc.setdefault(ra + rb,", "acc.setdefault(ra - rb,",
     ["tests/test_exactalg.py"]),
    ("src/pwomega/qseries.py",
     "for r in self.rows.keys() | other.rows.keys()", "for r in self.rows",
     ["tests/test_exactalg.py"]),
    # mu-laws registered with no tolerance
    ("src/pwomega/registry.py",
     "tolerance=2.0 ** -118)", "tolerance=None)",
     ["tests/test_acceptance.py"]),
    # the exact path loads no numeric module: neither the registry nor
    # `expand` of an exact object
    ("src/pwomega/registry.py",
     "from .errors import UndeclaredParameter, UnknownIdentity\n",
     "from .errors import UndeclaredParameter, UnknownIdentity\nfrom . import kernels\n",
     ["tests/test_cli.py"]),
    ("src/pwomega/cli.py",
     "def _expand_object(name: str, N: int) -> QSeries:\n",
     "def _expand_object(name: str, N: int) -> QSeries:\n    from . import appell\n",
     ["tests/test_cli.py"]),
    # numeric residuals taken at the default 53 bits, not at the identity's
    # prec: by _check, by a parts function that computes them before _check
    # opens the precision, or by every part built before the first is taken
    ("src/pwomega/registry.py",
     "        scope = workprec(prec)\n", "        scope = nullcontext()\n",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "    for tt in params[\"taus\"]:\n"
     "        yield float(abs(hhat1_numeric(mp.mpc(*tt)).value)), {\"part\": \"hhat1\"}\n",
     "    return [(float(abs(hhat1_numeric(mp.mpc(*tt)).value)), {\"part\": \"hhat1\"})\n"
     "            for tt in params[\"taus\"]]\n",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "_check(ident.parts(params),", "_check(list(ident.parts(params)),",
     ["tests/test_cli.py"]),
    # one home per parameter: an override the identity does not declare
    # accepted silently, the suite passing every identity every override,
    # the oracle route compared at its cap whatever the order
    ("src/pwomega/registry.py",
     "        if key not in params:\n", "        if False:\n",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "if k in _declared(ident)})", "if True})",
     ["tests/test_cli.py"]),
    ("src/pwomega/registry.py",
     "top = min(N, 26)", "top = 26",
     ["tests/test_cli.py"]),
    # R_dz without the E-factor part of its Wirtinger derivative
    ("src/pwomega/kernels.py",
     "(PI * n1 + epart[0], epart[1] - PI * n0)", "(PI * n1, -PI * n0)",
     ["tests/test_kernels.py"]),
    # the jets' rounding allowances taken inside the JET_GUARD context,
    # 2^24 tighter than the working precision's
    ("src/pwomega/completion.py",
     "JET_GUARD):\n        bundle = _fhat_bundle(tau)\n",
     "JET_GUARD):\n        bits = mp.prec\n        bundle = _fhat_bundle(tau)\n",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "JET_GUARD):\n        plan = kernels.TauPlan(tau)\n",
     "JET_GUARD):\n        bits = mp.prec\n        plan = kernels.TauPlan(tau)\n",
     ["tests/test_completion.py"]),
    # mu-hat's jet with -(i/2) R, the quarter-shift weight i^(a+b) for
    # i^(-a-b), H-hat-2 without F-hat's z-derivative at 0, R's jet cut to
    # its value
    ("src/pwomega/completion.py",
     "return mu + R.scale(0.5j)", "return mu + R.scale(-0.5j)",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "h.scale((-1j) ** (a + b))", "h.scale(1j ** (a + b))",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "val = (f0.value + df0.value / two_pi_i) / q14", "val = f0.value / q14",
     ["tests/test_completion.py"]),
    ("src/pwomega/completion.py",
     "Jet.kernel(t[:2], 0, mp.prec)", "Jet.kernel(t[:1], 0, mp.prec)",
     ["tests/test_completion.py"]),
    # one stencil and one Richardson step for the FD operators: the level
    # dropped, the wrong divisor, a failure at a stencil point left untyped;
    # the per-j coefficient formula's root with the wrong sign; theta and
    # theta' swapped at -tau-bar; a sum's window not held to MAX_TERMS
    ("src/pwomega/modular.py",
     "    return (4 * d(h / 2) - d1) / 3\n", "    return d1\n",
     ["tests/test_modular.py", "tests/test_appell.py"]),
    ("src/pwomega/modular.py",
     "(4 * d(h / 2) - d1) / 3", "(4 * d(h / 2) - d1) / 4",
     ["tests/test_modular.py", "tests/test_appell.py", "tests/test_completion.py"]),
    ("src/pwomega/modular.py",
     "        raise StencilThroughSingularity(str(exc)) from exc\n", "        raise\n",
     ["tests/test_modular.py"]),
    ("src/pwomega/indefinite.py",
     "binomials([(I, e + n, -1)])", "binomials([(-I, e + n, -1)])",
     ["tests/test_indefinite.py"]),
    ("src/pwomega/appell.py",
     "*plan.theta_taylor(z, 1)", "*plan.theta_taylor(z, 1)[::-1]",
     ["tests/test_appell.py"]),
    ("src/pwomega/kernels.py",
     "    if terms > MAX_TERMS:\n", "    if False:\n",
     ["tests/test_kernels.py"]),
    # one kernel pass per distinct value and tau: the half-shift phase of
    # R's shift pass with the wrong sign, muhat-swap's right side built from
    # mu(z1, z2) and R(z1 - z2), the Laplacian's centre value taken at
    # tau + h, mu-laws' plan kept from the first trial (a stale tau), R's
    # window walk stopping one index early at either end
    ("src/pwomega/kernels.py",
     "((a, b), (b, -a), (-a, -b), (-b, a))", "((a, b), (-b, a), (-a, -b), (b, -a))",
     ["tests/test_completion.py"]),
    ("src/pwomega/registry.py",
     "abs(mh - (m21 + 0.5j * r21))", "abs(mh - (m12 + 0.5j * R(z1 - z2, tau)))",
     ["tests/test_cli.py"]),
    ("src/pwomega/modular.py",
     "    fc, = _stencil(f, tau)\n", "    fc, = _stencil(f, tau + FD_STEP_SECOND)\n",
     ["tests/test_modular.py"]),
    ("src/pwomega/registry.py",
     "        plan = TauPlan(tau)\n", "        plan = TauPlan(tau) if trial == 0 else plan\n",
     ["tests/test_cli.py"]),
    ("src/pwomega/kernels.py",
     "    while lb(lo) + math.log2(abs(2 * lo + 1)) < cut:\n",
     "    while lb(lo + 1) + math.log2(abs(2 * lo + 3)) < cut:\n",
     ["tests/test_kernels.py"]),
    ("src/pwomega/kernels.py",
     "    while lb(hi) + math.log2(abs(2 * hi + 1)) < cut:\n",
     "    while lb(hi - 1) + math.log2(abs(2 * hi - 1)) < cut:\n",
     ["tests/test_kernels.py"]),
    # the contract's parameters: a registered default weakened to a lower
    # order or precision, fewer tau-points or matrices, a looser tolerance
    ("src/pwomega/registry.py",
     "_cor_pwrep_parts, {\"order\": 61}", "_cor_pwrep_parts, {\"order\": 31}",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "_family_parts(\"spt\", p), {\"order\": 41}", "_family_parts(\"spt\", p), {\"order\": 11}",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "_pwz_parts, {\"order\": 25,", "_pwz_parts, {\"order\": 9,",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "\"taus\": EXTPTS}", "\"taus\": EXTPTS[:1]}",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "\"matrices\": GAMMA_MATS}", "\"matrices\": GAMMA_MATS[:1]}",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "tolerance=1e-15)", "tolerance=1e-5)",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "_hhat2_parts, {\"prec\": DEFAULT_PREC,", "_hhat2_parts, {\"prec\": 96,",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "_brz_parts, {\"prec\": DEFAULT_PREC}, tolerance=1e-20)",
     "_brz_parts, {\"prec\": DEFAULT_PREC}, tolerance=1e-12)",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/registry.py",
     "\"laplacian_tolerance\": 1e-5}", "\"laplacian_tolerance\": 1e-3}",
     ["tests/test_acceptance.py"]),
    # each shared value computed once, and each reader handed its own: the
    # first matrix's multiplier on every mu-hat right side, the lowering
    # forms swapped, R's shift triples in reverse order
    ("src/pwomega/appell.py",
     "psi_multiplier(M).pow(-3)", "psi_multiplier(Ms[0]).pow(-3)",
     ["tests/test_appell.py"]),
    ("src/pwomega/completion.py",
     "    return (first - mp.expjpi(F(1, 4)) / (2 * mp.sqrt(2) * mp.pi) * f3 * f4,\n"
     "            first - f3 * g4 / (2 * mp.sqrt(2) * mp.pi))\n",
     "    return (first - f3 * g4 / (2 * mp.sqrt(2) * mp.pi),\n"
     "            first - mp.expjpi(F(1, 4)) / (2 * mp.sqrt(2) * mp.pi) * f3 * f4)\n",
     ["tests/test_acceptance.py"]),
    ("src/pwomega/kernels.py",
     "_to_mpc(epart, 2 * W)))\n    return out\n", "_to_mpc(epart, 2 * W)))\n    return out[::-1]\n",
     ["tests/test_kernels.py"]),
    # the README's map of the checks: a registry id renamed in the registry
    # but not in the README
    ("src/pwomega/registry.py",
     "Identity(\"heine\",", "Identity(\"heine-transform\",",
     ["tests/test_readme.py"]),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


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

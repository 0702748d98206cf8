"""In-memory span and counter recorder for the traced benchmark run.

The recorder wraps pwomega's public functions from the outside: it replaces
the module and class attributes that callers look up with wrappers, records
one span (name, start, end, parent) per call, and restores every attribute
on uninstall.  Nothing under src/ is changed.  Cyc8 arithmetic and
mpmath's expjpi are far too frequent for spans; they get counters only.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from types import FunctionType

# span name -> "module:attribute path"
SPAN_TARGETS = {
    "registry.run_identity": "pwomega.registry:run_identity",
    "qseries.mul": "pwomega.qseries:QSeries.__mul__",
    "qseries.invert": "pwomega.qseries:QSeries.invert",
    "qseries.first_mismatch": "pwomega.qseries:QSeries.first_mismatch",
    "qseries.qpochhammer": "pwomega.qseries:qpochhammer",
    "jseries.mul": "pwomega.jseries:JSeries.__mul__",
    "jseries.substitute": "pwomega.jseries:JSeries.substitute",
    "jseries.first_mismatch": "pwomega.jseries:JSeries.first_mismatch",
    "partitions.genfun": "pwomega.partitions:genfun",
    "partitions.census": "pwomega.partitions:census",
    "indefinite.cone_sum_series": "pwomega.indefinite:cone_sum_series",
    "indefinite.pbar_omega_series": "pwomega.indefinite:pbar_omega_series",
    "indefinite.pbar_from_dzeta_brackets": "pwomega.indefinite:pbar_from_dzeta_brackets",
    "indefinite.g_equals_sum_of_f_mismatch": "pwomega.indefinite:g_equals_sum_of_f_mismatch",
    "indefinite.pwz_lhs_cleared": "pwomega.indefinite:pwz_lhs_cleared",
    "indefinite.pwz_rhs_cleared": "pwomega.indefinite:pwz_rhs_cleared",
    "classical.finite_jtp_sides": "pwomega.classical:finite_jtp_sides",
    "kernels.eta": "pwomega.kernels:eta",
    "kernels.theta": "pwomega.kernels:theta",
    "kernels.R": "pwomega.kernels:R",
    "kernels.R_dz": "pwomega.kernels:R_dz",
    "kernels.mu": "pwomega.kernels:mu",
    "completion.contour_derivs": "pwomega.completion:contour_derivs",
    "completion.fcal_derivs": "pwomega.completion:fcal_derivs",
    "completion.phat_omega_numeric": "pwomega.completion:phat_omega_numeric",
    "completion.hhat2_numeric": "pwomega.completion:hhat2_numeric",
    "completion.F_cone_numeric": "pwomega.completion:F_cone_numeric",
    "completion.F_mu_numeric": "pwomega.completion:F_mu_numeric",
    "appell.mu_hat_transform_check": "pwomega.appell:mu_hat_transform_check",
}

# contour_derivs evaluates its first argument at every node; each of those
# calls becomes a child span, so contour_derivs' self time is the twiddle and
# summation work alone.
NODE_SPAN = "completion.contour_node"

CYC8_OPS = ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__truediv__", "__rtruediv__", "inverse")

# Calls the wrappers cannot see, by construction.  scan_unseen() adds any
# reference to a wrapped function that survives installation.
BLIND_SPOTS = (
    "kernels.theta_dz, kernels.muhat, kernels.qpow and kernels._R_terms have no span; "
    "their time is self time of the caller (muhat's R and mu calls are seen)",
    "Fraction arithmetic inside a Cyc8 method is not a separate op; Cyc8(...) "
    "construction is not counted",
    "mpmath calls other than mp.expjpi (exp, erf, erfc, sqrt, mpc arithmetic) are "
    "not counted; their time is self time of the kernel that makes them",
    "QSeries/JSeries methods without a span (add, scale, shift, truncate, pow, "
    "from_terms, zeta_slice, dzeta_at) count as self time of their caller",
)


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.counters = Counter()
        self._stack = [-1]
        self._undo = []            # (owner, attribute, had own value, old value)
        self._originals = {}       # span or counter name -> wrapped object
        self._wrappers = set()     # ids of the installed wrappers

    # -- recording --------------------------------------------------------------

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
        return traced

    def count(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)
        return counted

    def run(self, name, fn, *args):
        """Call fn under a span of its own (the root of a traced pass)."""
        return self.span(name, fn)(*args)

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr, value):
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        self._wrappers.add(id(value))
        setattr(owner, attr, value)

    def install(self):
        for name, target in SPAN_TARGETS.items():
            modname, path = target.split(":")
            owner = importlib.import_module(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            self._originals[name] = original
            wrapper = self.span(name, original)
            if name == "completion.contour_derivs":
                wrapper = self._node_spans(wrapper)
            if outer:
                self._set(owner, attr, wrapper)
            else:
                # every pwomega module that imported the function by name
                for mod in _package_modules():
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._set(mod, key, wrapper)
        from pwomega.cyc8 import Cyc8
        for op in CYC8_OPS:
            self._originals[f"cyc8.{op}"] = vars(Cyc8)[op]
            self._set(Cyc8, op, self.count("cyc8.ops", vars(Cyc8)[op]))
        from mpmath import mp
        self._originals["mpmath.expjpi"] = mp.expjpi
        self._set(mp, "expjpi", self.count("mpmath.expjpi", mp.expjpi))

    def _node_spans(self, contour_derivs):
        span = self.span

        def wrapped(f, *args, **kwargs):
            return contour_derivs(span(NODE_SPAN, f), *args, **kwargs)
        return wrapped

    def uninstall(self):
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def scan_unseen(self):
        """References to wrapped originals that remain reachable after
        install(): default arguments, closures, module-level containers and
        class attributes the installer did not replace."""
        wanted = {id(obj): name for name, obj in self._originals.items()}
        found = []
        for mod in _package_modules():
            for key, val in vars(mod).items():
                for where, ref in _references(val, self._wrappers):
                    if id(ref) in wanted:
                        found.append(f"{wanted[id(ref)]} via {mod.__name__}.{key}{where}")
        return sorted(set(found))

    # -- summaries ----------------------------------------------------------------

    def summary(self):
        """Per span name: calls, self seconds, and inclusive seconds counted
        once per outermost call (recursion is not double counted)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for i, (name, start, end, parent) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["incl_s"] += end - start
        return dict(out)

    def dump(self):
        """Spans with times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans]


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "pwomega" or n.startswith("pwomega.")) and m is not None]


def _references(val, skip, depth=0):
    """(description, object) pairs reachable from a module attribute through
    function defaults and closures, class attributes, and containers; objects
    whose id is in skip (the tracer's own wrappers) are not entered."""
    if id(val) in skip:
        return
    if isinstance(val, FunctionType):
        for i, d in enumerate(val.__defaults__ or ()):
            yield f" default #{i}", d
        for k, d in (val.__kwdefaults__ or {}).items():
            yield f" default {k}", d
        for cell in val.__closure__ or ():
            try:
                yield " closure", cell.cell_contents
            except ValueError:
                pass
    elif isinstance(val, type) and val.__module__.startswith("pwomega") and depth == 0:
        for k, v in vars(val).items():
            yield f".{k}", v
            for where, ref in _references(v, skip, depth + 1):
                yield f".{k}{where}", ref
    elif isinstance(val, (list, tuple)) and depth == 0:
        for i, v in enumerate(val):
            yield f"[{i}]", v
            for k, a in getattr(v, "__dict__", {}).items():
                yield f"[{i}].{k}", a
    elif isinstance(val, dict) and depth == 0:
        for k, v in val.items():
            yield f"[{k!r}]", v

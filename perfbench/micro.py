"""Layer microbenchmarks: per-call times of the numeric kernels at 192 bits
and three heights Im tau, and the exact P-bar-omega routes at the sizes of
the ROADMAP baseline table."""

from __future__ import annotations

import os
import platform
import statistics
import time

import mpmath
from mpmath import mp

from pwomega import kernels
from pwomega.indefinite import pbar_omega_series

PREC = 192                      # the registry's numeric precision, before guard bits
HEIGHTS = (("v1", 1.0), ("v0.1", 0.1), ("v0.02", 0.02))
KERNEL_BUDGET_S = 0.25          # timed calls per kernel and height: at least this long
KERNEL_MIN_CALLS = 5


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _median_call_s(fn, budget_s, min_calls):
    fn()                                  # first call fills mpmath's constant caches
    times = []
    while len(times) < min_calls or sum(times) < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_ms() -> dict:
    """kernels.<name>.ms.<height>: median milliseconds per call."""
    out = {}
    with kernels.workprec(PREC):
        for label, v in HEIGHTS:
            tau = mp.mpc(0.11, v)
            z1 = mp.mpc(0.13, 0.2 * v)
            z2 = mp.mpc(-0.17, 0.3 * v)
            calls = {
                "eta": lambda: kernels.eta(tau),
                "theta": lambda: kernels.theta(z1, tau),
                "R": lambda: kernels.R(z1, tau),
                "R_dz": lambda: kernels.R_dz(z1, tau),
                "mu": lambda: kernels.mu(z1, z2, tau),
            }
            for name, fn in calls.items():
                out[f"kernels.{name}.ms.{label}"] = (
                    1000 * _median_call_s(fn, KERNEL_BUDGET_S, KERNEL_MIN_CALLS))
    return out


def exact_routes() -> tuple:
    """indefinite.pbar_omega_series.<route>_s at the baseline sizes, and
    whether the two routes agree to O(q^61)."""
    t0 = time.perf_counter()
    definition = pbar_omega_series(61, "definition")
    definition_s = time.perf_counter() - t0
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        triple = pbar_omega_series(121, "triple_sum")
        times.append(time.perf_counter() - t0)
    agree = definition.first_mismatch(triple.truncate(61)) is None
    return {"indefinite.pbar_omega_series.definition_s": definition_s,
            "indefinite.pbar_omega_series.triple_sum_s": statistics.median(times)}, agree

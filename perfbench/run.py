#!/usr/bin/env python3
"""pwomega benchmark: time to verdict on exact, generic-tau and near-cusp
workloads, with per-layer timings measured from outside the package.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

With --trace 0 the run measures set-up in fresh processes, then runs passes of
the workload back to back for about --seconds (it stops when one more pass
would end further from that target than stopping now) and reports the
end-to-end metrics.  With --trace 1 it runs one untraced and one traced pass
of the same inputs plus the layer microbenchmarks, reports the per-layer
metrics, and writes the spans to .perfbench_out/.  Every verdict goes through the gate in
workloads.py.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = (3, 2)           # fresh processes before and after the passes
PROBE = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
         "import workloads; workloads.warm_up(sys.argv[3])")

# spans reported by self time, by call count and self time, and by inclusive
# time; then the layer prefixes whose self times add up to the traced wall
SELF_S = ("qseries.mul", "qseries.invert", "qseries.qpochhammer", "jseries.mul",
          "jseries.substitute", "partitions.genfun", "partitions.census",
          "indefinite.cone_sum_series", "classical.finite_jtp_sides")
KERNELS = ("eta", "theta", "R", "R_dz", "mu")
INCLUSIVE_S = ("completion.fcal_derivs", "completion.phat_omega_numeric",
               "completion.hhat2_numeric", "completion.F_cone_numeric",
               "completion.F_mu_numeric", "appell.mu_hat_transform_check")
LAYERS = ("bench", "registry", "qseries", "jseries", "partitions", "indefinite",
          "classical", "kernels", "completion", "appell")


def metric(value, unit):
    return {"value": value, "unit": unit}


def setup_seconds(workload, probes):
    """Wall time of fresh processes that import pwomega and make the
    workload's warm-up call.  No timeout: with one, subprocess polls the
    child in sleeps of up to 50 ms, which quantizes the measurement."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, str(SRC), str(HERE), workload],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def report_pass(k, verdicts, seconds):
    print(f"pass {k}: {seconds:.3f} s")
    for v in verdicts:
        margin = v.margin_digits
        extra = "" if margin is None else (
            f" residual {v.residual!r} tol {v.tolerance:.3e} margin {margin:.2f} digits")
        flag = "" if v.ok else f"  GATE FAILED (expected {v.expected}) witness {v.witness}"
        print(f"  {v.id}: {v.status} in {v.seconds:.3f} s{extra}{flag}")


def end_to_end(args):
    import workloads

    # probes before and after the passes sample the host's speed at two times
    setup = setup_seconds(args.workload, SETUP_PROBES[0])
    workloads.warm_up(args.workload)
    gen = workloads.passes(args.workload, args.seed)
    results = []
    t0 = time.perf_counter()
    while True:
        steps = next(gen)
        print(f"inputs {len(results) + 1}: {workloads.describe_inputs(steps)}")
        p0 = time.perf_counter()
        verdicts = workloads.run_pass(steps)
        results.append((verdicts, time.perf_counter() - p0))
        report_pass(len(results), *results[-1])
        # stop once one more pass would end further from the target than now
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(results) / 2 >= args.seconds:
            break
    setup += setup_seconds(args.workload, SETUP_PROBES[1])
    walls = [s for _, s in results]
    verdicts = [v for vs, _ in results for v in vs]
    failed = sum(not v.ok for v in verdicts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s {statistics.median(setup):.4f} s (median of {len(setup)} fresh processes: "
          + ", ".join(f"{t:.4f}" for t in setup) + ")")
    print(f"wall_s {statistics.median(walls):.4f} s (median of {len(walls)} passes)")
    for ident in dict.fromkeys(v.id for v in verdicts):
        times = [v.seconds for v in verdicts if v.id == ident]
        print(f"verdict_s.{ident} {statistics.median(times):.4f} s (median of {len(times)})")
    print(f"failed_share {failed / len(verdicts):.4f} ({failed} of {len(verdicts)} verdicts)")
    margins = [v.margin_digits for v in verdicts if v.margin_digits is not None]
    if margins:
        print(f"margin_digits {min(margins):.3f} (smallest over {len(margins)} numeric verdicts)")
    else:
        print("margin_digits n/a (no numeric verdicts)")
    print(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    return {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {
            "setup_s": metric(statistics.median(setup), "s"),
            "wall_s": metric(statistics.median(walls), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        },
    }


def per_layer(args):
    import micro
    import workloads
    from spans import BLIND_SPOTS, NODE_SPAN, Tracer

    workloads.warm_up(args.workload)
    steps = next(workloads.passes(args.workload, args.seed))
    print(f"inputs: {workloads.describe_inputs(steps)}")
    t0 = time.perf_counter()
    untraced = workloads.run_pass(steps)
    untraced_s = time.perf_counter() - t0
    report_pass("untraced", untraced, untraced_s)

    tracer = Tracer()
    tracer.install()
    try:
        unseen = tracer.scan_unseen()
        traced = tracer.run("bench.pass", workloads.run_pass, steps)
    finally:
        tracer.uninstall()
    rows = tracer.summary()
    traced_s = rows["bench.pass"]["incl_s"]
    report_pass("traced", traced, traced_s)

    kernel_ms = micro.kernel_ms()
    exact_s, routes_agree = micro.exact_routes()

    def row(name):
        return rows.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})

    m = {"cyc8.ops": metric(tracer.counters["cyc8.ops"], "count")}
    for name in SELF_S:
        m[f"{name}.self_s"] = metric(row(name)["self_s"], "s")
    for name in KERNELS:
        m[f"kernels.{name}.calls"] = metric(row(f"kernels.{name}")["calls"], "count")
        m[f"kernels.{name}.self_s"] = metric(row(f"kernels.{name}")["self_s"], "s")
    m["mpmath.expjpi.calls"] = metric(tracer.counters["mpmath.expjpi"], "count")
    m["completion.contour_derivs.calls"] = metric(row("completion.contour_derivs")["calls"],
                                                  "count")
    m["completion.contour_nodes"] = metric(row(NODE_SPAN)["calls"], "count")
    m["completion.contour_derivs.self_s"] = metric(row("completion.contour_derivs")["self_s"],
                                                   "s")
    for name in INCLUSIVE_S:
        m[f"{name}.s"] = metric(row(name)["incl_s"], "s")
    m["registry.verdicts"] = metric(row("registry.run_identity")["calls"], "count")
    m["registry.self_s"] = metric(row("registry.run_identity")["self_s"], "s")
    layer_self = {layer: sum(r["self_s"] for n, r in rows.items() if n.split(".")[0] == layer)
                  for layer in LAYERS}
    for layer, s in layer_self.items():
        m[f"layer.{layer}.self_s"] = metric(s, "s")
    m["trace.wall_s"] = metric(traced_s, "s")
    m["trace.untraced_wall_s"] = metric(untraced_s, "s")
    m["trace.overhead_pct"] = metric(100 * (traced_s - untraced_s) / untraced_s, "%")
    for name, value in kernel_ms.items():
        m[name] = metric(value, "ms")
    for name, value in exact_s.items():
        m[name] = metric(value, "s")

    print(f"layer self times (s), traced wall {traced_s:.4f} s, "
          f"sum {sum(layer_self.values()):.4f} s:")
    for layer, s in layer_self.items():
        print(f"  {layer:<12} {s:10.4f}  {100 * s / traced_s:6.2f}%")
    print(f"tracing overhead {m['trace.overhead_pct']['value']:.2f}% "
          f"(untraced {untraced_s:.4f} s)")
    print("calls no wrapper sees:")
    for line in list(BLIND_SPOTS) + [f"unreplaced reference: {u}" for u in unseen]:
        print(f"  - {line}")

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    out_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": micro.machine(),
        "inputs": workloads.describe_inputs(steps), "counters": dict(tracer.counters),
        "unseen": unseen, "spans": tracer.dump()}))
    print(f"spans: {len(tracer.spans)} written to {out_file.relative_to(ROOT)}")

    verdicts = untraced + traced
    failed = sum(not v.ok for v in verdicts) + (not routes_agree)
    if not routes_agree:
        print("GATE FAILED: pbar_omega_series definition and triple_sum routes disagree")
    return {"correct": failed == 0, "attempted": len(verdicts) + 1, "failed": failed,
            "metrics": m}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("exact-verify", "numeric-generic", "numeric-cusp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pwomega" / "__init__.py").is_file():
        print(f"error: no pwomega sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pwomega
    if Path(pwomega.__file__).resolve().parent != SRC / "pwomega":
        print(f"error: pwomega imported from {pwomega.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import micro

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(micro.machine()))
    result = (per_layer if args.trace else end_to_end)(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

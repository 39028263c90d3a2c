"""Run one workload in this process and print its result as one JSON line.

Started by run.py, one process per workload, so that peak memory belongs
to the workload.  The parent passes its monotonic clock reading taken just
before the spawn; set-up time runs from there to the first timed op and so
covers interpreter start, the package import and input generation.

Untraced runs repeat untraced passes.  Traced runs alternate an untraced
and a traced pass, so both exist and their difference is the tracing
overhead.  Either way a new pass starts only if it should end within the
measuring time, judged by the previous pass, and at least one pass of each
needed kind runs.  Times are scaled to reference speed with the probe in
``speed.py``; the unscaled ones are reported under ``raw``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import groupapprox

from spans import NULL_TRACER, Tracer, self_times
from speed import MIN_SAMPLES, SpeedProbe
from workloads import EXACT_COUNTS, WORKLOADS, Pass

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("groups", "morphisms", "search", "jk", "bounds", "reporting", "bench")


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def layer_metrics(p: Pass, spans, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass, times multiplied by scale."""
    dur = defaultdict(float)
    for name, start, end, _, _ in spans:
        dur[name] += (end - start) * scale
    c = p.counts

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    # derived: the search span also recomputes the lower bound, which the
    # traced pass measured on its own just before it on the same carrier
    decide = dur["search.worst_case_value"] - dur["search.lower_bound"]
    out = {
        "search.decide_s": decide,
        "search.nodes_per_s": rate(c["search.nodes"], decide),
        "search.nodes": c["search.nodes"],
        "search.thresholds": c["search.thresholds"],
        "search.budget_exhausted": c["search.budget_exhausted"],
        "search.lower_bound_s": dur["search.lower_bound"],
        "morphisms.enumerate_s": dur["morphisms.enumerate"],
        "morphisms.endos": c["morphisms.endos"],
        "morphisms.endos_per_s": rate(c["morphisms.endos"], dur["morphisms.enumerate"]),
        "morphisms.tables_s": dur["morphisms.tables"],
        "morphisms.table_bytes": c["morphisms.table_bytes"],
        "jk.twist_s": dur["jk.twist"],
        "jk.scan_s": dur["jk.scan"],
        "jk.pairs": c["jk.pairs"],
        "jk.pairs_per_s": rate(c["jk.pairs"], dur["jk.scan"]),
        "jk.violations": c["jk.violations"],
        "bounds.brute_force_s": dur["bounds.brute_force"],
        "bounds.brute_force_calls": c["bounds.brute_force_calls"],
        "bounds.rows": c["bounds.rows"],
        "bounds.rows_per_s": rate(c["bounds.rows"], dur["bounds.brute_force"]),
        "bounds.agreement_bounds_s": dur["bounds.agreement_bounds"],
        "groups.build_s": dur["groups.build"],
        "groups.builds": c["groups.builds"],
        "reporting.document_s": dur["reporting.document"],
        "reporting.document_bytes": c["reporting.document_bytes"],
        "reporting.cache_s": dur["reporting.cache"],
        "reporting.cache_hits": c["reporting.cache_hits"],
    }
    selfs = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0) * scale
    out["trace.spans"] = len(spans)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="parent's time.monotonic() just before the spawn")
    ap.add_argument("--cache-dir", required=True,
                    help="fresh directory; each pass gets its own cache inside")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="file to write the traced spans to")
    args = ap.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(groupapprox.__file__).resolve().parents:
        print(f"groupapprox was imported from {groupapprox.__file__}, not {src}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, args.smoke, ROOT)
    setup_raw = time.monotonic() - args.spawned_at
    probe = SpeedProbe()
    if args.setup_only:
        factor = probe.factor()
        print(json.dumps({"setup_s": setup_raw * factor, "setup_raw_s": setup_raw,
                          "speed_factor": factor}))
        return 0

    tracer = Tracer(probe.clock) if args.trace else None
    passes = []  # (Pass, traced, spans of the pass)
    windows = []  # each pass's range of probe samples
    start = time.monotonic()
    with probe:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            os.environ["GROUPAPPROX_CACHE_DIR"] = str(
                Path(args.cache_dir) / f"pass{len(passes)}"
            )
            first = len(tracer.spans) if traced else 0
            p = Pass(tracer if traced else NULL_TRACER, probe.clock, probe.samples)
            t0 = time.monotonic()
            lo = len(probe.samples)
            wl.run_pass(p)
            windows.append((lo, len(probe.samples)))
            last = time.monotonic() - t0
            passes.append((p, traced, tracer.spans[first:] if traced else []))
            kinds = {t for _, t, _ in passes}
            needed = {False, True} if args.trace else {False}
            if kinds >= needed and time.monotonic() - start + last > args.seconds:
                break
    factor = probe.factor()
    for (p, _, _), (lo, hi) in zip(passes, windows):
        p.scale = probe.factor(lo, hi)
        for rec in p.ops:
            lo, hi = rec.samples
            if hi - lo < MIN_SAMPLES:  # a short op: the samples around it
                lo = max(0, (lo + hi - MIN_SAMPLES) // 2)
                hi = lo + MIN_SAMPLES
            rec.scale = probe.factor(lo, hi)
    if tracer is not None and args.spans:
        tracer.dump(args.spans)

    failures = list(wl.setup_failures) + wl.final_checks()
    attempted = failed = 0
    for i, (p, traced, _) in enumerate(passes):
        failures += [f"pass {i}: {f}" for f in p.failures]
        for rec in p.ops:
            attempted += 1
            if rec.failures:
                failed += 1
                failures += [f"pass {i} op {rec.op}: {f}" for f in rec.failures]
    counts = [{k: p.counts[k] for k in EXACT_COUNTS} for p, _, _ in passes]
    if any(c != counts[0] for c in counts):
        failures.append(f"exact counts differ between passes: {counts}")
    if counts[0]["reporting.cache_hits"]:
        failures.append("reporting.cache_hits is not 0")

    untraced = [p for p, t, _ in passes if not t]
    ops = [rec for p in untraced for rec in p.ops]
    latencies = [rec.latency_s for rec in ops]
    scaled = [rec.latency_s * rec.scale for rec in ops]
    raw = {
        "setup_s": setup_raw,
        "solve_s": statistics.median(p.solve_s for p in untraced),
        "op_p50_ms": 1e3 * nearest_rank(latencies, 50),
        "op_p99_ms": 1e3 * nearest_rank(latencies, 99),
    }
    metrics = {
        "setup_s": setup_raw * factor,
        "solve_s": statistics.median(p.scaled_solve_s for p in untraced),
        "op_p50_ms": 1e3 * nearest_rank(scaled, 50),
        "op_p99_ms": 1e3 * nearest_rank(scaled, 99),
    }
    metrics.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exact_ratio": sum(r.exact for r in ops) / len(ops),
        "open_values": statistics.median(
            sum(r.open_values for r in p.ops) for p in untraced
        ),
    })
    per_layer = None
    if args.trace:
        rows = [layer_metrics(p, s, p.scale) for p, t, s in passes if t]
        per_layer = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        traced_solve = statistics.median(p.scaled_solve_s for p, t, _ in passes if t)
        per_layer["trace.solve_s"] = traced_solve
        per_layer["trace.overhead_s"] = traced_solve - metrics["solve_s"]
    result = {
        "metrics": metrics,
        "raw": raw,
        "speed": {
            "factor": factor,
            "kernel_samples": len(probe.samples),
            "kernel_median_s": statistics.median(probe.samples),
            "probe_s": probe.spent,
        },
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "failures_total": len(failures),
        "exact_counts": counts[0],
        "passes": [
            {"traced": t, "solve_s": p.scaled_solve_s, "solve_raw_s": p.solve_s,
             "scale": p.scale, "ops": len(p.ops)}
            for p, t, _ in passes
        ],
        "ops_measured": len(latencies),
        "ops_beyond_p99": len(latencies) - math.ceil(0.99 * len(latencies)),
        "params": wl.params,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "groupapprox": groupapprox.__version__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

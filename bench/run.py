"""groupapprox benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src`` directory, never from an installed copy.  Each run
starts the workload in a fresh single-threaded worker process
(``worker.py``) with its own empty result cache, after a few set-up-only
worker starts that time set-up.  Human-readable lines come first; the last
line of standard output is the JSON result.  A full record with provenance
is written to ``.bench_out/results/`` in the checkout.

``--smoke`` runs every workload once at tiny sizes, untraced and traced,
with every output check, and exits 0 only if all of them pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 6      # set-up-only starts before the measured one
RUN_LIMIT_S = 175     # a run must end within 180 s


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, so results name the code measured
    even where the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def worker(args, env, cache_dir: Path, deadline: float, *extra) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cache-dir", str(cache_dir), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker exited {proc.returncode}:\n{proc.stderr.strip()[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args) -> tuple[dict, dict]:
    """Set-up probes plus the measured worker; returns (line, record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    out_dir = ROOT / ".bench_out"
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    cache_dir = out_dir / "tmp" / stamp
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update({var: "1" for var in THREAD_VARS})
    env["GROUPAPPROX_CACHE_DIR"] = str(cache_dir / "unused")
    load_before = os.getloadavg()
    try:
        probes = [
            worker(args, env, cache_dir, deadline, "--setup-only")
            for _ in range(SETUP_PROBES)
        ]
        spans = None
        extra = []
        if args.trace:
            spans = out_dir / "spans" / f"{stamp}.json"
            spans.parent.mkdir(parents=True, exist_ok=True)
            extra = ["--spans", str(spans)]
        res = worker(args, env, cache_dir, deadline, *extra)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    setups = [r["setup_s"] for r in probes] + [res["metrics"]["setup_s"]]
    metrics = dict(res["metrics"], setup_s=statistics.median(setups))
    wanted = PER_LAYER if args.trace else END_TO_END
    source = res["per_layer"] if args.trace else metrics
    line = {
        "correct": res["failures_total"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": source[k], "unit": u} for k, u in wanted.items()},
    }
    record = {
        "result": line,
        "end_to_end": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()},
        "per_layer": res["per_layer"],
        "fail_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "setup_s_samples": setups,
        "setup_raw_s_samples": [r["setup_raw_s"] for r in probes] + [res["raw"]["setup_s"]],
        "raw": res["raw"],
        "speed": res["speed"],
        "passes": res["passes"],
        "ops_measured": res["ops_measured"],
        "ops_beyond_p99": res["ops_beyond_p99"],
        "exact_counts": res["exact_counts"],
        "spans_file": None if spans is None else str(spans.relative_to(ROOT)),
        "provenance": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "sizes": res["params"],
            "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "versions": res["versions"],
            "threads": {var: env[var] for var in THREAD_VARS},
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stamp}.json").write_text(json.dumps(record, indent=2) + "\n")
    return line, record


def smoke(args) -> int:
    ok = True
    for name in WORKLOADS:
        args.workload, args.trace = name, 1
        t0 = time.monotonic()
        line, record = run_workload(args)
        good = line["correct"] and line["failed"] == 0
        ok &= good
        print(f"smoke {name}: {'ok' if good else 'FAILED'} "
              f"({line['attempted']} ops, {time.monotonic() - t0:.1f} s)")
        for f in record["failures"]:
            print(f"  {f}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once at tiny sizes, with all checks")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "groupapprox" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            args.seconds = 0
            return smoke(args)
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        line, record = run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in record["end_to_end"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in (record["per_layer"] or {}).items():
        print(f"{name} = {value:.6g} {PER_LAYER.get(name, '')}")
    print(f"ops attempted {line['attempted']}, failed {line['failed']}, "
          f"fail_ratio {record['fail_ratio']:.6g}, correct {line['correct']}")
    for f in record["failures"]:
        print(f"failure: {f}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

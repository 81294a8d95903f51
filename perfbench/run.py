"""Benchmark driver: time stokeswave CLI invocations in fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports stokeswave from ./src.  It
runs rounds until S seconds have passed, at least one.  A round starts one
worker process per invocation of the workload, in an order drawn from the
seed, one worker at a time; each worker runs its invocation a fixed number
of times and checks every artifact.  The last line of standard output is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s (the sum over the
workload's invocations of the median wall time of stokeswave.cli.main),
setup_s (median worker set-up: import plus config load and validation) and
ops_ok (share of invocations that exited 0 and passed their output check).
With --trace 1 they are the per-layer metrics of tracing.SPEC plus the
tracing overhead.  The lines before it give each invocation's median and the
environment; the full record goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import tracing  # noqa: E402  (standard library only until a tracer is installed)
import workloads  # noqa: E402

# Hard limit on a run, below the 180 s a run may take.
DEADLINE_S = 170.0

OBSERVABILITY_NOTE = (
    "observability_s measured 2.41 s at the default 2 OpenBLAS threads and 0.83 s at "
    "1 thread on a 2-core x86_64 machine at the baseline commit, before any "
    "optimisation; BLAS threads are left at the default a user gets, so that gap "
    "stays visible")


def run_worker(invocation: str, args, workdir: Path, timeout: float) -> dict:
    """Start one worker process, wait for it and return its result."""
    repeats = workloads.REPEATS[invocation]
    if args.trace:  # pairs of calls whose order alternates: keep their count even
        repeats += repeats % 2
    cmd = [sys.executable, str(HERE / "worker.py"), "--invocation", invocation,
           "--seed", str(args.seed), "--repeats", str(repeats), "--trace", str(args.trace),
           "--shrink", str(int(args.shrink)), "--workdir", str(workdir)]
    calls = repeats * (2 if args.trace else 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"invocation": invocation, "attempted": calls, "failed": calls,
                "failures": [f"{invocation}: worker exceeded {timeout:.0f} s"]}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"invocation": invocation, "attempted": calls, "failed": calls,
                "failures": [f"{invocation}: worker exit {proc.returncode}: {' | '.join(tail)}"]}
    if proc.stderr.strip():
        sys.stderr.write(proc.stderr)
    return result


def median_fields(rows: list) -> dict:
    """Field-wise median over the per-repeat layer sums of one invocation."""
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row.get(k, 0) for row in rows) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shrink", action="store_true",
                    help="run the self-test's small configs instead of the reference ones")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stokeswave" / "__init__.py").is_file():
        print(f"no stokeswave sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if not workloads.REFERENCE_FILE.is_file():
        print(f"missing {workloads.REFERENCE_FILE}", file=sys.stderr)
        return 2

    family, invocations = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "family": family, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "shrink": args.shrink,
              "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                      "loadavg_start": os.getloadavg(), "note": OBSERVABILITY_NOTE}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    results: list = []
    rng = random.Random(args.seed)
    start = time.perf_counter()
    try:
        while not results or time.perf_counter() - start < args.seconds:
            order = list(invocations)
            rng.shuffle(order)
            for inv in order:
                left = DEADLINE_S - (time.perf_counter() - start)
                results.append(run_worker(inv, args, work / f"w{len(results)}", left))
            if any("times" not in r for r in results):
                break
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        if args.trace:
            # gzip members concatenate into one valid gzip file
            with open(out_dir / f"{tag}-spans.jsonl.gz", "wb") as fh:
                for k in range(len(results)):
                    part = work / f"w{k}" / "spans.jsonl.gz"
                    if part.is_file():
                        fh.write(part.read_bytes())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - start

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    ok = [r for r in results if "times" in r]
    if ok:
        record["env"].update(ok[0]["env"])
    per_inv, layer_rows = {}, []
    for inv in invocations:
        mine = [r for r in ok if r["invocation"] == inv]
        times = [t for r in mine for t in r["times"]]
        traced = [t for r in mine for t in r["traced_times"]]
        per_inv[inv] = {"samples": len(times), "times": times, "traced_times": traced,
                        "median_s": statistics.median(times) if times else 0.0,
                        "traced_median_s": statistics.median(traced) if traced else 0.0}
        rows = [row for r in mine for row in r["layer"]]
        if rows:
            layer_rows.append(median_fields(rows))
    complete = all(v["samples"] for v in per_inv.values())
    setups = [r["setup_s"] for r in ok]
    wall = sum(v["median_s"] for v in per_inv.values())

    if args.trace:
        layer = tracing.combine(layer_rows)
        metrics = {m: {"value": layer[m], "unit": spec[3]} for m, spec in tracing.SPEC.items()}
        overhead = sum(v["traced_median_s"] for v in per_inv.values()) - wall
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace_overhead_frac"] = {"value": overhead / wall if wall else 0.0, "unit": "frac"}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
            "ops_ok": {"value": 1.0 - failed / attempted if attempted else 0.0, "unit": "frac"},
        }
    correct = failed == 0 and complete

    record.update({"elapsed_s": elapsed, "workers": len(results), "setup_samples": setups,
                   "invocations": per_inv, "failures": failures, "metrics": metrics})
    (ROOT / ".perfbench_out" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                         encoding="utf-8")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print("env " + json.dumps(record["env"]))
    for inv, v in per_inv.items():
        print(f"{inv}_s {v['median_s']} s (median of {v['samples']})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

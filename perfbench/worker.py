"""One benchmark worker: a fresh process that runs one invocation the way a user does.

    python3 perfbench/worker.py --invocation NAME --seed N --repeats R
                                --trace 0|1 --shrink 0|1 --workdir DIR

It times its own set-up (importing stokeswave, then load_config and
resolve_config of its config), then calls stokeswave.cli.main R times and
checks the artifacts after each call.  With --trace 1 each repeat is a pair
of calls, one untraced and one traced, and the spans are written to
DIR/spans.jsonl.gz (one JSON row per span) at the end.  The last line of standard output is one JSON
object with the samples.  Only the standard library is imported before the
set-up clock starts.
"""

from __future__ import annotations

import argparse
import ctypes
import gzip
import json
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

import workloads  # noqa: E402  (standard library only)


def blas_record() -> dict:
    """BLAS library, version and the thread count a user gets by default."""
    import numpy
    import scipy

    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib_path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(lib_path))
            for fn in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
                if hasattr(lib, fn):
                    threads[f"{pkg.__name__}:{lib_path.name}"] = getattr(lib, fn)()
                    break
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": info.get("name"),
            "blas_version": info.get("version"), "blas_threads": threads or "unknown"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--invocation", required=True, choices=sorted(workloads.INVOCATIONS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeats", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shrink", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    work = Path(args.workdir)
    out = work / "out"
    cfg = workloads.make_config(args.invocation, args.seed, out, bool(args.shrink))
    cfg_path = work / "config.json"
    work.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    argv_cli = [cfg["experiment"], str(cfg_path)]

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import stokeswave.cli as cli
    cli.resolve_config(cli.load_config(cfg_path))
    setup_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        print(f"stokeswave imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    reference = workloads.load_reference(bool(args.shrink))
    if args.trace:
        import tracing

    result = {"invocation": args.invocation, "setup_s": setup_s, "times": [],
              "traced_times": [], "layer": [], "attempted": 0, "failed": 0,
              "failures": []}
    span_rows = []
    # A traced worker alternates the order of each untraced/traced pair, so
    # over an even repeat count the cold first call weighs on neither side.
    for r in range(args.repeats):
        for traced in ((r % 2 == 0, r % 2 == 1) if args.trace else (False,)):
            shutil.rmtree(out, ignore_errors=True)
            tracer = tracing.Tracer(f"{args.invocation}#{r}") if traced else None
            if tracer:
                tracer.install()
            start = time.perf_counter()
            try:
                code = cli.main(argv_cli)
            except Exception:  # a traceback is a failed invocation, not a dead worker
                code = "traceback"
                traceback.print_exc()
            wall = time.perf_counter() - start
            if tracer:
                tracer.uninstall()
                result["layer"].append(tracing.invocation_sums(tracer.spans))
                span_rows += tracer.rows()
            errs = [f"exit code {code}"] if code != 0 else \
                workloads.check(args.invocation, cfg, reference)
            if tracer:
                errs += [f"traced run recorded no {p} span"
                         for p in tracing.missing_spans(args.invocation, tracer.spans)]
            result["attempted"] += 1
            result["failed"] += bool(errs)
            result["failures"] += [f"{args.invocation}: {e}" for e in errs]
            result["traced_times" if traced else "times"].append(wall)
    if args.trace:
        with gzip.open(work / "spans.jsonl.gz", "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.writelines(json.dumps(row) + "\n" for row in span_rows)
    result["env"] = blas_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

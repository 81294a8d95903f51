"""Self-test of the benchmark on shrunk configs.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Run from the repository root.  It checks that every metric named in
BENCHMARK.json is printed with its unit by both kinds of run, that the
traced counts repeat exactly, that a mutated artifact fails its output
check, and that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "selftest"

# Per-layer metrics that count work; they must repeat exactly between runs.
COUNTS = [m for m, spec in tracing.SPEC.items() if spec[3] == "count"]


def _bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
                  "--shrink")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def test_every_metric_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            metrics = _result(workload, trace)["metrics"]
            assert {m: v["unit"] for m, v in metrics.items()} == want, (workload, trace)
            assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


def test_traced_counts_repeat_exactly():
    for workload in ("gcc_square", "modal_small"):
        first, second = (_result(workload, 1)["metrics"] for _ in range(2))
        assert {m: first[m]["value"] for m in COUNTS} == {m: second[m]["value"] for m in COUNTS}


def _artifacts(name: str) -> dict:
    """Run one shrunk invocation in-process; return its config."""
    from stokeswave import cli

    out = SCRATCH / name
    cfg = workloads.make_config(name, 0, out / "out", shrink=True)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main([cfg["experiment"], str(out / "config.json")]) == 0
    return cfg


def _edit_json(path: Path, **changes) -> None:
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def _edit_csv(path: Path, column: str, scale: float) -> None:
    lines = path.read_text().splitlines()
    col = lines[2].split(",").index(column)
    for i in range(3, len(lines)):
        cells = lines[i].split(",")
        cells[col] = repr(float(cells[col]) * scale)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_mutated_artifacts_fail_their_checks():
    ref = workloads.load_reference(shrink=True)
    mutations = {
        "gcc_strip": lambda out: _edit_json(out / "gcc_report.json", covered_fraction=0.5),
        "gcc_collar": lambda out: _edit_json(out / "gcc_report.json", covered_fraction=0.99),
        "trace": lambda out: _edit_json(out / "trace_summary.json", terminated="corner"),
        "simulate": lambda out: _edit_json(out / "simulate_summary.json", balance_defect=1e-3),
        "observability": lambda out: _edit_json(out / "observability.json", c_obs=0.9),
        "spectrum": lambda out: _edit_json(
            out / "spectrum_report.json",
            eigenvalues=[[-0.5, 1.0]] + json.loads((out / "spectrum_report.json").read_text())
            ["eigenvalues"][1:]),
        "resolvent": lambda out: _edit_csv(out / "resolvent_curve.csv", "smin", 1.01),
        "lame": lambda out: _edit_csv(out / "lame_study.csv", "max_div", 1e4),
        "diagnostics": lambda out: _edit_csv(out / "quasimode_diagnostics.csv", "lambda", 1.01),
    }
    try:
        for name, mutate in mutations.items():
            cfg = _artifacts(name)
            assert workloads.check(name, cfg, ref) == [], name
            mutate(Path(cfg["output_dir"]))
            assert workloads.check(name, cfg, ref), f"mutated {name} artifact passed its check"
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def test_refuses_to_run_without_sources():
    bare = SCRATCH / "bare"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "trace", "--seed", "1", "--seconds", "1", "--trace", "0",
                      cwd=bare)
        assert proc.returncode != 0 and proc.stdout.strip() == "", proc.stdout
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: ok")

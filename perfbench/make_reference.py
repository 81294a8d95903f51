"""Record the reference values that the output checks compare against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

It runs every invocation once at full and at shrunk size and writes
perfbench/reference.json.  Only basis-invariant numbers are kept.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from stokeswave import cli, lame, stokes  # noqa: E402
from stokeswave.geometry import make_domain  # noqa: E402

WORK = ROOT / ".perfbench_work" / "reference"


def _lame_e0(cfg: dict) -> float:
    """Energy of the lame initial state: equal weights on the first n_init modes."""
    params = cfg["params"]
    grid = stokes.StaggeredGrid.for_rectangle(make_domain(cfg["domain"]), params["nx"])
    ms = stokes.build_modal_system(grid, params["n_modes"])
    n_init = params["n_init_modes"]
    coeffs = [1.0 / math.sqrt(n_init) if k < n_init else 0.0 for k in range(ms.n_modes)]
    u0 = ms.reconstruct(coeffs)
    return lame.lame_energy(lame.LameState(u0, stokes.StaggeredField.zeros(grid), math.inf))


def _values(name: str, cfg: dict) -> dict:
    out = Path(cfg["output_dir"])
    sub = cfg["experiment"]
    if sub == "gcc":
        rep = workloads.read_json(out / "gcc_report.json")
        return {"covered_fraction": rep["covered_fraction"], "n_samples": rep["n_samples"]}
    if sub == "spectrum":
        rep = workloads.read_json(out / "spectrum_report.json")
        return {"eigenvalues": rep["eigenvalues"], "spectral_abscissa": rep["spectral_abscissa"]}
    if sub == "observability":
        return {"c_obs": workloads.read_json(out / "observability.json")["c_obs"]}
    if sub == "resolvent":
        return {"smin": [float(r["smin"]) for r in workloads.csv_rows(out / "resolvent_curve.csv")]}
    if sub == "lame":
        return {"E0": _lame_e0(cfg)}
    if sub == "diagnostics":
        rows = workloads.csv_rows(out / "quasimode_diagnostics.csv")
        return {"lambda": sorted(float(r["lambda"]) for r in rows)}
    return {}


def main() -> int:
    reference = {}
    for scale, shrink in (("full", False), ("shrunk", True)):
        reference[scale] = {}
        for name in workloads.INVOCATIONS:
            out = WORK / scale / name
            cfg = workloads.make_config(name, 0, out, shrink)
            path = out / "config.json"
            out.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(cfg), encoding="utf-8")
            if cli.main([cfg["experiment"], str(path)]) != 0:
                print(f"{scale} {name}: the CLI failed", file=sys.stderr)
                return 1
            reference[scale][name] = _values(name, cfg)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Invocations, workloads and output checks of the stokeswave benchmark.

An invocation is one CLI run (`stokeswave <subcommand> config.json`) at a
fixed reference config.  A workload is a list of invocations that stresses
one set of layers; see README.md for why each one is there.

Every check accepts any correct implementation: it compares only
basis-invariant numbers (eigenvalues, c_obs, resolvent smin) with the values
recorded at the baseline commit in reference.json, and otherwise tests invariants
the package promises.  The unit square has degenerate mode pairs, so
per-mode vectors and simulate energies are never compared.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Relative tolerance for comparing basis-invariant numbers with the reference values.
RTOL = 1e-6
# Largest admissible midpoint energy-balance defect of simulate.
BALANCE_TOL = 1e-8

SQUARE = {"kind": "rectangle", "width": 1.0, "height": 1.0}
DISK = {"kind": "disk", "radius": 1.0}
COLLAR = {"shape": "boundary_collar", "width": 0.1, "smoothing_width": 0.02}
STRIP = {"shape": "side_strip", "side": "left", "depth": 0.1, "smoothing_width": 0.02}
PATCH = {"shape": "disk_patch", "center": [0.3, 0.2], "radius": 0.2}

# name -> (subcommand, domain, damping, full params, shrunk params).
# The shrunk params keep every code path of the full one at a size small
# enough for the self-test; mode counts never split a degenerate pair.
INVOCATIONS = {
    "gcc_collar": ("gcc", SQUARE, COLLAR,
                   {"T": 3.0, "sampler": {"kind": "grid", "nx": 10, "ndir": 16}},
                   {"T": 3.0, "sampler": {"kind": "grid", "nx": 3, "ndir": 4}}),
    "gcc_strip": ("gcc", SQUARE, STRIP,
                  {"T": 5.0, "sampler": {"kind": "grid", "nx": 10, "ndir": 16}},
                  {"T": 5.0, "sampler": {"kind": "grid", "nx": 4, "ndir": 8}}),
    "gcc_disk": ("gcc", DISK, PATCH,
                 {"T": 10.0, "sampler": {"kind": "seeded_random", "n": 500}},
                 {"T": 10.0, "sampler": {"kind": "seeded_random", "n": 30}}),
    "trace": ("trace", SQUARE, STRIP,
              {"x0": [0.5, 0.5], "xi0": [0.6, 0.8], "T": 2000.0},
              {"x0": [0.5, 0.5], "xi0": [0.6, 0.8], "T": 20.0}),
    "simulate": ("simulate", SQUARE, COLLAR,
                 {"nx": 32, "n_modes": 100, "T": 10.0, "dt": 0.01, "window": [0.0, 10.0]},
                 {"nx": 8, "n_modes": 6, "T": 1.0, "dt": 0.01, "window": [0.0, 1.0]}),
    "observability": ("observability", SQUARE, COLLAR,
                      {"nx": 32, "n_modes": 100, "T": 2.0, "dt": 0.01},
                      {"nx": 8, "n_modes": 6, "T": 0.5, "dt": 0.01}),
    "spectrum": ("spectrum", SQUARE, COLLAR,
                 {"nx": 32, "n_modes": 100},
                 {"nx": 8, "n_modes": 6}),
    "resolvent": ("resolvent", SQUARE, COLLAR,
                  {"nx": 32, "n_modes": 100, "sigma": {"min": 0.0, "max": 60.0, "count": 200}},
                  {"nx": 8, "n_modes": 6, "sigma": {"min": 0.0, "max": 60.0, "count": 10}}),
    "lame": ("lame", SQUARE, None,
             {"nx": 32, "n_modes": 20, "T": 1.0, "dt": 0.005, "eps_list": [1e-1, 1e-2, 1e-3],
              "n_init_modes": 3},
             {"nx": 8, "n_modes": 6, "T": 0.1, "dt": 0.005, "eps_list": [1e-1, 1e-2, 1e-3],
              "n_init_modes": 3}),
    "diagnostics": ("diagnostics", SQUARE, COLLAR,
                    {"nx": 128, "n_modes": 100},
                    {"nx": 12, "n_modes": 6}),
}

# The sampler seed of gcc_disk is part of its reference config.
_FIXED_SEED = {"gcc_disk": 1}

# Repeats of an invocation inside one worker process.  A worker's first
# repeat runs with a cold operator cache; a fixed count keeps the share of
# cold samples the same in every run, so the median stays put.
REPEATS = {"gcc_collar": 2, "gcc_strip": 2, "gcc_disk": 8, "trace": 12, "simulate": 4,
           "spectrum": 4, "lame": 3, "observability": 2, "resolvent": 1, "diagnostics": 1}

# name -> (family, invocations).  Every workload reports the same end-to-end
# metrics, and its wall time is the sum over its invocations.  So invocations
# share a workload only where one change should move them the same way; the
# single-ray trace, the disk coverage and each expensive modal run stand
# alone, and a gain on one cannot hide a loss on another.  The families
# rays/modal/eigen group workloads by the layers they exercise.  BENCHMARK.json
# gives the reason for each workload.
WORKLOADS = {
    "gcc_square": ("rays", ("gcc_collar", "gcc_strip")),
    "gcc_disk": ("rays", ("gcc_disk",)),
    "trace": ("rays", ("trace",)),
    "modal_small": ("modal", ("simulate", "spectrum", "lame")),
    "observability": ("modal", ("observability",)),
    "resolvent": ("modal", ("resolvent",)),
    "diagnostics": ("eigen", ("diagnostics",)),
}


def make_config(name: str, seed: int, out_dir: Path, shrink: bool = False) -> dict:
    """The config of one invocation; `seed` only draws simulate's initial state."""
    sub, domain, damping, full, small = INVOCATIONS[name]
    return {"experiment": sub, "domain": domain, "damping": damping,
            "params": small if shrink else full, "output_dir": str(out_dir),
            "seed": _FIXED_SEED.get(name, seed)}


# ---------------------------------------------------------------------------
# Artifact readers


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def csv_rows(path: Path) -> list:
    """Data rows of a stokeswave CSV (two comment lines, then the header)."""
    lines = path.read_text(encoding="utf-8").splitlines()[2:]
    return list(csv.DictReader(lines))


def _close(a: float, b: float, scale: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= RTOL * scale


def _match(got, want, label: str) -> list:
    """Compare two lists of reals elementwise, within RTOL of the largest reference value."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    scale = max(abs(w) for w in want)
    bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w, scale)]
    return [f"{label}: {len(bad)} values off the reference values, first at index {bad[0]}"] if bad else []


def _match_complex(got, want, label: str) -> list:
    """Each eigenvalue lies within RTOL*max|z| of one of the other set, both ways."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} values, expected {len(want)}"]
    got = [complex(*z) for z in got]
    want = [complex(*z) for z in want]
    tol = RTOL * max(abs(z) for z in want)
    for a, b, side in ((got, want, "computed"), (want, got, "reference")):
        far = [z for z in a if min(abs(z - w) for w in b) > tol]
        if far:
            return [f"{label}: {len(far)} {side} eigenvalues unmatched, e.g. {far[0]}"]
    return []


# ---------------------------------------------------------------------------
# Checks: (out_dir, config, reference values) -> list of failure messages


def _check_gcc(out: Path, cfg: dict, ref: dict) -> list:
    rep = read_json(out / "gcc_report.json")
    errs = []
    if rep["n_samples"] != ref["n_samples"]:
        errs.append(f"n_samples {rep['n_samples']} != {ref['n_samples']}")
    # the sampled prober can miss an entry but never invents one
    if not rep["covered_fraction"] >= ref["covered_fraction"] - 1e-12:
        errs.append(f"covered_fraction {rep['covered_fraction']} below the reference value "
                    f"{ref['covered_fraction']}")
    if ref["covered_fraction"] == 1.0 and rep["covered_fraction"] != 1.0:
        errs.append("a GCC-positive configuration is not fully covered")
    if ref["covered_fraction"] < 1.0 and not rep["covered_fraction"] < 1.0:
        errs.append("a GCC-negative configuration reports full coverage")
    return errs


def _check_trace(out: Path, cfg: dict, ref: dict) -> list:
    summary = read_json(out / "trace_summary.json")
    horizon = cfg["params"]["T"]
    errs = []
    if summary["terminated"] != "horizon":
        errs.append(f"trace terminated by {summary['terminated']!r}, not the horizon")
    if not abs(summary["total_time"] - horizon) <= 1e-9 * horizon:
        errs.append(f"total_time {summary['total_time']} != T {horizon}")
    if len(csv_rows(out / "ray_path.csv")) != summary["n_events"]:
        errs.append("ray_path.csv row count differs from n_events")
    return errs


def _check_simulate(out: Path, cfg: dict, ref: dict) -> list:
    summary = read_json(out / "simulate_summary.json")
    defect = summary["balance_defect"]
    errs = [] if defect <= BALANCE_TOL else [f"balance_defect {defect} > {BALANCE_TOL}"]
    n_rows = len(csv_rows(out / "energy_trace.csv"))
    steps = round(cfg["params"]["T"] / cfg["params"]["dt"])
    if n_rows != steps + 1:
        errs.append(f"energy_trace.csv has {n_rows} rows, expected {steps + 1}")
    return errs


def _check_spectrum(out: Path, cfg: dict, ref: dict) -> list:
    rep = read_json(out / "spectrum_report.json")
    errs = _match_complex(rep["eigenvalues"], ref["eigenvalues"], "eigenvalues")
    scale = max(abs(complex(*z)) for z in ref["eigenvalues"])
    if not _close(rep["spectral_abscissa"], ref["spectral_abscissa"], scale):
        errs.append(f"spectral_abscissa {rep['spectral_abscissa']} != {ref['spectral_abscissa']}")
    return errs


def _check_observability(out: Path, cfg: dict, ref: dict) -> list:
    c_obs = read_json(out / "observability.json")["c_obs"]
    if _close(c_obs, ref["c_obs"], abs(ref["c_obs"])):
        return []
    return [f"c_obs {c_obs} != reference value {ref['c_obs']}"]


def _check_resolvent(out: Path, cfg: dict, ref: dict) -> list:
    smin = [float(r["smin"]) for r in csv_rows(out / "resolvent_curve.csv")]
    return _match(smin, ref["smin"], "resolvent smin")


def _check_lame(out: Path, cfg: dict, ref: dict) -> list:
    """max ||div u_eps|| <= sqrt(2 eps E(0)), the a priori bound of the penalty."""
    rows = csv_rows(out / "lame_study.csv")
    eps_list = cfg["params"]["eps_list"]
    if [float(r["eps"]) for r in rows] != eps_list:
        return ["lame_study.csv eps column differs from eps_list"]
    ratio = max(float(r["max_div"]) / math.sqrt(2.0 * float(r["eps"]) * ref["E0"]) for r in rows)
    return [] if ratio <= 1.0 else [f"div_bound_ratio {ratio} > 1"]


def _check_diagnostics(out: Path, cfg: dict, ref: dict) -> list:
    rows = csv_rows(out / "quasimode_diagnostics.csv")
    errs = _match(sorted(float(r["lambda"]) for r in rows), ref["lambda"], "lambda")
    h = [float(r["h"]) for r in csv_rows(out / "semiclassical_constants.csv")]
    errs += _match(sorted(h), sorted(w ** -0.5 for w in ref["lambda"]), "semiclassical h")
    return errs


CHECKS = {
    "gcc": _check_gcc, "trace": _check_trace, "simulate": _check_simulate,
    "spectrum": _check_spectrum, "observability": _check_observability,
    "resolvent": _check_resolvent, "lame": _check_lame, "diagnostics": _check_diagnostics,
}

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def load_reference(shrink: bool) -> dict:
    return read_json(REFERENCE_FILE)["shrunk" if shrink else "full"]


def check(name: str, cfg: dict, ref: dict) -> list:
    """Failure messages of one invocation's artifacts (empty when correct)."""
    out = Path(cfg["output_dir"])
    try:
        return CHECKS[cfg["experiment"]](out, cfg, ref[name])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]

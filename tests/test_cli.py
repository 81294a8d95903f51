import json
import math
from pathlib import Path

import numpy as np
import pytest

from stokeswave import stokes
from stokeswave.cli import main

SQUARE = {"kind": "rectangle", "width": 1.0, "height": 1.0}
COLLAR = {"shape": "boundary_collar", "width": 0.1, "amplitude": 1.0, "smoothing_width": 0.02}


def _write(tmp_path: Path, cfg: dict, name="cfg.json") -> str:
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def _cfg(experiment, params, tmp_path, damping=COLLAR, domain=SQUARE, seed=0):
    return {"experiment": experiment, "domain": domain, "damping": damping,
            "params": params, "output_dir": str(tmp_path / "out"), "seed": seed}


def test_trace_subcommand(tmp_path):
    cfg = _cfg("trace", {"x0": [0.5, 0.5], "xi0": [1.0, 0.0], "T": 2.0}, tmp_path)
    assert main(["trace", _write(tmp_path, cfg)]) == 0
    csv = (tmp_path / "out" / "ray_path.csv").read_text().splitlines()
    assert csv[0].startswith("# stokeswave")
    assert csv[1].startswith("# config:")
    assert csv[2] == "kind,t_start,duration,x_start,y_start,x_end,y_end"
    summary = json.loads((tmp_path / "out" / "trace_summary.json").read_text())
    assert summary["terminated"] == "horizon"
    assert summary["config"]["experiment"] == "trace"


def test_gcc_subcommand(tmp_path):
    cfg = _cfg("gcc", {"T": 2.0, "sampler": {"kind": "grid", "nx": 6, "ndir": 8}}, tmp_path)
    assert main(["gcc", _write(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "gcc_report.json").read_text())
    assert rep["covered_fraction"] == 1.0
    assert rep["n_samples"] == 6 * 6 * 8
    assert len(rep["worst_rays"]) == 5
    assert rep["event_cap_terminated"] == 0


def test_simulate_undamped_constant_energy(tmp_path):
    cfg = _cfg("simulate", {"nx": 12, "n_modes": 4, "T": 1.0, "dt": 0.01}, tmp_path,
               damping=None)
    assert main(["simulate", _write(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "energy_trace.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[3:]]
    es = np.array([float(r[1]) for r in rows])
    assert np.abs(es - es[0]).max() <= 1e-10 * es[0]
    ds = np.array([float(r[2]) for r in rows])
    assert np.all(ds == 0.0)


def test_simulate_with_fit_window(tmp_path):
    cfg = _cfg("simulate", {"nx": 12, "n_modes": 4, "T": 4.0, "dt": 0.01,
                            "window": [0.0, 4.0]}, tmp_path)
    assert main(["simulate", _write(tmp_path, cfg)]) == 0
    summary = json.loads((tmp_path / "out" / "simulate_summary.json").read_text())
    assert summary["decay_fit"]["alpha"] > 0.0
    assert summary["balance_defect"] <= 1e-8


def test_spectrum_and_resolvent_subcommands(tmp_path):
    cfg = _cfg("spectrum", {"nx": 12, "n_modes": 4}, tmp_path)
    assert main(["spectrum", _write(tmp_path, cfg, "s.json")]) == 0
    rep = json.loads((tmp_path / "out" / "spectrum_report.json").read_text())
    assert rep["spectral_abscissa"] < 0.0
    assert len(rep["eigenvalues"]) == 8
    cfg = _cfg("resolvent", {"nx": 12, "n_modes": 4,
                             "sigma": {"min": 0.0, "max": 30.0, "count": 5}}, tmp_path)
    assert main(["resolvent", _write(tmp_path, cfg, "r.json")]) == 0
    lines = (tmp_path / "out" / "resolvent_curve.csv").read_text().splitlines()
    assert lines[2] == "sigma,smin"
    assert len(lines) == 3 + 5


def test_observability_subcommand(tmp_path):
    cfg = _cfg("observability", {"nx": 12, "n_modes": 4, "T": 2.0, "dt": 0.01}, tmp_path)
    assert main(["observability", _write(tmp_path, cfg)]) == 0
    rep = json.loads((tmp_path / "out" / "observability.json").read_text())
    assert rep["c_obs"] > 0.0


def test_lame_subcommand(tmp_path):
    cfg = _cfg("lame", {"nx": 12, "n_modes": 4, "T": 0.5, "dt": 0.005,
                        "eps_list": [1e-1, 1e-2], "n_init_modes": 2,
                        "sample_every": 5}, tmp_path, damping=None)
    assert main(["lame", _write(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "lame_study.csv").read_text().splitlines()
    assert lines[2] == "eps,max_div,max_err"
    vals = [list(map(float, ln.split(","))) for ln in lines[3:]]
    assert vals[0][0] == 1e-1 and vals[1][0] == 1e-2
    assert vals[1][1] < vals[0][1]


def test_diagnostics_subcommand(tmp_path):
    cfg = _cfg("diagnostics", {"nx": 12, "n_modes": 5}, tmp_path)
    assert main(["diagnostics", _write(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "quasimode_diagnostics.csv").read_text().splitlines()
    assert len(lines) == 3 + 5
    consts = (tmp_path / "out" / "semiclassical_constants.csv").read_text().splitlines()
    assert consts[2] == "h,obs_constant"


def test_eigen_residual_gate_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(stokes, "_RESIDUAL_TOL", 1e-30)
    cfg = _cfg("diagnostics", {"nx": 12, "n_modes": 5}, tmp_path)
    assert main(["diagnostics", _write(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: eigenpair 0: residual ")


def test_negative_dt_names_key(tmp_path, capsys):
    cfg = _cfg("simulate", {"nx": 12, "n_modes": 4, "T": 1.0, "dt": -0.01}, tmp_path)
    assert main(["simulate", _write(tmp_path, cfg)]) == 2
    assert "params.dt" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = _cfg("spectrum", {"nx": 12, "n_modes": 4, "bogus": 1}, tmp_path)
    assert main(["spectrum", _write(tmp_path, cfg)]) == 2
    assert "params.bogus" in capsys.readouterr().err


_DISK = {"kind": "disk", "radius": 1.0}
_PATCH = {"shape": "disk_patch", "center": [0.3, 0.1], "radius": 0.2}
_GCC = {"T": 1.0, "sampler": {"kind": "seeded_random", "n": 4}}


@pytest.mark.parametrize("experiment, domain, damping, params, path", [
    ("gcc", {**SQUARE, "width": "a"}, COLLAR, _GCC, "domain.width"),
    ("gcc", {"kind": "rectangle", "height": 1.0}, COLLAR, _GCC, "domain.width"),
    ("gcc", {"kind": "disk", "radius": math.inf}, _PATCH, _GCC, "domain.radius"),
    ("gcc", _DISK, {**_PATCH, "center": 0.3}, _GCC, "damping.center"),
    ("gcc", _DISK, {**_PATCH, "center": [0.3, 0.1, 0.2]}, _GCC, "damping.center"),
    ("gcc", SQUARE, {**COLLAR, "amplitude": "x"}, _GCC, "damping.amplitude"),
    ("gcc", SQUARE, COLLAR, {**_GCC, "entry_step": 0.01}, "params.entry_step"),
    ("observability", SQUARE, COLLAR, {"nx": 12, "n_modes": 4, "T": math.inf, "dt": 0.01},
     "params.T"),
    ("gcc", SQUARE, {**COLLAR, "smoothing_width": -1}, _GCC, "damping.smoothing_width"),
    ("gcc", SQUARE, {**COLLAR, "amplitude": -2}, _GCC, "damping.amplitude"),
    ("gcc", SQUARE, {"shape": "side_strip", "depth": 0.1}, _GCC, "damping.side"),
    ("gcc", {**SQUARE, "width": -1.0}, COLLAR, _GCC, "domain.width"),
    ("gcc", _DISK, {**_PATCH, "radius": 0}, _GCC, "damping.radius"),
    ("gcc", {**SQUARE, "color": "red"}, COLLAR, _GCC, "domain.color"),
    ("gcc", {**SQUARE, "kind": "square"}, COLLAR, _GCC, "domain.kind"),
    ("gcc", SQUARE, {**COLLAR, "shape": "blob"}, _GCC, "damping.shape"),
])
def test_malformed_value_names_its_path(tmp_path, capsys, experiment, domain, damping, params,
                                        path):
    cfg = _cfg(experiment, params, tmp_path, damping=damping, domain=domain)
    assert main([experiment, _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")


def test_gcc_without_damping_leaves_no_output(tmp_path, capsys):
    cfg = _cfg("gcc", _GCC, tmp_path, damping=None)
    assert main(["gcc", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: damping: ")
    assert not (tmp_path / "out").exists()


def test_malformed_json_reports_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"experiment": "gcc",\n  "oops"\n}', encoding="utf-8")
    assert main(["gcc", str(p)]) == 2
    assert "line" in capsys.readouterr().err


def test_subcommand_experiment_mismatch(tmp_path, capsys):
    cfg = _cfg("spectrum", {"nx": 12, "n_modes": 4}, tmp_path)
    assert main(["gcc", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert "spectrum" in err and "gcc" in err


def test_disk_domain_rejected_for_grid_experiment(tmp_path, capsys):
    cfg = _cfg("simulate", {"nx": 12, "n_modes": 4, "T": 1.0, "dt": 0.01}, tmp_path,
               domain={"kind": "disk", "radius": 1.0}, damping=None)
    assert main(["simulate", _write(tmp_path, cfg)]) == 2
    assert "rectangle" in capsys.readouterr().err


def test_gcc_rerun_is_byte_identical(tmp_path):
    cfg = _cfg("gcc", {"T": 1.0, "sampler": {"kind": "seeded_random", "n": 40}}, tmp_path, seed=5)
    path = _write(tmp_path, cfg)
    assert main(["gcc", path]) == 0
    first = (tmp_path / "out" / "gcc_report.json").read_bytes()
    assert main(["gcc", path]) == 0
    assert (tmp_path / "out" / "gcc_report.json").read_bytes() == first


def test_resolvent_rerun_is_byte_identical(tmp_path):
    cfg = _cfg("resolvent", {"nx": 12, "n_modes": 6,
                             "sigma": {"min": 0.0, "max": 40.0, "count": 25}}, tmp_path)
    path = _write(tmp_path, cfg)
    assert main(["resolvent", path]) == 0
    first = (tmp_path / "out" / "resolvent_curve.csv").read_bytes()
    assert main(["resolvent", path]) == 0
    assert (tmp_path / "out" / "resolvent_curve.csv").read_bytes() == first

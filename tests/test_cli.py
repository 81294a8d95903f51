import ast
import contextlib
import copy
import csv
import functools
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokeswave
from stokeswave import (NumericsError, PreconditionError, cli, make_damping, make_domain,
                        stokes, trace)
from stokeswave.cli import main
from stokeswave.reporting import fmt_float

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
    # t_start is the tracer's own event time, not a sum of durations
    square = make_domain(SQUARE)
    path = trace(square, make_damping(square, COLLAR), (0.5, 0.5), (1.0, 0.0), 2.0)
    assert [row.split(",")[1] for row in csv[3:]] == [fmt_float(ev.t) for ev in path.events]


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
                        "eps_list": [1e-1, 1e-2], "n_init_modes": 2}, tmp_path, damping=None)
    assert main(["lame", _write(tmp_path, cfg)]) == 0
    lines = (tmp_path / "out" / "lame_study.csv").read_text().splitlines()
    assert lines[2] == "eps,max_div,max_err,E0,energy_drift"
    vals = [list(map(float, ln.split(","))) for ln in lines[3:]]
    assert vals[0][0] == 1e-1 and vals[1][0] == 1e-2
    assert vals[1][1] < vals[0][1]
    assert all(max_div <= math.sqrt(2.0 * eps * e0) and drift <= 1e-10
               for eps, max_div, _, e0, drift in vals)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_a_non_finite_lame_trace_exits_3(tmp_path, capsys, monkeypatch):
    # initial faces of 1e200 overflow the energy, so no row could be trusted
    reconstruct = stokes.ModalSystem.reconstruct
    monkeypatch.setattr(stokes.ModalSystem, "reconstruct",
                        lambda self, c: stokes.StaggeredField.from_flat(
                            self.grid, 1e200 * reconstruct(self, c).flat()))
    cfg = _cfg("lame", {"nx": 12, "n_modes": 4, "T": 0.1, "dt": 0.01, "eps_list": [1e-1]},
               tmp_path, damping=None)
    assert main(["lame", _write(tmp_path, cfg)]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: non-finite Lame trace at t=0 ")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("eps_list, code", [([1e-1, 1e-16], 3), ([1e-1, 1e-12], 0)])
def test_lame_energy_drift_above_its_bound_exits_3(tmp_path, capsys, eps_list, code):
    # at eps = 1e-16 the penalty swamps the energy's digits (drift 2.4), at 1e-12 not (5e-5);
    # both drifts are roundoff, so only their side of lame._DRIFT_TOL is pinned
    cfg = _cfg("lame", {"nx": 8, "n_modes": 6, "T": 0.1, "dt": 0.005, "eps_list": eps_list},
               tmp_path, damping=None)
    assert main(["lame", _write(tmp_path, cfg)]) == code
    if code == 3:
        assert re.match(r"numeric failure: energy drift \S+ exceeds 0.001 at eps=1e-16: ",
                        capsys.readouterr().err)
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
    else:
        lines = (tmp_path / "out" / "lame_study.csv").read_text().splitlines()
        drifts = [float(line.split(",")[4]) for line in lines[3:]]
        assert len(drifts) == 2 and drifts[1] <= 1e-3


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
    ("trace", SQUARE, COLLAR, {"x0": [0.0, 0.5], "xi0": [-1.0, 0.0], "T": 1.0}, "params.xi0"),
    ("spectrum", SQUARE, COLLAR, {"nx": 3, "n_modes": 50}, "params.n_modes"),
    ("spectrum", {**SQUARE, "height": 0.7}, COLLAR, {"nx": 32, "n_modes": 4}, "params.nx"),
    ("spectrum", {**SQUARE, "height": 0.05}, COLLAR, {"nx": 20, "n_modes": 4}, "params.nx"),
    # a fit window needs two samples k*dt: [2, 3] holds none, [0.1, 0.15] only t = 0.1
    ("simulate", SQUARE, COLLAR, {"nx": 12, "n_modes": 4, "T": 1.0, "dt": 0.1,
                                  "window": [2.0, 3.0]}, "params.window"),
    ("simulate", SQUARE, COLLAR, {"nx": 12, "n_modes": 4, "T": 1.0, "dt": 0.1,
                                  "window": [0.1, 0.15]}, "params.window"),
    # one row per rule of cli._cross_checks that no other test reaches
    ("gcc", _DISK, {"shape": "side_strip", "side": "left", "depth": 0.1}, _GCC, "damping.shape"),
    ("observability", SQUARE, COLLAR, {"nx": 12, "n_modes": 4, "T": 0.005, "dt": 0.01},
     "params.T"),
    ("observability", SQUARE, COLLAR, {"nx": 12, "n_modes": 4, "T": 0.105, "dt": 0.01},
     "params.dt"),
    ("trace", SQUARE, COLLAR, {"x0": [1.5, 0.5], "xi0": [1.0, 0.0], "T": 1.0}, "params.x0"),
    ("trace", SQUARE, COLLAR, {"x0": [0.5, 0.5], "xi0": [0.0, 0.0], "T": 1.0}, "params.xi0"),
    ("resolvent", SQUARE, COLLAR, {"nx": 12, "n_modes": 4,
                                   "sigma": {"min": 5.0, "max": 1.0, "count": 3}},
     "params.sigma.max"),
    ("lame", SQUARE, None, {"nx": 12, "n_modes": 4, "T": 0.1, "dt": 0.01,
                            "eps_list": [0.01, 0.1]}, "params.eps_list"),
    ("lame", SQUARE, None, {"nx": 12, "n_modes": 4, "T": 0.1, "dt": 0.01,
                            "eps_list": [0.1, 0.01], "n_init_modes": 5}, "params.n_init_modes"),
    # T / dt overflows to inf, so the step count cannot be rounded
    ("observability", SQUARE, COLLAR, {"nx": 12, "n_modes": 4, "T": 1e308, "dt": 1e-300},
     "params.dt"),
    # a finite step count of 1e300, far above cli._MAX_COUNT
    ("simulate", SQUARE, COLLAR, {"nx": 8, "n_modes": 6, "T": 1e300, "dt": 1.0}, "params.dt"),
    # sigma max - min overflows to inf, so np.linspace would write nan and inf rows
    ("resolvent", SQUARE, COLLAR, {"nx": 12, "n_modes": 4,
                                   "sigma": {"min": -1e308, "max": 1e308, "count": 3}},
     "params.sigma.max"),
    # counts above cli._MAX_COUNT: sigma points, and the rays of either sampler
    ("resolvent", SQUARE, COLLAR, {"nx": 12, "n_modes": 4,
                                   "sigma": {"min": 0.0, "max": 1.0, "count": 10 ** 12}},
     "params.sigma.count"),
    ("gcc", SQUARE, COLLAR, {"T": 1.0, "sampler": {"kind": "seeded_random", "n": 10 ** 12}},
     "params.sampler"),
    ("gcc", SQUARE, COLLAR, {"T": 1.0, "sampler": {"kind": "grid", "nx": 10 ** 6, "ndir": 1}},
     "params.sampler"),
    # a grid spacing whose square underflows to 0 or overflows to inf
    ("simulate", {**SQUARE, "width": 1e-300, "height": 1e-300}, None,
     {"nx": 4, "n_modes": 2, "T": 0.1, "dt": 0.01}, "params.nx"),
    ("simulate", {**SQUARE, "width": 1e300, "height": 1e300}, None,
     {"nx": 4, "n_modes": 2, "T": 0.1, "dt": 0.01}, "params.nx"),
    # cell counts above cli._MAX_COUNT, whose operators would not fit in memory:
    # 1e10 on the square and 1e9 on a tall rectangle
    ("resolvent", SQUARE, COLLAR, {"nx": 10 ** 5, "n_modes": 4,
                                   "sigma": {"min": 0.0, "max": 1.0, "count": 3}}, "params.nx"),
    ("resolvent", {**SQUARE, "height": 1000.0}, COLLAR,
     {"nx": 1000, "n_modes": 4, "sigma": {"min": 0.0, "max": 1.0, "count": 3}}, "params.nx"),
])
def test_malformed_value_names_its_path(tmp_path, capsys, experiment, domain, damping, params,
                                        path):
    cfg = _cfg(experiment, params, tmp_path, damping=damping, domain=domain)
    assert main([experiment, _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("domain, x0, xi0", [
    (SQUARE, [0.5, 0.5], [1.0, 0.0]),       # interior
    (SQUARE, [0.0, 0.5], [0.6, 0.8]),       # inward from a wall
    (SQUARE, [0.0, 0.5], [0.0, -1.0]),      # glancing along a wall
    (SQUARE, [0.0, 0.5], [-1.0, 0.0]),      # outward
    (SQUARE, [0.3, 1.0], [0.6, 0.8]),       # outward, oblique
    (SQUARE, [1.0, 1.0], [1.0, 0.0]),       # corner, pointing out
    (SQUARE, [0.0, 0.0], [0.6, 0.8]),       # corner, pointing in
    (_DISK, [1.0, 0.0], [-1.0, 0.0]),       # inward
    (_DISK, [0.0, 1.0], [1.0, 0.0]),        # glancing
    (_DISK, [1.0, 0.0], [1e-10, 1.0]),      # outward within the glancing tolerance
    (_DISK, [1.0, 0.0], [1e-6, 1.0]),       # outward beyond it
    (_DISK, [0.6, 0.8], [0.6, 0.8]),        # outward along the normal
])
def test_cli_rejects_exactly_the_starts_trace_rejects(tmp_path, capsys, domain, x0, xi0):
    try:
        trace(make_domain(domain), None, x0, np.array(xi0) / math.hypot(*xi0), 1.0)
        rejected = False
    except PreconditionError:
        rejected = True
    cfg = _cfg("trace", {"x0": x0, "xi0": xi0, "T": 1.0}, tmp_path, damping=None, domain=domain)
    assert main(["trace", _write(tmp_path, cfg)]) == (2 if rejected else 0)
    assert capsys.readouterr().err.startswith("config error: params.xi0: ") == rejected


def test_gcc_without_damping_leaves_no_output(tmp_path, capsys):
    cfg = _cfg("gcc", _GCC, tmp_path, damping=None)
    assert main(["gcc", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: damping: ")
    assert not (tmp_path / "out").exists()


def test_lame_with_damping_leaves_no_output(tmp_path, capsys):
    # lame runs the undamped system, so a damping profile would be dropped unseen
    cfg = _cfg("lame", {"nx": 12, "n_modes": 4, "T": 0.1, "dt": 0.01, "eps_list": [0.1]},
               tmp_path)
    assert main(["lame", _write(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error: damping: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ('{"experiment": "gcc",\n  "oops"\n}', "config syntax error at line 3"),
    (None, "cannot read config file"),
    ("[]", "config root must be a JSON object"),
    (b'{"experiment": "gcc\xff"}', "cannot read config file"),
    ("[" * 100_000 + "]" * 100_000, "config cannot be decoded: maximum recursion depth"),
    ('{"seed": ' + "7" * 5000 + "}", "config cannot be decoded: Exceeds the limit"),
], ids=["syntax", "missing_file", "array_root", "not_utf8", "nested_too_deep",
        "integer_too_long"])
def test_malformed_json_reports_line(tmp_path, capsys, text, message):
    p = tmp_path / "bad.json"
    if isinstance(text, bytes):
        p.write_bytes(text)
    elif text is not None:
        p.write_text(text, encoding="utf-8")
    assert main(["gcc", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err


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


@pytest.mark.parametrize("blocker", ["out", "out/sub"])
def test_unusable_output_dir_exits_2(tmp_path, capsys, blocker):
    (tmp_path / "out").write_text("a file, not a directory\n")
    cfg = {**_cfg("gcc", _GCC, tmp_path), "output_dir": str(tmp_path / blocker)}
    assert main(["gcc", _write(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: output_dir: ") and "Traceback" not in err


def test_fmt_float_strings():
    cases = [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"), (-math.nan, "nan"),
             (-0.0, "-0"), (5e-324, "4.9406564584124654e-324"),
             (np.float32(0.1), "0.10000000149011612")]
    assert [fmt_float(x) for x, _ in cases] == [text for _, text in cases]


def _cell(x) -> str:
    """A CSV cell by type: fmt_float for floats, str(int(x)) for ints, str(x) otherwise."""
    if isinstance(x, (float, np.floating)):
        return fmt_float(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def test_write_csv_cells_follow_their_type(tmp_path):
    # the last column changes type from row to row, so that a format cached per
    # column instead of per row type signature writes 0.1 as "0.1" or "0"
    rows = [(1.5, np.float64(0.1), np.float32(0.1), 7, np.int64(-3), 2 ** 70, True,
             np.bool_(True), "glide_arc", None, "text"),
            (math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, -math.nan, False,
             np.bool_(False), "", 0.1),
            (1.5, np.float64(0.1), np.float32(0.1), 7, np.int64(-3), 2 ** 70, True,
             np.bool_(True), "glide_arc", None, 7),
            (0.25, np.float64(-2.0), np.float32(1e30), -1, np.int64(2 ** 62), -2 ** 70,
             False, np.bool_(False), "reflection", None, np.bool_(True)),
            (1.5, np.float64(0.1), np.float32(0.1), 7, np.int64(-3), 2 ** 70, True,
             np.bool_(True), "glide_arc", None, 0.1)]
    columns = [f"c{i}" for i in range(len(rows[0]))]
    stokeswave.reporting.write_csv(tmp_path / "cells.csv", columns, iter(rows), {"k": 1})
    lines = (tmp_path / "cells.csv").read_text(encoding="utf-8").splitlines()
    assert lines[2] == ",".join(columns)
    assert [line.split(",") for line in lines[3:]] == [[_cell(x) for x in row] for row in rows]
    assert lines[4].split(",")[-1] == "0.10000000000000001" and lines[5].endswith(",7")


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


def test_split_resolvent_run_leaves_no_process(tmp_path, capsys, monkeypatch):
    # 25 sigma split across two processes, first as they run, then with a worker that fails
    from stokeswave import spectral
    monkeypatch.setattr(spectral, "_ROWS_PER_JOB", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    cfg = _cfg("resolvent", {"nx": 12, "n_modes": 6,
                             "sigma": {"min": 0.0, "max": 40.0, "count": 25}}, tmp_path)
    path = _write(tmp_path, cfg)
    assert main(["resolvent", path]) == 0
    assert multiprocessing.active_children() == []
    curve = tmp_path / "out" / "resolvent_curve.csv"
    curve.unlink()
    parent, smin = os.getpid(), spectral._triangular_smin

    def fail_in_worker(t, start, work):
        if os.getpid() != parent:
            raise NumericsError("worker failed")
        return smin(t, start, work)

    monkeypatch.setattr(spectral, "_triangular_smin", fail_in_worker)
    assert main(["resolvent", path]) == 3
    assert capsys.readouterr().err == "numeric failure: worker failed\n"
    assert not curve.exists()
    assert multiprocessing.active_children() == []


def test_artifact_embeds_filled_defaults(tmp_path):
    cfg = _cfg("spectrum", {"nx": 12, "n_modes": 4}, tmp_path,
               damping={"shape": "boundary_collar", "width": 0.1})
    del cfg["seed"]
    assert main(["spectrum", _write(tmp_path, cfg)]) == 0
    embedded = json.loads((tmp_path / "out" / "spectrum_report.json").read_text())["config"]
    assert embedded["damping"] == {"shape": "boundary_collar", "width": 0.1,
                                   "amplitude": 1.0, "smoothing_width": 0.0}
    assert embedded["seed"] == 0
    lame = cli.resolve_config(_cfg("lame", {"nx": 12, "n_modes": 4, "T": 1, "dt": 0.5,
                                            "eps_list": [0.1]}, tmp_path, damping=None))
    assert lame["params"]["n_init_modes"] == 3
    assert isinstance(lame["params"]["T"], float)
    sim = cli.resolve_config(_cfg("simulate", {"nx": 12, "n_modes": 4, "T": 1.0, "dt": 0.5},
                                  tmp_path))
    assert sim["params"]["window"] is None


def test_schema_drives_runners_and_help(capsys):
    assert set(cli.PARAMS) == set(cli._RUNNERS)
    # perfbench/worker.py and perfbench/tracing.py call these
    assert callable(cli.load_config) and callable(cli.resolve_config)
    for sub, table in cli.PARAMS.items():
        assert cli._RUNNERS[sub] is getattr(cli, f"run_{sub}")
        with pytest.raises(SystemExit) as exit_info:
            main([sub, "--help"])
        assert exit_info.value.code == 0
        listed = capsys.readouterr().out.split("params keys:")[1].split("\n\n")[0]
        assert set(table) <= set(re.findall(r"\w+", listed)), (sub, listed)


# Config fuzzing: one mutation makes a valid config invalid by construction.
# These sets are written from the documented config format, not read from the
# schema tables.
_OPTIONAL = {"damping", "seed", "amplitude", "smoothing_width", "window", "n_init_modes"}
_NONNEGATIVE = {"T", "dt", "nx", "n_modes", "count", "n", "ndir", "width", "height", "radius",
                "depth", "amplitude", "smoothing_width", "eps_list", "window", "seed",
                "n_init_modes"}
_PAIRS = {"x0", "xi0", "window", "center"}
_TAGS = {"experiment", "kind", "shape", "side"}
_VALID = [
    ("trace", {"x0": [0.5, 0.5], "xi0": [1.0, 0.0], "T": 2.0}, SQUARE, COLLAR),
    ("gcc", {"T": 2.0, "sampler": {"kind": "grid", "nx": 6, "ndir": 8}}, SQUARE, COLLAR),
    ("gcc", _GCC, _DISK, {**_PATCH, "amplitude": 2.0, "smoothing_width": 0.01}),
    ("gcc", _GCC, SQUARE, {"shape": "side_strip", "side": "left", "depth": 0.1}),
    ("simulate", {"nx": 12, "n_modes": 4, "T": 4.0, "dt": 0.01, "window": [0.0, 4.0]},
     SQUARE, COLLAR),
    ("spectrum", {"nx": 12, "n_modes": 4}, SQUARE, COLLAR),
    ("resolvent", {"nx": 12, "n_modes": 4, "sigma": {"min": 0.0, "max": 30.0, "count": 5}},
     SQUARE, COLLAR),
    ("observability", {"nx": 12, "n_modes": 4, "T": 2.0, "dt": 0.01}, SQUARE, COLLAR),
    ("lame", {"nx": 12, "n_modes": 4, "T": 0.5, "dt": 0.005, "eps_list": [1e-1, 1e-2],
              "n_init_modes": 2}, SQUARE, None),
    ("diagnostics", {"nx": 12, "n_modes": 5}, SQUARE, COLLAR),
]
_DROP, _NEG = object(), object()   # delete the key; a negative number drawn by hypothesis


def _valid_config(i, out_dir):
    exp, params, domain, damping = copy.deepcopy(_VALID[i])
    return {"experiment": exp, "domain": domain, "damping": damping, "params": params,
            "output_dir": str(out_dir), "seed": 3}


def _mutations(node, path=()):
    """(path, replacement) pairs over every key of the nested objects of node."""
    yield path + ("bogus_key",), 1.0
    for key, val in node.items():
        where = path + (key,)
        if key not in _OPTIONAL:
            yield where, _DROP
        if val is None:
            continue
        wrong = {dict: [5, "x", [1.0]], list: ["x", 5, {"a": 1}, None],
                 str: [5, None, ["x"], True]}.get(type(val), ["x", None, [1.0], {"a": 1}])
        yield from ((where, w) for w in wrong)
        if key in _TAGS:
            yield where, "bogus"
        if isinstance(val, (int, float)):
            yield from ((where, w) for w in (True, math.inf, -math.inf, math.nan, 10 ** 400))
        if isinstance(val, list):
            yield from ((where, [w] * len(val)) for w in (True, math.inf, math.nan))
            yield where, val[:1] if key in _PAIRS else []
            if key in _PAIRS:
                yield where, val + [0.0]
        if key in _NONNEGATIVE:
            yield where, [_NEG] * len(val) if isinstance(val, list) else _NEG
        if isinstance(val, dict):
            yield from _mutations(val, where)


_CASES = [(i, path, new) for i in range(len(_VALID))
          for path, new in _mutations(_valid_config(i, "out"))]


@settings(max_examples=600, deadline=None)
@given(case=st.sampled_from(_CASES),
       neg=st.one_of(st.integers(max_value=-1), st.floats(max_value=-1e-300)))
def test_mutated_config_exits_2_with_its_path(case, neg):
    i, path, new = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _valid_config(i, Path(tmp) / "out")
        *parents, key = path
        node = functools.reduce(dict.__getitem__, parents, cfg)
        if new is _DROP:
            del node[key]
        else:
            node[key] = (neg if new is _NEG else
                         [neg if v is _NEG else v for v in new] if isinstance(new, list) else new)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([_VALID[i][0], _write(Path(tmp), cfg)])
        assert code == 2, (path, new)
        assert err.getvalue().startswith(f"config error: {'.'.join(path)}: "), err.getvalue()
        assert not (Path(tmp) / "out").exists()


# The files each subcommand writes, as documented for its experiment.
_ARTIFACTS = {
    "trace": {"ray_path.csv", "trace_summary.json"},
    "gcc": {"gcc_report.json"},
    "simulate": {"energy_trace.csv", "simulate_summary.json"},
    "spectrum": {"spectrum_report.json"},
    "resolvent": {"resolvent_curve.csv"},
    "observability": {"observability.json"},
    "lame": {"lame_study.csv"},
    "diagnostics": {"quasimode_diagnostics.csv", "semiclassical_constants.csv"},
}


@pytest.mark.parametrize("experiment", list(_ARTIFACTS))
def test_each_subcommand_writes_exactly_its_artifacts(tmp_path, experiment):
    i = next(i for i, v in enumerate(_VALID) if v[0] == experiment)
    cfg = _valid_config(i, tmp_path / "out")
    assert main([experiment, _write(tmp_path, cfg)]) == 0
    files = {f.name: f for f in (tmp_path / "out").iterdir()}
    assert set(files) == _ARTIFACTS[experiment]
    resolved = json.loads(json.dumps(cli.resolve_config(cfg)))
    for name, f in files.items():
        if name.endswith(".csv"):
            head = f.read_text().splitlines()[:2]
            assert head[0].startswith("# stokeswave ") and head[1].startswith("# config: ")
            assert json.loads(head[1][len("# config: "):]) == resolved
        else:
            assert json.loads(f.read_text())["config"] == resolved


@pytest.mark.parametrize("experiment, module, function", [
    ("simulate", "evolution", "fit_decay"),
    ("diagnostics", "spectral", "quasimode_diagnostics"),
])
def test_numeric_failure_writes_no_artifact(tmp_path, capsys, monkeypatch, experiment, module,
                                            function):
    def failing(*args, **kwargs):
        raise NumericsError(f"forced failure of {function}")

    monkeypatch.setattr(getattr(stokeswave, module), function, failing)
    i = next(i for i, v in enumerate(_VALID) if v[0] == experiment)
    assert main([experiment, _write(tmp_path, _valid_config(i, tmp_path / "out"))]) == 3
    assert capsys.readouterr().err.startswith("numeric failure: ")
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


# Import guard: the ray half runs on numpy alone, and a grid config loads the
# grid half while it is resolved, so that the scipy import stays in set-up.
_GRID_HALF = {"scipy", "stokeswave.stokes", "stokeswave.evolution", "stokeswave.spectral",
              "stokeswave.lame"}
_PROBE = """
import sys
from stokeswave import cli
for path in sys.argv[2:]:
    if sys.argv[1] == "main":
        assert cli.main([cli.load_config(path)["experiment"], path]) == 0
    else:
        cli.resolve_config(cli.load_config(path))
print(*sys.modules)
"""


def _fresh(script, args, **env) -> str:
    """Standard output of script run on args by a fresh interpreter that imports this
    stokeswave, with OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as in env or else unset."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    run = subprocess.run([sys.executable, "-c", script, *args],
                         env={**base, **env,
                              "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _modules_after(tmp_path, how, cases) -> set:
    """sys.modules of a fresh interpreter after `how` ("main" or "resolve") of _VALID[cases]."""
    paths = [_write(tmp_path, _valid_config(i, tmp_path / f"out{i}"), f"cfg{i}.json")
             for i in cases]
    return set(_fresh(_PROBE, [how, *paths]).split())


def test_ray_runs_load_neither_scipy_nor_the_grid_half(tmp_path):
    ray = [i for i, v in enumerate(_VALID) if v[0] in ("trace", "gcc")]
    assert len(ray) == 4
    assert not _modules_after(tmp_path, "main", ray) & _GRID_HALF


@pytest.mark.parametrize("i", [i for i, v in enumerate(_VALID) if "nx" in v[1]],
                         ids=lambda i: _VALID[i][0])
def test_grid_config_loads_the_grid_half_when_resolved(tmp_path, i):
    assert _modules_after(tmp_path, "resolve", [i]) >= _GRID_HALF


# BLAS threads: cli.main sets each loaded OpenBLAS to one thread before a grid
# run unless the user chose a count, and a ray run leaves the pools alone.
_BLAS_PROBE = """
import ctypes, json, sys
from pathlib import Path
from stokeswave import cli

def threads():
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
    except OSError:
        return {}
    counts = {}
    for path in sorted({f[5] for f in map(str.split, maps) if len(f) == 6 and "openblas" in f[5]}):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, name):
                counts[path] = getattr(lib, name)()
                break
    return counts

before = threads()
for path in sys.argv[1:]:
    assert cli.main([cli.load_config(path)["experiment"], path]) == 0
print(json.dumps({"before": before, "after": threads(), "scipy": "scipy" in sys.modules}))
"""


def _blas_threads(tmp_path, experiment, **env) -> dict:
    """Thread count of each loaded OpenBLAS before and after a main run of _VALID's experiment."""
    i = next(i for i, v in enumerate(_VALID) if v[0] == experiment)
    path = _write(tmp_path, _valid_config(i, tmp_path / "out"), f"{experiment}.json")
    return json.loads(_fresh(_BLAS_PROBE, [path], **env))


def test_grid_runs_set_each_openblas_to_one_thread_unless_the_user_chose(tmp_path):
    capped = _blas_threads(tmp_path, "spectrum")
    if not capped["after"]:
        pytest.skip("no OpenBLAS library is loaded (or /proc/self/maps is unreadable)")
    assert set(capped["after"].values()) == {1}, capped
    # a count set by the user stays as OpenBLAS read it at load (at most the core count)
    chosen = _blas_threads(tmp_path, "spectrum", OPENBLAS_NUM_THREADS="2")
    assert set(chosen["after"].values()) == set(chosen["before"].values()), chosen


def test_ray_runs_leave_the_blas_pools_alone(tmp_path):
    ray = _blas_threads(tmp_path, "trace")
    assert not ray["scipy"] and ray["after"] == ray["before"], ray


def _numbers(path: Path) -> dict:
    """Each column of a CSV artifact, or each key path of a JSON one, as a list of floats."""
    if path.suffix == ".csv":
        rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()[2:]))
        return {c: [float(r[k]) for r in rows[1:]] for k, c in enumerate(rows[0])}
    flat = {}

    def walk(key, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{key}.{k}" if key else k, v)
        elif isinstance(value, list):
            for v in value:
                walk(key, v)
        else:
            flat.setdefault(key, []).append(float(value))

    payload = json.loads(path.read_text(encoding="utf-8"))
    walk("", {k: v for k, v in payload.items() if k not in ("artifact", "version", "config")})
    return flat


def test_grid_artifacts_agree_to_roundoff_across_thread_counts(tmp_path):
    # at 100 modes the dense products are large enough for OpenBLAS to use both threads
    runs = [("simulate", {"nx": 12, "n_modes": 100, "T": 4.0, "dt": 0.01, "window": [0.0, 4.0]}),
            ("spectrum", {"nx": 12, "n_modes": 100}),
            ("resolvent", {"nx": 12, "n_modes": 100,
                           "sigma": {"min": 0.0, "max": 30.0, "count": 25}})]
    for policy, env in (("one", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        paths = [_write(tmp_path, _cfg(exp, params, tmp_path / policy / exp),
                        f"{policy}_{exp}.json") for exp, params in runs]
        _fresh(_PROBE, ["main", *paths], **env)
    files = sorted((tmp_path / "one").rglob("*.*"))
    assert {f.name for f in files} == {"energy_trace.csv", "simulate_summary.json",
                                       "spectrum_report.json", "resolvent_curve.csv"}
    for f in files:
        one, two = _numbers(f), _numbers(tmp_path / "two" / f.relative_to(tmp_path / "one"))
        assert one.keys() == two.keys()
        for key in one:
            # balance_defect is a relative error at roundoff level, so its scale is 1
            scale = 1.0 if key == "balance_defect" else np.abs([one[key], two[key]]).max()
            gap = np.abs(np.subtract(one[key], two[key])).max()
            assert gap <= 1e-12 * scale, (f.name, key, gap, scale)


# Reachability: every function of src/ is called by some CLI run, except the allowlist.
_REACH_PROBE = """
import json, sys
from stokeswave import cli
called = set()

def hook(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

codes = []
sys.setprofile(hook)
for path in sys.argv[1:]:
    codes.append(cli.main([cli.load_config(path)["experiment"], path]))
sys.setprofile(None)
print(json.dumps({"codes": codes, "called": sorted(called)}))
"""
# Functions no CLI run calls, each kept for a reader outside the CLI.
_NEVER_CALLED = {
    # read by perfbench/make_reference.py, to rebuild the Lame E0 as a cross-check
    "lame.lame_energy",
    # read by perfbench's tracing, which iterates the modes for their residuals
    "stokes.Modes.__getitem__",
    # eigsh's A operator: in shift-invert mode ARPACK reads only its shape and dtype,
    # and the tests check the Woodbury solve against it
    "stokes._ParityClass.matvec",
}
_GRID_SMALL = {"nx": 8, "n_modes": 6}
_REACH_RUNS = [
    ("trace", {"x0": [0.5, 0.5], "xi0": [0.6, 0.8], "T": 5.0}, SQUARE, COLLAR),
    # a glancing disk start glides round the circle past the patch
    ("trace", {"x0": [1.0, 0.0], "xi0": [0.0, 1.0], "T": 3.0}, _DISK, _PATCH),
    ("gcc", {"T": 2.0, "sampler": {"kind": "grid", "nx": 3, "ndir": 4}}, SQUARE, COLLAR),
    ("gcc", {"T": 2.0, "sampler": {"kind": "grid", "nx": 2, "ndir": 2}}, _DISK,
     {"shape": "boundary_collar", "width": 0.1}),
    ("gcc", _GCC, _DISK, _PATCH),
    ("simulate", {**_GRID_SMALL, "T": 1.0, "dt": 0.01, "window": [0.0, 1.0]}, SQUARE, COLLAR),
    ("spectrum", _GRID_SMALL, SQUARE, COLLAR),
    ("resolvent", {**_GRID_SMALL, "sigma": {"min": 0.0, "max": 30.0, "count": 5}}, SQUARE,
     COLLAR),
    ("observability", {**_GRID_SMALL, "T": 0.5, "dt": 0.01}, SQUARE, COLLAR),
    ("lame", {**_GRID_SMALL, "T": 0.1, "dt": 0.005, "eps_list": [1e-1, 1e-2]}, SQUARE, None),
    ("diagnostics", _GRID_SMALL, SQUARE, COLLAR),
    ("spectrum", {**_GRID_SMALL, "bogus": 1}, SQUARE, COLLAR),    # a config error
]


def _functions(tree, prefix=""):
    """(qualified name, first line of its code object) of each function defined in tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + node.name
            if not isinstance(node, ast.ClassDef):
                # a decorated function's code starts at its first decorator
                yield name, min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield from _functions(node, name + ".")


def test_every_function_but_the_allowlist_is_reached_by_a_cli_run(tmp_path):
    paths = [_write(tmp_path, _cfg(exp, params, tmp_path / str(i), damping, domain),
                    f"reach{i}.json")
             for i, (exp, params, domain, damping) in enumerate(_REACH_RUNS)]
    out = json.loads(_fresh(_REACH_PROBE, paths))
    assert out["codes"] == [0] * (len(_REACH_RUNS) - 1) + [2]
    called = {(Path(f).resolve(), line) for f, line in out["called"]}
    src = Path(cli.__file__).resolve().parent
    never = {f"{f.stem}.{name}" for f in src.glob("*.py")
             for name, line in _functions(ast.parse(f.read_text(encoding="utf-8")))
             if (f, line) not in called}
    assert never == _NEVER_CALLED


@pytest.mark.parametrize("domain, refused", [(SQUARE, False), (_DISK, True)],
                         ids=["square", "disk"])
def test_the_ray_cap_counts_boundary_starts_on_the_disk_only(tmp_path, domain, refused):
    # nx^2 ndir is exactly the cap; only the disk's grid sampler adds 2 nx glide starts.
    # resolve_config alone, so no run of 10**6 rays starts
    cfg = _cfg("gcc", {"T": 1.0, "sampler": {"kind": "grid", "nx": 1000, "ndir": 1}},
               tmp_path, domain=domain)
    if refused:
        with pytest.raises(stokeswave.ConfigurationError,
                           match=r"^params.sampler: 1002000 rays exceed 1000000$"):
            cli.resolve_config(cfg)
    else:
        assert cli.resolve_config(cfg)["params"]["sampler"]["nx"] == 1000


# the norm of observability.json overflows from amplitude 1e160 on, with a RuntimeWarning
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("experiment, params, amplitude, failure", [
    ("observability", {"nx": 8, "n_modes": 6, "T": 0.1, "dt": 0.01}, 1e308,
     "observability Gramian is not finite"),
    ("observability", {"nx": 8, "n_modes": 6, "T": 0.1, "dt": 0.01}, 1e200, None),
    ("simulate", {"nx": 16, "n_modes": 20, "T": 1.0, "dt": 0.01}, 1e100,
     r"energy balance defect \S+ exceeds 1e-08: "),
    ("simulate", {"nx": 16, "n_modes": 20, "T": 1.0, "dt": 0.01}, 1e20, None),
], ids=["gramian_inf", "gramian_finite", "balance_broken", "balance_kept"])
def test_a_huge_damping_exits_3_once_the_numbers_break(tmp_path, capsys, experiment, params,
                                                       amplitude, failure):
    cfg = _cfg(experiment, params, tmp_path, damping={**COLLAR, "amplitude": amplitude})
    code = main([experiment, _write(tmp_path, cfg)])
    if failure is None:
        assert code == 0
    else:
        assert code == 3
        assert re.match(f"numeric failure: {failure}", capsys.readouterr().err)
        assert not any((tmp_path / "out").iterdir())

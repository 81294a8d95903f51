"""Config-driven experiment runner.

One experiment per invocation: `stokeswave <subcommand> config.json`.
The subcommand must match the config's "experiment" field.  Outputs are
CSV/JSON files in the configured output directory; every file embeds the
resolved configuration, defaults filled in, and fixed seeds make reruns
byte-identical.

A runner run_<exp>(cfg, domain, damping) computes and returns its artifacts:
a dict from file name to a JSON payload (a dict) for a .json name, or to
(columns, rows) for a .csv name.  main alone creates the output directory,
before the runner, so an unusable path exits 2 early; it writes the artifacts
once the runner has returned, so a run that exits 3 adds none to the directory.
Before the first grid run in a process, main sets each loaded OpenBLAS to one
thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set: numpy's and
scipy's pools oversubscribe the cores on small dense problems.

The config schema is one set of tables in the format of stokeswave.schema:
CONFIG and PARAMS (one table per experiment) here, DOMAINS and DAMPINGS in
stokeswave.geometry, SAMPLERS in stokeswave.raytracer.  They drive validation,
defaults and the help of each subcommand; _cross_checks holds the rules that tie
two values together.  resolve_config applies both before any output directory
exists.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import raytracer, reporting
from .errors import ConfigurationError, NumericsError, PreconditionError
from .geometry import DAMPING, DOMAIN, make_damping, make_domain
from .schema import POSITIVE, REQUIRED, Tagged, check_spec, fail

_T = (float, POSITIVE, REQUIRED)
_PAIR = ([float, float], None, REQUIRED)
_GRID = {"nx": (int, 3, REQUIRED), "n_modes": (int, 1, REQUIRED)}
_STEPS = {"T": _T, "dt": _T}
# largest step count round(T / dt), sigma count, sampler ray count and grid cell
# count of one run
_MAX_COUNT = 10 ** 6
PARAMS = {
    "trace": {"x0": _PAIR, "xi0": _PAIR, "T": _T},
    "gcc": {"T": _T, "sampler": (Tagged("kind", raytracer.SAMPLERS), None, REQUIRED)},
    "simulate": {**_GRID, **_STEPS, "window": ([float, float], 0, None)},
    "spectrum": _GRID,
    "resolvent": {**_GRID, "sigma": ({"min": (float, None, REQUIRED),
                                      "max": (float, None, REQUIRED),
                                      "count": (int, 1, REQUIRED)}, None, REQUIRED)},
    "observability": {**_GRID, **_STEPS},
    "lame": {**_GRID, **_STEPS, "eps_list": ([float], POSITIVE, REQUIRED),
             "n_init_modes": (int, 1, 3)},
    "diagnostics": _GRID,
}
EXPERIMENTS = tuple(PARAMS)
# "params" is checked against PARAMS[experiment]
CONFIG = {"experiment": (EXPERIMENTS, None, REQUIRED), "domain": DOMAIN, "damping": DAMPING,
          "params": ({}, None, REQUIRED), "output_dir": (str, None, REQUIRED),
          "seed": (int, 0, 0)}


def load_config(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {p}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:   # an integer too long, nesting too deep
        raise ConfigurationError(f"config cannot be decoded: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return cfg


def resolve_config(cfg: dict) -> dict:
    """The checked config with every default filled in: what runners read and artifacts embed."""
    exp = cfg.get("experiment")
    table = {**CONFIG, "params": (PARAMS[exp] if exp in EXPERIMENTS else {}, None, REQUIRED)}
    resolved = check_spec(cfg, table, "")
    _cross_checks(resolved)
    return resolved


def _cross_checks(cfg: dict):
    """The rules that tie two values of a schema-checked config together."""
    exp, p, damping = cfg["experiment"], cfg["params"], cfg["damping"]
    domain = make_domain(cfg["domain"])
    rectangle = cfg["domain"]["kind"] == "rectangle"
    if damping is None and exp == "gcc":
        fail("damping", "gcc experiment needs a damping profile")
    if damping is not None and exp == "lame":
        fail("damping", "lame experiment is undamped; set damping to null")
    if damping is not None:
        make_damping(domain, damping)
    if "nx" in p:
        # a grid experiment loads the grid half (and scipy) here, during set-up
        from . import evolution, lame, spectral, stokes  # noqa: F401
        if not rectangle:
            fail("domain.kind", f"experiment '{exp}' needs a rectangle domain "
                 "(the grid discretization is rectangle-only)")
        try:
            grid = stokes.StaggeredGrid.for_rectangle(domain, p["nx"])
        except ConfigurationError as exc:
            fail("params.nx", str(exc))
        if grid.n_cells > _MAX_COUNT:
            fail("params.nx", f"{grid.n_cells} grid cells exceed {_MAX_COUNT}")
        dim = (grid.nx - 1) * (grid.ny - 1)
        if p["n_modes"] > dim:
            fail("params.n_modes", f"must not exceed the divergence-free dimension {dim}")
    if "dt" in p:
        if p["T"] < p["dt"]:
            fail("params.T", "must be at least dt")
        ratio = p["T"] / p["dt"]
        if not math.isfinite(ratio):
            fail("params.dt", "T / dt overflows; the step count must be finite")
        if round(ratio) > _MAX_COUNT:
            fail("params.dt", f"T / dt exceeds {_MAX_COUNT} steps")
        if abs(round(ratio) * p["dt"] - p["T"]) > 1e-9 * p["T"]:
            fail("params.dt", "T must be an integer multiple of dt")
    if exp == "trace":
        x0 = p["x0"]
        if not domain.contains(x0):
            fail("params.x0", "must lie in the closed domain")
        xi0 = _unit_direction(p["xi0"])
        if not abs(math.hypot(*xi0) - 1.0) <= 1e-12:
            fail("params.xi0", "must be a nonzero direction")
        try:
            raytracer._start_kind(domain, x0, xi0)
        except PreconditionError:
            fail("params.xi0", "must not point out of the domain from x0 on its boundary")
    if exp == "simulate" and p["window"] is not None:
        # the samples k*dt of evolution.evolve in the inclusive window of fit_decay
        t = np.arange(round(p["T"] / p["dt"]) + 1) * p["dt"]
        if np.count_nonzero((t >= p["window"][0]) & (t <= p["window"][1])) < 2:
            fail("params.window", "needs t_min < t_max and two samples k*dt between them")
    if exp == "gcc":
        spec = p["sampler"]
        # a grid sampler adds 2 nx boundary starts on the disk (raytracer.GridSampler)
        rays = (spec["n"] if "n" in spec
                else spec["nx"] ** 2 * spec["ndir"] + (0 if rectangle else 2 * spec["nx"]))
        if rays > _MAX_COUNT:
            fail("params.sampler", f"{rays} rays exceed {_MAX_COUNT}")
    if exp == "resolvent":
        sigma = p["sigma"]
        if not sigma["max"] >= sigma["min"]:
            fail("params.sigma.max", "must be >= min")
        if not math.isfinite(sigma["max"] - sigma["min"]):
            fail("params.sigma.max", "max - min overflows")
        if sigma["count"] > _MAX_COUNT:
            fail("params.sigma.count", f"exceeds {_MAX_COUNT}")
    if exp == "lame":
        eps = p["eps_list"]
        if any(a <= b for a, b in zip(eps, eps[1:])):
            fail("params.eps_list", "must be strictly descending")
        if p["n_init_modes"] > p["n_modes"]:
            fail("params.n_init_modes", "must not exceed n_modes")


def _unit_direction(xi) -> tuple:
    """The trace direction xi / |xi| as a float pair, or zeros for the zero vector."""
    norm = math.hypot(*xi)
    return (xi[0] / norm, xi[1] / norm) if norm > 0 else (0.0, 0.0)


# ---------------------------------------------------------------------------
# Experiment runners (contract in the module docstring)


def _modal_system(cfg, domain, damping):
    from . import stokes
    grid = stokes.StaggeredGrid.for_rectangle(domain, cfg["params"]["nx"])
    return stokes.build_modal_system(grid, cfg["params"]["n_modes"], damping)


def run_trace(cfg: dict, domain, damping) -> dict:
    params = cfg["params"]
    xi0 = _unit_direction(params["xi0"])
    path = raytracer.trace(domain, damping, params["x0"], xi0, params["T"])
    rows = [(ev.kind, ev.t, ev.duration, *ev.start, *ev.end) for ev in path.events]
    return {
        "ray_path.csv": (["kind", "t_start", "duration", "x_start", "y_start", "x_end", "y_end"],
                         rows),
        "trace_summary.json": {
            "terminated": path.terminated,
            "total_time": path.total_time,
            "first_entry_time": path.first_entry_time,
            "n_events": len(path.events),
            "final_x": path.end[0],
            "final_xi": path.end[1],
        },
    }


def run_gcc(cfg: dict, domain, damping) -> dict:
    params = cfg["params"]
    spec = params["sampler"]
    sampler = (raytracer.GridSampler(spec["nx"], spec["ndir"]) if spec["kind"] == "grid"
               else raytracer.RandomSampler(spec["n"], cfg["seed"]))
    report = raytracer.check_gcc(domain, damping, params["T"], sampler)
    return {"gcc_report.json": {
        "horizon": report.horizon,
        "n_samples": report.n_samples,
        "covered_fraction": report.covered_fraction,
        "max_first_entry_time": report.max_first_entry_time,
        "corner_terminated": report.corner_terminated,
        "event_cap_terminated": report.event_cap_terminated,
        "sampler": spec,
        "worst_rays": [{"x": x, "xi": xi, "first_entry_time": t}
                       for (x, xi), t in zip(report.worst_rays, report.worst_entry_times)],
    }}


def run_simulate(cfg: dict, domain, damping) -> dict:
    from . import evolution
    params = cfg["params"]
    ms = _modal_system(cfg, domain, damping)
    state0 = evolution.random_state(ms, cfg["seed"])
    final, trace = evolution.evolve(ms, state0, params["T"], params["dt"])
    payload = {
        "n_modes": ms.n_modes,
        "E0": float(trace.E[0]),
        "E_final": float(trace.E[-1]),
        "balance_defect": evolution.dissipation_check(trace),
    }
    if params["window"] is not None:
        fit = evolution.fit_decay(trace, params["window"])
        payload["decay_fit"] = {"C0": fit.C0, "alpha": fit.alpha,
                                "r_squared": fit.r_squared, "window": list(fit.window)}
    return {"energy_trace.csv": (["t", "E", "D_cum"], zip(trace.t, trace.E, trace.D_cum)),
            "simulate_summary.json": payload}


def run_spectrum(cfg: dict, domain, damping) -> dict:
    from . import spectral
    ms = _modal_system(cfg, domain, damping)
    rep = spectral.spectrum(ms)
    return {"spectrum_report.json": {
        "n_modes": ms.n_modes,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in rep.eigenvalues],
        "spectral_abscissa": rep.spectral_abscissa,
        "predicted_decay_rate": rep.predicted_decay_rate,
    }}


def run_resolvent(cfg: dict, domain, damping) -> dict:
    from . import spectral
    ms = _modal_system(cfg, domain, damping)
    sig = cfg["params"]["sigma"]
    grid = np.linspace(sig["min"], sig["max"], sig["count"])
    return {"resolvent_curve.csv": (["sigma", "smin"], spectral.resolvent_sweep(ms, grid))}


def run_observability(cfg: dict, domain, damping) -> dict:
    from . import evolution
    params = cfg["params"]
    ms = _modal_system(cfg, domain, damping)
    gram, c_obs = evolution.observability_gramian(ms, params["T"], params["dt"])
    # the norm of G 2^-k scaled back, k the exponent of max|G|: the squares of a large
    # finite G overflow, and the power of two changes no bit of the norm
    k = math.frexp(float(np.abs(gram).max()))[1]
    return {"observability.json": {
        "n_modes": ms.n_modes,
        "T": params["T"],
        "dt": params["dt"],
        "c_obs": c_obs,
        "gramian_frobenius_norm": float(np.ldexp(np.linalg.norm(np.ldexp(gram, -k)), k)),
    }}


def run_lame(cfg: dict, domain, damping) -> dict:
    from . import evolution, lame
    params = cfg["params"]
    ms = _modal_system(cfg, domain, damping)
    n_init = params["n_init_modes"]
    coeffs = np.zeros(ms.n_modes)
    coeffs[:n_init] = 1.0 / math.sqrt(n_init)
    state0 = evolution.ModalState(coeffs, np.zeros(ms.n_modes))
    rows = lame.convergence_study(ms.reconstruct(coeffs), params["eps_list"], params["T"],
                                  params["dt"], lame.modal_reference(ms, state0))
    return {"lame_study.csv": (["eps", "max_div", "max_err", "E0", "energy_drift"], rows)}


def run_diagnostics(cfg: dict, domain, damping) -> dict:
    from . import spectral, stokes
    params = cfg["params"]
    grid = stokes.StaggeredGrid.for_rectangle(domain, params["nx"])
    modes = stokes.stokes_eigenpairs(grid, params["n_modes"])
    masses = stokes.damping_masses(modes, damping)
    constants = spectral.semiclassical_constants(modes, masses)
    d = spectral.quasimode_diagnostics(modes, masses)
    rows = zip(range(len(modes)), modes.lambdas, d.h, d.boundary_flux_norm,
               d.normal_component_defect, *d.pressure_norms, d.obs_constant)
    return {"semiclassical_constants.csv": (["h", "obs_constant"], constants),
            "quasimode_diagnostics.csv": (
                ["mode", "lambda", "h", "boundary_flux_norm", "normal_component_defect",
                 "pressure_interior_norm", "pressure_boundary_norm", "obs_constant"], rows)}


_RUNNERS = {name: globals()[f"run_{name}"] for name in EXPERIMENTS}


@functools.cache
def _one_blas_thread():
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        return
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
        paths = {f[5] for f in map(str.split, maps) if len(f) == 6 and "openblas" in f[5]}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        return
    for lib in libs:
        for name in ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_"):
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stokeswave",
        description="Run one experiment described by a JSON config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in PARAMS.items():
        keys = [k if r[2] is REQUIRED else f"[{k}{'' if r[2] is None else f'={r[2]}'}]"
                for k, r in table.items()]
        p = sub.add_parser(name, help=f"run a '{name}' experiment",
                           description=f"params keys: {', '.join(keys)}")
        p.add_argument("config", help="path to the JSON config file")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        resolved = resolve_config(cfg)
        if resolved["experiment"] != args.command:
            fail("experiment", f"config declares {resolved['experiment']!r} "
                 f"but subcommand is {args.command!r}")
        domain = make_domain(resolved["domain"])
        damping = (None if resolved["damping"] is None
                   else make_damping(domain, resolved["damping"]))
        out = Path(resolved["output_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            fail("output_dir", f"cannot create directory {out}: {exc.strerror}")
        if "nx" in resolved["params"]:
            _one_blas_thread()
        artifacts = _RUNNERS[resolved["experiment"]](resolved, domain, damping)
        for name, artifact in artifacts.items():
            if name.endswith(".csv"):
                reporting.write_csv(out / name, *artifact, resolved)
            else:
                reporting.write_json(out / name, artifact, resolved)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

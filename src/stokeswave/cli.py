"""Config-driven experiment runner.

One experiment per invocation: `stokeswave <subcommand> config.json`.
The subcommand must match the config's "experiment" field.  Outputs are
CSV/JSON files in the configured output directory; every file embeds the
resolved configuration, and fixed seeds make reruns byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import evolution, lame, raytracer, reporting, spectral, stokes
from .errors import ConfigurationError, NumericsError
from .geometry import Rectangle, make_damping, make_domain

EXPERIMENTS = ("trace", "gcc", "simulate", "spectrum", "resolvent",
               "observability", "lame", "diagnostics")

_GRID_EXPERIMENTS = ("simulate", "spectrum", "resolvent", "observability", "lame", "diagnostics")


# ---------------------------------------------------------------------------
# Config validation


def _fail(path: str, msg: str):
    raise ConfigurationError(f"{path}: {msg}")


def _need(params: dict, key: str, where: str):
    if key not in params:
        _fail(f"{where}.{key}", "required key is missing")
    return params[key]


def _number(val, where, positive=False, nonnegative=False) -> float:
    if not isinstance(val, (int, float)) or isinstance(val, bool) or not math.isfinite(val):
        _fail(where, "must be a finite number")
    val = float(val)
    if positive and not val > 0:
        _fail(where, "must be positive")
    if nonnegative and val < 0:
        _fail(where, "must be nonnegative")
    return val


def _integer(val, where, minimum=None) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        _fail(where, "must be an integer")
    if minimum is not None and val < minimum:
        _fail(where, f"must be >= {minimum}")
    return val


def _point(val, where) -> np.ndarray:
    if not (isinstance(val, (list, tuple)) and len(val) == 2):
        _fail(where, "must be a pair [x, y]")
    return np.array([_number(val[0], where), _number(val[1], where)])


def _no_unknown(d: dict, allowed, where):
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        _fail(f"{where}.{unknown[0]}", "unknown key")


_PARAM_KEYS = {
    "trace": {"x0", "xi0", "T"},
    "gcc": {"T", "sampler"},
    "simulate": {"nx", "n_modes", "T", "dt", "window"},
    "spectrum": {"nx", "n_modes"},
    "resolvent": {"nx", "n_modes", "sigma"},
    "observability": {"nx", "n_modes", "T", "dt"},
    "lame": {"nx", "n_modes", "T", "dt", "eps_list", "n_init_modes", "sample_every"},
    "diagnostics": {"nx", "n_modes"},
}


def load_config(path) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {p}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"config syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigurationError("config root must be a JSON object")
    return cfg


def resolve_config(cfg: dict) -> dict:
    """Validate the raw config mapping and fill defaults."""
    _no_unknown(cfg, {"experiment", "domain", "damping", "params", "output_dir", "seed"}, "config")
    experiment = _need(cfg, "experiment", "config")
    if experiment not in EXPERIMENTS:
        _fail("experiment", f"must be one of {EXPERIMENTS}, got {experiment!r}")
    if not isinstance(_need(cfg, "domain", "config"), dict):
        _fail("domain", "must be an object")
    damping = cfg.get("damping")
    if damping is not None and not isinstance(damping, dict):
        _fail("damping", "must be an object or null")
    params = _need(cfg, "params", "config")
    if not isinstance(params, dict):
        _fail("params", "must be an object")
    out_dir = _need(cfg, "output_dir", "config")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("output_dir", "must be a nonempty string")
    seed = cfg.get("seed", 0)
    seed = _integer(seed, "seed", minimum=0)

    _no_unknown(params, _PARAM_KEYS[experiment], "params")
    resolved = {"experiment": experiment, "domain": cfg["domain"], "damping": damping,
                "params": params, "output_dir": out_dir, "seed": seed}
    _validate_params(resolved)
    return resolved


def _validate_params(cfg: dict):
    exp = cfg["experiment"]
    params = cfg["params"]
    domain = make_domain(cfg["domain"])
    if cfg["damping"] is not None:
        make_damping(domain, cfg["damping"])
    elif exp == "gcc":
        _fail("damping", "gcc experiment needs a damping profile")
    if exp in _GRID_EXPERIMENTS and not isinstance(domain, Rectangle):
        _fail("domain.kind", f"experiment '{exp}' needs a rectangle domain "
              "(the grid discretization is rectangle-only)")

    if exp == "trace":
        x0 = _point(_need(params, "x0", "params"), "params.x0")
        if not domain.contains(x0):
            _fail("params.x0", "must lie in the closed domain")
        xi0 = _point(_need(params, "xi0", "params"), "params.xi0")
        if not math.hypot(xi0[0], xi0[1]) > 0:
            _fail("params.xi0", "must be a nonzero direction")
        _number(_need(params, "T", "params"), "params.T", positive=True)
    elif exp == "gcc":
        _number(_need(params, "T", "params"), "params.T", positive=True)
        _sampler_from(params, validate_only=True)
    else:
        _integer(_need(params, "nx", "params"), "params.nx", minimum=3)
        _integer(_need(params, "n_modes", "params"), "params.n_modes", minimum=1)

    if exp in ("simulate", "observability", "lame"):
        t = _number(_need(params, "T", "params"), "params.T", positive=True)
        dt = _number(_need(params, "dt", "params"), "params.dt", positive=True)
        if t < dt:
            _fail("params.T", "must be at least dt")
        if abs(round(t / dt) * dt - t) > 1e-9 * t:
            _fail("params.dt", "T must be an integer multiple of dt")
    if exp == "simulate" and "window" in params:
        w = params["window"]
        if not (isinstance(w, (list, tuple)) and len(w) == 2):
            _fail("params.window", "must be a pair [t_min, t_max]")
        w0 = _number(w[0], "params.window", nonnegative=True)
        w1 = _number(w[1], "params.window", positive=True)
        if not w0 < w1:
            _fail("params.window", "needs t_min < t_max")
    if exp == "resolvent":
        sig = _need(params, "sigma", "params")
        if not isinstance(sig, dict):
            _fail("params.sigma", "must be an object {min, max, count}")
        _no_unknown(sig, {"min", "max", "count"}, "params.sigma")
        lo = _number(_need(sig, "min", "params.sigma"), "params.sigma.min")
        hi = _number(_need(sig, "max", "params.sigma"), "params.sigma.max")
        _integer(_need(sig, "count", "params.sigma"), "params.sigma.count", minimum=1)
        if not hi >= lo:
            _fail("params.sigma.max", "must be >= min")
    if exp == "lame":
        eps_list = _need(params, "eps_list", "params")
        if not (isinstance(eps_list, list) and eps_list):
            _fail("params.eps_list", "must be a nonempty list")
        vals = [_number(e, "params.eps_list", positive=True) for e in eps_list]
        if any(a <= b for a, b in zip(vals, vals[1:])):
            _fail("params.eps_list", "must be strictly descending")
        n_init = _integer(params.get("n_init_modes", 3), "params.n_init_modes", minimum=1)
        if n_init > params["n_modes"]:
            _fail("params.n_init_modes", "must not exceed n_modes")
        if "sample_every" in params:
            _integer(params["sample_every"], "params.sample_every", minimum=1)


def _sampler_from(params: dict, validate_only: bool = False, seed: int = 0):
    sampler = _need(params, "sampler", "params")
    if not isinstance(sampler, dict):
        _fail("params.sampler", "must be an object")
    kind = sampler.get("kind")
    if kind == "grid":
        _no_unknown(sampler, {"kind", "nx", "ndir"}, "params.sampler")
        nx = _integer(_need(sampler, "nx", "params.sampler"), "params.sampler.nx", minimum=1)
        ndir = _integer(_need(sampler, "ndir", "params.sampler"), "params.sampler.ndir", minimum=1)
        return None if validate_only else raytracer.GridSampler(nx, ndir)
    if kind == "seeded_random":
        _no_unknown(sampler, {"kind", "n"}, "params.sampler")
        n = _integer(_need(sampler, "n", "params.sampler"), "params.sampler.n", minimum=1)
        return None if validate_only else raytracer.RandomSampler(n, seed)
    _fail("params.sampler.kind", "must be 'grid' or 'seeded_random'")


# ---------------------------------------------------------------------------
# Experiment runners


def _setup(cfg: dict):
    domain = make_domain(cfg["domain"])
    damping = None if cfg["damping"] is None else make_damping(domain, cfg["damping"])
    out = Path(cfg["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return domain, damping, out


def _modal_system(cfg, domain, damping):
    grid = stokes.StaggeredGrid.for_rectangle(domain, cfg["params"]["nx"])
    return stokes.build_modal_system(grid, cfg["params"]["n_modes"], damping)


def run_trace(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    xi0 = np.asarray(params["xi0"], dtype=float)
    xi0 = xi0 / math.hypot(xi0[0], xi0[1])
    path = raytracer.trace(domain, damping, raytracer.PhasePoint(params["x0"], xi0),
                           params["T"])
    rows = []
    t = 0.0
    for ev in path.events:
        if isinstance(ev, (raytracer.FreeSegment, raytracer.GlideArc)):
            rows.append((ev.kind, t, ev.duration, ev.start[0], ev.start[1], ev.end[0], ev.end[1]))
            t += ev.duration
        else:   # point events; a damped entry carries its own time
            rows.append((ev.kind, getattr(ev, "time", t), 0.0,
                         ev.point[0], ev.point[1], ev.point[0], ev.point[1]))
    reporting.write_csv(out / "ray_path.csv",
                        ["kind", "t_start", "duration", "x_start", "y_start", "x_end", "y_end"],
                        rows, cfg)
    reporting.write_json(out / "trace_summary.json", {
        "terminated": path.terminated,
        "total_time": path.total_time,
        "first_entry_time": path.first_entry_time,
        "n_events": len(path.events),
        "final_x": list(path.final.x),
        "final_xi": list(path.final.xi),
    }, cfg)


def run_gcc(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    sampler = _sampler_from(params, seed=cfg["seed"])
    report = raytracer.check_gcc(domain, damping, params["T"], sampler)
    reporting.write_json(out / "gcc_report.json", {
        "horizon": report.horizon,
        "n_samples": report.n_samples,
        "covered_fraction": report.covered_fraction,
        "max_first_entry_time": report.max_first_entry_time,
        "corner_terminated": report.corner_terminated,
        "event_cap_terminated": report.event_cap_terminated,
        "sampler": cfg["params"]["sampler"],
        "worst_rays": [{"x": list(p.x), "xi": list(p.xi), "first_entry_time": t}
                       for p, t in zip(report.worst_rays, report.worst_entry_times)],
    }, cfg)


def run_simulate(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    ms = _modal_system(cfg, domain, damping)
    state0 = evolution.random_state(ms, cfg["seed"])
    final, trace = evolution.evolve(ms, state0, params["T"], params["dt"], damped=True)
    reporting.write_csv(out / "energy_trace.csv", ["t", "E", "D_cum"],
                        zip(trace.t, trace.E, trace.D_cum), cfg)
    payload = {
        "n_modes": ms.n_modes,
        "E0": float(trace.E[0]),
        "E_final": float(trace.E[-1]),
        "balance_defect": evolution.dissipation_check(trace),
    }
    if "window" in params:
        fit = evolution.fit_decay(trace, tuple(params["window"]))
        payload["decay_fit"] = {"C0": fit.C0, "alpha": fit.alpha,
                                "r_squared": fit.r_squared, "window": list(fit.window)}
    reporting.write_json(out / "simulate_summary.json", payload, cfg)


def run_spectrum(cfg: dict):
    domain, damping, out = _setup(cfg)
    ms = _modal_system(cfg, domain, damping)
    rep = spectral.spectrum(spectral.assemble_generator(ms))
    reporting.write_json(out / "spectrum_report.json", {
        "n_modes": ms.n_modes,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in rep.eigenvalues],
        "spectral_abscissa": rep.spectral_abscissa,
        "predicted_decay_rate": rep.predicted_decay_rate,
    }, cfg)


def run_resolvent(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    ms = _modal_system(cfg, domain, damping)
    sig = params["sigma"]
    grid = np.linspace(sig["min"], sig["max"], sig["count"])
    curve = spectral.resolvent_sweep(spectral.assemble_generator(ms), grid)
    reporting.write_csv(out / "resolvent_curve.csv", ["sigma", "smin"], curve, cfg)


def run_observability(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    ms = _modal_system(cfg, domain, damping)
    gram, c_obs = evolution.observability_gramian(ms, params["T"], params["dt"])
    reporting.write_json(out / "observability.json", {
        "n_modes": ms.n_modes,
        "T": params["T"],
        "dt": params["dt"],
        "c_obs": c_obs,
        "gramian_frobenius_norm": float(np.linalg.norm(gram)),
    }, cfg)


def run_lame(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    ms = _modal_system(cfg, domain, None)
    n_init = params.get("n_init_modes", 3)
    coeffs = np.zeros(ms.n_modes)
    coeffs[:n_init] = 1.0 / math.sqrt(n_init)
    state0 = evolution.ModalState(coeffs, np.zeros(ms.n_modes))
    u0 = ms.reconstruct(coeffs)
    w0 = stokes.StaggeredField.zeros(ms.grid)
    rows = lame.convergence_study(u0, w0, params["eps_list"], params["T"], params["dt"],
                                  lame.modal_reference(ms, state0),
                                  sample_every=params.get("sample_every", 1))
    reporting.write_csv(out / "lame_study.csv", ["eps", "max_div", "max_err"], rows, cfg)


def run_diagnostics(cfg: dict):
    domain, damping, out = _setup(cfg)
    params = cfg["params"]
    grid = stokes.StaggeredGrid.for_rectangle(domain, params["nx"])
    pairs = stokes.stokes_eigenpairs(grid, params["n_modes"])
    masses = stokes.damping_masses(pairs, damping)
    constants = spectral.semiclassical_constants(pairs, masses)
    reporting.write_csv(out / "semiclassical_constants.csv", ["h", "obs_constant"],
                        constants, cfg)
    rows = []
    for k, (p, mass) in enumerate(zip(pairs, masses)):
        d = spectral.quasimode_diagnostics(p, p.pressure, mass)
        rows.append((k, p.lam, d.h, d.boundary_flux_norm, d.normal_component_defect,
                     d.pressure_norms[0], d.pressure_norms[1], d.obs_constant))
    reporting.write_csv(out / "quasimode_diagnostics.csv",
                        ["mode", "lambda", "h", "boundary_flux_norm", "normal_component_defect",
                         "pressure_interior_norm", "pressure_boundary_norm", "obs_constant"],
                        rows, cfg)


_RUNNERS = {
    "trace": run_trace,
    "gcc": run_gcc,
    "simulate": run_simulate,
    "spectrum": run_spectrum,
    "resolvent": run_resolvent,
    "observability": run_observability,
    "lame": run_lame,
    "diagnostics": run_diagnostics,
}


def run(config: dict) -> None:
    """Validate and execute one experiment from a raw config mapping."""
    resolved = resolve_config(config)
    _RUNNERS[resolved["experiment"]](resolved)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stokeswave",
        description="Run one experiment described by a JSON config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run a '{name}' experiment")
        p.add_argument("config", help="path to the JSON config file")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        resolved = resolve_config(cfg)
        if resolved["experiment"] != args.command:
            raise ConfigurationError(
                f"experiment: config declares {resolved['experiment']!r} "
                f"but subcommand is {args.command!r}")
        _RUNNERS[resolved["experiment"]](resolved)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

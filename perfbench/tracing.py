"""Span tracing of the stokeswave layers, from outside the package.

Tracer.install() replaces every public function of each package module with
a wrapper that records a span: name, start, end, parent span and the
invocation id.  A function imported into another module with
`from ... import` is replaced where it is bound too, and so are the runner
table of the CLI and the two methods the layers call across module borders
(DampingProfile.values, ModalSystem.reconstruct).  uninstall() restores
everything, so one worker can alternate traced and untraced runs.

Spans stay in memory until the run ends.  invocation_sums() reduces the
spans of one invocation and combine() those of a workload to the per-layer
metrics; a layer's self time is its span minus the time its child spans
cover.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import inspect
import math
import time
from pathlib import Path

PACKAGE = "stokeswave"
LAYERS = ("cli", "reporting", "geometry", "raytracer", "stokes", "evolution", "spectral", "lame")

# Per-value formatting helpers: a span per CSV cell would cost more than the
# write it measures, so they stay inside the reporting.write_* spans.
UNWRAPPED = {"reporting.fmt_float", "reporting.sanitize"}

METHODS = (("geometry", "DampingProfile", "values"), ("stokes", "ModalSystem", "reconstruct"))


def _points(args, kwargs, result):
    return {"points": len(result)}


def _ray(args, kwargs, result):
    return {"events": len(result.events), "terminated": result.terminated}


def _gcc(args, kwargs, result):
    return {"samples": result.n_samples, "covered": result.covered_fraction * result.n_samples}


def _eigen(args, kwargs, result):
    return {"max_residual": max(p.residual for p in result)}


def _steps(args, kwargs, result):
    """Step count of a (state, T, dt, ...) call."""
    horizon = args[1] if len(args) > 1 else kwargs["T"]
    dt = args[2] if len(args) > 2 else kwargs["dt"]
    return {"steps": int(round(horizon / dt))}


def _evolve(args, kwargs, result):
    from stokeswave.evolution import dissipation_check
    trace = result[1]
    check = getattr(dissipation_check, "__wrapped__", dissipation_check)
    return {"steps": len(trace.t) - 1, "balance_defect": check(trace)}


def _lame(args, kwargs, result):
    state0 = args[0]
    steps = _steps(args, kwargs, result)["steps"]
    e0 = float(result.E[0])
    ratio = float(result.div_norm.max()) / math.sqrt(2.0 * state0.eps * e0) if e0 > 0 else 0.0
    return {"steps": steps, "div_bound_ratio": ratio}


def _written(args, kwargs, result):
    return {"bytes": Path(args[0]).stat().st_size}


# span name -> function(args, kwargs, result) -> attributes recorded on the span
PROBES = {
    "geometry.DampingProfile.values": _points,
    "raytracer.trace": _ray,
    "raytracer.check_gcc": _gcc,
    "stokes.stokes_eigenpairs": _eigen,
    "evolution.evolve": _evolve,
    "evolution.observability_gramian": _steps,
    "spectral.resolvent_sweep": _points,
    "lame.evolve_lame": _lame,
    "reporting.write_csv": _written,
    "reporting.write_json": _written,
}


class Span:
    """One call of a wrapped function; parent is the enclosing span's index or -1."""

    __slots__ = ("name", "start", "end", "parent", "invocation", "attrs")

    def __init__(self, name: str, parent: int, invocation: str):
        self.name, self.parent, self.invocation = name, parent, invocation
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Records spans of wrapped package functions while installed."""

    def __init__(self, invocation: str):
        self.spans: list = []
        self.invocation = invocation
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.invocation)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.attrs = probe(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers = {}   # id(original) -> wrapper
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrappers[id(fn)] = self._wrap(name, fn)
        # replace each function wherever it is bound, its own module included
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        runners = modules["cli"]._RUNNERS
        for key, fn in list(runners.items()):
            self._restore.append((runners, key, fn))
            runners[key] = wrappers[id(fn)]
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def rows(self):
        """Spans as plain rows: invocation, name, start, end, parent, attrs."""
        return [[s.invocation, s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics
#
# metric -> (span pattern, field, reduction, unit).  Field "time" is the summed span
# duration, "self" the summed self time, "calls" the span count, "corner",
# "horizon" and "error" count rays by how they ended, any other field is a
# probe attribute.  A "ratio" metric is divided by its RATIO_BASE, both summed
# over the invocations of a workload first.
SPEC = {
    "cli.resolve_config_s": ("cli.resolve_config", "time", "sum", "s"),
    "cli.runner_self_s": ("cli.run_*", "self", "sum", "s"),
    "reporting.write_s": ("reporting.write_*", "time", "sum", "s"),
    "reporting.bytes": ("reporting.write_*", "bytes", "sum", "bytes"),
    "geometry.damping_values_calls": ("geometry.DampingProfile.values", "calls", "sum", "count"),
    "geometry.damping_points": ("geometry.DampingProfile.values", "points", "sum", "count"),
    "geometry.damping_values_s": ("geometry.DampingProfile.values", "time", "sum", "s"),
    "raytracer.rays": ("raytracer.trace", "calls", "sum", "count"),
    "raytracer.trace_s": ("raytracer.trace", "time", "sum", "s"),
    "raytracer.events": ("raytracer.trace", "events", "sum", "count"),
    "raytracer.damping_points_per_ray": ("geometry.DampingProfile.values", "ray_points", "ratio", "points/ray"),
    "raytracer.covered_frac": ("raytracer.check_gcc", "covered", "ratio", "frac"),
    "raytracer.corner_rays": ("raytracer.trace", "corner", "sum", "count"),
    "raytracer.horizon_rays": ("raytracer.trace", "horizon", "sum", "count"),
    "raytracer.event_cap_rays": ("raytracer.trace", "error", "sum", "count"),
    "stokes.eigenpairs_s": ("stokes.stokes_eigenpairs", "time", "sum", "s"),
    "stokes.eigenpairs_self_s": ("stokes.stokes_eigenpairs", "self", "sum", "s"),
    "stokes.eigen_max_residual": ("stokes.stokes_eigenpairs", "max_residual", "max", "l2"),
    "stokes.leray_project_calls": ("stokes.leray_project", "calls", "sum", "count"),
    "stokes.leray_project_s": ("stokes.leray_project", "time", "sum", "s"),
    "stokes.damping_matrix_s": ("stokes.damping_matrix", "time", "sum", "s"),
    "stokes.reconstruct_calls": ("stokes.ModalSystem.reconstruct", "calls", "sum", "count"),
    "stokes.reconstruct_s": ("stokes.ModalSystem.reconstruct", "time", "sum", "s"),
    "evolution.evolve_s": ("evolution.evolve", "time", "sum", "s"),
    "evolution.evolve_steps": ("evolution.evolve", "steps", "sum", "count"),
    "evolution.gramian_s": ("evolution.observability_gramian", "time", "sum", "s"),
    "evolution.gramian_steps": ("evolution.observability_gramian", "steps", "sum", "count"),
    "evolution.balance_defect": ("evolution.evolve", "balance_defect", "max", "rel"),
    "spectral.spectrum_s": ("spectral.spectrum", "time", "sum", "s"),
    "spectral.resolvent_sweep_s": ("spectral.resolvent_sweep", "time", "sum", "s"),
    "spectral.resolvent_points": ("spectral.resolvent_sweep", "points", "sum", "count"),
    "spectral.quasimode_s": ("spectral.quasimode_diagnostics", "time", "sum", "s"),
    "spectral.semiclassical_s": ("spectral.semiclassical_constants", "time", "sum", "s"),
    "lame.evolve_lame_s": ("lame.evolve_lame", "time", "sum", "s"),
    "lame.evolve_lame_self_s": ("lame.evolve_lame", "self", "sum", "s"),
    "lame.steps": ("lame.evolve_lame", "steps", "sum", "count"),
    "lame.div_bound_ratio": ("lame.evolve_lame", "div_bound_ratio", "max", "ratio"),
}

RATIO_BASE = {"raytracer.damping_points_per_ray": ("raytracer.trace", "calls"),
              "raytracer.covered_frac": ("raytracer.check_gcc", "samples")}

_RULES = [(m, pattern, field, how) for m, (pattern, field, how, _) in SPEC.items()] + \
    [(f"{m}/base", pattern, field, "sum") for m, (pattern, field) in RATIO_BASE.items()]

_GCC = ("gcc_collar", "gcc_strip", "gcc_disk")
_MODAL = ("simulate", "observability", "spectrum", "resolvent")  # damped modal systems
_ALL = _GCC + ("trace",) + _MODAL + ("lame", "diagnostics")

# span pattern -> invocations whose traced run must record it, so that every
# per-layer metric is measured on the workloads that exercise its layer.
EXPECTED = {
    "cli.resolve_config": _ALL,
    "cli.run_*": _ALL,
    "reporting.write_*": _ALL,
    "geometry.DampingProfile.values": _GCC + ("trace",) + _MODAL + ("diagnostics",),
    "raytracer.trace": _GCC + ("trace",),
    "raytracer.check_gcc": _GCC,
    "stokes.stokes_eigenpairs": _MODAL + ("lame", "diagnostics"),
    "stokes.leray_project": _MODAL + ("lame", "diagnostics"),
    "stokes.damping_matrix": _MODAL + ("lame",),
    "stokes.ModalSystem.reconstruct": ("lame",),
    "evolution.evolve": ("simulate",),
    "evolution.observability_gramian": ("observability",),
    "spectral.spectrum": ("spectrum",),
    "spectral.resolvent_sweep": ("resolvent",),
    "spectral.quasimode_diagnostics": ("diagnostics",),
    "spectral.semiclassical_constants": ("diagnostics",),
    "lame.evolve_lame": ("lame",),
}


def missing_spans(invocation: str, spans: list) -> list:
    """Expected span patterns that a traced run of `invocation` did not record."""
    names = {s.name for s in spans}
    return [p for p, invs in EXPECTED.items()
            if invocation in invs and not any(fnmatch.fnmatchcase(n, p) for n in names)]


def _under(spans: list, i: int, name: str) -> bool:
    """Whether span i has an ancestor called `name`."""
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def _value(spans: list, i: int, field: str, child_time: float):
    s = spans[i]
    if field == "time":
        return s.end - s.start
    if field == "self":
        return s.end - s.start - child_time
    if field == "calls":
        return 1
    if field in ("corner", "horizon", "error"):
        return int(s.attrs["terminated"] == field)
    if field == "ray_points":
        return s.attrs["points"] if _under(spans, i, "raytracer.trace") else 0
    return s.attrs[field]


def invocation_sums(spans: list) -> dict:
    """Sums (or maxima) of every metric over the spans of one traced invocation."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    rules_of: dict = {}
    sums: dict = {}
    for i, s in enumerate(spans):
        rules = rules_of.get(s.name)
        if rules is None:
            rules = rules_of[s.name] = [r for r in _RULES if fnmatch.fnmatchcase(s.name, r[1])]
        for key, _, field, how in rules:
            value = _value(spans, i, field, child[i])
            sums[key] = max(sums.get(key, value), value) if how == "max" else sums.get(key, 0) + value
    return sums


def combine(per_invocation: list) -> dict:
    """Per-layer metrics of a workload from the sums of its invocations."""
    total: dict = {}
    for sums in per_invocation:
        for key, value in sums.items():
            if key in SPEC and SPEC[key][2] == "max":
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0) + value
    metrics = {}
    for metric, (_, _, how, _) in SPEC.items():
        value = total.get(metric, 0)
        if how == "ratio":
            base = total.get(f"{metric}/base", 0)
            value = value / base if base else 0
        metrics[metric] = value
    return metrics

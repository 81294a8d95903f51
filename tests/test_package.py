import importlib
import math
import sys
import types
from pathlib import Path

import pytest

import stokeswave

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The package's public names, those that load with it and those loaded on first use.
_PUBLIC = [
    "BoundaryCollar", "ConfigurationError", "DampingProfile", "DecayFit", "Disk", "DiskPatch",
    "EigenPair", "EnergyTrace", "GccReport", "GridSampler", "LameState", "LameTrace",
    "ModalState", "ModalSystem", "Modes", "NumericsError", "PreconditionError",
    "QuasimodeDiagnostics", "RandomSampler", "RayPath", "Rectangle", "SideStrip",
    "SpectrumReport", "StaggeredField", "StaggeredGrid", "build_modal_system", "check_gcc",
    "convergence_study", "damping_masses", "damping_matrix", "dissipation_check", "energy",
    "errors", "evolution", "evolve", "evolve_lame", "fit_decay", "geometry", "lame",
    "lame_energy", "leray_project", "make_damping", "make_domain", "modal_reference",
    "observability_gramian", "quasimode_diagnostics", "random_state", "raytracer",
    "resolvent_sweep", "schema", "semiclassical_constants", "spectral", "spectrum", "stokes",
    "stokes_eigenpairs", "trace", "undamped_modal_solution",
]


def test_all_names_resolve_to_their_home_objects():
    assert stokeswave.__all__ == _PUBLIC
    for name in stokeswave.__all__:
        value = getattr(stokeswave, name)
        if isinstance(value, types.ModuleType):
            assert value is sys.modules[f"stokeswave.{name}"]
        else:
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert stokeswave.StaggeredGrid is stokeswave.stokes.StaggeredGrid
    assert stokeswave.stokes_eigenpairs is stokeswave.stokes.stokes_eigenpairs
    assert stokeswave.lame_energy is stokeswave.lame.lame_energy


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stokeswave import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(_PUBLIC)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        stokeswave.no_such_name
    assert not hasattr(stokeswave, "no_such_name")
    assert not hasattr(stokeswave, "cli_main")


def test_the_benchmark_reads_the_lame_state_and_the_per_mode_residuals(monkeypatch, tmp_path):
    # perfbench/make_reference.py builds the lame initial state through
    # ModalSystem.reconstruct, StaggeredField.zeros, LameState and lame_energy,
    # tracing._eigen iterates the modes for their residuals, and tracing._lame
    # reads evolve_lame's positional (state, T, dt, reference) and the trace's E and div_norm
    monkeypatch.syspath_prepend(str(PERFBENCH))
    make_reference = importlib.import_module("make_reference")
    tracing = importlib.import_module("tracing")
    workloads = make_reference.workloads
    cfg = workloads.make_config("lame", 0, tmp_path, shrink=True)
    want = workloads.load_reference(shrink=True)["lame"]["E0"]
    assert math.isclose(make_reference._lame_e0(cfg), want, rel_tol=1e-12)
    modes = stokeswave.stokes_eigenpairs(stokeswave.StaggeredGrid(8, 8, 0.125), 6)
    assert tracing._eigen((), {}, modes) == {"max_residual": modes.residual.max()}
    ms = stokeswave.build_modal_system(modes.grid, 6)
    coeffs = [1.0, 0.5, 0.0, 0.2, 0.0, 0.0]
    state0 = stokeswave.LameState(ms.reconstruct(coeffs),
                                  stokeswave.StaggeredField.zeros(modes.grid), 1e-2)
    ref = stokeswave.modal_reference(ms, stokeswave.ModalState(coeffs, [0.0] * 6))
    T, dt = 0.3, 0.01
    probe = tracing._lame((state0, T, dt, ref), {}, stokeswave.evolve_lame(state0, T, dt, ref))
    assert probe["steps"] == round(T / dt) and probe["div_bound_ratio"] <= 1.0

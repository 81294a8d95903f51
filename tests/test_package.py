import sys
import types

import pytest

import stokeswave

# The package's public names, those that load with it and those loaded on first use.
_PUBLIC = [
    "BoundaryCollar", "ConfigurationError", "DampingProfile", "DecayFit", "Disk", "DiskPatch",
    "EigenPair", "EnergyTrace", "GccReport", "GridSampler", "LameState", "LameTrace",
    "ModalState", "ModalSystem", "Modes",
    "NumericsError", "PhasePoint", "PreconditionError", "PressureField",
    "QuasimodeDiagnostics", "RandomSampler", "RayPath", "Rectangle", "SideStrip",
    "SpectrumReport", "StaggeredField", "StaggeredGrid", "advance_free", "boundary_hit",
    "build_modal_system", "check_gcc", "convergence_study", "damping_masses", "damping_matrix",
    "dirichlet_energy", "dissipation_check", "divergence", "energy", "errors", "evolution",
    "evolve", "evolve_lame", "fit_decay", "geometry", "glide", "gradient", "lame",
    "lame_energy", "leray_project", "make_damping", "make_domain", "modal_reference",
    "observability_gramian", "quasimode_diagnostics", "random_divergence_free", "random_state",
    "raytracer", "reflect", "resolvent_sweep", "schema", "semiclassical_constants", "spectral",
    "spectrum", "stokes", "stokes_apply", "stokes_eigenpairs", "trace",
    "undamped_modal_solution", "vector_laplacian",
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

"""Laboratory for damped wave-type Stokes dynamics on planar domains.

Submodules: geometry (domains and damping profiles), raytracer (trace, the
generalized ray flow, and check_gcc, its coverage check; the ray moves have no
public entry point of their own), stokes (staggered grid operators on flat face
vectors, projector, eigenmodes), evolution (modal dynamics, energy,
observability), spectral (damped generator spectra and mode diagnostics), lame
(penalized-elasticity limit), schema (config tables and their validator), cli
(config-driven experiment runner).

The ray half (geometry, raytracer, schema, reporting, cli) needs only numpy;
geometry and raytracer load with the package.  The grid half (stokes,
evolution, spectral, lame) needs scipy and loads on first use of one of its
names, or when the CLI resolves the config of a grid experiment.  Library use
leaves numpy's and scipy's BLAS thread pools as they are; only the CLI sets them.
"""

from ._version import __version__
from .errors import ConfigurationError, NumericsError, PreconditionError
from .geometry import (BoundaryCollar, DampingProfile, Disk, DiskPatch, Rectangle, SideStrip,
                       make_damping, make_domain)
from .raytracer import GccReport, GridSampler, RandomSampler, RayPath, check_gcc, trace

# grid-half module or public name -> its home module, imported by __getattr__ on first access
_HOME = {name: module for module, names in {
    "stokes": "EigenPair ModalSystem Modes StaggeredField StaggeredGrid build_modal_system "
              "damping_masses damping_matrix leray_project stokes_eigenpairs",
    "evolution": "DecayFit EnergyTrace ModalState dissipation_check energy evolve fit_decay "
                 "observability_gramian random_state undamped_modal_solution",
    "spectral": "QuasimodeDiagnostics SpectrumReport quasimode_diagnostics resolvent_sweep "
                "semiclassical_constants spectrum",
    "lame": "LameState LameTrace convergence_study evolve_lame lame_energy modal_reference",
}.items() for name in [module, *names.split()]}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_HOME))


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOME[name]}")
    return module if name == _HOME[name] else getattr(module, name)

"""Laboratory for damped wave-type Stokes dynamics on planar domains.

Submodules: geometry (domains, damping profiles, boundary classification),
raytracer (generalized ray flow and coverage checking), stokes (staggered
grid calculus, projector, eigenmodes), evolution (modal dynamics, energy,
observability), spectral (damped generator spectra and mode diagnostics),
lame (penalized-elasticity limit), schema (config tables and their validator),
cli (config-driven experiment runner).
"""

from ._version import __version__
from .errors import (ClassificationError, ConfigurationError, DomainError, NumericsError,
                     PreconditionError)
from .geometry import (BoundaryCollar, BoundaryRegime, DampingProfile, Disk, DiskPatch,
                       Rectangle, SideStrip, classify_boundary_point, eval_damping,
                       make_damping, make_domain)
from .raytracer import (GccReport, GridSampler, PhasePoint, RandomSampler, RayPath,
                        advance_free, boundary_hit, check_gcc, glide, reflect, trace)
from .stokes import (EigenPair, ModalSystem, PressureField, StaggeredField, StaggeredGrid,
                     build_modal_system, damping_masses, damping_matrix, dirichlet_energy,
                     divergence, gradient, leray_project, random_divergence_free,
                     stokes_apply, stokes_eigenpairs, vector_laplacian)
from .evolution import (DecayFit, EnergyTrace, ModalState, dissipation_check, energy,
                        evolve, fit_decay, observability_gramian, random_state,
                        undamped_modal_solution)
from .spectral import (QuasimodeDiagnostics, SpectrumReport, quasimode_diagnostics,
                       resolvent_sweep, semiclassical_constants, spectrum)
from .lame import LameState, LameTrace, convergence_study, evolve_lame, lame_energy, modal_reference

__all__ = [name for name in dir() if not name.startswith("_")]

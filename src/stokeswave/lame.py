"""Penalized elastic dynamics relaxing to the divergence-constrained system.

The displacement field is not divergence-free here; a stiff penalty term
(1/eps) grad(div u) drives the divergence to zero as eps shrinks.  The
penalized energy adds (1/(2 eps)) ||div u||^2 to the usual kinetic plus
gradient energy, and rearranging its conservation gives the a priori
bound ||div u(t)|| <= sqrt(2 eps E(0)) that the study verifies.

The dynamics are u'' = L_eps u with L_eps = L + (1/eps) G D, and time
stepping is the implicit midpoint rule on the first-order system
(u, w)' = (w, L_eps u), which conserves the penalized energy exactly;
explicit treatment of the penalty would force dt = O(sqrt(eps)).  One step
reads u1 - u0 = (dt/2)(w0 + w1) and w1 - w0 = (dt/2) L_eps (u0 + u1).  The
first gives w1 = 2 (u1 - u0)/dt - w0, and putting it into the second gives,
with c = dt^2/4,

    (I - c L_eps) u1 = (I + c L_eps) u0 + dt w0,

the average-acceleration Newmark scheme (N. M. Newmark, J. Eng. Mech. Div.
ASCE 85, 1959).  So one factorization per (eps, dt) of a matrix on the
displacement alone replaces the solve on (u, w).  The rows of L and of G are
zero on the wall faces (the no-penetration faces of the boundary), so there
w' = 0, and wall faces that start at zero stay zero.  evolve_lame rejects a
state with a nonzero wall face (ModalSystem.reconstruct gives exact zeros
there), so only the interior faces are solved for, and the interior block
I - c L_eps,II is symmetric positive definite.

That block couples each face to its stencil neighbours only, so the
reverse Cuthill-McKee ordering (E. Cuthill and J. McKee, Proc. 24th ACM
Nat. Conf., 1969) makes it a band of half-width bw <= 2 min(nx, ny) + 1
(about min(nx, ny) at eps = inf), held in (bw + 1) n numbers for n interior
faces and factored by LAPACK's band Cholesky (A. George and J. W. H. Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981).  A band
solve costs O(n bw), which grows as nx^3, against about n log n for a
sparse LU.  So the band wins on small grids: against SuperLU, one run took
0.6-0.9 of the time at nx = 32, 0.75-0.9 at 64, 1.0-1.1 at 80 and 1.3-1.4
at 128 (one BLAS thread, 2-core x86_64), a crossover near nx = 80.

eps = math.inf switches the penalty off, giving the plain componentwise
wave dynamics used as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConfigurationError, NumericsError, PreconditionError
from .evolution import ModalState, _step_count, undamped_modal_solution
from .stokes import ModalSystem, StaggeredField, StaggeredGrid, _ops

# largest energy drift max_t |E(t) - E0| / E0 of a convergence_study row: the scheme
# conserves E exactly, so a larger drift means the run lost its digits (tiny eps)
_DRIFT_TOL = 1e-3


@dataclass
class LameState:
    """Displacement, velocity and penalty parameter at t = 0."""

    u: StaggeredField
    w: StaggeredField
    eps: float

    def __post_init__(self):
        if not self.eps > 0:
            raise ConfigurationError("penalty parameter eps must be positive")
        if self.u.grid != self.w.grid:
            raise ConfigurationError("displacement and velocity grids differ")


@dataclass
class LameTrace:
    """Per-step (t, E, ||div u||, ||u - reference||)."""

    t: np.ndarray
    E: np.ndarray
    div_norm: np.ndarray
    err_norm: np.ndarray


def lame_energy(state: LameState) -> float:
    """0.5 (||w||^2 + ||grad u||^2 + (1/eps) ||div u||^2)."""
    return _energy_and_div(state.u.grid, state.eps, state.u.flat(), state.w.flat())[0]


def _energy_and_div(grid: StaggeredGrid, eps: float, uf, wf) -> Tuple[float, np.ndarray]:
    """lame_energy of flat displacement and velocity, and the cell divergence of uf."""
    ops = _ops(grid)
    grad_part = float(uf @ (-(ops.L @ uf)))
    div = ops.D @ uf
    pen = 0.0 if math.isinf(eps) else float(div @ div) / eps
    return 0.5 * grid.h ** 2 * (float(wf @ wf) + grad_part + pen), div


def _penalized_laplacian(grid: StaggeredGrid, eps: float) -> sp.csr_matrix:
    """L_eps = L + (1/eps) G D on all faces (L for eps = inf); its wall rows are zero."""
    ops = _ops(grid)
    return ops.L if math.isinf(eps) else (ops.L + (1.0 / eps) * (ops.G @ ops.D)).tocsr()


def _upper_band(a: sp.csr_matrix) -> np.ndarray:
    """The upper band of the symmetric a in LAPACK layout: ab[bw + i - j, j] = a[i, j]."""
    upper = sp.triu(a, format="coo")
    offset = upper.col - upper.row
    ab = np.zeros((int(offset.max()) + 1, a.shape[0]))
    ab[ab.shape[0] - 1 - offset, upper.col] = upper.data
    return ab


def evolve_lame(state0: LameState, T: float, dt: float,
                reference: Callable[[float], np.ndarray]) -> LameTrace:
    """Integrate the penalized system for n = round(T/dt) midpoint steps from
    t = 0, sampling every step at t = k dt.

    A nonzero wall face of u or w raises PreconditionError.  Each step is the
    Newmark form of the module docstring on the interior faces: one band
    Cholesky factorization (dpbtrf of the (bw + 1, n) upper band in reverse
    Cuthill-McKee order, see the module docstring) of the symmetric
    I - (dt^2/4) L_eps restricted to them.  The loop runs in band order and
    scatters back to face order to sample.  A failed factorization, or an
    energy, divergence norm or error norm that is not finite, raises
    NumericsError.

    The reference is a callable t -> flat face vector (n_faces,) on the same
    grid (e.g. modal_reference); the trace carries the deviation from it.
    """
    steps = _step_count(T, dt)
    grid = state0.u.grid
    inner = _ops(grid).interior
    u, w = state0.u.flat(), state0.w.flat()
    if u[~inner].any() or w[~inner].any():
        raise PreconditionError("evolve_lame needs zero wall faces in u and w")
    l_ii = _penalized_laplacian(grid, state0.eps)[inner][:, inner]
    c = 0.25 * dt * dt
    eye = sp.identity(l_ii.shape[0], format="csr")
    a_minus = (eye - c * l_ii).tocsr()
    perm = reverse_cuthill_mckee(a_minus, symmetric_mode=True)
    factor, info = dpbtrf(_upper_band(a_minus[perm][:, perm]))
    if info != 0:
        raise NumericsError(f"sparse factorization failed (eps={state0.eps:g}, dt={dt:g}): "
                            f"pbtrf info {info}")
    a_plus = (eye + c * l_ii)[perm][:, perm]
    order = np.flatnonzero(inner)[perm]

    def observe(u, w, t):
        e, div = _energy_and_div(grid, state0.eps, u, w)
        dn = grid.h * float(np.linalg.norm(div))
        err = grid.h * float(np.linalg.norm(u - reference(t)))
        if not (math.isfinite(e) and math.isfinite(dn) and math.isfinite(err)):
            raise NumericsError(f"non-finite Lame trace at t={t:g} "
                                f"(eps={state0.eps:g}, dt={dt:g})")
        return t, e, dn, err

    samples = [observe(u, w, 0.0)]
    ui, wi = u[order], w[order]
    for k in range(1, steps + 1):
        u1 = dpbtrs(factor, a_plus @ ui + dt * wi)[0]
        wi = 2.0 * (u1 - ui) / dt - wi
        ui = u1
        u[order], w[order] = ui, wi
        samples.append(observe(u, w, k * dt))
    return LameTrace(*(np.array(column) for column in zip(*samples)))


def modal_reference(ms: ModalSystem, state0: ModalState) -> Callable[[float], np.ndarray]:
    """Closed-form modal solution of the constrained system, t -> flat face vector."""
    sol = undamped_modal_solution(ms, state0)
    return lambda t: ms.modes.phi @ sol(t).u


def convergence_study(u0: StaggeredField, eps_list, T: float, dt: float,
                      reference: Callable[[float], np.ndarray]
                      ) -> List[Tuple[float, float, float, float, float]]:
    """Rows (eps, max_t ||div u_eps||, max_t ||u_eps - reference||, E0, energy drift),
    eps descending, each over every step of evolve_lame from u0 at rest.

    E0 is the penalized energy at the start, so each row's bound
    max_div <= sqrt(2 eps E0) can be checked from the row alone.  The drift
    max_t |E(t) - E0| / E0 (0 when E0 = 0) is roundoff for an exactly
    conservative scheme, so a drift above _DRIFT_TOL means the run lost its
    digits and raises NumericsError.
    """
    eps_list = [float(e) for e in eps_list]
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps_list must be strictly descending")
    if np.shape(reference(0.0)) != (u0.grid.n_faces,):
        raise ConfigurationError("reference solution lives on a different grid")
    rows = []
    for eps in eps_list:
        trace = evolve_lame(LameState(u0, StaggeredField.zeros(u0.grid), eps), T, dt, reference)
        e0 = float(trace.E[0])
        drift = float(np.abs(trace.E - e0).max()) / e0 if e0 > 0 else 0.0
        if drift > _DRIFT_TOL:
            raise NumericsError(f"energy drift {drift:.3g} exceeds {_DRIFT_TOL:g} at "
                                f"eps={eps:g}: the penalized system lost its digits")
        rows.append((eps, float(trace.div_norm.max()), float(trace.err_norm.max()), e0, drift))
    return rows

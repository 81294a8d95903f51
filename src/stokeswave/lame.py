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
w' = 0 and the midpoint rule moves a wall face affinely,
u_W(t) = u_W(0) + t w_W(0).  Only the interior faces are solved for, with
the wall faces' pull c L_IW (u_W,k + u_W,k+1) on the right-hand side, and
the interior block I - c L_eps,II is symmetric positive definite.
StaggeredField zeroes the wall faces, but fields whose wall arrays are
written afterwards are stepped the same way.

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
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import ConfigurationError, NumericsError
from .evolution import ModalState, undamped_modal_solution
from .stokes import ModalSystem, StaggeredField, StaggeredGrid, _ops


@dataclass
class LameState:
    """Displacement, velocity, penalty parameter, time."""

    u: StaggeredField
    w: StaggeredField
    eps: float
    t: float = 0.0

    def __post_init__(self):
        if not self.eps > 0:
            raise ConfigurationError("penalty parameter eps must be positive")
        if self.u.grid != self.w.grid:
            raise ConfigurationError("displacement and velocity grids differ")


@dataclass
class LameTrace:
    """Sampled (t, E, ||div u||, ||u - reference||); err is NaN without a reference."""

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
                reference: Optional[Callable[[float], np.ndarray]] = None,
                sample_every: int = 1) -> LameTrace:
    """Integrate the penalized system for n = round(T/dt) midpoint steps,
    sampling the start, every `sample_every`-th step and the last one.

    Each step is the Newmark form of the module docstring on the interior
    faces: one band Cholesky factorization (dpbtrf of the (bw + 1, n) upper
    band in reverse Cuthill-McKee order, see the module docstring) of the
    symmetric I - (dt^2/4) L_eps restricted to them, and wall faces moved as
    u_W + t w_W.  The loop runs in band order and scatters back to face order
    at a sample only.  A failed factorization, or a sampled energy,
    divergence norm or (with a reference) error norm that is not finite,
    raises NumericsError.

    The reference, when given, is a callable t -> flat face vector
    (n_faces,) on the same grid (e.g. modal_reference); the trace then
    carries the deviation from it.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if T < dt:
        raise ConfigurationError("T must be at least dt")
    grid = state0.u.grid
    inner = _ops(grid).interior
    wall = ~inner
    rows = _penalized_laplacian(grid, state0.eps)[inner]
    l_ii, l_iw = rows[:, inner], rows[:, wall]
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
        if reference is None:
            err = math.nan
        else:
            err = grid.h * float(np.linalg.norm(u - reference(t)))
        if not (math.isfinite(e) and math.isfinite(dn)
                and (reference is None or math.isfinite(err))):
            raise NumericsError(f"non-finite Lame trace at t={t:g} "
                                f"(eps={state0.eps:g}, dt={dt:g})")
        return t, e, dn, err

    steps = int(round(T / dt))
    u, w = state0.u.flat(), state0.w.flat()
    samples = [observe(u, w, state0.t)]
    u_wall, w_wall = u[wall], w[wall]
    # wall pull of step k: c L_IW (u_W,k-1 + u_W,k) = pull_u + (2k - 1) pull_w
    l_iw = l_iw[perm]
    pull_u, pull_w = 2.0 * c * (l_iw @ u_wall), c * dt * (l_iw @ w_wall)
    ui, wi = u[order], w[order]
    for k in range(1, steps + 1):
        u1 = dpbtrs(factor, a_plus @ ui + dt * wi + pull_u + (2 * k - 1) * pull_w)[0]
        wi = 2.0 * (u1 - ui) / dt - wi
        ui = u1
        if k % sample_every == 0 or k == steps:
            u[order], w[order] = ui, wi
            u[wall] = u_wall + (k * dt) * w_wall
            samples.append(observe(u, w, state0.t + k * dt))
    return LameTrace(*(np.array(column) for column in zip(*samples)))


def modal_reference(ms: ModalSystem, state0: ModalState) -> Callable[[float], np.ndarray]:
    """Closed-form modal solution of the constrained system, t -> flat face vector."""
    sol = undamped_modal_solution(ms, state0)
    return lambda t: ms.modes.phi @ sol(t).u


def convergence_study(u0: StaggeredField, w0: StaggeredField, eps_list, T: float, dt: float,
                      reference: Callable[[float], np.ndarray],
                      sample_every: int = 1) -> List[Tuple[float, float, float, float, float]]:
    """Rows (eps, max_t ||div u_eps||, max_t ||u_eps - reference||, E0, energy drift),
    eps descending.

    E0 is the penalized energy at the start, so each row's bound
    max_div <= sqrt(2 eps E0) can be checked from the row alone.  The drift
    max_t |E(t) - E0| / E0 (0 when E0 = 0) is roundoff for an exactly
    conservative scheme, so a large one flags a run that lost its digits.
    """
    eps_list = [float(e) for e in eps_list]
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps_list must be strictly descending")
    if u0.grid != w0.grid:
        raise ConfigurationError("initial data grids differ")
    if np.shape(reference(0.0)) != (u0.grid.n_faces,):
        raise ConfigurationError("reference solution lives on a different grid")
    rows = []
    for eps in eps_list:
        trace = evolve_lame(LameState(u0, w0, eps), T, dt,
                            reference=reference, sample_every=sample_every)
        e0 = float(trace.E[0])
        drift = float(np.abs(trace.E - e0).max()) / e0 if e0 > 0 else 0.0
        rows.append((eps, float(trace.div_norm.max()), float(trace.err_norm.max()), e0, drift))
    return rows

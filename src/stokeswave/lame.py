"""Penalized elastic dynamics relaxing to the divergence-constrained system.

The displacement field is not divergence-free here; a stiff penalty term
(1/eps) grad(div u) drives the divergence to zero as eps shrinks.  The
penalized energy adds (1/(2 eps)) ||div u||^2 to the usual kinetic plus
gradient energy, and rearranging its conservation gives the a priori
bound ||div u(t)|| <= sqrt(2 eps E(0)) that the study verifies.

Time stepping is implicit midpoint with the penalty term inside the
implicit solve (a direct sparse factorization per (eps, dt)); explicit
treatment would force dt = O(sqrt(eps)) and break exact conservation.
eps = math.inf switches the penalty off, giving the plain componentwise
wave dynamics used as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

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


def evolve_lame(state0: LameState, T: float, dt: float,
                reference: Optional[Callable[[float], StaggeredField]] = None,
                sample_every: int = 1) -> LameTrace:
    """Integrate the penalized system; samples every `sample_every` steps.

    The reference, when given, is a callable t -> StaggeredField on the
    same grid (e.g. modal_reference); the trace then carries the deviation
    from it.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if T < dt:
        raise ConfigurationError("T must be at least dt")
    grid = state0.u.grid
    ops = _ops(grid)
    lop = ops.L if math.isinf(state0.eps) else (ops.L + (1.0 / state0.eps) * (ops.G @ ops.D)).tocsr()
    nf = grid.n_faces
    eye = sp.identity(nf, format="csr")
    m_big = sp.bmat([[None, eye], [lop, None]], format="csr")
    a_minus = (sp.identity(2 * nf, format="csr") - 0.5 * dt * m_big).tocsc()
    a_plus = (sp.identity(2 * nf, format="csr") + 0.5 * dt * m_big).tocsr()
    try:
        solver = splu(a_minus)
    except RuntimeError as exc:
        raise NumericsError(
            f"sparse factorization failed (eps={state0.eps:g}, dt={dt:g}): {exc}") from exc

    def observe(x, t):
        e, div = _energy_and_div(grid, state0.eps, x[:nf], x[nf:])
        dn = grid.h * float(np.linalg.norm(div))
        if reference is None:
            err = math.nan
        else:
            err = grid.h * float(np.linalg.norm(x[:nf] - reference(t).flat()))
        return t, e, dn, err

    steps = int(round(T / dt))
    x = np.concatenate([state0.u.flat(), state0.w.flat()])
    samples = [observe(x, state0.t)]
    for k in range(1, steps + 1):
        x = solver.solve(a_plus @ x)
        if k % sample_every == 0 or k == steps:
            samples.append(observe(x, state0.t + k * dt))
    return LameTrace(*(np.array(column) for column in zip(*samples)))


def modal_reference(ms: ModalSystem, state0: ModalState) -> Callable[[float], StaggeredField]:
    """Grid-reconstructed closed-form modal solution of the constrained system."""
    sol = undamped_modal_solution(ms, state0)
    return lambda t: ms.reconstruct(sol(t).u)


def convergence_study(u0: StaggeredField, w0: StaggeredField, eps_list, T: float, dt: float,
                      reference: Callable[[float], StaggeredField],
                      sample_every: int = 1) -> List[Tuple[float, float, float]]:
    """Rows (eps, max_t ||div u_eps||, max_t ||u_eps - reference||), eps descending."""
    eps_list = [float(e) for e in eps_list]
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigurationError("eps_list must be strictly descending")
    if u0.grid != w0.grid:
        raise ConfigurationError("initial data grids differ")
    if reference(0.0).grid != u0.grid:
        raise ConfigurationError("reference solution lives on a different grid")
    rows = []
    for eps in eps_list:
        trace = evolve_lame(LameState(u0.copy(), w0.copy(), eps), T, dt,
                            reference=reference, sample_every=sample_every)
        rows.append((eps, float(trace.div_norm.max()), float(trace.err_norm.max())))
    return rows

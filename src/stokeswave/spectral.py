"""Damped-generator spectra, energy-weighted resolvent sweeps, and
semiclassical diagnostics of the eigenmodes.

This module is the home of the damped generator.  In energy coordinates
(sqrt(lambda) u, u') it is A = [[0, Omega], [-Omega, -B]] with
Omega = diag(sqrt(lambda)), written without a division so that zero modes
stay finite; the energy is half the Euclidean norm squared of the state.
Its spectral abscissa predicts the energy decay rate (energy is quadratic in
the semigroup, hence the factor two).  The resolvent is measured along the
imaginary axis in that norm, because the decay criterion lives there.  The
sweep reduces A to complex Schur form T = Z^H A Z once; since Z is unitary,
smin(A - i*sigma) = smin(T - i*sigma), and each sigma costs a few
triangular solves of inverse Lanczos instead of a dense SVD.  A row of the
sweep depends on its sigma alone, so resolvent_sweep deals the sigma grid
out, interleaved, to forked processes, one per CPU the process may use.

The mode diagnostics operate at each mode's semiclassical scale
h = 1/sqrt(lambda): boundary flux of h * (normal derivative), the
normal-trace identity defect, pressure norms of the h-scaled projection
pressure, and the observability constant 1/||a^(1/2) phi||.  They read the
arrays of a stokes.Modes and return arrays over the modes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstebz, dstein

from .errors import ConfigurationError, NumericsError
from .stokes import Modes, _ops

# Lanczos stops once the residual of its largest Ritz value is this share of it.
_LANCZOS_TOL = 1e-12
# An O(j) estimate of that residual hands a step to eigh's exact test within
# this factor of the tolerance.  Near it the estimate agreed with eigh's to
# 8e-5 relative on the benchmark sweep; the two differ by about 1e-4 over the
# relative gap of the largest Ritz value, so a factor 2 covers gaps to 1e-4.
_SCREEN = 2.0
# Fewest sigma rows per process of a resolvent sweep (resolvent_sweep)
_ROWS_PER_JOB = 48
# Real parts within this share of the spectral radius are tied in the eigenvalue order.
_TIE_TOL = 1e-10


@dataclass
class SpectrumReport:
    """Eigenvalues of the damped generator and derived decay data."""

    eigenvalues: np.ndarray
    spectral_abscissa: float
    predicted_decay_rate: float   # energy decay rate 2|abscissa|, 0 if not decaying


@dataclass
class QuasimodeDiagnostics:
    """Boundary-trace and observability diagnostics, one (k,) array entry per mode."""

    h: np.ndarray
    boundary_flux_norm: np.ndarray
    normal_component_defect: np.ndarray
    pressure_norms: Tuple[np.ndarray, np.ndarray]   # interior, boundary
    obs_constant: np.ndarray


def generator_matrix(lambdas: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The damped generator A = [[0, Omega], [-Omega, -B]], Omega = diag(sqrt(lambdas))."""
    lambdas = np.asarray(lambdas, dtype=float)
    if np.any(lambdas < 0):
        raise ConfigurationError("damped generator needs lambdas >= 0")
    omega = np.diag(np.sqrt(lambdas))
    return np.block([[np.zeros_like(omega), omega], [-omega, -np.asarray(b, dtype=float)]])


def spectrum(ms) -> SpectrumReport:
    """Dense eigensolve of the generator of ms, eigenvalues in ascending real part.

    A run of real parts each within _TIE_TOL * max|z| of the next is one group,
    ordered by imaginary part, so roundoff cannot order a multiple eigenvalue.
    """
    try:
        vals = np.linalg.eigvals(generator_matrix(ms.lambdas, ms.B))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"generator eigensolve failed: {exc}") from exc
    vals = vals[np.argsort(vals.real, kind="stable")]
    group = np.concatenate([[0], np.cumsum(np.diff(vals.real) > _TIE_TOL * np.abs(vals).max())])
    vals = vals[np.lexsort((vals.imag, group))]
    abscissa = float(vals.real.max())
    return SpectrumReport(vals, abscissa, 2.0 * abs(abscissa) if abscissa < 0 else 0.0)


def resolvent_sweep(ms, sigma_grid) -> np.ndarray:
    """Smallest energy-norm singular value of (generator of ms - i*sigma) per sigma.

    Returns an array of rows (sigma, smin); the energy-norm resolvent norm
    is 1/smin wherever smin > 0 (smin = 0 flags a spectral point on the
    axis and no division is performed here).

    smin is that of A - i*sigma, with A = generator_matrix(lambda, B) the
    generator in energy coordinates (module docstring).  It is read off the
    complex Schur factor T of A, computed once (real Schur form, then
    rsf2csf).  Per sigma, Lanczos with full reorthogonalization runs on
    (T - i*sigma)^-1 (T - i*sigma)^-H, applied by two triangular solves, and
    smin = theta^(-1/2) for its largest Ritz value theta.  It stops once the
    Ritz residual beta_j*|e_j^T y| is at most 1e-12*theta, which puts theta
    within a relative 1e-12 of an eigenvalue, or at the full dimension, where
    Lanczos is exact.  Each step estimates that residual in O(j), from
    bisection (LAPACK dstebz) for the largest eigenvalue of the tridiagonal
    and inverse iteration (dstein) for the last entry of its eigenvector.
    Only a step whose estimate comes within a factor _SCREEN of the tolerance
    gets the stopping test itself, on a dense eigh of the tridiagonal, and
    the returned theta is that eigh's: one per sigma, plus any step the
    estimate passes and eigh does not.  The start vector comes from a fixed
    seed and is the same for every sigma, so a row depends on its sigma
    alone and reruns are byte-identical.

    So the grid is split across processes, and a row has the same bits in
    whichever computes it.  jobs = min(len(os.sched_getaffinity(0)),
    count // _ROWS_PER_JOB) workers each get at least _ROWS_PER_JOB rows:
    worker k takes sigma_grid[k::jobs], and the rows are scattered back in
    grid order.  Rows cost unevenly, so the split interleaves: on the
    benchmark sweep (A of order m = 200, 200 sigma in [0, 60]) Lanczos took
    5 to 47 steps per sigma, and the upper half of the grid held 73 % of
    them.  The caller sweeps share 0 itself and hands shares 1 to jobs - 1 to
    a pool of processes started by "fork", which need no fresh import of
    scipy; every worker is joined before the sweep returns, also when one
    raises.  The pool costs about 15 ms (fork 5-11 ms, worker start 11-14 ms,
    join 3 ms).  On two CPUs it broke even against one process between 80
    and 96 rows at m = 200, below 64 at m = 80 and between 96 and 128 at
    m = 12 (medians of 31 alternating calls, one OpenBLAS thread, 2-core
    x86_64); hence 48 rows per worker.  One worker forks nothing: on one CPU,
    below 2 * _ROWS_PER_JOB sigma, or without os.sched_getaffinity or the
    "fork" start method.  Restricting the CPU affinity (taskset -c 0) gives
    the serial sweep.  From Python 3.12 os.fork warns (DeprecationWarning)
    in a process with threads, as a grid run is once OpenBLAS is loaded.

    Zero modes: lambda = 0 gives a zero row and column in A, which leave the
    singular value |sigma| of A - i*sigma.  So smin <= |sigma| and
    smin(0) = 0, flagging the generator's eigenvalue 0.  A shift that makes
    T - i*sigma exactly singular, or so near singular that its solves
    overflow (smin below about 1e-154*(max|T| + |sigma|)), gives smin = 0.
    """
    t = scipy.linalg.rsf2csf(*scipy.linalg.schur(generator_matrix(ms.lambdas, ms.B)))[0]
    t = np.asfortranarray(t)   # LAPACK's order, so that trtrs copies no matrix
    sigmas = np.asarray(sigma_grid, dtype=float)
    jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    jobs = min(jobs, sigmas.size // _ROWS_PER_JOB)
    if jobs > 1:
        # imported here, so that the set-up of a grid run does not pay for it
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            jobs = 1
    if jobs < 2:
        return _sweep_rows(t, sigmas)
    from concurrent.futures import ProcessPoolExecutor
    rows = np.empty((sigmas.size, 2))
    with ProcessPoolExecutor(jobs - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        shares = [pool.submit(_sweep_rows, t, sigmas[k::jobs]) for k in range(1, jobs)]
        rows[0::jobs] = _sweep_rows(t, sigmas[0::jobs])
        for k, share in enumerate(shares, 1):
            rows[k::jobs] = share.result()
    return rows


def _sweep_rows(t: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    """Rows (sigma, smin) of resolvent_sweep for each of sigmas, from the Schur factor t."""
    diag = t.diagonal()
    rng = np.random.default_rng(0)
    start = rng.standard_normal(diag.size) + 1j * rng.standard_normal(diag.size)
    start /= np.linalg.norm(start)
    size = np.abs(t).max()
    shifted = np.empty_like(t)
    # numpy divides a complex by the real unit as a product with 1/unit, so a
    # product on the float parts gives t / unit, bit for bit up to the sign of
    # a zero, which no solve divides by
    parts, shifted_parts = t.T.view(float), shifted.T.view(float)
    work = _lanczos_work(diag.size)
    rows = np.empty((sigmas.size, 2))
    for k, sigma in enumerate(sigmas):
        sigma = float(sigma)
        # solve with entries of order one, so the Lanczos vectors, of order
        # smin^-2, overflow only where smin is below about 1e-154 of them; the
        # floor keeps 1/unit finite when A = 0 and sigma is subnormal
        unit = max(size + abs(sigma), np.finfo(float).tiny)
        np.multiply(parts, 1.0 / unit, out=shifted_parts)
        np.fill_diagonal(shifted, (diag - 1j * sigma) / unit)
        rows[k] = (sigma, unit * _triangular_smin(shifted, start, work))
    return rows


def _triangular_smin(t: np.ndarray, start: np.ndarray, work) -> float:
    """smin of the upper-triangular m x m t by inverse Lanczos (see resolvent_sweep).

    work is _lanczos_work(m), whose contents are overwritten.
    """
    trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (t,))
    m = t.shape[0]
    q, qc, alpha, beta = work
    q[0] = start
    np.conjugate(start, out=qc[0])
    for j in range(m):
        z, info = trtrs(t, q[j], trans=2)
        if info == 0:
            w, info = trtrs(t, z)
        if info > 0:
            return 0.0
        alpha[j] = np.vdot(q[j], w).real
        if not math.isfinite(alpha[j]):
            return 0.0
        for _ in range(2):
            w -= (qc[:j + 1] @ w) @ q[:j + 1]
        beta[j] = scipy.linalg.norm(w, check_finite=False)   # BLAS nrm2 does not overflow
        if j + 1 == m or _near_converged(alpha[:j + 1], beta[:j + 1]):
            tri = np.diag(alpha[:j + 1])
            np.fill_diagonal(tri[1:], beta[:j])
            np.fill_diagonal(tri[:, 1:], beta[:j])
            theta, y = np.linalg.eigh(tri)
            if beta[j] * abs(y[-1, -1]) <= _LANCZOS_TOL * theta[-1] or j + 1 == m:
                return float(theta[-1] ** -0.5)
        np.divide(w, beta[j], out=q[j + 1])
        np.conjugate(q[j + 1], out=qc[j + 1])


def _lanczos_work(m: int):
    """Lanczos vectors and their conjugates (rows), and the alpha and beta vectors."""
    return (np.empty((m, m), dtype=complex), np.empty((m, m), dtype=complex),
            np.empty(m), np.empty(m))


def _near_converged(alpha: np.ndarray, beta: np.ndarray) -> bool:
    """Whether the Lanczos stopping test may pass on the tridiagonal of alpha and beta[:-1].

    Estimates the residual beta[-1]*|y_last| of the largest Ritz value in O(j),
    by bisection (dstebz) and inverse iteration (dstein), and says True when it
    is within _SCREEN times the tolerance, so that the caller's eigh decides.
    A LAPACK failure (dstebz squares the off-diagonal, which overflows above
    about 1e154) or a Ritz value that is not finite and positive also gives True.
    """
    n, e = alpha.size, beta[:-1]
    if n == 1:
        theta, y_last = alpha[0], 1.0
    else:
        _, w, block, split, info = dstebz(alpha, e, 2, 0.0, 0.0, n, n, 0.0, b"B")
        theta = w[0]
        if info != 0 or not 0.0 < theta < math.inf:
            return True
        y, info = dstein(alpha, e, w[:1], block, split)
        if info != 0:
            return True
        y_last = y[-1, 0]
    # not >, so that a NaN estimate passes too
    return not beta[-1] * abs(y_last) > _SCREEN * _LANCZOS_TOL * theta


def semiclassical_constants(modes: Modes, damping_masses: np.ndarray) -> np.ndarray:
    """Rows (h, C) of the modes with h = lambda^(-1/2), C = ||phi|| / ||a^(1/2) phi||.

    damping_masses[k] is ||a^(1/2) phi_k||^2 (stokes.damping_masses).  Modes
    invisible to the damping report C = inf, flagging a discrete
    unique-continuation violation.  Sorted by ascending h, ties in mode order.
    """
    h = modes.lambdas ** -0.5
    return np.column_stack([h, _obs_constant(modes, damping_masses)])[h.argsort(kind="stable")]


def _obs_constant(modes: Modes, damping_masses: np.ndarray) -> np.ndarray:
    norms = modes.grid.h * np.sqrt(_squares([modes.phi]))
    return np.divide(norms, np.sqrt(damping_masses), out=np.full_like(norms, np.inf),
                     where=damping_masses != 0.0)


def _squares(arrays) -> np.ndarray:
    """Per-mode sums of squares over a list of (n, k) arrays, one column per mode."""
    return sum(np.einsum("ik,ik->k", a, a) for a in arrays)


def quasimode_diagnostics(modes: Modes, damping_masses: np.ndarray) -> QuasimodeDiagnostics:
    """Boundary diagnostics of every mode at its semiclassical scale, as (k,) arrays.

    damping_masses[k] is ||a^(1/2) phi_k||^2 (stokes.damping_masses), from
    which the observability constant ||phi|| / ||a^(1/2) phi|| is formed.
    The projection pressure of each mode is rescaled by h so the reported
    pressure norms refer to the pressure of the h-scaled mode equation.
    The normal-trace defect uses the divergence identity at boundary cells:
    the one-sided normal-derivative trace of the normal component plus the
    near-wall tangential difference is exactly the cell divergence, which
    vanishes for discrete divergence-free modes.  That identity is the
    discrete form of the vanishing normal trace forced by incompressibility
    and no-slip.  The wall stencils are slices of the mode matrix.
    """
    grid = modes.grid
    nx, ny, hg = grid.nx, grid.ny, grid.h
    h_sc = modes.lambdas ** -0.5
    u = modes.phi[:grid.n_u].reshape(nx + 1, ny, -1)
    v = modes.phi[grid.n_u:].reshape(nx, ny + 1, -1)

    # second-order one-sided normal derivatives on the four walls
    # normal component: wall value is an exact grid node (zero)
    dn_norm = [
        (4.0 * u[1] - u[2]) / (2 * hg),                # left wall, d(u)/dx
        (4.0 * u[-2] - u[-3]) / (2 * hg),              # right wall
        (4.0 * v[:, 1] - v[:, 2]) / (2 * hg),          # bottom wall, d(v)/dy
        (4.0 * v[:, -2] - v[:, -3]) / (2 * hg),        # top wall
    ]
    # tangential component: first values sit at hg/2 and 3hg/2 off the wall
    dn_tan = [
        (9.0 * v[0] - v[1]) / (3 * hg),                # left wall, d(v)/dx
        (9.0 * v[-1] - v[-2]) / (3 * hg),              # right wall
        (9.0 * u[:, 0] - u[:, 1]) / (3 * hg),          # bottom wall, d(u)/dy
        (9.0 * u[:, -1] - u[:, -2]) / (3 * hg),        # top wall
    ]
    boundary_flux = h_sc * np.sqrt(hg * _squares(dn_norm + dn_tan))

    div = (_ops(grid).D @ modes.phi).reshape(nx, ny, -1)
    ring = np.concatenate([div[0], div[-1], div[:, 0], div[:, -1]])
    defect = h_sc * np.abs(ring).max(axis=0)

    qq = modes.pressure
    q_interior = h_sc * hg * np.sqrt(_squares([qq.reshape(nx * ny, -1)]))
    traces = [
        (3.0 * qq[0] - qq[1]) / 2.0,
        (3.0 * qq[-1] - qq[-2]) / 2.0,
        (3.0 * qq[:, 0] - qq[:, 1]) / 2.0,
        (3.0 * qq[:, -1] - qq[:, -2]) / 2.0,
    ]
    q_boundary = h_sc * np.sqrt(hg * _squares(traces))

    return QuasimodeDiagnostics(h_sc, boundary_flux, defect, (q_interior, q_boundary),
                                _obs_constant(modes, damping_masses))

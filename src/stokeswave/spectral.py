"""Damped-generator spectra, energy-weighted resolvent sweeps, and per-mode
semiclassical diagnostics.

The first-order generator of the damped modal system is the block matrix
[[0, I], [-Lambda, -B]].  Its spectral abscissa predicts the energy decay
rate (energy is quadratic in the semigroup, hence the factor two).  The
resolvent is measured along the imaginary axis in the energy norm, because
the decay criterion lives in that norm, not the Euclidean one.  In energy
coordinates (sqrt(lambda) u, u') the generator is
A = [[0, Omega], [-Omega, -B]] with Omega = diag(sqrt(lambda)), the
congruence of the block matrix with the square root of the energy Gram
matrix diag(Lambda, I), written without a division so that zero modes stay
finite.  The sweep reduces A to complex Schur form T = Z^H A Z once; since Z
is unitary, smin(A - i*sigma) = smin(T - i*sigma), and each sigma costs a
few triangular solves of inverse Lanczos instead of a dense SVD.

Per-eigenmode diagnostics operate at the semiclassical scale h = 1/sqrt(lambda):
boundary flux of h * (normal derivative), the normal-trace identity defect,
pressure norms of the h-scaled projection pressure, and the observability
constant 1/||a^(1/2) phi||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericsError
from .evolution import generator_matrix
from .stokes import EigenPair, divergence

# Lanczos stops once the residual of its largest Ritz value is this share of it.
_LANCZOS_TOL = 1e-12
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
    """Boundary-trace and observability diagnostics of one eigenmode."""

    h: float
    boundary_flux_norm: float
    normal_component_defect: float
    pressure_norms: Tuple[float, float]
    obs_constant: float


def spectrum(ms) -> SpectrumReport:
    """Dense eigensolve of the generator of ms, eigenvalues in ascending real part.

    A run of real parts each within _TIE_TOL * max|z| of the next is one group,
    ordered by imaginary part, so roundoff cannot order a multiple eigenvalue.
    """
    try:
        vals = np.linalg.eigvals(generator_matrix(np.asarray(ms.lambdas, dtype=float),
                                                  np.asarray(ms.B, dtype=float)))
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

    smin is that of A - i*sigma, with A = [[0, Omega], [-Omega, -B]] the
    generator in energy coordinates (module docstring).  It is read off the
    complex Schur factor T of A, computed once (real Schur form, then
    rsf2csf).  Per sigma, Lanczos with full reorthogonalization runs on
    (T - i*sigma)^-1 (T - i*sigma)^-H, applied by two triangular solves, and
    smin = theta^(-1/2) for its largest Ritz value theta.  It stops once the
    Ritz residual beta_j*|e_j^T y| is at most 1e-12*theta, which puts theta
    within a relative 1e-12 of an eigenvalue, or at the full dimension, where
    Lanczos is exact.  The start vector comes from a fixed seed and is the
    same for every sigma, so a row depends on its sigma alone and reruns are
    byte-identical.

    Zero modes: lambda = 0 gives a zero row and column in A, which leave the
    singular value |sigma| of A - i*sigma.  So smin <= |sigma| and
    smin(0) = 0, flagging the generator's eigenvalue 0.  A shift that makes
    T - i*sigma exactly singular, or so near singular that its solves
    overflow (smin below about 1e-154*(max|T| + |sigma|)), gives smin = 0.
    """
    lam = np.asarray(ms.lambdas, dtype=float)
    if np.any(lam < 0):
        raise ConfigurationError("resolvent sweep needs lambdas >= 0")
    n = lam.size
    omega = np.diag(np.sqrt(lam))
    t = scipy.linalg.rsf2csf(*scipy.linalg.schur(
        np.block([[np.zeros((n, n)), omega], [-omega, -np.asarray(ms.B, dtype=float)]])))[0]
    diag = t.diagonal()
    rng = np.random.default_rng(0)
    start = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    start /= np.linalg.norm(start)
    size = np.abs(t).max()
    rows = np.empty((len(sigma_grid), 2))
    for k, sigma in enumerate(sigma_grid):
        sigma = float(sigma)
        # solve with entries of order one, so the Lanczos vectors, of order
        # smin^-2, overflow only where smin is below about 1e-154 of them; the
        # floor keeps 1/unit finite when A = 0 and sigma is subnormal
        unit = max(size + abs(sigma), np.finfo(float).tiny)
        shifted = t / unit
        np.fill_diagonal(shifted, (diag - 1j * sigma) / unit)
        rows[k] = (sigma, unit * _triangular_smin(shifted, start))
    return rows


def _triangular_smin(t: np.ndarray, start: np.ndarray) -> float:
    """smin of the upper-triangular t by inverse Lanczos (see resolvent_sweep)."""
    trtrs, = scipy.linalg.get_lapack_funcs(("trtrs",), (t,))
    m = t.shape[0]
    q = np.empty((m, m), dtype=complex)
    q[0] = start
    tri = np.zeros((m, m))
    for j in range(m):
        z, info = trtrs(t, q[j], trans=2)
        if info == 0:
            w, info = trtrs(t, z)
        if info > 0:
            return 0.0
        tri[j, j] = np.vdot(q[j], w).real
        if not math.isfinite(tri[j, j]):
            return 0.0
        basis = q[:j + 1]
        for _ in range(2):
            w -= (basis.conj() @ w) @ basis
        beta = scipy.linalg.norm(w, check_finite=False)   # BLAS nrm2 does not overflow
        theta, y = np.linalg.eigh(tri[:j + 1, :j + 1])
        if beta * abs(y[-1, -1]) <= _LANCZOS_TOL * theta[-1] or j + 1 == m:
            return float(theta[-1] ** -0.5)
        tri[j, j + 1] = tri[j + 1, j] = beta
        q[j + 1] = w / beta


def semiclassical_constants(pairs: List[EigenPair],
                            damping_masses: np.ndarray) -> List[Tuple[float, float]]:
    """Per-mode (h, C) with h = lambda^(-1/2), C = ||phi|| / ||a^(1/2) phi||.

    damping_masses[k] is ||a^(1/2) phi_k||^2 (stokes.damping_masses).  Modes
    invisible to the damping report C = inf, flagging a discrete
    unique-continuation violation.  Sorted by ascending h.
    """
    out = [(p.lam ** -0.5, _obs_constant(p, d)) for p, d in zip(pairs, damping_masses)]
    return sorted(out, key=lambda hc: hc[0])


def _obs_constant(pair: EigenPair, damping_mass: float) -> float:
    return math.inf if damping_mass == 0.0 else pair.phi.l2_norm() / math.sqrt(damping_mass)


def quasimode_diagnostics(pair: EigenPair, damping_mass: float) -> QuasimodeDiagnostics:
    """Boundary diagnostics of an eigenmode at its semiclassical scale.

    damping_mass is ||a^(1/2) phi||^2 (stokes.damping_masses), from which
    the observability constant ||phi|| / ||a^(1/2) phi|| is formed.
    The projection pressure of the pair is rescaled by h so the reported
    pressure norms refer to the pressure of the h-scaled mode equation.
    The normal-trace defect uses the divergence identity at boundary cells:
    the one-sided normal-derivative trace of the normal component plus the
    near-wall tangential difference is exactly the cell divergence, which
    vanishes for discrete divergence-free modes.  That identity is the
    discrete form of the vanishing normal trace forced by incompressibility
    and no-slip.
    """
    grid = pair.phi.grid
    h_sc = pair.lam ** -0.5
    hg = grid.h
    u, v = pair.phi.u, pair.phi.v

    # second-order one-sided normal derivatives on the four walls
    # normal component: wall value is an exact grid node (zero)
    dn_norm = [
        (4.0 * u[1, :] - u[2, :]) / (2 * hg),          # left wall, d(u)/dx
        (4.0 * u[-2, :] - u[-3, :]) / (2 * hg),        # right wall
        (4.0 * v[:, 1] - v[:, 2]) / (2 * hg),          # bottom wall, d(v)/dy
        (4.0 * v[:, -2] - v[:, -3]) / (2 * hg),        # top wall
    ]
    # tangential component: first values sit at hg/2 and 3hg/2 off the wall
    dn_tan = [
        (9.0 * v[0, :] - v[1, :]) / (3 * hg),          # left wall, d(v)/dx
        (9.0 * v[-1, :] - v[-2, :]) / (3 * hg),        # right wall
        (9.0 * u[:, 0] - u[:, 1]) / (3 * hg),          # bottom wall, d(u)/dy
        (9.0 * u[:, -1] - u[:, -2]) / (3 * hg),        # top wall
    ]
    flux_sq = sum(float(arr @ arr) for arr in dn_norm) + \
        sum(float(arr @ arr) for arr in dn_tan)
    boundary_flux = h_sc * math.sqrt(hg * flux_sq)

    div_ring = divergence(pair.phi).q
    ring = np.concatenate([div_ring[0, :], div_ring[-1, :], div_ring[:, 0], div_ring[:, -1]])
    defect = h_sc * float(np.abs(ring).max())

    q = pair.pressure
    qq = q.q
    q_interior = h_sc * q.l2_norm()
    traces = [
        (3.0 * qq[0, :] - qq[1, :]) / 2.0,
        (3.0 * qq[-1, :] - qq[-2, :]) / 2.0,
        (3.0 * qq[:, 0] - qq[:, 1]) / 2.0,
        (3.0 * qq[:, -1] - qq[:, -2]) / 2.0,
    ]
    q_boundary = h_sc * math.sqrt(hg * sum(float(tr @ tr) for tr in traces))

    return QuasimodeDiagnostics(h_sc, boundary_flux, defect, (q_interior, q_boundary),
                                _obs_constant(pair, damping_mass))

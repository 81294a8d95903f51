"""Time evolution in the truncated eigenbasis, energy bookkeeping, decay fits.

The second-order modal system u'' = -Lambda u - B u' is stepped with the
implicit midpoint rule.  Midpoint is the right scheme here because it
makes the energy statements exact at the discrete level: per step,
E(n+1) - E(n) = -dt * w_mid^T B w_mid holds identically (up to linear
solver roundoff), so conservation, monotone decay and the
energy-equals-initial-minus-dissipated balance are testable at solver
precision rather than at truncation order.

The step is solved in average-acceleration (Newmark) form, as in lame: with
c = dt/2, u1 = u0 + c (w0 + w1) leaves N unknowns, not 2N, in
(I + c^2 Lambda + c B) w1 = (I - c^2 Lambda - c B) w0 - 2 c Lambda u0; evolve
builds that N x 2N map (u0, w0) -> w1 once.  The damped generator is spectral's.

All functions take any object exposing `.lambdas` (N,) and `.B` (N, N);
stokes.ModalSystem qualifies, and synthetic systems can be supplied as a
namespace for closed-form experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np
import scipy.linalg

from .errors import ConfigurationError, NumericsError

# largest relative energy-balance defect (dissipation_check) of an evolve run: midpoint
# keeps the balance to solver roundoff, so a larger defect means the run lost its digits
_BALANCE_TOL = 1e-8


@dataclass
class ModalState:
    """Modal coordinates and velocities; a start state is at t = 0."""

    u: np.ndarray
    w: np.ndarray


@dataclass
class EnergyTrace:
    """Per-step samples of energy and cumulative observation quadrature.

    D_cum accumulates the midpoint quadrature of w^T B w along the run: the
    energy that the damping B has dissipated.
    """

    t: np.ndarray
    E: np.ndarray
    D_cum: np.ndarray


@dataclass
class DecayFit:
    """Log-linear envelope E(t) <= C0 E(0) exp(-alpha t) over a window."""

    C0: float
    alpha: float
    r_squared: float
    window: Tuple[float, float]


def energy(ms, state: ModalState) -> float:
    """Modal energy (velocity part plus eigenvalue-weighted displacement part)."""
    return _energy(np.asarray(ms.lambdas), state.u, state.w)


def _energy(lam: np.ndarray, u: np.ndarray, w: np.ndarray) -> float:
    return 0.5 * float(w @ w + lam @ (u * u))


def _step_count(T: float, dt: float) -> int:
    """round(T/dt), the number of steps of size dt to the horizon T."""
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    if T < dt:
        raise ConfigurationError("T must be at least dt")
    return int(round(T / dt))


def evolve(ms, state0: ModalState, T: float, dt: float) -> Tuple[ModalState, EnergyTrace]:
    """Integrate the damped system for n = round(T/dt) midpoint steps from
    t = 0, sampling every step at t = k dt; return the state at n dt and the trace.

    A step system or a balance defect (dissipation_check) that is not finite, or
    a defect above _BALANCE_TOL, raises NumericsError."""
    steps = _step_count(T, dt)
    lam = np.asarray(ms.lambdas, dtype=float)
    n = lam.size
    if n < 1:
        raise ConfigurationError("modal system must have at least one mode")
    b = np.asarray(ms.B, dtype=float)
    c = 0.5 * dt
    with np.errstate(over="ignore", invalid="ignore"):     # checked just below
        damp = c * c * np.diag(lam) + c * b
    # a finite damp keeps dt Lambda = 2 c Lambda <= max(c^2, 4) Lambda finite too
    if not np.isfinite(damp).all():
        raise NumericsError("midpoint step system is not finite: c^2 Lambda or c B overflows")
    try:
        step = scipy.linalg.solve(np.eye(n) + damp,
                                  np.hstack([np.diag(-dt * lam), np.eye(n) - damp]))
    except scipy.linalg.LinAlgError as exc:
        raise NumericsError(f"midpoint step matrix is singular: {exc}") from exc

    x = np.concatenate([np.asarray(state0.u, float), np.asarray(state0.w, float)])
    ts = np.arange(steps + 1) * dt
    es = np.empty(steps + 1)
    ds = np.zeros(steps + 1)
    es[0] = _energy(lam, x[:n], x[n:])
    d_cum = 0.0
    for k in range(1, steps + 1):
        w_new = step @ x
        w_mid = 0.5 * (x[n:] + w_new)
        d_cum += dt * float(w_mid @ (b @ w_mid))
        x[:n] += dt * w_mid
        x[n:] = w_new
        es[k] = _energy(lam, x[:n], x[n:])
        ds[k] = d_cum
    trace = EnergyTrace(ts, es, ds)
    defect = dissipation_check(trace)
    if not defect <= _BALANCE_TOL:
        raise NumericsError(f"energy balance defect {defect:.3g} exceeds {_BALANCE_TOL:g}: "
                            "the midpoint run lost its digits")
    return ModalState(x[:n].copy(), x[n:].copy()), trace


def dissipation_check(trace: EnergyTrace) -> float:
    """Max relative defect of E(t) = E(0) - D_cum(t) over the trace."""
    e0 = trace.E[0]
    if e0 == 0.0:
        return float(np.abs(trace.E + trace.D_cum).max())
    return float(np.abs(trace.E - e0 + trace.D_cum).max() / e0)


def fit_decay(trace: EnergyTrace, window: Tuple[float, float]) -> DecayFit:
    """Least-squares exponential envelope of the energy over [t_min, t_max]."""
    t0, t1 = window
    mask = (trace.t >= t0) & (trace.t <= t1)
    t = trace.t[mask]
    e = trace.E[mask]
    if t.size < 2:
        raise NumericsError("decay fit window contains fewer than two samples")
    if np.any(e <= 0.0):
        raise NumericsError("energy vanishes on the fit window; fit is degenerate")
    loge = np.log(e)
    # np.polyfit scales its columns by their norms, which squares t; on t 2^-k the
    # fit has the same bits, and no tiny or huge time underflows or overflows
    k = math.frexp(float(np.abs(t).max()))[1]
    slope, intercept = np.polyfit(np.ldexp(t, -k), loge, 1)
    slope = np.ldexp(slope, -k)
    pred = slope * t + intercept
    ss_res = float(np.sum((loge - pred) ** 2))
    ss_tot = float(np.sum((loge - loge.mean()) ** 2))
    # variance at rounding level means the data is constant: the exact fit has slope 0
    floor = loge.size * (np.finfo(float).eps * (1.0 + float(np.abs(loge).max()))) ** 2
    flat = ss_tot <= 4.0 * floor
    alpha = 0.0 if flat else -float(slope)
    r2 = 1.0 if flat else 1.0 - ss_res / ss_tot
    e_ref = trace.E[0]
    with np.errstate(over="ignore"):   # exp(alpha t) overflows long before e exp(alpha t)
        peak = np.max(e * np.exp(alpha * t)) / e_ref
        peak = peak if np.isfinite(peak) else np.exp(np.max(loge + alpha * t) - np.log(e_ref))
    c0 = float(peak) * (1.0 + 1e-12)
    return DecayFit(max(c0, 1.0), alpha, r2, (float(t0), float(t1)))


_GRAMIAN_BLOCK = 256  # steps per block of the Gramian sum


def observability_gramian(ms, T: float, dt: float) -> Tuple[np.ndarray, float]:
    """Observation Gramian of the undamped flow read through the damping form.

    G = dt * sum_n Phi_mid^T diag(0, B) Phi_mid over the round(T/dt) midpoint
    steps of the undamped fundamental matrix, so x0^T G x0 is the observation
    quadrature D[v](T) of the trajectory from x0 under the same integrator.
    In the coordinates (omega u, w), omega = sqrt(lambda), the midpoint step
    of a mode is the Cayley transform of omega [[0, 1], [-1, 0]]: exactly the
    rotation by theta = 2 atan(omega dt / 2).  So the midpoint velocity of
    step n is s = -omega (sin n theta + sin (n+1) theta) / 2 on u-columns and
    c = (cos n theta + cos (n+1) theta) / 2 on w-columns, and with W = [s | c],
    G = dt (W^T W) o [[B, B], [B, B]].  As theta is the angle of the discrete
    map, not omega dt, this is the stepped quadrature up to rounding for any
    dt, not an O(dt^2) approximation of it.  W^T W is summed over blocks of
    _GRAMIAN_BLOCK steps, so memory is O(N^2) for any T/dt.  c_obs is the
    smallest eigenvalue of G in the energy product diag(Lambda, I), without
    the zero-energy u-coordinates of zero modes (where G vanishes).  A G that
    is not finite (a damping so large that it overflows) raises NumericsError.
    """
    steps = _step_count(T, dt)
    lam = np.asarray(ms.lambdas, dtype=float)
    if np.any(lam < 0):
        raise ConfigurationError("observability Gramian needs lambdas >= 0")
    n = lam.size
    b = np.asarray(ms.B, dtype=float)
    omega = np.sqrt(lam)
    theta = 2.0 * np.arctan(0.5 * dt * omega)
    wtw = np.zeros((2 * n, 2 * n))
    for start in range(0, steps, _GRAMIAN_BLOCK):
        phase = np.outer(np.arange(start, min(start + _GRAMIAN_BLOCK, steps) + 1), theta)
        sin, cos = np.sin(phase), np.cos(phase)
        w_mid = np.hstack([-0.5 * omega * (sin[:-1] + sin[1:]), 0.5 * (cos[:-1] + cos[1:])])
        wtw += w_mid.T @ w_mid
    with np.errstate(over="ignore", invalid="ignore"):     # checked just below
        g = dt * wtw * np.tile(b, (2, 2))
        g = 0.5 * (g + g.T)
    if not np.isfinite(g).all():
        raise NumericsError("observability Gramian is not finite")
    keep = np.concatenate([lam > 0, np.ones(n, dtype=bool)])
    gram = np.diag(np.concatenate([lam, np.ones(n)])[keep])
    c_obs = float(scipy.linalg.eigh(g[np.ix_(keep, keep)], gram, eigvals_only=True)[0])
    return g, c_obs


def undamped_modal_solution(ms, state0: ModalState) -> Callable[[float], ModalState]:
    """Closed-form undamped propagator t -> state at time t from state0 at
    t = 0 (cosine/sine per mode)."""
    lam = np.asarray(ms.lambdas, dtype=float)
    om = np.sqrt(lam)
    u0 = np.array(state0.u, dtype=float)
    w0 = np.array(state0.w, dtype=float)

    def at(t: float) -> ModalState:
        c, s = np.cos(om * t), np.sin(om * t)
        return ModalState(u0 * c + w0 * s / om, -u0 * om * s + w0 * c)

    return at


def random_state(ms, seed: int = 0) -> ModalState:
    """Seeded random modal state scaled to unit energy."""
    lam = np.asarray(ms.lambdas, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(lam.size)
    w = rng.standard_normal(lam.size)
    state = ModalState(u, w)
    e = energy(ms, state)
    scale = math.sqrt(1.0 / e) if e > 0 else 0.0
    return ModalState(u * scale, w * scale)

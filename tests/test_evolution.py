import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokeswave import (ConfigurationError, EnergyTrace, ModalState, NumericsError,
                        build_modal_system, dissipation_check, energy, evolve, fit_decay,
                        observability_gramian, random_state, undamped_modal_solution)
from stokeswave.evolution import _GRAMIAN_BLOCK
from stokeswave.geometry import BoundaryCollar, DampingProfile, Rectangle

from conftest import uw_generator


def _system(lams, b):
    return SimpleNamespace(lambdas=np.asarray(lams, dtype=float), B=np.asarray(b, dtype=float))


def test_evolve_undamped_harmonic_mode():
    ms = _system([4.0], [[0.0]])
    final, trace = evolve(ms, ModalState(np.array([1.0]), np.array([0.0])), 10.0, 1e-3)
    assert np.abs(trace.E - trace.E[0]).max() <= 1e-10 * trace.E[0]
    # trajectory follows cos(2t) up to the midpoint phase error O(dt^2 t)
    assert abs(final.u[0] - math.cos(20.0)) <= 1e-4
    assert abs(trace.t[-1] - 10.0) <= 1e-12


def test_evolve_damped_single_mode_closed_form():
    # underdamped oscillator u'' + c u' + lam u = 0, u(0)=1, u'(0)=0:
    # u(t) = exp(-c t/2) (cos(om t) + (c/(2 om)) sin(om t)), om = sqrt(lam - c^2/4)
    lam, c = 4.0, 0.2
    ms = _system([lam], [[c]])
    final, trace = evolve(ms, ModalState(np.array([1.0]), np.array([0.0])), 10.0, 1e-3)
    om = math.sqrt(lam - c * c / 4.0)
    t = 10.0
    exact = math.exp(-c * t / 2.0) * (math.cos(om * t) + c / (2 * om) * math.sin(om * t))
    assert abs(final.u[0] - exact) <= 1e-3
    fit = fit_decay(trace, (0.0, 10.0))
    assert abs(fit.alpha - c) / c <= 0.02
    assert fit.C0 >= 1.0


def test_evolve_zero_state():
    ms = _system([4.0, 9.0], np.diag([0.1, 0.2]))
    final, trace = evolve(ms, ModalState(np.zeros(2), np.zeros(2)), 1.0, 1e-2)
    assert np.all(trace.E == 0.0) and np.all(final.u == 0.0) and np.all(final.w == 0.0)
    assert dissipation_check(trace) == 0.0


def test_evolve_input_validation():
    ms = _system([4.0], [[0.0]])
    st = ModalState(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ConfigurationError):
        evolve(ms, st, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        evolve(ms, st, 0.5, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: evolve(_system([], np.zeros((0, 0))), ModalState(np.zeros(0), np.zeros(0)),
                    1.0, 0.1), "modal system must have at least one mode"),
    (lambda: observability_gramian(_system([4.0], [[1.0]]), 0.0, 1e-2),
     "T must be at least dt"),
    (lambda: observability_gramian(_system([4.0], [[1.0]]), 1.0, 0.0), "dt must be positive"),
], ids=["no_modes", "gramian_horizon", "gramian_dt"])
def test_library_guards_name_the_bad_argument(call, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        call()


def test_energy_examples():
    ms = _system([7.0], [[0.0]])
    assert energy(ms, ModalState(np.zeros(1), np.zeros(1))) == 0.0
    assert energy(ms, ModalState(np.array([1.0]), np.array([0.0]))) == 3.5


def test_dissipation_identity():
    # B = 0: the defect is the conservation error of the scheme
    ms0 = _system([4.0, 25.0], np.zeros((2, 2)))
    _, tr0 = evolve(ms0, ModalState(np.array([1.0, 0.3]), np.array([0.0, -0.2])), 10.0, 1e-3)
    assert dissipation_check(tr0) <= 1e-10
    # B = c I single mode: exact midpoint balance up to solver roundoff
    ms1 = _system([4.0], [[0.2]])
    _, tr1 = evolve(ms1, ModalState(np.array([1.0]), np.array([0.0])), 10.0, 1e-3)
    assert dissipation_check(tr1) <= 1e-8
    assert np.all(np.diff(tr1.D_cum) >= -1e-15)


def test_damped_energy_monotone():
    rng = np.random.default_rng(8)
    lams = np.sort(rng.uniform(1.0, 50.0, size=6))
    raw = rng.standard_normal((6, 6))
    b = raw @ raw.T / 10.0
    ms = _system(lams, b)
    state = ModalState(rng.standard_normal(6), rng.standard_normal(6))
    _, tr = evolve(ms, state, 5.0, 1e-3)
    assert np.all(np.diff(tr.E) <= 1e-10 * tr.E[0])


@pytest.mark.parametrize("seed", range(4))
def test_evolve_matches_first_order_midpoint(seed):
    # the N-unknown Newmark step against the 2N LU midpoint map of the (u, w)
    # generator, on a system with a zero mode and a full positive semidefinite B
    rng = np.random.default_rng(seed)
    n = 5
    lam = np.concatenate([[0.0], rng.uniform(0.5, 80.0, size=n - 1)])
    raw = rng.standard_normal((n, n))
    b = raw @ raw.T / n
    dt = rng.uniform(1e-3, 0.2)
    steps = 150
    x = rng.standard_normal(2 * n)
    final, trace = evolve(_system(lam, b), ModalState(x[:n], x[n:]), steps * dt, dt)
    m = uw_generator(lam, b)
    lu = scipy.linalg.lu_factor(np.eye(2 * n) - 0.5 * dt * m)
    a_plus = np.eye(2 * n) + 0.5 * dt * m
    es, ds = [0.5 * (x[n:] @ x[n:] + lam @ x[:n] ** 2)], [0.0]
    for _ in range(steps):
        x_new = scipy.linalg.lu_solve(lu, a_plus @ x)
        w_mid = 0.5 * (x[n:] + x_new[n:])
        ds.append(ds[-1] + dt * (w_mid @ b @ w_mid))
        x = x_new
        es.append(0.5 * (x[n:] @ x[n:] + lam @ x[:n] ** 2))
    assert np.abs(trace.E - es).max() <= 1e-12 * es[0]
    assert np.abs(trace.D_cum - ds).max() <= 1e-12 * ds[-1]
    got = np.concatenate([final.u, final.w])
    assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()


def test_fit_decay_synthetic():
    t = np.linspace(0.0, 5.0, 200)
    tr = EnergyTrace(t, 3.0 * np.exp(-0.7 * t), np.zeros_like(t))
    fit = fit_decay(tr, (0.0, 5.0))
    assert abs(fit.alpha - 0.7) <= 1e-9
    assert abs(fit.C0 - 1.0) <= 1e-9          # bound is tight: E(0) = 3 = C0 * E(0)
    assert fit.r_squared >= 1.0 - 1e-12
    const = EnergyTrace(t, np.full_like(t, 2.0), np.zeros_like(t))
    cfit = fit_decay(const, (0.0, 5.0))
    assert abs(cfit.alpha) <= 1e-12 and cfit.r_squared == 1.0
    # bound majorizes every sample in the window
    for tt, ee in zip(t, tr.E):
        assert ee <= fit.C0 * tr.E[0] * math.exp(-fit.alpha * tt) * (1 + 1e-9)


@settings(max_examples=200, deadline=None)
@given(dt_exp=st.floats(-8.0, 8.0), first=st.integers(0, 20),
       log_e=st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=60).filter(
           lambda ys: max(ys) - min(ys) > 1e-6))
def test_fit_decay_slope_is_polyfit_bit_for_bit(dt_exp, first, log_e):
    # the power-of-two rescaling of the times changes no bit of the slope
    t = (first + np.arange(len(log_e))) * 10.0 ** dt_exp
    e = np.exp(log_e)
    fit = fit_decay(EnergyTrace(t, e, np.zeros_like(t)), (t[0], t[-1]))
    assert fit.alpha == -float(np.polyfit(t, np.log(e), 1)[0])


def test_fit_decay_envelope_is_finite_where_exp_alpha_t_overflows(recwarn):
    # on [720, 721] exp(t) overflows by itself, but e^-t exp(t) = 1 is the exact constant
    t = np.arange(72_101) * 0.01
    fit = fit_decay(EnergyTrace(t, np.exp(-t), np.zeros_like(t)), (720.0, 721.0))
    assert abs(fit.alpha - 1.0) <= 1e-6 and abs(fit.C0 - 1.0) <= 1e-6
    # a constant that truly overflows stays inf, without a numpy warning
    e = np.array([1e-300, 1e300, 1e299])
    steep = fit_decay(EnergyTrace(np.array([0.0, 1.0, 2.0]), e, e), (1.0, 2.0))
    assert steep.C0 == math.inf
    assert not recwarn.list


def test_fit_decay_degenerate():
    t = np.linspace(0.0, 1.0, 50)
    tr = EnergyTrace(t, np.zeros_like(t), np.zeros_like(t))
    with pytest.raises(NumericsError):
        fit_decay(tr, (0.0, 1.0))
    ok = EnergyTrace(t, np.exp(-t), np.zeros_like(t))
    with pytest.raises(NumericsError):
        fit_decay(ok, (2.0, 3.0))


def test_gramian_unobservable_when_undamped():
    ms = _system([4.0, 9.0], np.zeros((2, 2)))
    g, c_obs = observability_gramian(ms, 2.0, 1e-2)
    assert np.all(g == 0.0) and c_obs == 0.0


def test_gramian_single_mode_quadrature_oracle():
    # N=1, a=1, lam=4, T=pi: the quadratic form must match the direct
    # midpoint quadrature of the velocity observation along the same undamped flow
    ms = _system([4.0], [[1.0]])
    dt = 1e-3
    steps = int(round(math.pi / dt))
    g, c_obs = observability_gramian(ms, steps * dt, dt)
    x0 = np.array([1.0, 0.0])
    g_ref, _ = _stepped_gramian([4.0], [[1.0]], steps, dt)
    direct = float(x0 @ g_ref @ x0)
    assert abs(float(x0 @ g @ x0) - direct) <= 1e-8 * direct
    # and the continuum value int_0^pi 4 sin^2(2t) dt = 2 pi at O(dt^2)
    assert abs(direct - 2 * math.pi) <= 1e-4
    assert c_obs > 0.0


def test_gramian_identity_random_states():
    rng = np.random.default_rng(4)
    lams = np.sort(rng.uniform(2.0, 40.0, size=5))
    raw = rng.standard_normal((5, 5))
    ms = _system(lams, raw @ raw.T / 5.0)
    g, _ = observability_gramian(ms, 2.0, 1e-2)
    g_ref, _ = _stepped_gramian(ms.lambdas, ms.B, 200, 1e-2)
    for seed in range(20):
        state = random_state(ms, seed=seed)
        x0 = np.concatenate([state.u, state.w])
        quad = float(x0 @ g_ref @ x0)
        assert abs(float(x0 @ g @ x0) - quad) <= 1e-6 * max(quad, 1e-12)


def _stepped_gramian(lams, b, steps, dt):
    """Reference: step the undamped fundamental matrix with LU midpoint solves."""
    lam = np.asarray(lams, dtype=float)
    n = lam.size
    m = uw_generator(lam, np.zeros((n, n)))
    lu = scipy.linalg.lu_factor(np.eye(2 * n) - 0.5 * dt * m)
    a_plus = np.eye(2 * n) + 0.5 * dt * m
    phi = np.eye(2 * n)
    g = np.zeros((2 * n, 2 * n))
    for _ in range(steps):
        phi_new = scipy.linalg.lu_solve(lu, a_plus @ phi)
        w_mid = 0.5 * (phi[n:, :] + phi_new[n:, :])
        g += dt * (w_mid.T @ (b @ w_mid))
        phi = phi_new
    g = 0.5 * (g + g.T)
    # u-coordinates of zero modes carry no energy: drop them from the eigenproblem
    keep = np.concatenate([lam > 0, np.ones(n, dtype=bool)])
    gram = np.diag(np.concatenate([lam, np.ones(n)])[keep])
    return g, float(scipy.linalg.eigh(g[np.ix_(keep, keep)], gram, eigvals_only=True)[0])


@st.composite
def _gramian_cases(draw):
    n = draw(st.integers(1, 5))
    # eigenvalues drawn from a small pool, so exact repeats (the degenerate
    # pairs of the square) and zero modes both occur
    pool = draw(st.lists(st.just(0.0) | st.floats(0.25, 400.0), min_size=1, max_size=n))
    lams = [draw(st.sampled_from(pool)) for _ in range(n)]
    raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
        (n, draw(st.integers(0, n))))
    dt = draw(st.floats(1e-3, 0.2))
    steps = draw(st.integers(1, 2 * _GRAMIAN_BLOCK + 50))
    return lams, raw @ raw.T, dt, steps


@settings(max_examples=60, deadline=None)
@given(case=_gramian_cases())
@example(case=([0.0, 4.0, 4.0, 30.0], np.diag([1.0, 0.5, 0.5, 2.0]) + 0.1, 1e-2,
               _GRAMIAN_BLOCK + 57))
def test_gramian_closed_form_matches_stepped(case):
    lams, b, dt, steps = case
    g, c_obs = observability_gramian(_system(lams, b), steps * dt, dt)
    g_ref, c_ref = _stepped_gramian(lams, b, steps, dt)
    assert np.abs(g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()
    assert abs(c_obs - c_ref) <= 1e-10


def test_gramian_rejects_negative_lambda():
    with pytest.raises(ConfigurationError):
        observability_gramian(_system([4.0, -1.0], np.eye(2)), 1.0, 1e-2)


def test_gramian_monotone_in_horizon():
    ms = _system([4.0, 16.0], np.diag([0.5, 0.25]))
    _, c1 = observability_gramian(ms, 2.0, 1e-2)
    _, c2 = observability_gramian(ms, 4.0, 1e-2)
    assert c2 >= c1 - 1e-12


def test_observability_implies_energy_drop():
    # collar-damped small system: positive Gramian constant at horizon T
    # forces a measurable energy drop of the damped flow by 2T
    square = Rectangle(1.0, 1.0)
    collar = DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)
    from stokeswave import StaggeredGrid
    ms = build_modal_system(StaggeredGrid.for_rectangle(square, 16), 12, collar)
    t_half = 4.0
    _, c_obs = observability_gramian(ms, t_half, 5e-3)
    assert c_obs > 0.0
    state = random_state(ms, seed=2)
    _, tr = evolve(ms, state, 2 * t_half, 5e-3)
    kappa = 1.0 - tr.E[-1] / tr.E[0]
    assert kappa > 0.0


def test_undamped_modal_solution_matches_integrator():
    ms = _system([4.0, 9.0, 25.0], np.zeros((3, 3)))
    state0 = ModalState(np.array([1.0, -0.5, 0.2]), np.array([0.0, 0.3, -0.1]))
    sol = undamped_modal_solution(ms, state0)
    final, _ = evolve(ms, state0, 2.0, 1e-4)
    exact = sol(2.0)
    assert np.abs(final.u - exact.u).max() <= 1e-6
    assert np.abs(final.w - exact.w).max() <= 1e-6


def test_modal_energy_matches_grid_energy(modes64, grid64):
    # modal energy equals the grid-space energy of the reconstruction
    from stokeswave import ModalSystem, Modes
    from stokeswave.stokes import _ops
    m = modes64
    first = Modes(grid64, m.lambdas[:25], m.phi[:, :25], m.pressure[:, :, :25], m.residual[:25])
    ms = ModalSystem(first, np.zeros((25, 25)))
    rng = np.random.default_rng(0)
    state = ModalState(rng.standard_normal(25), rng.standard_normal(25))
    e_modal = energy(ms, state)
    u_grid = ms.reconstruct(state.u).flat()
    w_grid = ms.reconstruct(state.w).flat()
    e_grid = 0.5 * grid64.h ** 2 * float(w_grid @ w_grid + u_grid @ -(_ops(grid64).L @ u_grid))
    assert abs(e_modal - e_grid) <= 0.01 * e_modal

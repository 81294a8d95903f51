import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, Rectangle,
                        StaggeredGrid, build_modal_system, damping_masses,
                        quasimode_diagnostics, resolvent_sweep,
                        semiclassical_constants, spectrum, stokes_eigenpairs)
from stokeswave.evolution import generator_matrix
from stokeswave.geometry import DiskPatch


def _system(lams, b):
    return SimpleNamespace(lambdas=np.asarray(lams, dtype=float), B=np.asarray(b, dtype=float))


def _energy_weights(g):
    """Square roots of the energy Gram diagonal diag(Lambda, I) of the generator."""
    return np.sqrt(np.concatenate([g.lambdas, np.ones(g.lambdas.size)]))


def test_assemble_generator_examples():
    g = _system([4.0], [[0.0]])
    rep = spectrum(g)
    assert np.allclose(sorted(rep.eigenvalues.imag), [-2.0, 2.0], atol=1e-10)
    assert np.abs(rep.eigenvalues.real).max() <= 1e-10

    g = _system([4.0], [[0.2]])
    rep = spectrum(g)
    # roots of z^2 + 0.2 z + 4: -0.1 +- i sqrt(4 - 0.01)
    om = math.sqrt(4.0 - 0.01)
    expected = np.array([-0.1 - 1j * om, -0.1 + 1j * om])
    assert np.allclose(rep.eigenvalues, expected, atol=1e-12)
    assert abs(np.trace(generator_matrix(g.lambdas, g.B)) - (-np.trace(g.B))) == 0.0


def test_spectrum_uniform_damping():
    c = 0.3
    lams = [4.0, 9.0, 16.0]
    rep = spectrum(_system(lams, c * np.eye(3)))
    # all modes underdamped (c^2 < 4 lam_1): abscissa is exactly -c/2
    assert abs(rep.spectral_abscissa + c / 2) <= 1e-12
    assert abs(rep.predicted_decay_rate - c) <= 1e-12


def test_spectrum_conjugate_closed():
    rng = np.random.default_rng(0)
    lams = np.sort(rng.uniform(1.0, 30.0, size=5))
    raw = rng.standard_normal((5, 5))
    rep = spectrum(_system(lams, raw @ raw.T / 4.0))
    conj = np.sort_complex(np.conj(rep.eigenvalues))
    assert np.allclose(np.sort_complex(rep.eigenvalues), conj, atol=1e-10)


def test_spectrum_orders_tied_real_parts_by_imaginary_part():
    # real parts 1e-11 apart: far above roundoff, far below the tie tolerance
    for b in ([0.5, 0.5 + 2e-11], [0.5 + 2e-11, 0.5]):
        vals = spectrum(_system([4.0, 4.0], np.diag(b))).eigenvalues
        assert np.all(np.diff(vals.imag) > 0.0)


def test_spectrum_order_is_invariant_under_mode_permutation(ms_collar):
    # the square's swap partners give double eigenvalues; permuting the modes
    # changes only the roundoff, so the sorted arrays agree entry by entry
    ref = spectrum(ms_collar).eigenvalues
    for seed in range(16):
        perm = np.random.default_rng(seed).permutation(ms_collar.n_modes)
        permuted = _system(ms_collar.lambdas[perm], ms_collar.B[np.ix_(perm, perm)])
        got = spectrum(permuted).eigenvalues
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), seed


def test_predicted_decay_zero_when_undamped():
    rep = spectrum(_system([4.0, 9.0], np.zeros((2, 2))))
    assert rep.predicted_decay_rate == 0.0


def test_resolvent_zero_at_undamped_eigenfrequency():
    g = _system([4.0, 9.0], np.zeros((2, 2)))
    curve = resolvent_sweep(g, [2.0, 3.0, 2.5])
    assert curve[0][1] <= 1e-10
    assert curve[1][1] <= 1e-10
    assert curve[2][1] > 1e-3


def test_resolvent_dense_inverse_oracle():
    # energy-norm resolvent norm from smin equals the largest energy-norm
    # singular value of the dense inverse
    rng = np.random.default_rng(1)
    lams = np.array([4.0, 9.0, 25.0])
    raw = rng.standard_normal((3, 3))
    g = _system(lams, raw @ raw.T / 3.0 + 0.1 * np.eye(3))
    sqrt_g = _energy_weights(g)
    for sigma in (0.0, 1.7, 4.2):
        smin = resolvent_sweep(g, [sigma])[0][1]
        inv = np.linalg.inv(generator_matrix(g.lambdas, g.B) - 1j * sigma * np.eye(6))
        scaled_inv = sqrt_g[:, None] * inv / sqrt_g[None, :]
        norm_oracle = np.linalg.svd(scaled_inv, compute_uv=False)[0]
        assert abs(1.0 / smin - norm_oracle) <= 1e-10 * norm_oracle


def test_resolvent_grows_beyond_spectrum():
    g = _system([4.0, 9.0], 0.2 * np.eye(2))
    sig_top = 10.0 * 3.0
    curve = resolvent_sweep(g, np.linspace(sig_top, 3 * sig_top, 7))
    smins = curve[:, 1]
    assert np.all(np.diff(smins) > 0.0)


def test_resolvent_bounded_by_eigenvalue_distance():
    rng = np.random.default_rng(5)
    lams = np.sort(rng.uniform(2.0, 30.0, size=4))
    raw = rng.standard_normal((4, 4))
    g = _system(lams, raw @ raw.T / 6.0)
    sqrt_g = _energy_weights(g)
    scaled = sqrt_g[:, None] * generator_matrix(g.lambdas, g.B) / sqrt_g[None, :]
    vals, vecs = np.linalg.eig(scaled)
    cond = np.linalg.cond(vecs)
    for sigma in np.linspace(0.5, 8.0, 9):
        smin = resolvent_sweep(g, [sigma])[0][1]
        dist = np.abs(vals - 1j * sigma).min()
        assert smin <= cond * dist * (1 + 1e-9)


def _energy_generator(g):
    omega = np.diag(np.sqrt(g.lambdas))
    return np.block([[np.zeros_like(omega), omega], [-omega, -g.B]])


def _svd_sweep(g, sigma_grid):
    """Reference: one dense SVD of the energy-coordinate generator minus i*sigma per sigma."""
    a_hat = _energy_generator(g)
    eye = np.eye(a_hat.shape[0])
    return np.array([(float(s), scipy.linalg.svdvals(a_hat - 1j * s * eye)[-1])
                     for s in sigma_grid])


def _assert_matches_svd(g, sigma_grid):
    curve = resolvent_sweep(g, sigma_grid)
    oracle = _svd_sweep(g, sigma_grid)
    assert np.array_equal(curve[:, 0], oracle[:, 0])
    scale = np.linalg.norm(_energy_generator(g), 2) + np.abs(oracle[:, 0])
    assert np.all(np.abs(curve[:, 1] - oracle[:, 1]) <= 1e-10 * scale)
    return curve


@st.composite
def _sweep_cases(draw):
    n = draw(st.integers(1, 8))
    # eigenvalues drawn from a small pool, so exact repeats and zero modes both occur
    pool = draw(st.lists(st.just(0.0) | st.floats(0.25, 400.0), min_size=1, max_size=n))
    lams = [draw(st.sampled_from(pool)) for _ in range(n)]
    raw = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).standard_normal(
        (n, draw(st.integers(0, n))))
    scale = draw(st.floats(0.0, 4.0))
    # shifts on the undamped frequencies +-omega_k, where smin can vanish, and off them
    omegas = [math.sqrt(lam) for lam in lams]
    sigmas = draw(st.lists(st.sampled_from(omegas + [-w for w in omegas]) | st.floats(-30.0, 30.0),
                           min_size=1, max_size=6))
    return lams, scale * raw @ raw.T, sigmas


@settings(max_examples=200, deadline=None)
@given(case=_sweep_cases())
@example(case=([0.0, 4.0, 4.0, 30.0], np.zeros((4, 4)), [0.0, 2.0, -2.0, math.sqrt(30.0), 1.0]))
@example(case=([0.0], np.ones((1, 1)), [1e-160]))    # the solves overflow: smin reads 0
@example(case=([0.0], np.zeros((1, 1)), [5e-324]))   # A = 0 and a subnormal shift
def test_resolvent_sweep_matches_svd_oracle(case):
    lams, b, sigmas = case
    _assert_matches_svd(_system(lams, b), sigmas)


def test_resolvent_sweep_matches_svd_on_collar_system():
    square = Rectangle(1.0, 1.0)
    collar = DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)
    ms = build_modal_system(StaggeredGrid.for_rectangle(square, 16), 12, collar)
    omega_max = math.sqrt(ms.lambdas.max())
    _assert_matches_svd(ms, np.linspace(0.0, 1.5 * omega_max, 40))


def test_resolvent_zero_mode():
    # lambda = 0 leaves the singular value |sigma|: smin(0) = 0 flags the eigenvalue 0
    g = _system([0.0, 4.0], [[0.3, 0.1], [0.1, 0.2]])
    sigmas = [0.0, 0.5, 1.0, 2.0, 3.0, -1.0]
    curve = _assert_matches_svd(g, sigmas)
    assert curve[0][1] == 0.0
    assert np.all(curve[:, 1] <= np.abs(curve[:, 0]) * (1 + 1e-12))


def test_resolvent_rejects_negative_lambda():
    with pytest.raises(ConfigurationError):
        resolvent_sweep(_system([4.0, -1.0], np.eye(2)), [0.0])


def test_scaling_invariance_of_assembly():
    rng = np.random.default_rng(2)
    lams = np.sort(rng.uniform(1.0, 20.0, size=4))
    raw = rng.standard_normal((4, 4))
    b = raw @ raw.T / 4.0
    s = 3.7
    g_scaled = _system(lams, s * b)
    g_manual = _system(lams, b)
    manual = generator_matrix(g_manual.lambdas, g_manual.B)
    manual[4:, 4:] *= s
    assert np.array_equal(generator_matrix(g_scaled.lambdas, g_scaled.B), manual)
    ev_a = np.sort_complex(spectrum(g_scaled).eigenvalues)
    ev_b = np.sort_complex(np.linalg.eigvals(manual))
    assert np.allclose(ev_a, ev_b, atol=1e-10)


def test_collar_abscissa_negative_small_grid():
    square = Rectangle(1.0, 1.0)
    collar = DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)
    ms = build_modal_system(StaggeredGrid.for_rectangle(square, 16), 12, collar)
    rep = spectrum(ms)
    assert rep.spectral_abscissa < 0.0


def test_semiclassical_constants_uniform_damping():
    square = Rectangle(1.0, 1.0)
    grid = StaggeredGrid.for_rectangle(square, 16)
    pairs = stokes_eigenpairs(grid, 6)
    everywhere = DampingProfile(square, DiskPatch((0.5, 0.5), 5.0), 1.0, 0.0)
    consts = semiclassical_constants(pairs, damping_masses(pairs, everywhere))
    assert all(abs(c - 1.0) <= 1e-10 for _, c in consts)
    hs = [h for h, _ in consts]
    assert hs == sorted(hs)
    # no damping at all: constants are flagged infinite
    none = semiclassical_constants(pairs, damping_masses(pairs, None))
    assert all(math.isinf(c) for _, c in none)


def test_semiclassical_lower_bound():
    square = Rectangle(1.0, 1.0)
    grid = StaggeredGrid.for_rectangle(square, 16)
    pairs = stokes_eigenpairs(grid, 8)
    collar = DampingProfile(square, BoundaryCollar(0.1), 2.0, 0.02)
    consts = semiclassical_constants(pairs, damping_masses(pairs, collar))
    lower = 1.0 / math.sqrt(2.0)  # 1/sqrt(sup a)
    assert all(c >= lower - 1e-12 for _, c in consts)


def test_quasimode_diagnostics_basic():
    square = Rectangle(1.0, 1.0)
    grid = StaggeredGrid.for_rectangle(square, 32)
    pairs = stokes_eigenpairs(grid, 12)
    collar = DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)
    for p, mass in zip(pairs, damping_masses(pairs, collar)):
        d = quasimode_diagnostics(p, mass)
        assert abs(d.h - p.lam ** -0.5) <= 1e-15
        assert d.normal_component_defect <= 1e-6
        assert d.boundary_flux_norm >= 0.0
        assert d.pressure_norms[0] >= 0.0 and d.pressure_norms[1] >= 0.0
        assert d.obs_constant >= 1.0 - 1e-12  # sup a = 1 here

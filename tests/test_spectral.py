import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, Rectangle,
                        SideStrip, StaggeredGrid, build_modal_system, damping_masses,
                        quasimode_diagnostics, resolvent_sweep, semiclassical_constants,
                        spectrum, stokes_eigenpairs)
from stokeswave import spectral
from stokeswave.spectral import generator_matrix
from stokeswave.geometry import DiskPatch
from stokeswave.stokes import _ops

from conftest import split_faces, uw_generator


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
        inv = np.linalg.inv(uw_generator(g.lambdas, g.B) - 1j * sigma * np.eye(6))
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
    scaled = sqrt_g[:, None] * uw_generator(g.lambdas, g.B) / sqrt_g[None, :]
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
# beta near 3e189: bisection on this tridiagonal, which squares beta, reads theta = 0
@example(case=([0.0], np.array([[0.01580809]]), [1.3395270105739384e-97]))
# beta near 5e203 at m = 4: bisection fails there, and eigh decides
@example(case=([0.0, 100.0], np.diag([1e-100, 1.0]), [1e-101]))
def test_resolvent_sweep_matches_svd_oracle(case):
    lams, b, sigmas = case
    _assert_matches_svd(_system(lams, b), sigmas)


def _eigh_smin(t, start):
    """Inverse Lanczos with a dense eigh of the tridiagonal at every step: the
    stopping rule of resolvent_sweep, evaluated exactly at each step."""
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
        beta = scipy.linalg.norm(w, check_finite=False)
        theta, y = np.linalg.eigh(tri[:j + 1, :j + 1])
        if beta * abs(y[-1, -1]) <= 1e-12 * theta[-1] or j + 1 == m:
            return float(theta[-1] ** -0.5)
        tri[j, j + 1] = tri[j + 1, j] = beta
        q[j + 1] = w / beta


def _eigh_sweep(g, sigma_grid):
    """resolvent_sweep with _eigh_smin per sigma: the same Schur factor, scaling and start."""
    a_hat = _energy_generator(g)
    t = scipy.linalg.rsf2csf(*scipy.linalg.schur(a_hat))[0]
    diag = t.diagonal()
    rng = np.random.default_rng(0)
    start = rng.standard_normal(t.shape[0]) + 1j * rng.standard_normal(t.shape[0])
    start /= np.linalg.norm(start)
    size = np.abs(t).max()
    rows = []
    for sigma in map(float, sigma_grid):
        unit = max(size + abs(sigma), np.finfo(float).tiny)
        shifted = t / unit
        np.fill_diagonal(shifted, (diag - 1j * sigma) / unit)
        rows.append((sigma, unit * _eigh_smin(shifted, start)))
    return np.array(rows)


@settings(max_examples=200, deadline=None)
@given(case=_sweep_cases())
def test_resolvent_sweep_matches_the_eigh_every_step_oracle(case):
    lams, b, sigmas = case
    g = _system(lams, b)
    curve, oracle = resolvent_sweep(g, sigmas), _eigh_sweep(g, sigmas)
    assert np.array_equal(curve[:, 0], oracle[:, 0])
    assert np.all(np.abs(curve[:, 1] - oracle[:, 1]) <= 1e-13 * oracle[:, 1].max())


@pytest.mark.parametrize("nx", [12, 16])
def test_resolvent_sweep_is_the_eigh_every_step_oracle_bit_for_bit(nx):
    square = Rectangle(1.0, 1.0)
    collar = DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)
    ms = build_modal_system(StaggeredGrid.for_rectangle(square, nx), 12, collar)
    sigmas = np.linspace(0.0, 1.5 * math.sqrt(ms.lambdas.max()), 60)
    assert np.array_equal(resolvent_sweep(ms, sigmas), _eigh_sweep(ms, sigmas))


def test_one_mode_sweep_runs_lanczos_to_the_full_dimension(monkeypatch):
    # m = 2: the start vector is no singular vector, so only j + 1 = m stops it
    buffers = []
    lanczos_work = spectral._lanczos_work

    def work(m):
        buffers.append(tuple(np.full_like(a, np.nan) for a in lanczos_work(m)))
        return buffers[-1]

    monkeypatch.setattr(spectral, "_lanczos_work", work)
    g = _system([4.0], [[0.3]])
    curve = _assert_matches_svd(g, [1.0])
    alpha = buffers[0][2]
    assert alpha.shape == (2,) and np.isfinite(alpha).all()
    assert np.array_equal(curve, _eigh_sweep(g, [1.0]))


@pytest.mark.parametrize("lams, b, sigmas", [
    ([0.0], np.ones((1, 1)), [1e-160]),
    ([0.0], np.zeros((1, 1)), [5e-324]),
    ([0.0], np.array([[0.01580809]]), [1.3395270105739384e-97]),
    ([0.0, 100.0], np.diag([1e-100, 1.0]), [1e-101]),
])
def test_resolvent_sweep_warns_nothing_on_overflow(lams, b, sigmas):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        resolvent_sweep(_system(lams, b), sigmas)


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
    # spectrum shares the generator, and with it the check
    with pytest.raises(ConfigurationError, match="^damped generator needs lambdas >= 0$"):
        spectrum(_system([4.0, -1.0], np.eye(2)))


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
    modes = stokes_eigenpairs(grid, 6)
    everywhere = DampingProfile(square, DiskPatch((0.5, 0.5), 5.0), 1.0, 0.0)
    consts = semiclassical_constants(modes, damping_masses(modes, everywhere))
    assert all(abs(c - 1.0) <= 1e-10 for _, c in consts)
    hs = [h for h, _ in consts]
    assert hs == sorted(hs)
    # no damping at all: constants are flagged infinite
    none = semiclassical_constants(modes, damping_masses(modes, None))
    assert all(math.isinf(c) for _, c in none)


def test_semiclassical_lower_bound():
    square = Rectangle(1.0, 1.0)
    grid = StaggeredGrid.for_rectangle(square, 16)
    modes = stokes_eigenpairs(grid, 8)
    collar = DampingProfile(square, BoundaryCollar(0.1), 2.0, 0.02)
    consts = semiclassical_constants(modes, damping_masses(modes, collar))
    lower = 1.0 / math.sqrt(2.0)  # 1/sqrt(sup a)
    assert all(c >= lower - 1e-12 for _, c in consts)


def test_quasimode_diagnostics_basic():
    square = Rectangle(1.0, 1.0)
    grid = StaggeredGrid.for_rectangle(square, 32)
    modes = stokes_eigenpairs(grid, 12)
    collar = DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)
    d = quasimode_diagnostics(modes, damping_masses(modes, collar))
    assert np.all(np.abs(d.h - modes.lambdas ** -0.5) <= 1e-15)
    assert np.all(d.normal_component_defect <= 1e-6)
    assert np.all(d.boundary_flux_norm >= 0.0)
    assert np.all(d.pressure_norms[0] >= 0.0) and np.all(d.pressure_norms[1] >= 0.0)
    assert np.all(d.obs_constant >= 1.0 - 1e-12)  # sup a = 1 here


def _per_mode_diagnostics(grid, pair, damping_mass):
    """One mode's (h, boundary flux, normal-trace defect, interior and boundary
    pressure norms, obs constant), computed field by field: the oracle of the
    batched quasimode_diagnostics and semiclassical_constants."""
    h_sc = pair.lam ** -0.5
    hg = grid.h
    u, v = split_faces(grid, pair.phi)
    dn_norm = [
        (4.0 * u[1, :] - u[2, :]) / (2 * hg),
        (4.0 * u[-2, :] - u[-3, :]) / (2 * hg),
        (4.0 * v[:, 1] - v[:, 2]) / (2 * hg),
        (4.0 * v[:, -2] - v[:, -3]) / (2 * hg),
    ]
    dn_tan = [
        (9.0 * v[0, :] - v[1, :]) / (3 * hg),
        (9.0 * v[-1, :] - v[-2, :]) / (3 * hg),
        (9.0 * u[:, 0] - u[:, 1]) / (3 * hg),
        (9.0 * u[:, -1] - u[:, -2]) / (3 * hg),
    ]
    flux_sq = sum(float(arr @ arr) for arr in dn_norm + dn_tan)
    div_ring = (_ops(grid).D @ pair.phi).reshape(grid.nx, grid.ny)
    ring = np.concatenate([div_ring[0, :], div_ring[-1, :], div_ring[:, 0], div_ring[:, -1]])
    qq = pair.pressure
    traces = [
        (3.0 * qq[0, :] - qq[1, :]) / 2.0,
        (3.0 * qq[-1, :] - qq[-2, :]) / 2.0,
        (3.0 * qq[:, 0] - qq[:, 1]) / 2.0,
        (3.0 * qq[:, -1] - qq[:, -2]) / 2.0,
    ]
    phi_norm = hg * float(np.linalg.norm(pair.phi))
    obs = math.inf if damping_mass == 0.0 else phi_norm / math.sqrt(damping_mass)
    return (h_sc, h_sc * math.sqrt(hg * flux_sq), h_sc * float(np.abs(ring).max()),
            h_sc * hg * float(np.linalg.norm(qq)),
            h_sc * math.sqrt(hg * sum(float(tr @ tr) for tr in traces)), obs)


@pytest.mark.parametrize("shape", [BoundaryCollar(0.1), SideStrip("left", 0.1), None],
                         ids=["collar", "strip", "none"])
def test_batched_diagnostics_match_the_per_mode_oracle(shape):
    rect = Rectangle(1.5, 1.0)
    profile = None if shape is None else DampingProfile(rect, shape, 1.0, 0.02)
    modes = stokes_eigenpairs(StaggeredGrid.for_rectangle(rect, 12), 20)
    masses = damping_masses(modes, profile)
    d = quasimode_diagnostics(modes, masses)
    got = np.stack([d.h, d.boundary_flux_norm, d.normal_component_defect, *d.pressure_norms,
                    d.obs_constant])
    want = np.array([_per_mode_diagnostics(modes.grid, modes[k], masses[k])
                     for k in range(len(modes))]).T
    # no damping means zero masses, so every obs constant is inf; otherwise none is
    assert np.isinf(want[-1]).all() if shape is None else np.isfinite(want[-1]).all()
    consts = semiclassical_constants(modes, masses)
    sorted_want = want[[0, -1]][:, np.argsort(want[0], kind="stable")]
    for g, w in [*zip(got, want), *zip(consts.T, sorted_want)]:
        assert np.array_equal(np.isinf(g), np.isinf(w))
        fin = np.isfinite(w)
        assert np.abs(g[fin] - w[fin]).max(initial=0.0) <= 1e-12 * np.abs(w[fin]).max(initial=0.0)

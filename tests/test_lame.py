import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpbtrf
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from stokeswave import (ConfigurationError, LameState, LameTrace, ModalState, NumericsError,
                        PreconditionError, StaggeredField, StaggeredGrid, build_modal_system,
                        convergence_study, evolve_lame, lame_energy, modal_reference)
from stokeswave.lame import _energy_and_div, _penalized_laplacian
from stokeswave.stokes import _ops

from conftest import face_field, random_divergence_free, random_face_field


def _grid(n=16):
    return StaggeredGrid(n, n, 1.0 / n)


def _zero_reference(grid):
    return lambda t: np.zeros(grid.n_faces)


def _modal_setup(n=16, n_modes=5, coeffs=(1.0, 0.5, 0.0, 0.0, 0.2)):
    grid = _grid(n)
    ms = build_modal_system(grid, n_modes)
    state0 = ModalState(np.array(coeffs), np.zeros(n_modes))
    u0 = ms.reconstruct(state0.u)
    w0 = StaggeredField.zeros(grid)
    return grid, ms, state0, u0, w0


def test_lame_energy_examples():
    grid = _grid(8)
    zero = LameState(StaggeredField.zeros(grid), StaggeredField.zeros(grid), 1e-2)
    assert lame_energy(zero) == 0.0
    # divergence-free displacement: penalty part vanishes for any eps
    uf = random_divergence_free(grid, seed=1)
    u = StaggeredField.from_flat(grid, uf)
    w = StaggeredField.zeros(grid)
    e_small = lame_energy(LameState(u, w, 1e-6))
    e_big = lame_energy(LameState(u, w, 1e2))
    expected = 0.5 * grid.h ** 2 * float(uf @ -(_ops(grid).L @ uf))
    assert abs(e_small - expected) <= 1e-9 * expected
    assert abs(e_big - expected) <= 1e-9 * expected


def test_state_validation():
    grid = _grid(8)
    u = StaggeredField.zeros(grid)
    with pytest.raises(ConfigurationError):
        LameState(u, u, 0.0)
    other = StaggeredField.zeros(_grid(4))
    with pytest.raises(ConfigurationError):
        LameState(u, other, 1e-2)


@pytest.mark.parametrize("T, dt, message", [
    (0.1, 0.0, "dt must be positive"),
    (0.005, 0.01, "T must be at least dt"),
])
def test_library_guards_name_the_bad_argument(T, dt, message):
    grid = _grid(4)
    state = LameState(StaggeredField.zeros(grid), StaggeredField.zeros(grid), 1e-2)
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        evolve_lame(state, T, dt, _zero_reference(grid))


def test_zero_initial_data_stays_zero():
    grid = _grid(8)
    tr = evolve_lame(LameState(StaggeredField.zeros(grid), StaggeredField.zeros(grid), 1e-2),
                     0.5, 1e-2, _zero_reference(grid))
    assert np.all(tr.E == 0.0) and np.all(tr.div_norm == 0.0)


def test_energy_conservation_long_run():
    _, ms, state0, u0, w0 = _modal_setup(n=16)
    tr = evolve_lame(LameState(u0, w0, 1e-2), 5.0, 1e-3, modal_reference(ms, state0))
    assert np.abs(tr.E[::10] - tr.E[0]).max() <= 1e-8 * tr.E[0]


def test_divergence_bound_from_energy():
    # div-free start: (1/eps)||div u||^2 <= 2 E at all times, E conserved
    _, ms, state0, u0, w0 = _modal_setup(n=16)
    for eps in (1e-1, 1e-2, 1e-3):
        state = LameState(u0, w0, eps)
        e0 = lame_energy(state)
        tr = evolve_lame(state, 1.0, 1e-3, modal_reference(ms, state0))
        assert tr.div_norm[::5].max() <= math.sqrt(2 * eps * e0) + 1e-8


def test_pure_wave_oracle():
    # eps = inf switches the penalty off; a discrete sine mode on the u
    # component then evolves at exactly the midpoint-mapped stencil frequency
    grid = _grid(32)
    h = grid.h
    f = face_field(grid, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y),
                   lambda x, y: 0.0 * x)
    omega2 = 2.0 * (2.0 - 2.0 * math.cos(math.pi * h)) / h ** 2
    dt = 1e-2
    theta = 2.0 * math.atan(math.sqrt(omega2) * dt / 2.0)
    steps = 200
    state0 = LameState(StaggeredField.from_flat(grid, f), StaggeredField.zeros(grid), math.inf)
    tr = evolve_lame(state0, steps * dt, dt,
                     reference=lambda t: math.cos(theta * round(t / dt)) * f)
    assert tr.err_norm[::50].max() <= 1e-9
    # continuum frequency check: omega ~ sqrt(2) pi at O(h^2)
    assert abs(math.sqrt(omega2) - math.sqrt(2.0) * math.pi) <= 4.0 * h ** 2


def test_convergence_study_columns():
    grid, ms, state0, u0, w0 = _modal_setup(n=16)
    ref = modal_reference(ms, state0)
    rows = convergence_study(u0, [1e-1, 1e-2, 1e-3], 1.0, 2e-3, ref)
    for eps, max_div, _, e0, drift in rows:
        assert math.isclose(e0, lame_energy(LameState(u0, w0, eps)), rel_tol=1e-12)
        assert max_div <= math.sqrt(2 * eps * e0) + 1e-8
        assert 0.0 <= drift <= 1e-10
    trace = evolve_lame(LameState(u0, w0, 1e-3), 1.0, 2e-3, reference=ref)
    assert rows[-1][3:] == (trace.E[0], np.abs(trace.E - trace.E[0]).max() / trace.E[0])
    divs = [r[1] for r in rows]
    errs = [r[2] for r in rows]
    # both columns decrease as eps decreases (5% noise floor)
    assert all(b <= a * 1.05 for a, b in zip(divs, divs[1:]))
    assert all(b <= a * 1.05 for a, b in zip(errs, errs[1:]))
    assert all(b / a < 1.0 for a, b in zip(errs, errs[1:]))


def test_zero_energy_has_zero_drift():
    grid = _grid(8)
    zero = StaggeredField.zeros(grid)
    [row] = convergence_study(zero, [1e-2], 0.1, 1e-2, _zero_reference(grid))
    assert row == (1e-2, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_non_finite_trace_raises():
    # faces of 1e200 overflow the energy at the first sample, whatever the roundoff
    grid = _grid(8)
    u0 = StaggeredField.from_flat(grid, np.where(_ops(grid).interior, 1e200, 0.0))
    with pytest.raises(NumericsError, match=r"non-finite Lame trace at t=0 \(eps=0.01, dt=0.01\)"):
        evolve_lame(LameState(u0, StaggeredField.zeros(grid), 1e-2), 0.1, 1e-2,
                    _zero_reference(grid))


def test_a_field_built_with_a_nonzero_wall_face_keeps_it_and_is_rejected():
    grid = _grid(8)
    wall = ~_ops(grid).interior
    u0 = StaggeredField.from_flat(grid, wall.astype(float))
    assert np.array_equal(u0.flat(), wall)
    with pytest.raises(PreconditionError, match="^evolve_lame needs zero wall faces in u and w$"):
        evolve_lame(LameState(u0, StaggeredField.zeros(grid), 1e-2), 0.1, 1e-2,
                    _zero_reference(grid))
    # a field of the modes is exactly zero there
    ms = build_modal_system(grid, 4)
    assert not ms.reconstruct(np.ones(4)).flat()[wall].any()


@pytest.mark.parametrize("field", ["u", "w"])
def test_a_nonzero_wall_face_raises(field):
    # a wall face written after construction is rejected too
    grid = _grid(8)
    state = LameState(StaggeredField.zeros(grid), StaggeredField.zeros(grid), 1e-2)
    getattr(state, field).v[3, 0] = 1.0
    with pytest.raises(PreconditionError, match="^evolve_lame needs zero wall faces in u and w$"):
        evolve_lame(state, 0.1, 1e-2, _zero_reference(grid))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_an_overflowing_error_norm_raises():
    # a finite state against a reference of 1e300 overflows only err_norm
    _, _, _, u0, w0 = _modal_setup(n=8)
    grid = u0.grid
    huge = np.full(grid.n_faces, 1e300)
    state = LameState(u0, w0, 1e-2)
    with pytest.raises(NumericsError, match="non-finite Lame trace"):
        evolve_lame(state, 0.02, 1e-2, reference=lambda t: huge)


def test_convergence_study_validation():
    grid, ms, state0, u0, w0 = _modal_setup(n=16)
    ref = modal_reference(ms, state0)
    with pytest.raises(ConfigurationError):
        convergence_study(u0, [1e-3, 1e-2], 0.5, 1e-2, ref)
    with pytest.raises(ConfigurationError, match="reference"):
        convergence_study(u0, [1e-2], 0.5, 1e-2, lambda t: np.zeros(_grid(8).n_faces))


def test_time_step_refinement_is_second_order():
    grid, ms, state0, u0, w0 = _modal_setup(n=16)
    ref = modal_reference(ms, state0)
    eps = 1e-2

    def max_err(dt):
        tr = evolve_lame(LameState(u0, w0, eps), 0.5, dt, reference=ref)
        return tr.err_norm[::max(1, int(round(0.05 / dt)))].max()

    e1, e2, e4 = max_err(2e-3), max_err(1e-3), max_err(5e-4)
    # differences between successive refinements shrink by about 4x
    d1, d2 = abs(e1 - e2), abs(e2 - e4)
    assert d2 <= 0.5 * d1


def test_penalty_pressure_mean_zero():
    # the penalty pressure is -(1/eps) div u; for any displacement with
    # no-penetration faces the cell mean of div u telescopes to zero, which
    # is the discrete divergence theorem behind the zero-mean normalization
    grid = _grid(16)
    d = _ops(grid).D @ random_face_field(grid, seed=7)
    assert np.abs(d).max() > 1.0          # genuinely non-divergence-free
    assert abs(d.mean()) <= 1e-10 * np.abs(d).max()


def _first_order_midpoint(state0, T, dt, reference):
    """Oracle of evolve_lame: the implicit midpoint rule on the 2 n_faces
    first-order system (u, w)' = (w, L_eps u), one LU of the whole matrix."""
    grid = state0.u.grid
    ops = _ops(grid)
    lop = ops.L if math.isinf(state0.eps) else ops.L + (1.0 / state0.eps) * (ops.G @ ops.D)
    nf = grid.n_faces
    m_big = sp.bmat([[None, sp.identity(nf)], [lop, None]], format="csr")
    eye = sp.identity(2 * nf, format="csr")
    solver = splu((eye - 0.5 * dt * m_big).tocsc())
    a_plus = (eye + 0.5 * dt * m_big).tocsr()

    def observe(x, t):
        e, div = _energy_and_div(grid, state0.eps, x[:nf], x[nf:])
        err = grid.h * float(np.linalg.norm(x[:nf] - reference(t)))
        return t, e, grid.h * float(np.linalg.norm(div)), err

    steps = int(round(T / dt))
    x = np.concatenate([state0.u.flat(), state0.w.flat()])
    samples = [observe(x, 0.0)]
    for k in range(1, steps + 1):
        x = solver.solve(a_plus @ x)
        samples.append(observe(x, k * dt))
    return LameTrace(*(np.array(column) for column in zip(*samples)))


def _recorded_bands(monkeypatch, state, T, dt):
    """The band matrices evolve_lame hands to dpbtrf in one run."""
    import stokeswave.lame as lame_module
    bands = []

    def recording_dpbtrf(ab, **kwargs):
        bands.append((ab.copy(), kwargs))
        return dpbtrf(ab, **kwargs)

    monkeypatch.setattr(lame_module, "dpbtrf", recording_dpbtrf)
    evolve_lame(state, T, dt, _zero_reference(state.u.grid))
    return bands


def _interior_block(grid, eps, dt):
    """I - (dt^2/4) L_eps on the interior faces, and its reverse Cuthill-McKee order."""
    inner = _ops(grid).interior
    l_ii = _penalized_laplacian(grid, eps)[inner][:, inner]
    a = (sp.identity(l_ii.shape[0], format="csr") - 0.25 * dt * dt * l_ii).tocsr()
    return a, reverse_cuthill_mckee(a, symmetric_mode=True)


def test_one_interior_factorization_and_its_failure(monkeypatch):
    import stokeswave.lame as lame_module
    grid = StaggeredGrid(9, 5, 0.3)
    state = LameState(StaggeredField.zeros(grid), StaggeredField.zeros(grid), 1e-2)
    bands = _recorded_bands(monkeypatch, state, 0.1, 1e-2)
    a, perm = _interior_block(grid, 1e-2, 1e-2)
    permuted = a[perm][:, perm].tocoo()
    bw = int((permuted.col - permuted.row).max())
    assert [(ab.shape, kwargs) for ab, kwargs in bands] == [((bw + 1, a.shape[0]), {})]

    def failing_dpbtrf(ab, **kwargs):
        return ab, 3     # LAPACK: the leading minor of order 3 is not positive definite

    monkeypatch.setattr(lame_module, "dpbtrf", failing_dpbtrf)
    with pytest.raises(NumericsError, match="sparse factorization failed"):
        evolve_lame(state, 0.1, 1e-2, _zero_reference(grid))


@pytest.mark.parametrize("nx, ny", [(16, 16), (20, 7), (6, 11)])
@pytest.mark.parametrize("eps", [math.inf, 1e-3])
def test_the_band_is_the_permuted_interior_block(monkeypatch, nx, ny, eps):
    grid = StaggeredGrid(nx, ny, 1.0 / nx)
    dt = 0.01
    state = LameState(StaggeredField.zeros(grid), StaggeredField.zeros(grid), eps)
    [(ab, _)] = _recorded_bands(monkeypatch, state, dt, dt)
    bw, n = ab.shape[0] - 1, ab.shape[1]
    assert bw <= 2 * min(nx, ny) + 1
    # LAPACK's upper band layout: ab[bw + i - j, j] = A[i, j] for j - bw <= i <= j
    dense = np.zeros((n, n))
    for d in range(bw + 1):
        j = np.arange(d, n)
        dense[j - d, j] = dense[j, j - d] = ab[bw - d, d:]
    row, col = np.indices(ab.shape)
    assert not ab[row + col < bw].any()    # the corner outside the matrix stays 0
    a, perm = _interior_block(grid, eps, dt)
    assert np.array_equal(dense, a[perm][:, perm].toarray())


@pytest.mark.parametrize("nx, ny, h", [(8, 8, 1.0 / 8), (9, 5, 0.3)])
@pytest.mark.parametrize("eps", [math.inf, 1e-3])
def test_wall_rows_vanish_and_interior_block_is_symmetric(nx, ny, h, eps):
    # the two facts the interior-face Newmark step rests on
    grid = StaggeredGrid(nx, ny, h)
    lop = _penalized_laplacian(grid, eps)
    inner = _ops(grid).interior
    assert lop[~inner].count_nonzero() == 0
    assert np.all(lop.diagonal()[inner] != 0.0)
    block = lop[inner][:, inner]
    assert abs(block - block.T).max() <= 1e-14 * abs(block).max()


# The ranges keep (dt^2/4) ||L_eps|| below about 1e4, where both paths agree
# to 3e-13; at h = 0.05, dt = 0.1, eps = 1e-4 the oracle alone moves by 7e-12
# when its LU column ordering changes.
@settings(max_examples=40, deadline=None)
@given(nx=st.integers(3, 12), ny=st.integers(3, 12), h=st.floats(0.1, 0.5),
       eps=st.one_of(st.just(math.inf), st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e)),
       dt=st.floats(1e-3, 0.05), steps=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_newmark_step_matches_first_order_midpoint(nx, ny, h, eps, dt, steps, seed):
    assume(not math.isclose(h, 1.0 / nx))
    grid = StaggeredGrid(nx, ny, h)
    rng = np.random.default_rng(seed)
    inner = _ops(grid).interior
    # random interior faces and zero wall faces
    u0, w0 = (StaggeredField.from_flat(grid, np.where(inner, rng.standard_normal(grid.n_faces),
                                                      0.0))
              for _ in range(2))
    target = np.where(inner, rng.standard_normal(grid.n_faces), 0.0)
    parts = np.arange(grid.n_faces) < grid.n_u

    def reference(t):
        return np.where(parts, math.cos(t), math.sin(t)) * target

    state0 = LameState(u0, w0, eps)
    got = evolve_lame(state0, steps * dt, dt, reference=reference)
    want = _first_order_midpoint(state0, steps * dt, dt, reference=reference)
    for a, b in zip(vars(got).values(), vars(want).values()):
        assert a.shape == b.shape
        assert np.abs(a - b).max() <= 1e-11 * np.abs(b).max()

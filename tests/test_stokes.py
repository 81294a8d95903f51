import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, DiskPatch, Modes,
                        NumericsError, PreconditionError, Rectangle, StaggeredGrid,
                        build_modal_system, damping_masses, damping_matrix, leray_project,
                        stokes_eigenpairs)
from stokeswave import stokes
from stokeswave.stokes import _canonical_gauge, _ops, _parity_classes, solve_neumann_poisson

from conftest import (dense_modes, face_field, pencil, random_divergence_free,
                      random_face_field, split_faces)

SQ = Rectangle(1.0, 1.0)


def _grid(n=16):
    return StaggeredGrid(n, n, 1.0 / n)


def test_divergence_examples():
    g = _grid(8)
    div = _ops(g).D
    assert np.all(div @ np.zeros(g.n_faces) == 0.0)
    # u depending only on y: interior face differences vanish identically;
    # the zero wall faces leave a hand-computable artifact in the first and
    # last cell columns
    f = face_field(g, lambda x, y: np.sin(y), lambda x, y: 0.0 * x)
    d = (div @ f).reshape(g.nx, g.ny)
    assert np.abs(d[1:-1, :]).max() == 0.0
    # f = (x, 0): face differences give exactly 1 away from the right wall
    fx = face_field(g, lambda x, y: x, lambda x, y: 0.0 * x)
    d = (div @ fx).reshape(g.nx, g.ny)
    assert np.abs(d[:-1, :] - 1.0).max() <= 1e-13
    # right wall column by hand: (0 - x_{n-1})/h = -(n - 1)
    assert np.allclose(d[-1, :], -(g.nx - 1))


def test_gradient_examples_and_adjointness():
    g = _grid(8)
    ops = _ops(g)
    assert np.abs(ops.G @ np.full(64, 3.7)).max() == 0.0
    # the gradient of q = x, sampled at the cell centers in cell order
    gu, gv = split_faces(g, ops.G @ np.repeat((np.arange(g.nx) + 0.5) * g.h, g.ny))
    assert np.abs(gu[1:-1, :] - 1.0).max() <= 1e-13
    assert np.abs(gv).max() == 0.0
    # adjointness <G q, f> = -<q, D f>, inner products written out directly
    rng = np.random.default_rng(5)
    q = rng.standard_normal(64)
    f = random_face_field(g, seed=6)
    lhs = g.h ** 2 * float((ops.G @ q) @ f)
    rhs = -g.h ** 2 * float(q @ (ops.D @ f))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_vector_laplacian_examples():
    g = _grid(32)
    lap = _ops(g).L
    assert np.abs(lap @ np.zeros(g.n_faces)).max() == 0.0
    # discrete sine mode is an exact eigenvector of the stencil; its symbol
    # is -2(2 - 2cos(pi h))/h^2 which approaches -2 pi^2 at O(h^2)
    f = face_field(g, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y),
                   lambda x, y: 0.0 * x)
    lu, fu = split_faces(g, lap @ f)[0], split_faces(g, f)[0]
    mu = -2.0 * (2.0 - 2.0 * math.cos(math.pi * g.h)) / g.h ** 2
    assert np.abs(lu[1:-1, :] - mu * fu[1:-1, :]).max() <= 1e-10 * abs(mu)
    assert abs(mu + 2 * math.pi ** 2) <= 4.0 * g.h ** 2 * math.pi ** 2
    # affine fields are annihilated away from the walls
    aff = face_field(g, lambda x, y: 1 + 2 * x - y, lambda x, y: 0.3 * x + y)
    la_u, la_v = split_faces(g, lap @ aff)
    assert np.abs(la_u[2:-2, 2:-2]).max() <= 1e-10
    assert np.abs(la_v[2:-2, 2:-2]).max() <= 1e-10


def test_operators_match_loop_stencils_on_a_nonsquare_grid():
    # each operator against its stencil written out face by face; the random
    # arrays include the wall faces, which L reads and whose own rows it masks
    nx, ny, h = 7, 4, 0.3
    g = StaggeredGrid(nx, ny, h)
    ops = _ops(g)
    rng = np.random.default_rng(3)
    flat = rng.standard_normal(g.n_faces)
    u, v = flat[:g.n_u].reshape(nx + 1, ny), flat[g.n_u:].reshape(nx, ny + 1)
    q = rng.standard_normal((nx, ny))
    psi = np.zeros((nx + 1, ny + 1))
    psi[1:-1, 1:-1] = rng.standard_normal((nx - 1, ny - 1))

    div = np.zeros((nx, ny))
    for i in range(nx):
        for j in range(ny):
            div[i, j] = (u[i + 1, j] - u[i, j] + v[i, j + 1] - v[i, j]) / h
    gu, gv = np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))
    for i in range(1, nx):
        for j in range(ny):
            gu[i, j] = (q[i, j] - q[i - 1, j]) / h
    for i in range(nx):
        for j in range(1, ny):
            gv[i, j] = (q[i, j] - q[i, j - 1]) / h
    # the wall half a cell away reflects the tangential component: ghost = -value
    lu, lv = np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))
    for i in range(1, nx):
        for j in range(ny):
            below = u[i, j - 1] if j > 0 else -u[i, j]
            above = u[i, j + 1] if j < ny - 1 else -u[i, j]
            lu[i, j] = (u[i - 1, j] + u[i + 1, j] + below + above - 4.0 * u[i, j]) / h ** 2
    for i in range(nx):
        for j in range(1, ny):
            left = v[i - 1, j] if i > 0 else -v[i, j]
            right = v[i + 1, j] if i < nx - 1 else -v[i, j]
            lv[i, j] = (left + right + v[i, j - 1] + v[i, j + 1] - 4.0 * v[i, j]) / h ** 2
    cu, cv = np.zeros((nx + 1, ny)), np.zeros((nx, ny + 1))
    for i in range(nx + 1):
        for j in range(ny):
            cu[i, j] = (psi[i, j + 1] - psi[i, j]) / h
    for i in range(nx):
        for j in range(ny + 1):
            cv[i, j] = -(psi[i + 1, j] - psi[i, j]) / h

    def close(got, *want):
        want = np.concatenate([w.ravel() for w in want])
        return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    assert close(ops.D @ flat, div)
    assert close(ops.G @ q.ravel(), gu, gv)
    assert close(ops.L @ flat, lu, lv)
    assert close(ops.C @ psi[1:-1, 1:-1].ravel(), cu, cv)
    # L's diagonal: -4/h^2 inside, -5/h^2 beside a wall (the -3 ghost), 0 on wall rows
    diag_u = np.full((nx + 1, ny), -4.0)
    diag_u[:, [0, -1]] = -5.0
    diag_u[[0, -1], :] = 0.0
    diag_v = np.full((nx, ny + 1), -4.0)
    diag_v[[0, -1], :] = -5.0
    diag_v[:, [0, -1]] = 0.0
    assert close(ops.L.diagonal(), diag_u / h ** 2, diag_v / h ** 2)


def _dense_poisson_oracle(grid, rhs):
    # independent dense solve of the same Neumann operator, assembled as D @ G
    # and pseudo-inverted through its eigendecomposition (constant mode dropped)
    lap = (_ops(grid).D @ _ops(grid).G).toarray()
    w, vecs = np.linalg.eigh(lap)
    coeffs = vecs.T @ rhs.ravel()
    keep = np.abs(w) > 1e-10 * np.abs(w).max()
    coeffs = np.where(keep, coeffs / np.where(keep, w, 1.0), 0.0)
    return (vecs @ coeffs).reshape(grid.nx, grid.ny)


def test_poisson_solver_matches_operator_and_oracle():
    g = _grid(16)
    rng = np.random.default_rng(1)
    rhs = rng.standard_normal((16, 16))
    q = solve_neumann_poisson(g, rhs)
    # solves the literal D@G operator equation after mean deflation
    lhs = (_ops(g).D @ (_ops(g).G @ q.ravel())).reshape(16, 16)
    assert np.abs(lhs - (rhs - rhs.mean())).max() <= 1e-11 * np.abs(rhs).max()
    assert abs(q.mean()) <= 1e-13 * np.abs(q).max()
    q_oracle = _dense_poisson_oracle(g, rhs)
    assert np.abs(q - q_oracle).max() <= 1e-9 * np.abs(q_oracle).max()


def test_leray_project_examples():
    g = _grid(16)
    ops = _ops(g)
    rng = np.random.default_rng(2)
    # projector annihilates gradients
    q0 = rng.standard_normal((16, 16))
    q0 -= q0.mean()
    gq = ops.G @ q0.ravel()
    out, _ = leray_project(g, gq)
    assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(gq)
    # idempotence on the range
    f = random_divergence_free(g, seed=3)
    out, _ = leray_project(g, f)
    assert np.linalg.norm(out - f) <= 1e-10 * np.linalg.norm(f)
    # f = (x, 0) against the independent dense Poisson oracle; the sampled
    # field is exactly the discrete gradient of x^2/2, so both paths must
    # return (numerically) zero and identical pressures
    fx = face_field(g, lambda x, y: x, lambda x, y: 0.0 * x)
    out, q = leray_project(g, fx)
    q_oracle = _dense_poisson_oracle(g, ops.D @ fx)
    expected = fx - ops.G @ q_oracle.ravel()
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(fx)
    assert np.linalg.norm(out) <= 1e-10 * np.linalg.norm(fx)
    assert np.abs(q - (q_oracle - q_oracle.mean())).max() <= 1e-9 * np.abs(q).max()
    assert abs(q.mean()) <= 1e-12


def test_projector_algebra_invariants():
    g = _grid(32)
    for seed in range(3):
        f = random_face_field(g, seed=seed)
        p1, _ = leray_project(g, f)
        p2, _ = leray_project(g, p1)
        assert np.linalg.norm(p2 - p1) <= 1e-10 * np.linalg.norm(p1)
        assert np.linalg.norm(_ops(g).D @ p1) <= 1e-10 * np.linalg.norm(f)
    # symmetry of the projector in the mesh inner product
    f = random_face_field(g, seed=11)
    h = random_face_field(g, seed=12)
    pf, _ = leray_project(g, f)
    ph, _ = leray_project(g, h)
    lhs, rhs = g.h ** 2 * float(pf @ h), g.h ** 2 * float(f @ ph)
    assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), 1.0)


def test_stokes_apply_symmetric_negative():
    # the projected Laplacian P L is symmetric and negative on divergence-free fields
    g = _grid(16)

    def stokes_apply(f):
        return leray_project(g, _ops(g).L @ f)[0]

    assert np.abs(stokes_apply(np.zeros(g.n_faces))).max() == 0.0
    f = random_divergence_free(g, seed=4)
    h = random_divergence_free(g, seed=5)
    lhs = g.h ** 2 * float(stokes_apply(f) @ h)
    rhs = g.h ** 2 * float(f @ stokes_apply(h))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    assert stokes_apply(f) @ f < 0.0


def test_discrete_integration_by_parts():
    # <-lap f, f> equals the explicit sum of squared differences including
    # the reflected-ghost wall terms (factor 2 on wall-adjacent tangential rows)
    g = _grid(16)
    f = random_face_field(g, seed=9)
    qform = g.h ** 2 * float(f @ -(_ops(g).L @ f))
    u, v = split_faces(g, f)
    by_diff = 0.0
    by_diff += np.sum(np.diff(u, axis=0) ** 2)            # u: x-differences (walls are nodes)
    by_diff += np.sum(np.diff(u, axis=1) ** 2)            # u: interior y-differences
    by_diff += 2.0 * np.sum(u[:, 0] ** 2) + 2.0 * np.sum(u[:, -1] ** 2)
    by_diff += np.sum(np.diff(v, axis=1) ** 2)
    by_diff += np.sum(np.diff(v, axis=0) ** 2)
    by_diff += 2.0 * np.sum(v[0, :] ** 2) + 2.0 * np.sum(v[-1, :] ** 2)
    assert abs(qform - by_diff) <= 1e-10 * by_diff


def test_eigenpairs_sanity_small_grid():
    g = _grid(16)
    modes = stokes_eigenpairs(g, 12)
    lams = modes.lambdas
    assert np.all(np.diff(lams) >= -1e-12)
    assert lams[0] > 2 * math.pi ** 2
    assert all(p.residual <= 1e-8 for p in modes)
    # unit norms, orthogonality, discrete divergence-freeness
    phi = modes.phi
    gram = phi.T @ phi * g.h ** 2
    assert np.abs(gram - np.eye(12)).max() <= 1e-10
    assert g.h * np.linalg.norm(_ops(g).D @ phi, axis=0).max() <= 1e-10


def test_eigenpairs_dense_oracle_agreement():
    # the unit square has exactly degenerate pairs; the canonical gauge makes
    # both paths return the same modes, not only the same eigenvalues
    g = _grid(16)
    lam_d, phi_d = dense_modes(g, 12)
    sparse = stokes_eigenpairs(g, 12)
    assert np.abs(lam_d - sparse.lambdas).max() <= 1e-9
    assert np.abs(phi_d - sparse.phi).max() <= 1e-8


def test_eigenpairs_count_guard():
    g = _grid(4)
    with pytest.raises(PreconditionError):
        stokes_eigenpairs(g, 10)  # div-free dimension is (nx-1)^2 = 9


def test_class_eigensolve_full_count_matches_oracle():
    # every one of the n_psi = 9 pairs, which the full-size ARPACK run could not return
    g = _grid(4)
    lam_d, phi_d = dense_modes(g, 9)
    classes = stokes_eigenpairs(g, 9)
    assert np.abs(lam_d - classes.lambdas).max() <= 1e-10 * lam_d.max()
    assert np.abs(phi_d - classes.phi).max() <= 1e-8


def test_eigenpairs_full_count_above_the_dense_size():
    # the whole divergence-free dimension, (25 - 1) * (3 - 1), on a grid past the dense rule
    modes = stokes_eigenpairs(StaggeredGrid(25, 3, 0.04), 48)
    assert len(modes) == 48
    assert np.all(modes.lambdas[:-1] <= modes.lambdas[1:])


def test_quasimode_residual_identity():
    # with h = lambda^(-1/2) and the projection pressure, the h-scaled mode
    # equation is satisfied to solver precision
    g = _grid(32)
    ops = _ops(g)
    modes = stokes_eigenpairs(g, 20)
    for k in range(0, 20, 3):
        p = modes[k]
        h2 = 1.0 / p.lam
        r = -h2 * (ops.L @ p.phi) - p.phi + h2 * (ops.G @ p.pressure.ravel())
        assert g.h * np.linalg.norm(r) <= 1e-6


def test_damping_matrix_examples():
    g = _grid(16)
    modes = stokes_eigenpairs(g, 6)
    assert np.all(damping_matrix(modes, None) == 0.0)
    # constant damping: orthonormality makes B = c * I up to quadrature roundoff
    const = DampingProfile(SQ, DiskPatch((0.5, 0.5), 5.0), 0.7, 0.0)
    b = damping_matrix(modes, const)
    assert np.abs(b - 0.7 * np.eye(6)).max() <= 1e-10
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.02)
    bc = damping_matrix(modes, collar)
    assert np.abs(bc - bc.T).max() <= 1e-12
    assert np.linalg.eigvalsh(bc).min() >= -1e-10
    assert np.all(np.diag(bc) >= 0.0)


def test_modal_system_reconstruct_roundtrip():
    g = _grid(16)
    ms = build_modal_system(g, 5)
    coeffs = np.array([1.0, 0.0, -0.5, 0.0, 0.25])
    f = ms.reconstruct(coeffs).flat()
    recovered = np.array([g.h ** 2 * float(f @ p.phi) for p in ms.modes])
    assert np.abs(recovered - coeffs).max() <= 1e-10


def test_modes_are_one_matrix_with_per_mode_views():
    g = StaggeredGrid(9, 6, 1.0 / 9)
    modes = stokes_eigenpairs(g, 10)
    assert len(modes) == 10
    for k in range(10):
        p = modes[k]
        assert p.lam == modes.lambdas[k] and p.residual == modes.residual[k]
        assert np.array_equal(p.phi, modes.phi[:, k])
        assert np.array_equal(p.pressure, modes.pressure[:, :, k])
    with pytest.raises(IndexError):
        modes[10]
    pairs = list(modes)
    assert len(pairs) == 10 and all(type(p.residual) is float for p in pairs)
    for array in (modes.lambdas, modes.phi, modes.pressure, modes.residual, pairs[0].phi,
                  pairs[0].pressure):
        with pytest.raises(ValueError):
            array[0] = 1.0
    # the damping matrix against a per-mode loop, and reconstruct as phi @ c
    collar = DampingProfile(Rectangle(g.nx * g.h, g.ny * g.h), BoundaryCollar(0.1), 1.0, 0.02)
    a = np.concatenate([collar.values(g.u_points()), collar.values(g.v_points())])
    loop = [[g.h ** 2 * float((a * p.phi) @ q.phi) for q in pairs] for p in pairs]
    b = damping_matrix(modes, collar)
    assert np.abs(b - np.array(loop)).max() <= 1e-13
    c = np.random.default_rng(0).standard_normal(10)
    assert np.array_equal(stokes.ModalSystem(modes, b).reconstruct(c).flat(), modes.phi @ c)


def test_grid_construction_guards():
    with pytest.raises(ConfigurationError):
        StaggeredGrid(2, 8, 0.1)
    with pytest.raises(ConfigurationError):
        StaggeredGrid.for_rectangle(Rectangle(1.0, 0.7), 16)
    g = StaggeredGrid.for_rectangle(Rectangle(2.0, 1.0), 16)
    assert g.ny == 8 and abs(g.h - 0.125) <= 1e-15


@pytest.mark.parametrize("build, message", [
    (lambda: StaggeredGrid(4, 4, 0.0), "grid spacing must be positive"),
    (lambda: StaggeredGrid(4, 4, math.nan), "grid spacing must be positive"),
    (lambda: StaggeredGrid(4, 4, 1e-200), "grid spacing 1e-200 has no positive finite square"),
    (lambda: StaggeredGrid(4, 4, 1e200), "grid spacing 1e\\+200 has no positive finite square"),
    (lambda: stokes.StaggeredField(np.zeros((4, 4)), np.zeros((4, 5)), StaggeredGrid(4, 4, 0.25)),
     "staggered array shapes do not match the grid"),
], ids=["zero_spacing", "nan_spacing", "tiny_spacing", "huge_spacing", "field_shape"])
def test_library_guards_name_the_bad_argument(build, message):
    with pytest.raises(ConfigurationError, match=f"^{message}$"):
        build()


def test_eigen_grid_convergence_small():
    # coarse-grid proxy of the refinement stability claim; the 2% bound at
    # nx = 64 vs 128 is asserted in the acceptance suite
    lam_a = stokes_eigenpairs(_grid(16), 5).lambdas
    lam_b = stokes_eigenpairs(_grid(32), 5).lambdas
    assert np.all(np.abs(lam_a - lam_b) / lam_b <= 0.05)
    lam_c = stokes_eigenpairs(_grid(64), 5).lambdas
    # second-order convergence: the 16->32 gap shrinks by about 4x at 32->64
    assert np.abs(lam_b - lam_c).max() <= 0.5 * np.abs(lam_a - lam_b).max()


def _second_difference(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))


@pytest.mark.parametrize("nx, ny", [(3, 3), (9, 6), (12, 5), (16, 16)])
def test_streamfunction_pencil_structure(nx, ny):
    # M is the 5-point Dirichlet vertex Laplacian, and K - M^2 is the diagonal
    # 2/h^4 on edge vertices, 4/h^4 on corners and 0 inside
    h = 0.37
    k, m = pencil(StaggeredGrid(nx, ny, h))
    mx, my = nx - 1, ny - 1
    lap = (sp.kron(_second_difference(mx), sp.identity(my))
           + sp.kron(sp.identity(mx), _second_difference(my))) / h ** 2
    assert abs(m - lap).max() <= 1e-12 * abs(m).max()
    ring = np.zeros((mx, my))
    ring[[0, -1], :] += 2.0 / h ** 4
    ring[:, [0, -1]] += 2.0 / h ** 4
    assert abs(k - lap @ lap - sp.diags(ring.ravel())).max() <= 1e-12 * abs(k).max()


def _sine_matrix(n):
    k = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


@pytest.mark.parametrize("nx, ny, h", [(3, 3, 1.0), (4, 7, 0.3), (9, 6, 0.37), (12, 5, 2.0),
                                       (16, 16, 1 / 16), (21, 8, 0.05)])
def test_parity_classes_are_the_sine_blocks_of_the_pencil(nx, ny, h):
    # in the sine basis M is Lam / h^2, and K restricted to a class is
    # Lam^(1/2) A Lam^(1/2) / h^4 with A = Lam + W W^T of the class; every
    # block between two classes is zero
    grid = StaggeredGrid(nx, ny, h)
    k, m = pencil(grid)
    mx, my = nx - 1, ny - 1
    sx, sy = _sine_matrix(mx), _sine_matrix(my)
    # the last sine row is the first with sign (-1)^(k+1): what couples equal parities only
    assert np.abs(sx[-1] - (-1.0) ** np.arange(mx) * sx[0]).max() <= 1e-14
    s = np.kron(sx, sy)
    k_hat = s @ k.toarray() @ s
    m_hat = s @ m.toarray() @ s
    k_max = abs(k).max()
    classes = _parity_classes(grid)
    assert list(classes) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    flat = {c: (cls.ix[:, None] * my + cls.iy).ravel() for c, cls in classes.items()}
    assert sorted(np.concatenate(list(flat.values()))) == list(range(mx * my))
    for c, cls in classes.items():
        rows = flat[c]
        root = np.sqrt(cls.lam.ravel())
        block = root[:, None] * cls.dense() * root / h ** 4
        assert np.abs(k_hat[np.ix_(rows, rows)] - block).max() <= 1e-12 * k_max
        assert np.abs(m_hat[np.ix_(rows, rows)] - np.diag(cls.lam.ravel()) / h ** 2).max() \
            <= 1e-12 * abs(m).max()
        for other in classes:
            if other != c:
                cross = np.ix_(rows, flat[other])
                assert np.abs(k_hat[cross]).max() <= 1e-12 * k_max
                assert np.abs(m_hat[cross]).max() <= 1e-12 * abs(m).max()


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(3, 40), ny=st.integers(3, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_parity_class_woodbury_solve_matches_dense_solve(nx, ny, seed):
    rng = np.random.default_rng(seed)
    for cls in _parity_classes(StaggeredGrid(nx, ny, 1.0)).values():
        a = cls.dense()
        b = rng.standard_normal(cls.size)
        x = cls.solve(b)
        assert np.linalg.norm(cls.matvec(x) - b) <= 1e-12 * np.abs(a).max() * np.linalg.norm(x)
        assert np.abs(cls.matvec(x) - a @ x).max() <= 1e-12 * np.abs(a).max() * np.abs(x).max()
        oracle = np.linalg.solve(a, b)
        assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(3, 30), ny=st.integers(3, 30), data=st.data())
def test_class_eigensolve_matches_dense_oracle(nx, ny, data):
    g = StaggeredGrid(nx, ny, 1.0 / nx)
    _check_against_dense_oracle(g, data.draw(st.integers(1, (nx - 1) * (ny - 1)), label="count"))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 30), data=st.data())
def test_split_class_eigensolve_matches_dense_oracle(n, data):
    # every ee and oo class solved as its two swap halves, whatever its size; a
    # full count makes every half take the dense path
    g = StaggeredGrid(n, n, 1.0 / n)
    full = data.draw(st.booleans(), label="full")
    count = (n - 1) ** 2 if full else data.draw(st.integers(1, (n - 1) ** 2), label="count")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stokes, "_SPLIT_SIZE", 1)
        _check_against_dense_oracle(g, count)


def _check_against_dense_oracle(g, count):
    nx, ny = g.nx, g.ny
    n_psi = (nx - 1) * (ny - 1)
    lam_d, phi_d = dense_modes(g, count)
    classes = stokes_eigenpairs(g, count)
    assert np.all(np.abs(lam_d - classes.lambdas) <= 1e-10 * lam_d)
    phi_c = classes.phi
    assert np.abs(phi_c.T @ phi_c * g.h ** 2 - np.eye(count)).max() <= 1e-12
    # a count that splits a degenerate cluster leaves its kept modes to each
    # path's own rule, so the modes are compared below that cluster only
    k, m = pencil(g)
    all_lam = scipy.linalg.eigh(k.toarray(), m.toarray(), eigvals_only=True)
    keep = count
    if count < n_psi and all_lam[count] - all_lam[count - 1] <= 1e-9 * all_lam[count]:
        keep = int(np.searchsorted(lam_d, lam_d[-1] * (1.0 - 1e-9)))
    # modes within a relative 1e-6 of a neighbour are fixed by either solver
    # only up to a rotation among them (differences of 6e-9 at gaps of 1e-7 on
    # 28 x 28), so such a group is compared as a span; a lone mode directly
    phi_d = phi_d[:, :keep]
    lam_d = lam_d[:keep]
    for group in np.split(np.arange(keep), np.flatnonzero(np.diff(lam_d) > 1e-6 * lam_d[1:]) + 1):
        want, got = phi_d[:, group], phi_c[:, group]
        if group.size > 1:
            want = want @ (want.T @ got * g.h ** 2)
        assert np.abs(want - got).max(initial=0.0) <= 1e-8


@pytest.mark.parametrize("nx, ny, count", [(16, 16, 40), (20, 10, 60), (9, 7, 48)])
def test_batched_residuals_and_pressures_match_leray_project(nx, ny, count):
    g = StaggeredGrid(nx, ny, 1.0 / nx)
    for p in stokes_eigenpairs(g, count):
        proj, q = leray_project(g, _ops(g).L @ p.phi)
        resid = g.h * np.linalg.norm(-proj - p.lam * p.phi)
        assert abs(resid - p.residual) <= 1e-12 * p.residual
        assert np.abs(q - p.pressure).max() <= 1e-12 * np.abs(q).max()


@pytest.mark.parametrize("split_size", [stokes._SPLIT_SIZE, 1], ids=["classes", "halves"])
def test_split_pair_keeps_the_earlier_class_and_partners_are_bit_identical(monkeypatch,
                                                                            split_size):
    # on the square the second and third modes are swap partners in the
    # classes eo and oe; count = 2 splits them and keeps the eo mode, whose
    # streamfunction is even in x and odd in y, so u is even in both
    monkeypatch.setattr(stokes, "_SPLIT_SIZE", split_size)
    g = _grid(16)
    u = split_faces(g, stokes_eigenpairs(g, 2)[1].phi)[0]
    assert np.abs(u[::-1, :] - u).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(u[:, ::-1] - u).max() <= 1e-12 * np.abs(u).max()
    lam = stokes_eigenpairs(g, 100).lambdas
    # the partner pairs are exactly equal, and nothing else is within the cluster tolerance
    equal = np.flatnonzero(lam[1:] == lam[:-1])
    close = np.flatnonzero(lam[1:] - lam[:-1] <= stokes._CLUSTER_TOL * lam[1:])
    assert equal.size == 25 and np.array_equal(equal, close)


def test_truncated_class_doubles_its_count(monkeypatch):
    # on a thin 100 x 3 grid the lowest 40 modes all have the first y
    # wavenumber, so the classes ee and oe need about 20 pairs each, more than
    # the count // 4 + margin = 18 they are asked for first
    asked = []
    lowest = stokes._ParityClass.lowest
    monkeypatch.setattr(stokes._ParityClass, "lowest",
                        lambda self, k: asked.append((self.size, k)) or lowest(self, k))
    g = StaggeredGrid(100, 3, 0.01)
    count = 40
    first = count // 4 + stokes._CLASS_MARGIN
    classes = stokes_eigenpairs(g, count)
    assert asked == [(50, first), (50, first), (49, first), (49, first),
                     (50, 2 * first), (49, 2 * first)]
    lam_d, _ = dense_modes(g, count)
    assert np.all(np.abs(lam_d - classes.lambdas) <= 1e-10 * lam_d)


def test_truncated_swap_half_doubles_its_count(monkeypatch):
    # at nx = 32 and 424 modes the swap-symmetric half of ee holds more than the
    # count // 8 + margin = 61 pairs it is asked for first
    monkeypatch.setattr(stokes, "_SPLIT_SIZE", 1)
    asked = []
    lowest = stokes._SwapHalf.lowest
    monkeypatch.setattr(stokes._SwapHalf, "lowest",
                        lambda self, k: asked.append((self.sign, self.size, k))
                        or lowest(self, k))
    g = _grid(32)
    count = 424
    first = count // 8 + stokes._CLASS_MARGIN
    modes = stokes_eigenpairs(g, count)
    # in the class order ee+, ee-, eo, oe, oo+, oo-
    assert asked == [(1.0, 136, first), (-1.0, 120, first), (1.0, 120, first),
                     (-1.0, 105, first), (1.0, 136, 2 * first)]
    k, m = pencil(g)
    lam_d = scipy.linalg.eigh(k.toarray(), m.toarray(), eigvals_only=True)[:count]
    assert np.all(np.abs(lam_d - modes.lambdas) <= 1e-10 * lam_d)


@pytest.mark.parametrize("split_size", [stokes._SPLIT_SIZE, 1], ids=["classes", "halves"])
def test_an_arpack_run_that_does_not_converge_raises(monkeypatch, split_size):
    def no_convergence(*args, k, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(3), np.zeros((1, 3)))

    monkeypatch.setattr(stokes, "_SPLIT_SIZE", split_size)
    monkeypatch.setattr(stokes, "eigsh", no_convergence)
    k = 100 // (8 if split_size == 1 else 4) + stokes._CLASS_MARGIN
    with pytest.raises(NumericsError,
                       match=f"^eigensolver did not converge: 3 of {k} eigenvalues found$"):
        stokes_eigenpairs(_grid(32), 100)


def _swap_basis(n, sign):
    """Columns (e_kl + sign e_lk) / sqrt 2 for k < l, then e_kk for sign 1, of raveled
    (n, n) arrays, written out entry by entry."""
    cols = []
    for k in range(n):
        for l in range(k, n):
            e = np.zeros((n, n))
            if k == l:
                if sign < 0:
                    continue
                e[k, k] = 1.0
            else:
                e[k, l], e[l, k] = math.sqrt(0.5), sign * math.sqrt(0.5)
            cols.append(e.ravel())
    return np.array(cols).reshape(-1, n * n).T


def _reduced_dense(half):
    return half.reduce(half.reduce(half.parent.dense()).T)


@pytest.mark.parametrize("n", [3, 4, 7, 12, 17])
def test_swap_halves_are_the_sine_blocks_on_swap_symmetric_and_antisymmetric_arrays(n):
    # K restricted to a class is Lam^(1/2) A Lam^(1/2) / h^4 in the sine basis; on a
    # square the swap maps ee and oo into themselves, so A, restricted to the arrays
    # with d = d^T or d = -d^T, splits into two blocks that share its eigenvalues
    h = 1.0 / n
    grid = StaggeredGrid(n, n, h)
    k, _ = pencil(grid)
    s = np.kron(_sine_matrix(n - 1), _sine_matrix(n - 1))
    k_hat = s @ k.toarray() @ s
    for c in [(0, 0), (1, 1)]:
        cls = _parity_classes(grid)[c]
        rows = (cls.ix[:, None] * (n - 1) + cls.iy).ravel()
        root = np.sqrt(cls.lam.ravel())
        a = k_hat[np.ix_(rows, rows)] * h ** 4 / root[:, None] / root
        scale = np.abs(a).max()
        halves = [stokes._SwapHalf(cls, sign) for sign in (1.0, -1.0)]
        for half in halves:
            e = _swap_basis(cls.shape[0], half.sign)
            assert half.size == e.shape[1]
            assert np.abs(half.expand(np.eye(half.size)) - e).max(initial=0.0) == 0.0
            assert np.abs(_reduced_dense(half) - e.T @ a @ e).max(initial=0.0) <= 1e-12 * scale
            x = np.random.default_rng(n).standard_normal(half.size)
            assert np.abs(half.reduce(half.expand(x)) - x).max(initial=0.0) \
                <= 1e-15 * np.abs(x).max(initial=0.0)
        plus, minus = (_swap_basis(cls.shape[0], sign) for sign in (1.0, -1.0))
        assert np.abs(plus.T @ a @ minus).max(initial=0.0) <= 1e-12 * scale
        both = np.sort(np.concatenate([np.linalg.eigvalsh(_reduced_dense(h_)) for h_ in halves]))
        assert np.abs(both - np.linalg.eigvalsh(cls.dense())).max() <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_swap_half_solve_matches_dense_solve(n, seed):
    rng = np.random.default_rng(seed)
    classes = _parity_classes(StaggeredGrid(n, n, 1.0))
    for half in (stokes._SwapHalf(classes[c], sign) for c in [(0, 0), (1, 1)]
                 for sign in (1.0, -1.0)):
        if half.size == 0:
            continue
        a = _reduced_dense(half)
        b = rng.standard_normal(half.size)
        x = half.solve(b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.abs(a).max() * np.linalg.norm(x)
        oracle = np.linalg.solve(a, b)
        assert np.linalg.norm(x - oracle) <= 1e-10 * np.linalg.norm(oracle)


def test_swap_half_streamfunctions_are_swap_symmetric_or_antisymmetric(monkeypatch):
    # a mode of a half is exactly (anti)symmetric in its sine coefficients, so its
    # streamfunction is to roundoff; the eo and oe modes, of mixed reflection
    # parities, are not
    monkeypatch.setattr(stokes, "_SPLIT_SIZE", 1)
    g = _grid(24)
    psi = stokes._class_eigenpairs(g, 80)[1].reshape(23, 23, -1)
    signs = []
    for p in psi.transpose(2, 0, 1):
        if np.abs(p[::-1, :] - p[:, ::-1]).max() > 1e-12 * np.abs(p).max():
            continue
        sym, anti = np.abs(p - p.T).max(), np.abs(p + p.T).max()
        assert min(sym, anti) <= 1e-14 * np.abs(p).max()
        signs.append(sym < anti)
    assert any(signs) and not all(signs)
    for c in [(0, 0), (1, 1)]:
        for sign in (1.0, -1.0):
            d = stokes._SwapHalf(_parity_classes(g)[c], sign).lowest(6)[1].reshape(
                _parity_classes(g)[c].shape + (-1,))
            assert np.array_equal(d, sign * d.transpose(1, 0, 2))


def test_eigenpairs_sparse_matches_dense_on_rectangle():
    # mx != my through eigsh: a 2:1 rectangle, nx = 20 (19 x 9 vertices)
    g = StaggeredGrid.for_rectangle(Rectangle(2.0, 1.0), 20)
    lam_d, phi_d = dense_modes(g, 30)
    sparse = stokes_eigenpairs(g, 30)
    assert np.abs(lam_d - sparse.lambdas).max() <= 1e-10 * lam_d.max()
    assert np.abs(phi_d - sparse.phi).max() <= 1e-8


def test_canonical_gauge_undoes_rotation_and_sign():
    k, m = pencil(_grid(16))
    vals, vecs = scipy.linalg.eigh(k.toarray(), m.toarray(), subset_by_index=[0, 5])
    split = np.diff(vals) / vals[1:]
    a = int(np.argmin(split))
    assert split[a] <= 1e-12            # modes a and a + 1 are a degenerate pair
    canonical = vecs.copy()
    _canonical_gauge(vals, canonical)
    # any other basis of the pair, with any signs, lands on the same modes
    c, s = math.cos(0.7), math.sin(0.7)
    mixed = -vecs
    mixed[:, [a, a + 1]] = vecs[:, [a, a + 1]] @ np.array([[c, s], [-s, c]])
    _canonical_gauge(vals, mixed)
    assert np.abs(mixed - canonical).max() <= 1e-12
    # a mode outside any cluster is only sign-fixed
    assert np.abs(np.abs(canonical[:, 0]) - np.abs(vecs[:, 0])).max() == 0.0


def test_damping_masses_are_the_diagonal_of_the_damping_matrix():
    g = _grid(16)
    modes = stokes_eigenpairs(g, 8)
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.02)
    masses = damping_masses(modes, collar)
    assert np.abs(masses - np.diag(damping_matrix(modes, collar))).max() <= 1e-13
    # per-mode face quadrature as the oracle
    a = np.concatenate([collar.values(g.u_points()), collar.values(g.v_points())])
    loop = [g.h ** 2 * float((a * p.phi) @ p.phi) for p in modes]
    assert np.abs(masses - loop).max() <= 1e-13
    assert np.all(damping_masses(modes, None) == 0.0)
    empty = Modes(g, np.zeros(0), np.zeros((g.n_faces, 0)), np.zeros((g.nx, g.ny, 0)),
                  np.zeros(0))
    assert damping_masses(empty, collar).shape == (0,)

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stokeswave import (BoundaryCollar, ConfigurationError, DampingProfile, DiskPatch,
                        PreconditionError, PressureField, Rectangle, StaggeredField,
                        StaggeredGrid, build_modal_system, damping_masses, damping_matrix,
                        dirichlet_energy, divergence, gradient, leray_project,
                        random_divergence_free, stokes_apply, stokes_eigenpairs,
                        vector_laplacian)
from stokeswave import stokes
from stokeswave.stokes import (_canonical_gauge, _ops, _Operators, _parity_classes,
                               solve_neumann_poisson)

SQ = Rectangle(1.0, 1.0)


def _grid(n=16):
    return StaggeredGrid(n, n, 1.0 / n)


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return StaggeredField(rng.standard_normal((grid.nx + 1, grid.ny)),
                          rng.standard_normal((grid.nx, grid.ny + 1)), grid)


def test_divergence_examples():
    g = _grid(8)
    zero = StaggeredField.zeros(g)
    assert np.all(divergence(zero).q == 0.0)
    # u depending only on y: interior face differences vanish identically;
    # the forced-zero wall faces leave a hand-computable artifact in the
    # first and last cell columns
    f = StaggeredField.from_function(g, lambda x, y: np.sin(y), lambda x, y: 0.0 * x)
    d = divergence(f).q
    assert np.abs(d[1:-1, :]).max() == 0.0
    # f = (x, 0): face differences give exactly 1 away from the right wall
    fx = StaggeredField.from_function(g, lambda x, y: x, lambda x, y: 0.0 * x)
    d = divergence(fx).q
    assert np.abs(d[:-1, :] - 1.0).max() <= 1e-13
    # right wall column by hand: (0 - x_{n-1})/h = -(n - 1)
    assert np.allclose(d[-1, :], -(g.nx - 1))


def test_gradient_examples_and_adjointness():
    g = _grid(8)
    const = PressureField(np.full((8, 8), 3.7), g)
    gc = gradient(const)
    assert gc.max_norm() == 0.0
    qx = PressureField(g.cell_points()[:, 0].reshape(8, 8), g)
    gq = gradient(qx)
    assert np.abs(gq.u[1:-1, :] - 1.0).max() <= 1e-13
    assert np.abs(gq.v).max() == 0.0
    # adjointness <grad q, f> = -<q, div f>, inner products written out directly
    rng = np.random.default_rng(5)
    q = PressureField(rng.standard_normal((8, 8)), g)
    f = _random_field(g, seed=6)
    lhs = g.h ** 2 * float(gradient(q).flat() @ f.flat())
    rhs = -g.h ** 2 * float(q.q.ravel() @ divergence(f).q.ravel())
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_vector_laplacian_examples():
    g = _grid(32)
    assert vector_laplacian(StaggeredField.zeros(g)).max_norm() == 0.0
    # discrete sine mode is an exact eigenvector of the stencil; its symbol
    # is -2(2 - 2cos(pi h))/h^2 which approaches -2 pi^2 at O(h^2)
    f = StaggeredField.from_function(
        g, lambda x, y: np.sin(math.pi * x) * np.sin(math.pi * y), lambda x, y: 0.0 * x)
    lap = vector_laplacian(f)
    mu = -2.0 * (2.0 - 2.0 * math.cos(math.pi * g.h)) / g.h ** 2
    assert np.abs(lap.u[1:-1, :] - mu * f.u[1:-1, :]).max() <= 1e-10 * abs(mu)
    assert abs(mu + 2 * math.pi ** 2) <= 4.0 * g.h ** 2 * math.pi ** 2
    # affine fields are annihilated away from the walls
    aff = StaggeredField.from_function(g, lambda x, y: 1 + 2 * x - y, lambda x, y: 0.3 * x + y)
    la = vector_laplacian(aff)
    assert np.abs(la.u[2:-2, 2:-2]).max() <= 1e-10
    assert np.abs(la.v[2:-2, 2:-2]).max() <= 1e-10


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
    rng = np.random.default_rng(2)
    # projector annihilates gradients
    q0 = rng.standard_normal((16, 16))
    q0 -= q0.mean()
    gq = gradient(PressureField(q0, g))
    out, _ = leray_project(gq)
    assert out.l2_norm() <= 1e-10 * gq.l2_norm()
    # idempotence on the range
    f = random_divergence_free(g, seed=3)
    out, _ = leray_project(f)
    diff = StaggeredField(out.u - f.u, out.v - f.v, g)
    assert diff.l2_norm() <= 1e-10 * f.l2_norm()
    # f = (x, 0) against the independent dense Poisson oracle; the sampled
    # field is exactly the discrete gradient of x^2/2, so both paths must
    # return (numerically) zero and identical pressures
    fx = StaggeredField.from_function(g, lambda x, y: x, lambda x, y: 0.0 * x)
    out, q = leray_project(fx)
    q_oracle = _dense_poisson_oracle(g, divergence(fx).q)
    grad_oracle = gradient(PressureField(q_oracle, g))
    expected = StaggeredField(fx.u - grad_oracle.u, fx.v - grad_oracle.v, g)
    diff = StaggeredField(out.u - expected.u, out.v - expected.v, g)
    assert diff.l2_norm() <= 1e-9 * fx.l2_norm()
    assert out.l2_norm() <= 1e-10 * fx.l2_norm()
    assert np.abs(q.q - (q_oracle - q_oracle.mean())).max() <= 1e-9 * np.abs(q.q).max()
    assert abs(q.mean()) <= 1e-12


def test_projector_algebra_invariants():
    g = _grid(32)
    for seed in range(3):
        f = _random_field(g, seed=seed)
        p1, _ = leray_project(f)
        p2, _ = leray_project(p1)
        num = StaggeredField(p2.u - p1.u, p2.v - p1.v, g).l2_norm()
        assert num <= 1e-10 * p1.l2_norm()
        assert divergence(p1).l2_norm() <= 1e-10 * f.l2_norm()
    # symmetry of the projector in the mesh inner product
    f = _random_field(g, seed=11)
    h = _random_field(g, seed=12)
    pf, _ = leray_project(f)
    ph, _ = leray_project(h)
    assert abs(pf.inner(h) - f.inner(ph)) <= 1e-11 * max(abs(pf.inner(h)), 1.0)


def test_stokes_apply_symmetric_negative():
    g = _grid(16)
    assert stokes_apply(StaggeredField.zeros(g)).max_norm() == 0.0
    f = random_divergence_free(g, seed=4)
    h = random_divergence_free(g, seed=5)
    lhs = stokes_apply(f).inner(h)
    rhs = f.inner(stokes_apply(h))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    assert stokes_apply(f).inner(f) < 0.0


def test_discrete_integration_by_parts():
    # <-lap f, f> equals the explicit sum of squared differences including
    # the reflected-ghost wall terms (factor 2 on wall-adjacent tangential rows)
    g = _grid(16)
    f = _random_field(g, seed=9)
    qform = dirichlet_energy(f)
    u, v, h = f.u, f.v, g.h
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
    pairs = stokes_eigenpairs(g, 12)
    lams = np.array([p.lam for p in pairs])
    assert np.all(np.diff(lams) >= -1e-12)
    assert lams[0] > 2 * math.pi ** 2
    assert all(p.residual <= 1e-8 for p in pairs)
    # unit norms, orthogonality, discrete divergence-freeness
    phi = np.stack([p.phi.flat() for p in pairs], axis=1)
    gram = phi.T @ phi * g.h ** 2
    assert np.abs(gram - np.eye(12)).max() <= 1e-10
    assert all(divergence(p.phi).l2_norm() <= 1e-10 for p in pairs)


def test_eigenpairs_dense_oracle_agreement():
    # the unit square has exactly degenerate pairs; the canonical gauge makes
    # both paths return the same modes, not only the same eigenvalues
    g = _grid(16)
    dense = stokes_eigenpairs(g, 12, dense=True)
    sparse = stokes_eigenpairs(g, 12, dense=False)
    lam_dense = [p.lam for p in dense]
    lam_sparse = [p.lam for p in sparse]
    assert np.abs(np.array(lam_dense) - np.array(lam_sparse)).max() <= 1e-9
    phi_dense = np.stack([p.phi.flat() for p in dense], axis=1)
    phi_sparse = np.stack([p.phi.flat() for p in sparse], axis=1)
    assert np.abs(phi_dense - phi_sparse).max() <= 1e-8


def test_eigenpairs_count_guard():
    g = _grid(4)
    with pytest.raises(PreconditionError):
        stokes_eigenpairs(g, 10)  # div-free dimension is (nx-1)^2 = 9


def test_class_eigensolve_full_count_matches_oracle():
    # every one of the n_psi = 9 pairs, which the full-size ARPACK run could not return
    g = _grid(4)
    dense = stokes_eigenpairs(g, 9, dense=True)
    classes = stokes_eigenpairs(g, 9)
    lam_d = np.array([p.lam for p in dense])
    assert np.abs(lam_d - [p.lam for p in classes]).max() <= 1e-10 * lam_d.max()
    phi_d = np.stack([p.phi.flat() for p in dense], axis=1)
    phi_c = np.stack([p.phi.flat() for p in classes], axis=1)
    assert np.abs(phi_d - phi_c).max() <= 1e-8


def test_eigenpairs_full_count_above_the_dense_size():
    # the whole divergence-free dimension, (25 - 1) * (3 - 1), on a grid past the dense rule
    pairs = stokes_eigenpairs(StaggeredGrid(25, 3, 0.04), 48)
    assert len(pairs) == 48
    assert all(a.lam <= b.lam for a, b in zip(pairs, pairs[1:]))


def test_quasimode_residual_identity():
    # with h = lambda^(-1/2) and the projection pressure, the h-scaled mode
    # equation is satisfied to solver precision
    g = _grid(32)
    for p in stokes_eigenpairs(g, 20)[::3]:
        h2 = 1.0 / p.lam
        r = (-h2 * vector_laplacian(p.phi).flat() - p.phi.flat()
             + h2 * gradient(p.pressure).flat())
        assert g.h * np.linalg.norm(r) <= 1e-6


def test_damping_matrix_examples():
    g = _grid(16)
    pairs = stokes_eigenpairs(g, 6)
    assert np.all(damping_matrix(pairs, None) == 0.0)
    # constant damping: orthonormality makes B = c * I up to quadrature roundoff
    const = DampingProfile(SQ, DiskPatch((0.5, 0.5), 5.0), 0.7, 0.0)
    b = damping_matrix(pairs, const)
    assert np.abs(b - 0.7 * np.eye(6)).max() <= 1e-10
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.02)
    bc = damping_matrix(pairs, collar)
    assert np.abs(bc - bc.T).max() <= 1e-12
    assert np.linalg.eigvalsh(bc).min() >= -1e-10
    assert np.all(np.diag(bc) >= 0.0)


def test_modal_system_reconstruct_roundtrip():
    g = _grid(16)
    ms = build_modal_system(g, 5)
    coeffs = np.array([1.0, 0.0, -0.5, 0.0, 0.25])
    f = ms.reconstruct(coeffs)
    recovered = np.array([f.inner(p.phi) for p in ms.pairs])
    assert np.abs(recovered - coeffs).max() <= 1e-10


def test_grid_construction_guards():
    with pytest.raises(ConfigurationError):
        StaggeredGrid(2, 8, 0.1)
    with pytest.raises(ConfigurationError):
        StaggeredGrid.for_rectangle(Rectangle(1.0, 0.7), 16)
    g = StaggeredGrid.for_rectangle(Rectangle(2.0, 1.0), 16)
    assert g.ny == 8 and abs(g.h - 0.125) <= 1e-15


def test_eigen_grid_convergence_small():
    # coarse-grid proxy of the refinement stability claim; the 2% bound at
    # nx = 64 vs 128 is asserted in the acceptance suite
    lam_a = np.array([p.lam for p in stokes_eigenpairs(_grid(16), 5)])
    lam_b = np.array([p.lam for p in stokes_eigenpairs(_grid(32), 5)])
    assert np.all(np.abs(lam_a - lam_b) / lam_b <= 0.05)
    lam_c = np.array([p.lam for p in stokes_eigenpairs(_grid(64), 5)])
    # second-order convergence: the 16->32 gap shrinks by about 4x at 32->64
    assert np.abs(lam_b - lam_c).max() <= 0.5 * np.abs(lam_a - lam_b).max()


def _second_difference(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))


@pytest.mark.parametrize("nx, ny", [(3, 3), (9, 6), (12, 5), (16, 16)])
def test_streamfunction_pencil_structure(nx, ny):
    # M is the 5-point Dirichlet vertex Laplacian, and K - M^2 is the diagonal
    # 2/h^4 on edge vertices, 4/h^4 on corners and 0 inside
    h = 0.37
    ops = _Operators(StaggeredGrid(nx, ny, h))
    mx, my = nx - 1, ny - 1
    lap = (sp.kron(_second_difference(mx), sp.identity(my))
           + sp.kron(sp.identity(mx), _second_difference(my))) / h ** 2
    assert abs(ops.M - lap).max() <= 1e-12 * abs(ops.M).max()
    ring = np.zeros((mx, my))
    ring[[0, -1], :] += 2.0 / h ** 4
    ring[:, [0, -1]] += 2.0 / h ** 4
    assert abs(ops.K - lap @ lap - sp.diags(ring.ravel())).max() <= 1e-12 * abs(ops.K).max()


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
    ops = _Operators(grid)
    mx, my = nx - 1, ny - 1
    sx, sy = _sine_matrix(mx), _sine_matrix(my)
    # the last sine row is the first with sign (-1)^(k+1): what couples equal parities only
    assert np.abs(sx[-1] - (-1.0) ** np.arange(mx) * sx[0]).max() <= 1e-14
    s = np.kron(sx, sy)
    k_hat = s @ ops.K.toarray() @ s
    m_hat = s @ ops.M.toarray() @ s
    k_max = abs(ops.K).max()
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
            <= 1e-12 * abs(ops.M).max()
        for other in classes:
            if other != c:
                cross = np.ix_(rows, flat[other])
                assert np.abs(k_hat[cross]).max() <= 1e-12 * k_max
                assert np.abs(m_hat[cross]).max() <= 1e-12 * abs(ops.M).max()


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
    n_psi = (nx - 1) * (ny - 1)
    count = data.draw(st.integers(1, n_psi), label="count")
    dense = stokes_eigenpairs(g, count, dense=True)
    classes = stokes_eigenpairs(g, count)
    lam_d = np.array([p.lam for p in dense])
    lam_c = np.array([p.lam for p in classes])
    assert np.all(np.abs(lam_d - lam_c) <= 1e-10 * lam_d)
    phi_c = np.stack([p.phi.flat() for p in classes], axis=1)
    assert np.abs(phi_c.T @ phi_c * g.h ** 2 - np.eye(count)).max() <= 1e-12
    # a count that splits a degenerate cluster leaves its kept modes to each
    # path's own rule, so the modes are compared below that cluster only
    ops = _ops(g)
    all_lam = scipy.linalg.eigh(ops.K.toarray(), ops.M.toarray(), eigvals_only=True)
    keep = count
    if count < n_psi and all_lam[count] - all_lam[count - 1] <= 1e-9 * all_lam[count]:
        keep = int(np.searchsorted(lam_d, lam_d[-1] * (1.0 - 1e-9)))
    # modes within a relative 1e-6 of a neighbour are fixed by either solver
    # only up to a rotation among them (differences of 6e-9 at gaps of 1e-7 on
    # 28 x 28), so such a group is compared as a span; a lone mode directly
    phi_d = np.stack([p.phi.flat() for p in dense], axis=1)[:, :keep]
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
        proj, q = leray_project(vector_laplacian(p.phi))
        resid = StaggeredField.from_flat(g, -proj.flat() - p.lam * p.phi.flat()).l2_norm()
        assert abs(resid - p.residual) <= 1e-12 * p.residual
        assert np.abs(q.q - p.pressure.q).max() <= 1e-12 * np.abs(q.q).max()


def test_split_pair_keeps_the_earlier_class_and_partners_are_bit_identical():
    # on the square the second and third modes are swap partners in the
    # classes eo and oe; count = 2 splits them and keeps the eo mode, whose
    # streamfunction is even in x and odd in y, so u is even in both
    g = _grid(16)
    u = stokes_eigenpairs(g, 2)[1].phi.u
    assert np.abs(u[::-1, :] - u).max() <= 1e-12 * np.abs(u).max()
    assert np.abs(u[:, ::-1] - u).max() <= 1e-12 * np.abs(u).max()
    lam = np.array([p.lam for p in stokes_eigenpairs(g, 100)])
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
    dense = stokes_eigenpairs(g, count, dense=True)
    lam_d = np.array([p.lam for p in dense])
    assert np.all(np.abs(lam_d - [p.lam for p in classes]) <= 1e-10 * lam_d)


def test_eigenpairs_sparse_matches_dense_on_rectangle():
    # mx != my through eigsh: a 2:1 rectangle, nx = 20 (19 x 9 vertices)
    g = StaggeredGrid.for_rectangle(Rectangle(2.0, 1.0), 20)
    dense = stokes_eigenpairs(g, 30, dense=True)
    sparse = stokes_eigenpairs(g, 30, dense=False)
    lam_d = np.array([p.lam for p in dense])
    lam_s = np.array([p.lam for p in sparse])
    assert np.abs(lam_d - lam_s).max() <= 1e-10 * lam_d.max()
    phi_d = np.stack([p.phi.flat() for p in dense], axis=1)
    phi_s = np.stack([p.phi.flat() for p in sparse], axis=1)
    assert np.abs(phi_d - phi_s).max() <= 1e-8


def test_canonical_gauge_undoes_rotation_and_sign():
    ops = _ops(_grid(16))
    vals, vecs = scipy.linalg.eigh(ops.K.toarray(), ops.M.toarray(), subset_by_index=[0, 5])
    split = np.diff(vals) / vals[1:]
    a = int(np.argmin(split))
    assert split[a] <= 1e-12            # modes a and a + 1 are a degenerate pair
    canonical = _canonical_gauge(vals, vecs)
    # any other basis of the pair, with any signs, lands on the same modes
    c, s = math.cos(0.7), math.sin(0.7)
    mixed = -vecs
    mixed[:, [a, a + 1]] = vecs[:, [a, a + 1]] @ np.array([[c, s], [-s, c]])
    assert np.abs(_canonical_gauge(vals, mixed) - canonical).max() <= 1e-12
    # a mode outside any cluster is only sign-fixed
    assert np.abs(np.abs(canonical[:, 0]) - np.abs(vecs[:, 0])).max() == 0.0


def test_damping_masses_are_the_diagonal_of_the_damping_matrix():
    g = _grid(16)
    pairs = stokes_eigenpairs(g, 8)
    collar = DampingProfile(SQ, BoundaryCollar(0.1), 1.0, 0.02)
    masses = damping_masses(pairs, collar)
    assert np.abs(masses - np.diag(damping_matrix(pairs, collar))).max() <= 1e-13
    # per-mode face quadrature as the oracle
    a = np.concatenate([collar.values(g.u_points()), collar.values(g.v_points())])
    loop = [g.h ** 2 * float((a * p.phi.flat()) @ p.phi.flat()) for p in pairs]
    assert np.abs(masses - loop).max() <= 1e-13
    assert np.all(damping_masses(pairs, None) == 0.0)
    assert damping_masses([], collar).shape == (0,)

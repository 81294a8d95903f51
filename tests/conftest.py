import numpy as np
import pytest
import scipy.linalg

from stokeswave import (BoundaryCollar, DampingProfile, ModalSystem, Rectangle, SideStrip,
                        StaggeredGrid, damping_matrix, stokes_eigenpairs)
from stokeswave.stokes import _canonical_gauge, _ops


def face_field(grid, fu, fv):
    """Flat face field of fu(x, y) on the u faces and fv(x, y) on the v faces, zero on
    the walls."""
    pu, pv = grid.u_points(), grid.v_points()
    flat = np.concatenate([fu(pu[:, 0], pu[:, 1]), fv(pv[:, 0], pv[:, 1])])
    return np.where(_ops(grid).interior, flat, 0.0)


def random_face_field(grid, seed=0):
    """Standard normal values on the faces off the walls, zero on the walls."""
    values = np.random.default_rng(seed).standard_normal(grid.n_faces)
    return np.where(_ops(grid).interior, values, 0.0)


def random_divergence_free(grid, seed=0):
    """Unit-L2 flat field in the discrete divergence-free subspace: the curl of a
    random streamfunction."""
    psi = np.random.default_rng(seed).standard_normal((grid.nx - 1) * (grid.ny - 1))
    f = _ops(grid).C @ psi
    return f / (grid.h * np.linalg.norm(f))


def split_faces(grid, flat):
    """The u array (nx+1, ny) and the v array (nx, ny+1) of a flat face field."""
    return (flat[:grid.n_u].reshape(grid.nx + 1, grid.ny),
            flat[grid.n_u:].reshape(grid.nx, grid.ny + 1))


def pencil(grid):
    """The streamfunction pencil (K, M) = (-C^T L C, C^T C) of the projected Laplacian,
    each symmetrized, as sparse matrices."""
    ops = _ops(grid)
    k = (-(ops.C.T @ ops.L @ ops.C)).tocsr()
    m = (ops.C.T @ ops.C).tocsr()
    return ((k + k.T) * 0.5).tocsr(), ((m + m.T) * 0.5).tocsr()


def dense_modes(grid, count):
    """The oracle of stokes_eigenpairs: the lowest `count` eigenvalues of the dense
    pencil (K, M) and the unit-L2 modes C psi as columns, in the canonical gauge."""
    k, m = pencil(grid)
    vals, vecs = scipy.linalg.eigh(k.toarray(), m.toarray(), subset_by_index=[0, count - 1])
    # M-orthonormal, so unit L2 modes; C order fixes the roundoff of the gauge
    vecs = np.divide(vecs, grid.h, order="C")
    _canonical_gauge(vals, vecs)
    return vals, _ops(grid).C @ vecs


def uw_generator(lambdas, b):
    """The damped generator in (u, w) coordinates, [[0, I], [-Lambda, -B]]: the oracle
    that spectral.generator_matrix, its energy form, is similar to through diag(Omega, I)."""
    n = len(lambdas)
    return np.block([[np.zeros((n, n)), np.eye(n)], [-np.diag(lambdas), -np.asarray(b)]])


@pytest.fixture(scope="session")
def square():
    return Rectangle(1.0, 1.0)


@pytest.fixture(scope="session")
def grid16():
    return StaggeredGrid(16, 16, 1.0 / 16)


@pytest.fixture(scope="session")
def grid32():
    return StaggeredGrid(32, 32, 1.0 / 32)


@pytest.fixture(scope="session")
def grid64(square):
    return StaggeredGrid.for_rectangle(square, 64)


@pytest.fixture(scope="session")
def modes64(grid64):
    return stokes_eigenpairs(grid64, 100)


@pytest.fixture(scope="session")
def collar(square):
    # the coverage-positive configuration: plateau within 0.1 of the boundary
    return DampingProfile(square, BoundaryCollar(0.1), 1.0, 0.02)


@pytest.fixture(scope="session")
def strip01(square):
    # the coverage-negative configuration: one-side strip of the same feature width
    return DampingProfile(square, SideStrip("left", 0.1), 1.0, 0.02)


@pytest.fixture(scope="session")
def ms_collar(modes64, collar):
    return ModalSystem(modes64, damping_matrix(modes64, collar))


@pytest.fixture(scope="session")
def ms_strip(modes64, strip01):
    return ModalSystem(modes64, damping_matrix(modes64, strip01))

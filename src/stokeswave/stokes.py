"""Divergence-free field calculus on a MAC staggered rectangle grid.

Velocity components live on cell faces (u on vertical faces, v on
horizontal faces), pressure on cell centers.  The discrete gradient is
minus the transpose of the discrete divergence in the mesh inner
products, so the pressure projection below is an exact orthogonal
projector and its algebra (idempotency, symmetry, annihilation of
gradients) is testable at machine precision.

The projector solves a cell-centered Poisson problem with the
homogeneous-Neumann closure and a mean-zero pressure normalization; on a
tensor grid that operator is diagonalized exactly by the type-II cosine
transform, which is how it is solved here.

Eigenmodes of the projected (negated) Laplacian restricted to the
divergence-free subspace are computed through the discrete streamfunction
parametrization: every divergence-free staggered field is the curl C psi of
a streamfunction on the mx x my interior vertices (mx = nx - 1,
my = ny - 1), which turns the eigenproblem into the symmetric-definite
pencil K psi = lambda M psi with K = -C^T L C and M = C^T C.  Both have a
tensor structure: M is exactly the 5-point Dirichlet vertex Laplacian
(T_x (x) I + I (x) T_y)/h^2, and K = M^2 + (2/h^4)(E_x (x) I + I (x) E_y)
with E = diag(e_first + e_last), so K - M^2 is diagonal and lives on the
boundary ring of vertices (2/h^4 on an edge, 4/h^4 on a corner).

Shift-invert Lanczos (ARPACK) needs K^-1, which is applied by the
capacitance-matrix method of Buzbee & Dorr (SIAM J. Numer. Anal. 11,
1974).  M^-2 = S diag(h^4/mu^2) S, with S the orthonormal type-I sine
transform and mu its symbol; Woodbury with U, the ring vertices as columns
(corners twice), gives K^-1 from M^-2 and the Cholesky factor of the
capacitance matrix h^4/2 I + U^T M^-2 U, which is built once per grid in
closed form from the 1-D sine matrices.  A solve costs two sine transforms,
thin products with the 1-D sine matrices and one triangular solve pair of
size 2(mx + my).  A dense generalized eigensolve doubles as an independent
oracle on coarse grids.  Both paths end in the same canonical gauge, so
they return the same modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import ConfigurationError, NumericsError, PreconditionError
from .geometry import DampingProfile, Rectangle


@dataclass(frozen=True)
class StaggeredGrid:
    """Uniform staggered grid with square cells of side h on [0, nx*h] x [0, ny*h]."""

    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 3 or self.ny < 3:
            raise ConfigurationError("grid needs nx, ny >= 3")
        if not self.h > 0:
            raise ConfigurationError("grid spacing must be positive")

    @classmethod
    def for_rectangle(cls, domain: Rectangle, nx: int) -> "StaggeredGrid":
        h = domain.width / nx
        ny_f = domain.height / h
        ny = int(round(ny_f))
        if abs(ny_f - ny) > 1e-9:
            raise ConfigurationError(
                f"nx={nx} does not give square cells on a {domain.width} x {domain.height} rectangle")
        return cls(nx, ny, h)

    @property
    def width(self) -> float:
        return self.nx * self.h

    @property
    def height(self) -> float:
        return self.ny * self.h

    @property
    def n_u(self) -> int:
        return (self.nx + 1) * self.ny

    @property
    def n_v(self) -> int:
        return self.nx * (self.ny + 1)

    @property
    def n_faces(self) -> int:
        return self.n_u + self.n_v

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    def u_points(self) -> np.ndarray:
        """Coordinates of u faces, ordered like u.ravel() for u of shape (nx+1, ny)."""
        xs = np.arange(self.nx + 1) * self.h
        ys = (np.arange(self.ny) + 0.5) * self.h
        px, py = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([px.ravel(), py.ravel()], axis=1)

    def v_points(self) -> np.ndarray:
        xs = (np.arange(self.nx) + 0.5) * self.h
        ys = np.arange(self.ny + 1) * self.h
        px, py = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([px.ravel(), py.ravel()], axis=1)

    def cell_points(self) -> np.ndarray:
        xs = (np.arange(self.nx) + 0.5) * self.h
        ys = (np.arange(self.ny) + 0.5) * self.h
        px, py = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([px.ravel(), py.ravel()], axis=1)


@dataclass
class StaggeredField:
    """Staggered velocity field; boundary faces are forced to zero (no penetration)."""

    u: np.ndarray
    v: np.ndarray
    grid: StaggeredGrid

    def __post_init__(self):
        g = self.grid
        if self.u.shape != (g.nx + 1, g.ny) or self.v.shape != (g.nx, g.ny + 1):
            raise ConfigurationError("staggered array shapes do not match the grid")
        self.u = np.array(self.u, dtype=float)
        self.v = np.array(self.v, dtype=float)
        self.u[0, :] = 0.0
        self.u[-1, :] = 0.0
        self.v[:, 0] = 0.0
        self.v[:, -1] = 0.0

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "StaggeredField":
        return cls(np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)), grid)

    @classmethod
    def from_flat(cls, grid: StaggeredGrid, vec: np.ndarray) -> "StaggeredField":
        u = vec[:grid.n_u].reshape(grid.nx + 1, grid.ny)
        v = vec[grid.n_u:].reshape(grid.nx, grid.ny + 1)
        return cls(u, v, grid)

    @classmethod
    def from_function(cls, grid: StaggeredGrid, fu, fv) -> "StaggeredField":
        """Sample callables fu(x, y), fv(x, y) on the respective face centers."""
        pu = grid.u_points()
        pv = grid.v_points()
        u = fu(pu[:, 0], pu[:, 1]).reshape(grid.nx + 1, grid.ny)
        v = fv(pv[:, 0], pv[:, 1]).reshape(grid.nx, grid.ny + 1)
        return cls(u, v, grid)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.v.ravel()])

    def inner(self, other: "StaggeredField") -> float:
        return self.grid.h ** 2 * float(self.flat() @ other.flat())

    def l2_norm(self) -> float:
        return self.grid.h * float(np.linalg.norm(self.flat()))

    def max_norm(self) -> float:
        return float(max(np.abs(self.u).max(), np.abs(self.v).max()))

    def copy(self) -> "StaggeredField":
        return StaggeredField(self.u.copy(), self.v.copy(), self.grid)


@dataclass
class PressureField:
    """Cell-centered scalar field; the projection pressure is mean-zero."""

    q: np.ndarray
    grid: StaggeredGrid

    def __post_init__(self):
        if self.q.shape != (self.grid.nx, self.grid.ny):
            raise ConfigurationError("pressure array shape does not match the grid")
        self.q = np.array(self.q, dtype=float)

    def l2_norm(self) -> float:
        return self.grid.h * float(np.linalg.norm(self.q))

    def mean(self) -> float:
        return float(self.q.mean())


# ---------------------------------------------------------------------------
# Sparse operator assembly (cached per grid)


class _Operators:
    """Sparse divergence D, gradient G = -D^T masked to interior faces,
    componentwise Laplacian L with reflection ghosts, and streamfunction
    curl C whose range is exactly the discrete divergence-free subspace."""

    def __init__(self, grid: StaggeredGrid):
        nx, ny, h = grid.nx, grid.ny, grid.h
        self.grid = grid

        iu = lambda i, j: i * ny + j
        iv = lambda i, j: grid.n_u + i * (ny + 1) + j

        ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        ci, cj = ci.ravel(), cj.ravel()
        rows = np.repeat(ci * ny + cj, 4)
        cols = np.stack([iu(ci + 1, cj), iu(ci, cj), iv(ci, cj + 1), iv(ci, cj)], axis=1).ravel()
        data = np.tile(np.array([1.0, -1.0, 1.0, -1.0]) / h, ci.size)
        self.D = sp.csr_matrix((data, (rows, cols)), shape=(grid.n_cells, grid.n_faces))

        mask = np.zeros(grid.n_faces)
        ui, uj = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        mask[iu(ui.ravel(), uj.ravel())] = 1.0
        vi, vj = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        mask[iv(vi.ravel(), vj.ravel()) ] = 1.0
        self.interior_mask = mask
        self.G = (sp.diags(mask) @ (-self.D.T)).tocsr()

        self.L = self._laplacian(grid, mask)
        self.C = self._curl(grid, iu, iv)

        # -C^T L C and C^T C: symmetric-definite pencil of the projected Laplacian
        K = (-(self.C.T @ self.L @ self.C)).tocsr()
        M = (self.C.T @ self.C).tocsr()
        self.K = ((K + K.T) * 0.5).tocsr()
        self.M = ((M + M.T) * 0.5).tocsr()

        # cosine-transform symbol of the Neumann pressure Poisson operator D@G
        kx = (2.0 * np.cos(np.pi * np.arange(nx) / nx) - 2.0) / h ** 2
        ky = (2.0 * np.cos(np.pi * np.arange(ny) / ny) - 2.0) / h ** 2
        denom = kx[:, None] + ky[None, :]
        denom[0, 0] = 1.0
        self._poisson_denom = denom

    @cached_property
    def biharmonic(self) -> "_BiharmonicSolver":
        """Fast direct solver for K, built on first use."""
        return _BiharmonicSolver(self.grid)

    @staticmethod
    def _laplacian(grid: StaggeredGrid, mask: np.ndarray) -> sp.csr_matrix:
        nx, ny, h = grid.nx, grid.ny, grid.h

        def tridiag_nodes(n):
            # value nodes on the wall itself; wall rows are masked afterwards
            return sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / h ** 2

        def tridiag_ghost(n):
            # wall at half-cell distance: reflected ghost gives -3 on the end diagonal
            m = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)).tolil()
            m[0, 0] = -3.0
            m[n - 1, n - 1] = -3.0
            return (m / h ** 2).tocsr()

        lu = sp.kron(tridiag_nodes(nx + 1), sp.identity(ny)) + \
            sp.kron(sp.identity(nx + 1), tridiag_ghost(ny))
        lv = sp.kron(tridiag_ghost(nx), sp.identity(ny + 1)) + \
            sp.kron(sp.identity(nx), tridiag_nodes(ny + 1))
        full = sp.block_diag([lu, lv]).tocsr()
        return (sp.diags(mask) @ full).tocsr()

    @staticmethod
    def _curl(grid: StaggeredGrid, iu, iv) -> sp.csr_matrix:
        nx, ny, h = grid.nx, grid.ny, grid.h
        ip = lambda i, j: (i - 1) * (ny - 1) + (j - 1)
        rows, cols, data = [], [], []
        # u = d(psi)/dy on interior vertical faces
        ui, uj = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
        ui, uj = ui.ravel(), uj.ravel()
        sel = uj + 1 <= ny - 1
        rows.append(iu(ui[sel], uj[sel])); cols.append(ip(ui[sel], uj[sel] + 1))
        data.append(np.full(sel.sum(), 1.0 / h))
        sel = uj >= 1
        rows.append(iu(ui[sel], uj[sel])); cols.append(ip(ui[sel], uj[sel]))
        data.append(np.full(sel.sum(), -1.0 / h))
        # v = -d(psi)/dx on interior horizontal faces
        vi, vj = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
        vi, vj = vi.ravel(), vj.ravel()
        sel = vi + 1 <= nx - 1
        rows.append(iv(vi[sel], vj[sel])); cols.append(ip(vi[sel] + 1, vj[sel]))
        data.append(np.full(sel.sum(), -1.0 / h))
        sel = vi >= 1
        rows.append(iv(vi[sel], vj[sel])); cols.append(ip(vi[sel], vj[sel]))
        data.append(np.full(sel.sum(), 1.0 / h))
        rows = np.concatenate(rows); cols = np.concatenate(cols); data = np.concatenate(data)
        n_psi = (nx - 1) * (ny - 1)
        return sp.csr_matrix((data, (rows, cols)), shape=(grid.n_faces, n_psi))


def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal type-I sine transform of length n (symmetric and involutory)."""
    k = np.arange(1, n + 1)
    return math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


class _BiharmonicSolver:
    """K^-1 by the type-I sine transform and a boundary-ring capacitance matrix.

    With S = S_x (x) S_y the 2-D orthonormal sine transform and
    w = 1/mu^2, M^-2 = h^4 S diag(w) S.  Woodbury on
    K = M^2 + (2/h^4) U U^T gives
    K^-1 = M^-2 - M^-2 U (h^4/2 I + U^T M^-2 U)^-1 U^T M^-2, where the columns
    of U pick the vertex rows i = 0, mx - 1 and then the vertex columns
    j = 0, my - 1 (so a corner is picked twice); ring vectors use that order
    throughout.  With the h^4 factored out the capacitance matrix is
    I/2 + U^T S diag(w) S U; every block of it is a product of 1-D sine
    matrices, because a ring row of S is a row of S_x times S_y or S_x times
    a row of S_y.
    """

    def __init__(self, grid: StaggeredGrid):
        mx, my = grid.nx - 1, grid.ny - 1
        self.shape = (mx, my)
        self.h4 = grid.h ** 4
        sx, sy = _sine_matrix(mx), _sine_matrix(my)
        mu_x = 4.0 * np.sin(np.pi * np.arange(1, mx + 1) / (2 * (mx + 1))) ** 2
        mu_y = 4.0 * np.sin(np.pi * np.arange(1, my + 1) / (2 * (my + 1))) ** 2
        w = 1.0 / (mu_x[:, None] + mu_y[None, :]) ** 2
        # first and last rows of the symmetric sine matrices
        px, py = sx[[0, -1]], sy[[0, -1]]
        self.sx, self.sy, self.w, self.px, self.py = sx, sy, w, px, py
        rows = [slice(a * my, (a + 1) * my) for a in range(2)]
        cols = [slice(2 * my + b * mx, 2 * my + (b + 1) * mx) for b in range(2)]
        cap = np.empty((2 * (mx + my), 2 * (mx + my)))
        for a in range(2):
            for b in range(2):
                cap[rows[a], rows[b]] = (sy * ((px[a] * px[b]) @ w)) @ sy
                cap[cols[a], cols[b]] = (sx * (w @ (py[a] * py[b]))) @ sx
                cap[rows[a], cols[b]] = sy @ (py[b][:, None] * w.T * px[a]) @ sx
                cap[cols[b], rows[a]] = cap[rows[a], cols[b]].T
        cap[np.diag_indices_from(cap)] += 0.5
        self.factor, info = scipy.linalg.lapack.dpotrf(cap)
        if info != 0:
            raise NumericsError(f"capacitance matrix is not positive definite (potrf info {info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x with K x = b, for b ordered like the streamfunction vector."""
        mx, my = self.shape
        coef = scipy.fft.dstn(b.reshape(mx, my), type=1, norm="ortho")
        y = coef * self.w                        # sine coefficients of M^-2 b / h^4
        ring = np.concatenate([(self.px @ y @ self.sy).ravel(),
                               (self.sx @ (y @ self.py.T)).T.ravel()])
        z = scipy.linalg.lapack.dpotrs(self.factor, ring)[0]
        z_rows, z_cols = z[:2 * my].reshape(2, my), z[2 * my:].reshape(2, mx)
        # sine coefficients of U z: one rank-2 product each for rows and columns
        coef -= self.px.T @ (z_rows @ self.sy) + (z_cols @ self.sx).T @ self.py
        return self.h4 * scipy.fft.dstn(coef * self.w, type=1, norm="ortho").ravel()


_OPS_CACHE: dict = {}


def _ops(grid: StaggeredGrid) -> _Operators:
    ops = _OPS_CACHE.get(grid)
    if ops is None:
        ops = _Operators(grid)
        _OPS_CACHE[grid] = ops
    return ops


# ---------------------------------------------------------------------------
# Operators on fields


def divergence(f: StaggeredField) -> PressureField:
    """Centered face-difference divergence, one value per cell."""
    d = _ops(f.grid).D @ f.flat()
    return PressureField(d.reshape(f.grid.nx, f.grid.ny), f.grid)


def gradient(q: PressureField) -> StaggeredField:
    """Cell-to-face gradient, adjoint to -divergence; zero on boundary faces."""
    g = _ops(q.grid).G @ q.q.ravel()
    return StaggeredField.from_flat(q.grid, g)


def vector_laplacian(f: StaggeredField) -> StaggeredField:
    """Componentwise 5-point Laplacian with reflected tangential ghosts."""
    return StaggeredField.from_flat(f.grid, _ops(f.grid).L @ f.flat())


def solve_neumann_poisson(grid: StaggeredGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve (D G) q = rhs - mean(rhs) with mean-zero q, via the DCT-II symbol."""
    ops = _ops(grid)
    coeffs = scipy.fft.dctn(rhs, type=2, norm="ortho")
    coeffs = coeffs / ops._poisson_denom
    coeffs[0, 0] = 0.0
    return scipy.fft.idctn(coeffs, type=2, norm="ortho")


def leray_project(f: StaggeredField) -> tuple[StaggeredField, PressureField]:
    """Orthogonal projection onto discretely divergence-free fields.

    Returns (f - grad q, q) where q solves the Neumann pressure Poisson
    problem for div f with mean-zero normalization.
    """
    rhs = (_ops(f.grid).D @ f.flat()).reshape(f.grid.nx, f.grid.ny)
    q = solve_neumann_poisson(f.grid, rhs)
    out = f.flat() - _ops(f.grid).G @ q.ravel()
    return StaggeredField.from_flat(f.grid, out), PressureField(q, f.grid)


def stokes_apply(f: StaggeredField) -> StaggeredField:
    """Projected Laplacian (the negative-definite generator on div-free fields)."""
    return leray_project(vector_laplacian(f))[0]


def dirichlet_energy(f: StaggeredField) -> float:
    """Discrete ||grad f||^2, evaluated as the quadratic form of -L."""
    flat = f.flat()
    return f.grid.h ** 2 * float(flat @ (-(_ops(f.grid).L) @ flat))


def random_divergence_free(grid: StaggeredGrid, seed: int = 0, unit: bool = True) -> StaggeredField:
    """Random field in the discrete divergence-free subspace (curl of random psi)."""
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal((grid.nx - 1) * (grid.ny - 1))
    f = StaggeredField.from_flat(grid, _ops(grid).C @ psi)
    if unit:
        nrm = f.l2_norm()
        f = StaggeredField(f.u / nrm, f.v / nrm, grid)
    return f


# ---------------------------------------------------------------------------
# Eigenmodes


@dataclass
class EigenPair:
    """Eigenmode of the negated projected Laplacian with its projection pressure."""

    lam: float
    phi: StaggeredField
    pressure: PressureField
    residual: float


# A pair whose residual exceeds this share of its eigenvalue fails the eigensolve.
_RESIDUAL_TOL = 1e-8
# Eigenvalues within this relative distance of each other form one degenerate cluster.
_CLUSTER_TOL = 1e-9


def stokes_eigenpairs(grid: StaggeredGrid, count: int,
                      dense: Optional[bool] = None) -> List[EigenPair]:
    """Lowest `count` eigenpairs on the divergence-free subspace, ascending.

    The sparse path runs shift-invert Lanczos (ARPACK, sigma = 0) on the
    streamfunction pencil (K, M), with K^-1 applied by the fast direct
    solver of the module docstring: a type-I sine transform of M^-2 and a
    Cholesky-factored capacitance matrix on the boundary ring of vertices.
    dense=True forces the dense generalized eigensolve, the oracle on small grids;
    by default it runs when max(nx, ny) <= 24 or count = n_psi (ARPACK needs count < n_psi).

    Both paths M-orthonormalize the modes (unit L2 norm) and then fix a
    canonical gauge: inside each cluster of eigenvalues within a relative
    1e-9 of each other, the basis is rotated to the eigenvectors of a fixed
    pseudo-random vertex weight, and each mode's sign makes its inner
    product with the same fixed vector positive.  So the returned modes do
    not depend on the solver's roundoff, and the two paths agree.

    Each pair carries the L2 residual of -P L phi = lambda phi.  A residual
    above 1e-8 * lambda raises NumericsError, as does an ARPACK run that
    does not converge.
    """
    ops = _ops(grid)
    n_psi = ops.K.shape[0]
    if not (1 <= count <= n_psi):
        raise PreconditionError(
            f"count must be between 1 and the div-free dimension {n_psi}")
    if dense is None:
        dense = max(grid.nx, grid.ny) <= 24 or count == n_psi
    if dense:
        vals, vecs = scipy.linalg.eigh(ops.K.toarray(), ops.M.toarray())
        vals, vecs = vals[:count], vecs[:, :count]
    else:
        if count >= n_psi:
            raise PreconditionError(f"the sparse eigensolve needs count < n_psi = {n_psi}")
        v0 = np.full(n_psi, 1.0 / math.sqrt(n_psi))
        k_inv = LinearOperator(ops.K.shape, matvec=ops.biharmonic.solve, dtype=float)
        try:
            vals, vecs = eigsh(ops.K, k=count, M=ops.M, sigma=0.0, which="LM", v0=v0,
                               OPinv=k_inv)
        except ArpackNoConvergence as exc:
            raise NumericsError(
                f"eigensolver did not converge: {len(exc.eigenvalues)} of {count} "
                f"eigenvalues found") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    # exact M-orthonormalization (unit L2 modes); mixes only degenerate clusters
    gram = vecs.T @ (ops.M @ vecs) * grid.h ** 2
    r = scipy.linalg.cholesky(gram, lower=False)
    vecs = scipy.linalg.solve_triangular(r, vecs.T, lower=False, trans="T").T
    vecs = _canonical_gauge(vals, vecs)

    pairs = []
    for k in range(count):
        phi = StaggeredField.from_flat(grid, ops.C @ vecs[:, k])
        lap = vector_laplacian(phi)
        proj, q0 = leray_project(lap)
        resid = StaggeredField.from_flat(grid, -proj.flat() - vals[k] * phi.flat()).l2_norm()
        if not resid <= _RESIDUAL_TOL * vals[k]:
            raise NumericsError(
                f"eigenpair {k}: residual {resid:.3e} exceeds {_RESIDUAL_TOL:g} * lambda "
                f"(lambda = {vals[k]:.6g})")
        pairs.append(EigenPair(float(vals[k]), phi, q0, resid))
    return pairs


def _canonical_gauge(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Columns of vecs in the canonical gauge of stokes_eigenpairs (vals ascending)."""
    generic = np.random.default_rng(0).standard_normal(vecs.shape[0])
    vecs = vecs.copy()
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > _CLUSTER_TOL * abs(vals[k]):
            if k - start > 1:
                block = vecs[:, start:k]
                rotation = np.linalg.eigh(block.T @ (generic[:, None] * block))[1]
                vecs[:, start:k] = block @ rotation
            start = k
    return vecs * np.where(generic @ vecs < 0.0, -1.0, 1.0)


def _damping_quadrature(pairs: List[EigenPair], profile: DampingProfile):
    """Modes as columns and the face weights h^2 * a of the cell quadrature.

    The damping is evaluated once on the u faces and once on the v faces.
    """
    grid = pairs[0].phi.grid
    a = np.concatenate([profile.values(grid.u_points()), profile.values(grid.v_points())])
    phi = np.stack([p.phi.flat() for p in pairs], axis=1)
    return phi, grid.h ** 2 * a


def damping_matrix(pairs: List[EigenPair], profile: Optional[DampingProfile]) -> np.ndarray:
    """Coupling matrix B_jk = sum of a * phi_j . phi_k over faces (cell quadrature)."""
    n = len(pairs)
    if n == 0 or profile is None:
        return np.zeros((n, n))
    phi, weights = _damping_quadrature(pairs, profile)
    b = phi.T @ (weights[:, None] * phi)
    return (b + b.T) * 0.5


def damping_masses(pairs: List[EigenPair], profile: Optional[DampingProfile]) -> np.ndarray:
    """||a^(1/2) phi_k||^2 of every pair: the diagonal of damping_matrix, without the rest."""
    if not pairs or profile is None:
        return np.zeros(len(pairs))
    phi, weights = _damping_quadrature(pairs, profile)
    return weights @ (phi * phi)


@dataclass
class ModalSystem:
    """Truncated eigenbasis with its damping coupling matrix."""

    pairs: List[EigenPair]
    B: np.ndarray
    damping: Optional[DampingProfile] = None

    @property
    def n_modes(self) -> int:
        return len(self.pairs)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    @property
    def grid(self) -> StaggeredGrid:
        return self.pairs[0].phi.grid

    @cached_property
    def _mode_matrix(self) -> np.ndarray:
        """Mode vectors as columns, stacked on first use (pairs stay fixed)."""
        return np.stack([p.phi.flat() for p in self.pairs], axis=1)

    def reconstruct(self, coeffs: np.ndarray) -> StaggeredField:
        """Grid field of a modal coefficient vector."""
        return StaggeredField.from_flat(self.grid, self._mode_matrix @ np.asarray(coeffs))


def build_modal_system(grid: StaggeredGrid, n_modes: int,
                       damping: Optional[DampingProfile] = None) -> ModalSystem:
    pairs = stokes_eigenpairs(grid, n_modes)
    return ModalSystem(pairs, damping_matrix(pairs, damping), damping)

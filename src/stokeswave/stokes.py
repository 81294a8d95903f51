"""Divergence-free field calculus on a MAC staggered rectangle grid.

Velocity components live on cell faces (u on vertical faces, v on
horizontal faces), pressure on cell centers.  A flat face field holds the
u faces, an (nx+1, ny) array, then the v faces, an (nx, ny+1) array, both
raveled in C order.  Every sparse operator is a Kronecker product of three
1-D stencils: the forward difference, the interior-node embedding and the
second difference with a wall or ghost end value.  The discrete gradient is
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

The reflections x -> W - x and y -> H - y commute with the pencil, so it
splits into four classes (A. Bossavit, Comput. Methods Appl. Mech. Engrg.
56, 1986).  The orthonormal type-I sine transform S exposes them: with
c = (S_x (x) S_y) psi, M is Lam / h^2 with Lam_kl = mu_x,k + mu_y,l (mu the
1-D symbol), and since the last row of S is (-1)^(k+1) times its first row
q, S E S = 2 q q^T between wavenumbers of equal parity and 0 otherwise.  So
K is (Lam^2 + 4 (q_x q_x^T (x) I + I (x) q_y q_y^T)) / h^4 on each class (a
pair of wavenumber parities) and 0 across classes, and with d = Lam^(1/2) c
a class is the standard problem (Lam + W W^T) d = lambda h^2 d with
W = 2 Lam^(-1/2) [q_x (x) I | I (x) q_y] of rank n_x + n_y.  Shift-invert
Lanczos (ARPACK) applies its inverse by Woodbury: a Cholesky-factored
capacitance matrix of size n_x + n_y and O(n_x n_y) work per solve, with no
transform.  Orthonormal d gives unit-L2 modes; one batched sine transform
takes them to the vertices.  The dense generalized eigensolve of (K, M), in
tests/conftest.py, is the independent oracle the tests hold this against; it
ends in the same canonical gauge, so both return the same modes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

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
        if not 0 < self.h * self.h < math.inf:
            raise ConfigurationError(f"grid spacing {self.h:g} has no positive finite square")

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
        return self._points(np.arange(self.nx + 1), np.arange(self.ny) + 0.5)

    def v_points(self) -> np.ndarray:
        return self._points(np.arange(self.nx) + 0.5, np.arange(self.ny + 1))

    def _points(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Points (i h, j h) of the tensor grid i x j, raveled in C order."""
        px, py = np.meshgrid(i * self.h, j * self.h, indexing="ij")
        return np.stack([px.ravel(), py.ravel()], axis=1)


@dataclass
class StaggeredField:
    """Staggered velocity field, held as given: the wall faces (no penetration) are
    zero in a field of the modes, and lame.evolve_lame rejects one where they are not."""

    u: np.ndarray
    v: np.ndarray
    grid: StaggeredGrid

    def __post_init__(self):
        g = self.grid
        if self.u.shape != (g.nx + 1, g.ny) or self.v.shape != (g.nx, g.ny + 1):
            raise ConfigurationError("staggered array shapes do not match the grid")
        self.u = np.array(self.u, dtype=float)
        self.v = np.array(self.v, dtype=float)

    @classmethod
    def zeros(cls, grid: StaggeredGrid) -> "StaggeredField":
        return cls(np.zeros((grid.nx + 1, grid.ny)), np.zeros((grid.nx, grid.ny + 1)), grid)

    @classmethod
    def from_flat(cls, grid: StaggeredGrid, vec: np.ndarray) -> "StaggeredField":
        u = vec[:grid.n_u].reshape(grid.nx + 1, grid.ny)
        v = vec[grid.n_u:].reshape(grid.nx, grid.ny + 1)
        return cls(u, v, grid)

    def flat(self) -> np.ndarray:
        return np.concatenate([self.u.ravel(), self.v.ravel()])


# ---------------------------------------------------------------------------
# Sparse operator assembly (cached per grid)


def _second_difference(n: int, h: float, end: float) -> sp.dia_matrix:
    """tridiag(1, -2, 1) / h^2 on n nodes with `end` at both ends of the diagonal."""
    diag = np.full(n, -2.0 / h ** 2)
    diag[[0, -1]] = end / h ** 2
    off = np.full(n - 1, 1.0 / h ** 2)
    return sp.diags([off, diag, off], [-1, 0, 1])


def _kron(a, b) -> sp.csr_matrix:
    # scipy's default BSR result would store the zeros of its dense blocks
    return sp.kron(a, b, format="csr")


class _Operators:
    """Sparse divergence D, gradient G = -D^T masked to interior faces,
    componentwise Laplacian L with reflection ghosts, and streamfunction
    curl C whose range is exactly the discrete divergence-free subspace.

    Faces are ordered u faces (nx+1, ny), then v faces (nx, ny+1), both in C
    order, and so are cells (nx, ny) and interior vertices (nx-1, ny-1).  So
    each operator is a Kronecker product of three 1-D stencils: the forward
    difference (n, n+1)/h, the interior-node embedding (n+1, n-1) and the
    second difference, whose end value is -2 along a component (wall nodes,
    rows masked) and -3 across it (the reflected ghost of a wall half a cell
    away).  `interior` is the read-only boolean vector, in face order, of the
    faces off the walls; G and L are masked to its rows.
    """

    def __init__(self, grid: StaggeredGrid):
        nx, ny, h = grid.nx, grid.ny, grid.h
        dx, dy = (sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n, n + 1)) for n in (nx, ny))
        ex, ey = (sp.eye(n + 1, n - 1, k=-1) for n in (nx, ny))
        ix, iy = sp.identity(nx), sp.identity(ny)

        self.D = sp.hstack([_kron(dx, iy), _kron(ix, dy)], format="csr")
        inner_u, inner_v = np.zeros((nx + 1, ny), dtype=bool), np.zeros((nx, ny + 1), dtype=bool)
        inner_u[1:-1], inner_v[:, 1:-1] = True, True
        self.interior = np.concatenate([inner_u.ravel(), inner_v.ravel()])
        self.interior.flags.writeable = False
        mask = sp.diags(self.interior.astype(float), format="csr")
        self.G = mask @ (-self.D.T)
        lu = _kron(_second_difference(nx + 1, h, -2.0), iy) + \
            _kron(sp.identity(nx + 1), _second_difference(ny, h, -3.0))
        lv = _kron(_second_difference(nx, h, -3.0), sp.identity(ny + 1)) + \
            _kron(ix, _second_difference(ny + 1, h, -2.0))
        self.L = mask @ sp.block_diag([lu, lv], format="csr")
        self.C = sp.vstack([_kron(ex, dy @ ey), -_kron(dx @ ex, ey)], format="csr")

        # cosine-transform symbol of the Neumann pressure Poisson operator D@G
        kx = (2.0 * np.cos(np.pi * np.arange(nx) / nx) - 2.0) / h ** 2
        ky = (2.0 * np.cos(np.pi * np.arange(ny) / ny) - 2.0) / h ** 2
        denom = kx[:, None] + ky[None, :]
        denom[0, 0] = 1.0
        self._poisson_denom = denom


class _ParityClass:
    """A = Lam + W W^T of one reflection class (module docstring), on the
    raveled (n_x, n_y) arrays of d; ix and iy are the class's 0-based x and
    y wavenumber indices, mu the 1-D sine symbols and q the first sine rows.
    """

    def __init__(self, ix, iy, mu_x, q_x, mu_y, q_y):
        self.ix, self.iy, self.qx, self.qy = ix, iy, q_x[ix], q_y[iy]
        self.lam = mu_x[ix, None] + mu_y[iy]
        self.shape, self.size = self.lam.shape, self.lam.size
        self.r = 2.0 / np.sqrt(self.lam)
        # lower triangle of the Woodbury capacitance I + W^T Lam^-1 W, in closed form
        w2, ny = 4.0 / self.lam ** 2, self.shape[1]
        cap = np.diag(np.concatenate([self.qx ** 2 @ w2, w2 @ self.qy ** 2]) + 1.0)
        cap[ny:, :ny] = self.qx[:, None] * w2 * self.qy
        self.factor, info = scipy.linalg.lapack.dpotrf(cap, lower=True)
        if info != 0:
            raise NumericsError(f"capacitance matrix is not positive definite (potrf info {info})")

    def _w(self, z: np.ndarray) -> np.ndarray:
        ny = self.shape[1]
        return self.r * (np.outer(self.qx, z[:ny]) + np.outer(z[ny:], self.qy))

    def _wt(self, x: np.ndarray) -> np.ndarray:
        rx = self.r * x
        return np.concatenate([self.qx @ rx, rx @ self.qy])

    def matvec(self, d: np.ndarray) -> np.ndarray:
        d = d.reshape(self.shape)
        return (self.lam * d + self._w(self._wt(d))).ravel()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^-1 b by Woodbury on the diagonal Lam."""
        u = b.reshape(self.shape) / self.lam
        z = scipy.linalg.lapack.dpotrs(self.factor, self._wt(u), lower=True)[0]
        return (u - self._w(z) / self.lam).ravel()

    def dense(self) -> np.ndarray:
        w = np.stack([self._w(e).ravel() for e in np.eye(sum(self.shape))], axis=1)
        return np.diag(self.lam.ravel()) + w @ w.T

    def lowest(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Lowest eigenpairs of A, ascending: all of them by dense eigh when
        k >= size - 1, else k of them by shift-invert Lanczos at sigma = 0."""
        n = self.size
        if k >= n - 1:
            return scipy.linalg.eigh(self.dense())
        op = LinearOperator((n, n), matvec=self.matvec, dtype=float)
        inv = LinearOperator((n, n), matvec=self.solve, dtype=float)
        try:
            vals, vecs = eigsh(op, k=k, sigma=0.0, v0=np.full(n, 1.0 / math.sqrt(n)), OPinv=inv)
        except ArpackNoConvergence as exc:
            raise NumericsError(
                f"eigensolver did not converge: {len(exc.eigenvalues)} of {k} "
                f"eigenvalues found") from exc
        order = np.argsort(vals)
        return vals[order], vecs[:, order]


def _parity_classes(grid: StaggeredGrid) -> dict:
    """The reflection classes keyed (px, py) in the order ee, eo, oe, oo; class
    (px, py) has the x wavenumbers px + 1, px + 3, ... (even modes for px = 0)."""
    mx, my = grid.nx - 1, grid.ny - 1
    symbols = []
    for n in (mx, my):   # the symbol mu_k of tridiag(-1, 2, -1) and row 1 of S
        t = np.pi * np.arange(1, n + 1) / (n + 1)
        symbols += [4.0 * np.sin(t / 2) ** 2, math.sqrt(2.0 / (n + 1)) * np.sin(t)]
    return {(px, py): _ParityClass(np.arange(px, mx, 2), np.arange(py, my, 2), *symbols)
            for px in (0, 1) for py in (0, 1)}


_ops = functools.cache(_Operators)


# ---------------------------------------------------------------------------
# Pressure projection


def solve_neumann_poisson(grid: StaggeredGrid, rhs: np.ndarray) -> np.ndarray:
    """Solve (D G) q = rhs - mean(rhs) with mean-zero q, via the DCT-II symbol.

    rhs has shape (nx, ny), or (nx, ny, m) for m right-hand sides at once.
    """
    denom = _ops(grid)._poisson_denom
    coeffs = scipy.fft.dctn(rhs, type=2, norm="ortho", axes=(0, 1))
    coeffs /= denom if rhs.ndim == 2 else denom[:, :, None]
    coeffs[0, 0] = 0.0
    return scipy.fft.idctn(coeffs, type=2, norm="ortho", axes=(0, 1))


def leray_project(grid: StaggeredGrid, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection of flat face fields, of shape (n_faces,) or (n_faces, m),
    onto the discretely divergence-free ones.

    Returns (flat - G q, q), where q of shape (nx, ny) or (nx, ny, m) solves the
    Neumann pressure Poisson problem for D flat with mean-zero normalization.
    """
    ops = _ops(grid)
    q = solve_neumann_poisson(grid, (ops.D @ flat).reshape((grid.nx, grid.ny) + flat.shape[1:]))
    return flat - ops.G @ q.reshape((grid.n_cells,) + flat.shape[1:]), q


# ---------------------------------------------------------------------------
# Eigenmodes


@dataclass
class EigenPair:
    """Eigenmode of the negated projected Laplacian: lam, the flat unit-L2 face field
    phi (n_faces,), its projection pressure (nx, ny) and its L2 residual."""

    lam: float
    phi: np.ndarray
    pressure: np.ndarray
    residual: float


@dataclass(frozen=True)
class Modes:
    """The modes of stokes_eigenpairs, one array per quantity: lambdas (k,) ascending,
    phi (n_faces, k) with the unit-L2 flat face fields as columns, the projection
    pressures (nx, ny, k) and the L2 residuals (k,).  Every consumer reads them in
    place, so they are read-only.  modes[k] is the k-th EigenPair, whose arrays are
    read-only views of these."""

    grid: StaggeredGrid
    lambdas: np.ndarray
    phi: np.ndarray
    pressure: np.ndarray
    residual: np.ndarray

    def __post_init__(self):
        for a in (self.lambdas, self.phi, self.pressure, self.residual):
            a.flags.writeable = False

    def __len__(self) -> int:
        return self.lambdas.size

    def __getitem__(self, k: int) -> EigenPair:
        return EigenPair(float(self.lambdas[k]), self.phi[:, k], self.pressure[:, :, k],
                         float(self.residual[k]))


# A pair whose residual exceeds this share of its eigenvalue fails the eigensolve.
_RESIDUAL_TOL = 1e-8
# Eigenvalues within this relative distance of each other form one degenerate cluster.
_CLUSTER_TOL = 1e-9
# Pairs asked of each reflection class beyond a quarter of the count.
_CLASS_MARGIN = 8


def stokes_eigenpairs(grid: StaggeredGrid, count: int) -> Modes:
    """Lowest `count` eigenpairs on the divergence-free subspace, ascending, as one
    Modes; modes[k] is the per-mode view.

    Each reflection class (module docstring) of size n_c is asked
    for k_c = min(n_c, count // 4 + _CLASS_MARGIN) pairs: by dense eigh when
    k_c >= n_c - 1, else by shift-invert Lanczos (ARPACK, sigma = 0, constant
    start vector) with the Woodbury solve.  A truncated class whose largest
    eigenvalue is below the merged count-th one doubles its k_c and is solved
    again.  The merge is a stable sort in the class order ee, eo, oe, oo, so
    a count that splits a degenerate pair keeps the earlier class's mode.  On
    a square grid the class oe is the transpose of eo, so swap partners have
    bit-identical eigenvalues.

    The unit-L2 modes are put in a canonical gauge: inside each cluster of
    eigenvalues within a relative 1e-9 of each other, the basis is rotated to
    the eigenvectors of a fixed pseudo-random vertex weight, and each mode's
    sign makes its inner product with the same fixed vector positive.  So the
    modes do not depend on the solver's roundoff, and they agree with the
    dense (K, M) oracle of tests/conftest.py, which ends in the same gauge.

    The L2 residuals of -P L phi = lambda phi and the projection pressures are
    formed for all modes at once by leray_project; the worst residual is
    recomputed through it for that mode alone as a cross-check.  A residual
    above 1e-8 * lambda raises NumericsError, as does an ARPACK run that does
    not converge.
    """
    ops = _ops(grid)
    n_psi = (grid.nx - 1) * (grid.ny - 1)
    if not (1 <= count <= n_psi):
        raise PreconditionError(
            f"count must be between 1 and the div-free dimension {n_psi}")
    vals, vecs = _class_eigenpairs(grid, count)
    _canonical_gauge(vals, vecs)

    phi = ops.C @ vecs
    proj, q = leray_project(grid, ops.L @ phi)
    resid = grid.h * np.linalg.norm(proj + vals * phi, axis=0)
    bad = np.flatnonzero(~(resid <= _RESIDUAL_TOL * vals))
    if bad.size:
        k = bad[0]
        raise NumericsError(
            f"eigenpair {k}: residual {resid[k]:.3e} exceeds {_RESIDUAL_TOL:g} * lambda "
            f"(lambda = {vals[k]:.6g})")
    modes = Modes(grid, vals, phi, q, resid)

    # the worst pair once more, one mode at a time: the two evaluations differ
    # only in summation order, so they agree far inside the gate
    k = int(np.argmax(resid / vals))
    proj, _ = leray_project(grid, ops.L @ phi[:, k])
    single = grid.h * float(np.linalg.norm(proj + vals[k] * phi[:, k]))
    if not math.isclose(single, resid[k], rel_tol=1e-6, abs_tol=1e-14 * vals[k]):
        raise NumericsError(
            f"eigenpair {k}: batched residual {resid[k]:.3e} disagrees with the "
            f"per-mode one {single:.3e}")
    return modes


def _class_eigenpairs(grid: StaggeredGrid, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest `count` eigenvalues of (K, M) and unit-L2 streamfunctions as columns,
    solved per reflection class (stokes_eigenpairs)."""
    mx, my = grid.nx - 1, grid.ny - 1
    classes = _parity_classes(grid)
    k_c = {c: min(cls.size, count // 4 + _CLASS_MARGIN) for c, cls in classes.items()}
    solved, stale = {}, list(classes)
    while stale:
        for c in stale:
            if mx == my and c == (1, 0):    # the swap x <-> y maps eo onto oe
                vals, d = solved[(0, 1)]
                a, b = classes[(0, 1)].shape
                solved[c] = vals, d.reshape(a, b, -1).transpose(1, 0, 2).reshape(a * b, -1)
            else:
                solved[c] = classes[c].lowest(k_c[c])
        merged = np.concatenate([solved[c][0] for c in classes])
        cut = np.sort(merged)[count - 1] if merged.size >= count else np.inf
        stale = [c for c, cls in classes.items()
                 if solved[c][0].size < cls.size and solved[c][0][-1] < cut]
        for c in stale:
            k_c[c] = min(classes[c].size, 2 * k_c[c])

    order = np.argsort(merged, kind="stable")[:count]
    coef = np.zeros((mx, my, count))
    start = 0
    for c, cls in classes.items():
        vals, d = solved[c]
        local = order - start
        cols = np.flatnonzero((local >= 0) & (local < vals.size))
        coef[np.ix_(cls.ix, cls.iy, cols)] = (d[:, local[cols]].reshape(cls.shape + (-1,))
                                              / np.sqrt(cls.lam)[:, :, None])
        start += vals.size
    psi = scipy.fft.dstn(coef, type=1, norm="ortho", axes=(0, 1))
    return merged[order] / grid.h ** 2, psi.reshape(mx * my, count)


def _canonical_gauge(vals: np.ndarray, vecs: np.ndarray) -> None:
    """Put the columns of vecs in the canonical gauge of stokes_eigenpairs
    (vals ascending), in place."""
    generic = np.random.default_rng(0).standard_normal(vecs.shape[0])
    start = 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > _CLUSTER_TOL * abs(vals[k]):
            if k - start > 1:
                block = vecs[:, start:k]
                rotation = np.linalg.eigh(block.T @ (generic[:, None] * block))[1]
                vecs[:, start:k] = block @ rotation
            start = k
    vecs *= np.where(generic @ vecs < 0.0, -1.0, 1.0)


def _face_weights(grid: StaggeredGrid, profile: DampingProfile) -> np.ndarray:
    """h^2 * a on the faces, the weights of the cell quadrature of the damping:
    a is evaluated once on the u faces and once on the v faces."""
    return grid.h ** 2 * np.concatenate([profile.values(grid.u_points()),
                                         profile.values(grid.v_points())])


def damping_matrix(modes: Modes, profile: Optional[DampingProfile]) -> np.ndarray:
    """Coupling matrix B_jk = sum of a * phi_j . phi_k over faces (cell quadrature)."""
    if profile is None:
        return np.zeros((len(modes), len(modes)))
    b = modes.phi.T @ (_face_weights(modes.grid, profile)[:, None] * modes.phi)
    return (b + b.T) * 0.5


def damping_masses(modes: Modes, profile: Optional[DampingProfile]) -> np.ndarray:
    """||a^(1/2) phi_k||^2 of every mode: the diagonal of damping_matrix, without the rest."""
    if profile is None:
        return np.zeros(len(modes))
    return _face_weights(modes.grid, profile) @ (modes.phi * modes.phi)


@dataclass
class ModalSystem:
    """Truncated eigenbasis with its damping coupling matrix."""

    modes: Modes
    B: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @property
    def lambdas(self) -> np.ndarray:
        return self.modes.lambdas

    @property
    def grid(self) -> StaggeredGrid:
        return self.modes.grid

    def reconstruct(self, coeffs: np.ndarray) -> StaggeredField:
        """Grid field of a modal coefficient vector."""
        return StaggeredField.from_flat(self.grid, self.modes.phi @ np.asarray(coeffs))


def build_modal_system(grid: StaggeredGrid, n_modes: int,
                       damping: Optional[DampingProfile] = None) -> ModalSystem:
    modes = stokes_eigenpairs(grid, n_modes)
    return ModalSystem(modes, damping_matrix(modes, damping))

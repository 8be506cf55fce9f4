"""Discretized conditional-expectation operator and its diagnostics.

The operator maps a function of x to its conditional expectation given
z = z_j, computed by quadrature against the conditional density:
(A phi)(z_j) = sum_i phi(x_i) f_{X|Z}(x_i | z_j) w_i. Rows of the kernel
are renormalized so each integrates exactly to one on the grid, which on
the one hand matches the defining property of a conditional density and
on the other makes A annihilate constants' error exactly.

Singular values are reported for the weighted matrix
W_z^(1/2) K W_x^(-1/2), whose singular values are those of the operator
between the weighted L2 spaces rather than artifacts of node placement.

An operator is immutable, so everything computed from it alone is computed
once, on first use, and kept on the operator (``memo``, shared with grids)
as shared read-only arrays:

  * the weighted matrix M and its truncated SVD;
  * for the Tikhonov solver, the Gram matrix M^T M and the eigenvalue floor
    per lambda;
  * for the constrained solve, the constraint rows reduced to the retained
    singular subspace, one entry per constraint set, keyed by the set
    itself (a value: it compares by its constraints and inspection size).

What depends on the x grid alone is kept on the grid instead, so operators
that share a grid (montecarlo's replications) share it: the resample matrix
per target nodes, the differentiation matrix of ``sobolev_norm``, and the
Tikhonov penalty Gram F^T F, where F is the derivative in weighted
coordinates (F itself is not kept).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .function_space import (
    Grid,
    GridFunction,
    GridMismatchError,
    Memoized,
    _read_only,
)

SVD_TRUNCATION_RTOL = 1e-12


def _frozen(a) -> np.ndarray:
    """a as a read-only float array; a writeable input is copied first, so
    nothing cached from it can go stale and the caller's array is left alone."""
    a = np.asarray(a, dtype=float)
    return _read_only(a.copy() if a.flags.writeable else a)


def _truncation_rank(s: np.ndarray) -> int:
    """Count of singular values above SVD_TRUNCATION_RTOL times the largest."""
    return int(np.sum(s > SVD_TRUNCATION_RTOL * s[0]))


@dataclass(frozen=True, eq=False)
class TruncatedSvd:
    """Thin SVD of the weighted matrix, truncated at SVD_TRUNCATION_RTOL.

    rank J >= 1 counts the singular values above SVD_TRUNCATION_RTOL times
    the largest; U holds the first J left vectors as columns, Vt the first J
    right vectors as rows, and s every singular value. The arrays are shared
    by every solve on the operator and are read-only.
    """

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    rank: int


@dataclass(frozen=True, eq=False)
class DiscreteOperator(Memoized):
    """Kernel matrix with quadrature weights folded in.

    kernel_matrix[j, i] = f_{X|Z}(x_i | z_j) * w_i, one row per z node.
    fz_weights[j] = z-quadrature weight times f_Z(z_j); rows excluded by a
    sampled-mode degeneracy flag carry fz_weight 0, and only they do. Not
    all may, since one positive weight on a kernel row (which sums to 1)
    gives rank J >= 1. Both are stored read-only. Operators compare by
    identity.
    """

    x_grid: Grid
    z_grid: Grid
    kernel_matrix: np.ndarray
    fz_weights: np.ndarray

    def __post_init__(self):
        K = _frozen(self.kernel_matrix)
        fzw = _frozen(self.fz_weights)
        object.__setattr__(self, "kernel_matrix", K)
        object.__setattr__(self, "fz_weights", fzw)
        if K.shape != (self.z_grid.size, self.x_grid.size):
            raise ValueError("kernel matrix shape must be (z size, x size)")
        if not (np.isfinite(K).all() and np.isfinite(fzw).all()):
            raise ValueError("kernel matrix and fz_weights must be finite")
        row_sums = K.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-8):
            raise ValueError("kernel rows must integrate to 1 within 1e-8")
        if fzw.shape != (self.z_grid.size,) or np.any(fzw < 0):
            raise ValueError("fz_weights must be nonnegative, one per z node")
        if not fzw.any():
            raise ValueError("fz_weights must not all be zero")

    @property
    def svd(self) -> TruncatedSvd:
        """Truncated thin SVD of the weighted matrix, shared and read-only."""
        return self.memo("svd", self._build_svd)

    def _build_svd(self) -> TruncatedSvd:
        U, s, Vt = np.linalg.svd(weighted_matrix(self), full_matrices=False)
        J = _truncation_rank(s)
        # Copies of the retained block only, so the full factors can go.
        return TruncatedSvd(
            U=_read_only(U[:, :J].copy()),
            s=_read_only(s),
            Vt=_read_only(Vt[:J].copy()),
            rank=J,
        )


@dataclass(frozen=True, eq=False)
class SvdReport:
    singular_values: np.ndarray


def discretize(dgp, x_grid: Grid, z_grid: Grid) -> DiscreteOperator:
    """Build the discrete operator from a Dgp's conditional density."""
    dens = dgp.f_x_given_z(x_grid.nodes[None, :], z_grid.nodes[:, None])
    K = dens * x_grid.weights[None, :]
    K = K / K.sum(axis=1, keepdims=True)
    # the instrument is uniform on [0, 1], so f_Z is identically 1
    return DiscreteOperator(
        x_grid=x_grid, z_grid=z_grid, kernel_matrix=K, fz_weights=z_grid.weights
    )


def apply(A: DiscreteOperator, phi: GridFunction) -> GridFunction:
    if phi.grid != A.x_grid:
        raise GridMismatchError("phi must live on the operator's x grid")
    return GridFunction(A.z_grid, A.kernel_matrix @ phi.values)


def q_infinity(A: DiscreteOperator, phi: GridFunction, r: GridFunction) -> float:
    """Weighted mean-square moment residual, the population criterion:
    the fz-weighted sum of ((A phi)(z_j) - r(z_j))^2."""
    if r.grid != A.z_grid:
        raise GridMismatchError("r must live on the operator's z grid")
    m = apply(A, phi).values - r.values
    return float(np.dot(A.fz_weights, m**2))


def weighted_matrix(A: DiscreteOperator) -> np.ndarray:
    """The operator as a matrix between the weighted coordinate spaces.

    With u = sqrt(w_x) phi and v = sqrt(fz_weights) (A phi), the map u -> v
    is this matrix; Euclidean norms of u and v equal the weighted L2 norms.

    The matrix is built once per operator and shared by every caller. It is
    read-only: copy it before writing into it.
    """

    def build():
        sz = np.sqrt(A.fz_weights)
        sx = np.sqrt(A.x_grid.weights)
        return _read_only(sz[:, None] * A.kernel_matrix / sx[None, :])

    return A.memo("weighted", build)


def svd_report(A: DiscreteOperator) -> SvdReport:
    """Singular values of the weighted operator, from its one cached SVD, so
    they are the spectrum every solver truncates (at ``A.svd.rank``)."""
    return SvdReport(singular_values=A.svd.s)

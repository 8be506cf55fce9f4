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
once, on first use, and kept on the operator (``DiscreteOperator.memo``) as
shared read-only arrays:

  * the weighted matrix M and its truncated SVD;
  * for the Tikhonov solver, the derivative form F in weighted coordinates,
    the Gram matrices M^T M and F^T F, and the eigenvalue floor per lambda;
  * for the constrained solve, the constraint rows reduced to the retained
    singular subspace, one entry per constraint set, keyed by the
    constraints and the inspection grid's rule and nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .function_space import Grid, GridFunction, GridMismatchError

SVD_TRUNCATION_RTOL = 1e-12


def _truncation_rank(s: np.ndarray) -> int:
    """Count of singular values above SVD_TRUNCATION_RTOL times the largest."""
    return int(np.sum(s > SVD_TRUNCATION_RTOL * (s[0] if s.size else 0.0)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TruncatedSvd:
    """Thin SVD of the weighted matrix, truncated at SVD_TRUNCATION_RTOL.

    rank J counts the singular values above SVD_TRUNCATION_RTOL times the
    largest; U holds the first max(J, 1) left vectors as columns, Vt the
    first max(J, 1) right vectors as rows, and s every singular value. The
    arrays are shared by every solve on the operator and are read-only.
    """

    U: np.ndarray
    s: np.ndarray
    Vt: np.ndarray
    rank: int


@dataclass(frozen=True)
class DiscreteOperator:
    """Kernel matrix with quadrature weights folded in.

    kernel_matrix[j, i] = f_{X|Z}(x_i | z_j) * w_i, one row per z node.
    fz_weights[j] = z-quadrature weight times f_Z(z_j); rows excluded by a
    sampled-mode degeneracy flag carry fz_weight 0.
    """

    x_grid: Grid
    z_grid: Grid
    kernel_matrix: np.ndarray
    fz_weights: np.ndarray
    flagged_z: np.ndarray | None = None

    def __post_init__(self):
        # Stored read-only, so nothing cached from them can go stale; a
        # writeable input is copied first, leaving the caller's array alone.
        K = np.asarray(self.kernel_matrix, dtype=float)
        fzw = np.asarray(self.fz_weights, dtype=float)
        if K.flags.writeable:
            K = _read_only(K.copy())
        if fzw.flags.writeable:
            fzw = _read_only(fzw.copy())
        object.__setattr__(self, "kernel_matrix", K)
        object.__setattr__(self, "fz_weights", fzw)
        object.__setattr__(self, "_cache", {})
        if K.shape != (self.z_grid.size, self.x_grid.size):
            raise ValueError("kernel matrix shape must be (z size, x size)")
        if not (np.isfinite(K).all() and np.isfinite(fzw).all()):
            raise ValueError("kernel matrix and fz_weights must be finite")
        row_sums = K.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-8):
            raise ValueError("kernel rows must integrate to 1 within 1e-8")
        if fzw.shape != (self.z_grid.size,) or np.any(fzw < 0):
            raise ValueError("fz_weights must be nonnegative, one per z node")

    def memo(self, key, build):
        """Return build(), computed once per key for this operator.

        For values that depend on the operator and the key alone. Threads
        that race on a missing key may each call build, but all of them
        get the value stored first; an exception is raised, not stored.
        """
        try:
            return self._cache[key]
        except KeyError:
            return self._cache.setdefault(key, build())

    @property
    def svd(self) -> TruncatedSvd:
        """Truncated thin SVD of the weighted matrix, shared and read-only."""
        return self.memo("svd", self._build_svd)

    def _build_svd(self) -> TruncatedSvd:
        U, s, Vt = np.linalg.svd(weighted_matrix(self), full_matrices=False)
        J = _truncation_rank(s)
        # Copies of the retained block only, so the full factors can go.
        k = max(J, 1)
        return TruncatedSvd(
            U=_read_only(U[:, :k].copy()),
            s=_read_only(s),
            Vt=_read_only(Vt[:k].copy()),
            rank=J,
        )


@dataclass(frozen=True)
class SvdReport:
    singular_values: np.ndarray
    numerical_rank: int
    decay_fit: float


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
    if not phi.grid.same_as(A.x_grid):
        raise GridMismatchError("phi must live on the operator's x grid")
    return GridFunction(A.z_grid, A.kernel_matrix @ phi.values)


def q_infinity(A: DiscreteOperator, phi: GridFunction, r: GridFunction) -> float:
    """Weighted mean-square moment residual, the population criterion:
    the fz-weighted sum of ((A phi)(z_j) - r(z_j))^2."""
    if not r.grid.same_as(A.z_grid):
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
    """Singular values of the weighted operator plus decay diagnostics.

    The values and numerical_rank come from the operator's one cached SVD,
    so they are the spectrum and the rank every solver truncates at.
    decay_fit is the least-squares slope of log sigma_k against k over the
    values above 1e-14 * sigma_1 (the part of the spectrum not drowned in
    rounding).
    """
    f = A.svd
    s = f.s
    positive = s > (1e-14 * s[0] if s.size and s[0] > 0 else 0.0)
    if positive.sum() >= 2:
        k = np.arange(1, s.size + 1)[positive]
        slope = float(np.polyfit(k, np.log(s[positive]), 1)[0])
    else:
        slope = float("nan")
    return SvdReport(singular_values=s, numerical_rank=f.rank, decay_fit=slope)

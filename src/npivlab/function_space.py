"""Grids, quadrature, and L2/Sobolev geometry on [0, 1].

Everything downstream works with functions represented by their values on a
quadrature grid. Two grid rules are supported: Gauss-Legendre (for accurate
integration of smooth integrands) and uniform with trapezoid weights (for
finite differences and shape inspection, where equally spaced nodes keep the
difference stencils well scaled).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

GAUSS_LEGENDRE = "gauss_legendre"
UNIFORM_TRAPEZOID = "uniform_trapezoid"

DEFAULT_INSPECTION_SIZE = 1001
DEFAULT_SHAPE_TOL = 1e-9


class GridMismatchError(ValueError):
    """Raised when an operation receives functions on different grids."""


@dataclass(frozen=True)
class Grid:
    """Quadrature rule on [0, 1]: ordered nodes and positive weights.

    Weights sum to 1 (the integral of the constant function), so quadrature
    is ``sum(w * f)``.
    """

    nodes: np.ndarray
    weights: np.ndarray
    rule: str

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.weights.shape != self.nodes.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.weights).all()):
            raise ValueError("grid nodes and weights must be finite")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        if self.nodes[0] < -1e-15 or self.nodes[-1] > 1 + 1e-15:
            raise ValueError("grid nodes must lie in [0, 1]")
        if np.any(self.weights <= 0):
            raise ValueError("quadrature weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-14:
            raise ValueError("quadrature weights must sum to 1")

    @property
    def size(self) -> int:
        return self.nodes.size

    def same_as(self, other: "Grid") -> bool:
        """Same rule, nodes and weights (a grid is always the same as itself)."""
        if self is other:
            return True
        return (
            self.rule == other.rule
            and self.size == other.size
            and np.array_equal(self.nodes, other.nodes)
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True)
class GridFunction:
    """A real function sampled at the nodes of a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.size,):
            raise ValueError("values length must equal grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


@dataclass(frozen=True)
class ShapeConstraint:
    """A sign restriction on a function or one of its difference orders.

    kind is one of "nonnegative", "monotone_nondecreasing", "convex", or
    "derivative_sign" (with ``order`` m >= 1 selecting the m-th differences).
    tolerance is the absolute slack allowed in the discrete check.
    """

    kind: str
    order: int = 0
    tolerance: float = DEFAULT_SHAPE_TOL

    def __post_init__(self):
        kinds = ("nonnegative", "monotone_nondecreasing", "convex", "derivative_sign")
        if self.kind not in kinds:
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if isinstance(self.order, bool) or not isinstance(self.order, (int, np.integer)):
            raise ValueError(f"order must be an integer, got {self.order!r}")
        if self.kind == "derivative_sign" and self.order < 1:
            raise ValueError("derivative_sign requires order >= 1")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(
                f"tolerance must be nonnegative and finite, got {self.tolerance!r}"
            )

    @property
    def difference_order(self) -> int:
        return {
            "nonnegative": 0,
            "monotone_nondecreasing": 1,
            "convex": 2,
            "derivative_sign": self.order,
        }[self.kind]

    @property
    def name(self) -> str:
        """Config spelling and verdict key, e.g. "convex" or "derivative_sign_3"."""
        if self.kind == "derivative_sign":
            return f"derivative_sign_{self.order}"
        return self.kind


@dataclass(frozen=True)
class ShapeVerdict:
    satisfied: bool
    worst_node: float | None = None
    worst_slack: float | None = None

    def __bool__(self) -> bool:
        return self.satisfied


def make_grid(size: int, rule: str = GAUSS_LEGENDRE) -> Grid:
    """Build a quadrature grid of the given size on [0, 1].

    Gauss-Legendre nodes/weights come from the classical rule on [-1, 1]
    mapped affinely; with m nodes it integrates polynomials of degree
    2m - 1 exactly. The uniform rule uses trapezoid weights.
    """
    if rule == GAUSS_LEGENDRE:
        if size < 1:
            raise ValueError("grid size must be at least 1")
        t, w = np.polynomial.legendre.leggauss(size)
        nodes = 0.5 * (t + 1.0)
        weights = 0.5 * w
    elif rule == UNIFORM_TRAPEZOID:
        if size < 2:
            raise ValueError("a uniform trapezoid grid needs at least 2 nodes")
        nodes = np.linspace(0.0, 1.0, size)
        h = 1.0 / (size - 1)
        weights = np.full(size, h)
        weights[0] = weights[-1] = h / 2.0
    else:
        raise ValueError(f"unknown grid rule {rule!r}")
    return Grid(nodes=nodes, weights=weights, rule=rule)


def l2_norm(f: GridFunction) -> float:
    return float(np.sqrt(np.dot(f.grid.weights, f.values**2)))


def _barycentric_weights(grid: Grid) -> np.ndarray:
    # For Gauss-Legendre nodes the barycentric weights have the closed form
    # (-1)^i sqrt((1 - t_i^2) w_i) in the [-1, 1] variables, up to a common
    # scale that cancels in the interpolation formula.
    t = 2.0 * grid.nodes - 1.0
    lam = 2.0 * grid.weights
    return (-1.0) ** np.arange(grid.size) * np.sqrt((1.0 - t**2) * lam)


def resample_matrix(src: Grid, targets: np.ndarray) -> np.ndarray:
    """Matrix taking values on ``src`` to interpolated values at ``targets``.

    Barycentric polynomial interpolation from Gauss grids (the functions in
    this package are polynomials or analytic, so this is essentially exact),
    linear interpolation from uniform grids.

    The matrix is built once per source rule, nodes, weights and targets and
    then cached, so every caller gets the same shared array. It is
    read-only: copy it before writing into it.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("resample targets must be a 1-d array")
    return _cached_resample_matrix(
        src.rule, src.nodes.tobytes(), src.weights.tobytes(), targets.tobytes()
    )


# A few distinct (grid, targets) pairs occur per run; each entry holds one
# targets-by-nodes matrix (4 MB at 1001 x 512), so keep the bound small.
@functools.lru_cache(maxsize=4)
def _cached_resample_matrix(
    rule: str, nodes: bytes, weights: bytes, targets: bytes
) -> np.ndarray:
    src = Grid(np.frombuffer(nodes), np.frombuffer(weights), rule)
    R = _build_resample_matrix(src, np.frombuffer(targets))
    R.flags.writeable = False
    return R


def _build_resample_matrix(src: Grid, targets: np.ndarray) -> np.ndarray:
    if src.rule == GAUSS_LEGENDRE:
        bw = _barycentric_weights(src)
        diff = targets[:, None] - src.nodes[None, :]
        # Take the exact-node mask before diff is overwritten by the terms.
        exact_rows, exact_cols = np.nonzero(np.abs(diff) < 1e-14)
        with np.errstate(divide="ignore", invalid="ignore"):
            R = np.divide(bw, diff, out=diff)
            R /= R.sum(axis=1, keepdims=True)
        R[exact_rows] = 0.0
        R[exact_rows, exact_cols] = 1.0
        return R
    # linear interpolation weights from a uniform grid
    R = np.zeros((targets.size, src.size))
    idx = np.clip(np.searchsorted(src.nodes, targets) - 1, 0, src.size - 2)
    x0 = src.nodes[idx]
    x1 = src.nodes[idx + 1]
    frac = (targets - x0) / (x1 - x0)
    rows = np.arange(targets.size)
    R[rows, idx] = 1.0 - frac
    R[rows, idx + 1] = frac
    return R


def resample(f: GridFunction, target: Grid) -> GridFunction:
    if f.grid.same_as(target):
        return GridFunction(target, f.values.copy())
    R = resample_matrix(f.grid, target.nodes)
    return GridFunction(target, R @ f.values)


def differentiation_matrix(grid: Grid) -> np.ndarray:
    """Differentiation matrix on the grid's own nodes.

    On Gauss grids this differentiates the interpolating polynomial
    (spectral accuracy for the analytic functions used here). On uniform
    grids it applies second-order finite differences, central at interior
    nodes and one-sided three-point at the endpoints (exact for quadratics
    up to rounding), which need at least 3 nodes.
    """
    n = grid.size
    if grid.rule == GAUSS_LEGENDRE:
        bw = _barycentric_weights(grid)
        diff = grid.nodes[:, None] - grid.nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        D = (bw[None, :] / bw[:, None]) / diff
        np.fill_diagonal(D, 0.0)
        np.fill_diagonal(D, -D.sum(axis=1))
        return D
    if n < 3:
        raise ValueError("differentiation on a uniform grid requires at least 3 nodes")
    h = grid.nodes[1] - grid.nodes[0]
    D = np.zeros((n, n))
    i = np.arange(1, n - 1)
    D[i, i - 1] = -0.5 / h
    D[i, i + 1] = 0.5 / h
    D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return D


def sobolev_norm(f: GridFunction) -> float:
    """First-order Sobolev norm sqrt(||f||^2 + ||f'||^2).

    The derivative is taken with `differentiation_matrix` on the function's
    own grid, so on Gauss grids the seminorm of a polynomial is computed to
    near machine precision. The matrix of the most recent grid is kept, so
    norms of many functions on one grid build it once.
    """
    grid = f.grid
    D = _last_differentiation_matrix(
        grid.rule, grid.nodes.tobytes(), grid.weights.tobytes()
    )
    df = D @ f.values
    w = f.grid.weights
    return float(np.sqrt(np.dot(w, f.values**2) + np.dot(w, df**2)))


# One entry: a run takes Sobolev norms on one grid, and a larger bound would
# keep an n-by-n matrix per grid alive.
@functools.lru_cache(maxsize=1)
def _last_differentiation_matrix(rule: str, nodes: bytes, weights: bytes) -> np.ndarray:
    D = differentiation_matrix(Grid(np.frombuffer(nodes), np.frombuffer(weights), rule))
    D.flags.writeable = False
    return D


def default_inspection_grid(size: int = DEFAULT_INSPECTION_SIZE) -> Grid:
    return make_grid(size, UNIFORM_TRAPEZOID)


def check_shape(
    f: GridFunction,
    c: ShapeConstraint,
    inspection_grid: Grid | None = None,
) -> ShapeVerdict:
    """Check a sign/shape restriction on a uniform inspection grid.

    The function is resampled onto the inspection grid and the m-th order
    forward differences are formed, where m = 0 for nonnegativity, 1 for
    monotonicity, 2 for convexity, and the requested order for
    derivative_sign. The constraint is satisfied when every difference is
    >= -tolerance. Note the differences carry the step factor h^m relative
    to derivative values, which keeps the check's rounding noise far below
    the default tolerance.
    """
    if inspection_grid is None:
        inspection_grid = default_inspection_grid()
    if inspection_grid.rule != UNIFORM_TRAPEZOID:
        raise ValueError("check_shape requires a uniform inspection grid")
    m = c.difference_order
    if inspection_grid.size < m + 2:
        raise ValueError(
            f"inspection grid of size {inspection_grid.size} is too small "
            f"for difference order {m}"
        )
    v = resample(f, inspection_grid).values
    d = np.diff(v, n=m) if m > 0 else v
    worst = int(np.argmin(d))
    slack = float(d[worst])
    if slack >= -c.tolerance:
        return ShapeVerdict(satisfied=True)
    return ShapeVerdict(
        satisfied=False,
        worst_node=float(inspection_grid.nodes[worst]),
        worst_slack=slack,
    )

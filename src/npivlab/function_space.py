"""Grids, quadrature, and L2/Sobolev geometry on [0, 1].

Everything downstream works with functions represented by their values on a
Gauss-Legendre quadrature grid, the one grid rule: functions are integrated,
resampled from and differentiated on it. The shape constraints live here too:
a ShapeConstraint is its name ("convex", "derivative_sign_3", ...), the one
place that spelling is parsed into a difference order; a ConstraintSet holds
its own equally spaced inspection nodes, gives the rows the constrained solve
enforces there, and check_shape verifies the same differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

DEFAULT_INSPECTION_SIZE = 1001
DEFAULT_SHAPE_TOL = 1e-9


class GridMismatchError(ValueError):
    """Raised when an operation receives functions on different grids."""


class Memoized:
    """Base of the package's grids and operators, which are immutable.

    What is derived from one such object alone is computed on first use and
    kept on it, so it lives exactly as long as the object it comes from.
    """

    def memo(self, key, build):
        """Return build(), computed once per key for this object.

        For values that depend on the object and the key alone. Every caller
        shares the value, so an array is made read-only before it is stored.
        Threads that race on a missing key may each call build, but all of
        them get the value stored first; an exception is raised, not stored.
        """
        cache = vars(self).setdefault("_cache", {})
        try:
            return cache[key]
        except KeyError:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            return cache.setdefault(key, value)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _is_integer(value) -> bool:
    """Whether value is an int or a numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid(Memoized):
    """Gauss-Legendre quadrature rule on [0, 1], fixed by its size.

    Nodes/weights come from the classical rule on [-1, 1] mapped affinely;
    with m nodes it integrates polynomials of degree 2m - 1 exactly. The
    weights sum to 1 (the integral of the constant function), so quadrature
    is ``sum(w * f)``. Nodes and weights are derived and read-only, grids
    compare and hash by size, and each grid keeps its own memo.
    """

    size: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        size = self.size
        if not _is_integer(size):
            raise ValueError(f"grid size must be an integer, got {size!r}")
        if size < 1:
            raise ValueError("grid size must be at least 1")
        t, w = leggauss(size)
        object.__setattr__(self, "nodes", _read_only(0.5 * (t + 1.0)))
        object.__setattr__(self, "weights", _read_only(0.5 * w))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """A real function sampled at the nodes of a Grid; compares by identity."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != (self.grid.size,):
            raise ValueError("values length must equal grid size")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")


def make_grid(size: int) -> Grid:
    """Build a quadrature grid of the given size on [0, 1] (see Grid)."""
    return Grid(size)


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

    Barycentric polynomial interpolation (the functions in this package are
    polynomials or analytic, so this is essentially exact).

    The matrix is built once per target values and kept on ``src``, so
    every caller gets the same shared array for as long as the grid lives.
    It is read-only: copy it before writing into it.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("resample targets must be a 1-d array")
    return src.memo(
        ("resample", targets.tobytes()),
        lambda: _build_resample_matrix(src, targets),
    )


# Rows per chunk of the constraint rows and of sampled_plugin's x kernel block,
# whose 32-row slabs give products bit-equal to one GEMM on 128-node grids.
_CHUNK_ROWS = 32


def _row_chunks(rows: int):
    """Slices covering range(rows) in ascending blocks of _CHUNK_ROWS."""
    return (slice(i, min(i + _CHUNK_ROWS, rows)) for i in range(0, rows, _CHUNK_ROWS))


def _build_resample_matrix(src: Grid, targets: np.ndarray) -> np.ndarray:
    bw = _barycentric_weights(src)
    diff = targets[:, None] - src.nodes[None, :]
    # The exact nodes, |diff| < 1e-14 without a full-size np.abs temporary.
    exact = diff < 1e-14
    exact &= diff > -1e-14
    exact_rows, exact_cols = np.nonzero(exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        R = np.divide(bw, diff, out=diff)
        R /= R.sum(axis=1, keepdims=True)
    R[exact_rows] = 0.0
    R[exact_rows, exact_cols] = 1.0
    return R


def differentiation_matrix(grid: Grid) -> np.ndarray:
    """Differentiation matrix on the grid's own nodes.

    It differentiates the interpolating polynomial (spectral accuracy for
    the analytic functions used here).
    """
    bw = _barycentric_weights(grid)
    diff = grid.nodes[:, None] - grid.nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    D = (bw[None, :] / bw[:, None]) / diff
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


def sobolev_norm(f: GridFunction) -> float:
    """First-order Sobolev norm sqrt(||f||^2 + ||f'||^2).

    The derivative is taken with `differentiation_matrix` on the function's
    own grid, so the seminorm of a polynomial is computed to near machine
    precision. The matrix is kept on the grid, so norms of many functions on
    one grid build it once.
    """
    grid = f.grid
    D = grid.memo("differentiation_matrix", lambda: differentiation_matrix(grid))
    df = D @ f.values
    w = grid.weights
    return float(np.sqrt(np.dot(w, f.values**2) + np.dot(w, df**2)))


# The difference order of each constraint name but derivative_sign_<m>'s (m).
_DIFFERENCE_ORDERS = {"nonnegative": 0, "monotone_nondecreasing": 1, "convex": 2}
# An order m needs m + 2 inspection nodes: past 18 digits, 8 EB of them.
_MAX_ORDER_DIGITS = 18


@dataclass(frozen=True)
class ShapeConstraint:
    """A sign restriction on a function or one of its difference orders.

    name, the config spelling and verdict key, is "nonnegative",
    "monotone_nondecreasing", "convex" (differences of order 0, 1 and 2) or
    "derivative_sign_<m>" (the m-th differences, m >= 1 in plain decimal
    without leading zeros, at most 18 digits); difference_order is derived
    from it. tolerance is the absolute slack allowed in the discrete check.
    """

    name: str
    tolerance: float = DEFAULT_SHAPE_TOL
    difference_order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name, difference_order = self.name, None
        if isinstance(name, str):
            m = name.removeprefix("derivative_sign_")
            canonical = m != name and m.isascii() and m.isdigit() and m[0] != "0"
            if canonical and len(m) > _MAX_ORDER_DIGITS:
                raise ValueError(
                    f"constraint {name!r} has a difference order of more than "
                    f"{_MAX_ORDER_DIGITS} digits, which no inspection grid can hold"
                )
            difference_order = int(m) if canonical else _DIFFERENCE_ORDERS.get(name)
        if difference_order is None:
            raise ValueError(f"unknown constraint name {name!r}")
        object.__setattr__(self, "difference_order", difference_order)
        tol = self.tolerance
        real = isinstance(tol, (int, float, np.floating)) and not isinstance(tol, bool)
        if not (real and 0 <= tol < math.inf):
            raise ValueError(
                f"tolerance must be nonnegative and finite, got {self.tolerance!r}"
            )


@dataclass(frozen=True)
class ConstraintSet:
    """Shape constraints on inspection_size equally spaced nodes of [0, 1].

    The constrained solve enforces the set through ``rows`` and check_shape
    verifies it: both take each constraint's m-th order differences of values
    at ``nodes``, which the set derives itself (equally spaced, so the
    differences mean the shapes they name). There must be at least k + 2
    nodes, k the set's highest difference order, and at least 2 for an empty
    set: this is the only place in the library that checks that rule. Sets
    compare and hash by (constraints, inspection_size).
    """

    constraints: tuple
    inspection_size: int = DEFAULT_INSPECTION_SIZE
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not all(isinstance(c, ShapeConstraint) for c in self.constraints):
            raise ValueError("constraints must be ShapeConstraint instances")
        n = self.inspection_size
        if not _is_integer(n):
            raise ValueError(f"inspection_size must be an integer, got {n!r}")
        top = max(self.constraints, key=lambda c: c.difference_order, default=None)
        needed = 2 if top is None else top.difference_order + 2
        if n < needed:
            which = "" if top is None else f" for constraint {top.name!r}"
            raise ValueError(f"inspection_size must be at least {needed}{which}, got {n}")
        object.__setattr__(self, "nodes", _read_only(np.linspace(0.0, 1.0, n)))

    def rows(self, x_grid: Grid, basis: np.ndarray) -> np.ndarray:
        """Stacked inequality rows acting on coefficients in ``basis``.

        basis holds, as columns, directions in the weighted coordinates
        u = sqrt(w_x) phi on x_grid. Each constraint's block is built and
        reduced on its own, straight into its rows of the result, so no full
        inspection-by-x_grid stack is formed.
        """
        R = resample_matrix(x_grid, self.nodes)
        sw = np.sqrt(x_grid.weights)
        n = len(R)
        orders = [c.difference_order for c in self.constraints]
        out = np.empty((sum(n - m for m in orders), basis.shape[1]))
        # Each block's differences fill one scratch array a chunk of rows at a
        # time and are divided in place: no second full-size block is alive.
        scratch = np.empty_like(R)
        start = 0
        for m in orders:
            D = scratch[: n - m]
            for chunk in _row_chunks(n - m):
                D[chunk] = np.diff(R[chunk.start : chunk.stop + m], n=m, axis=0)
            D /= sw
            np.matmul(D, basis, out=out[start : start + n - m])
            start += n - m
        return out


def check_shape(f: GridFunction, shapes: ConstraintSet) -> tuple[bool, ...]:
    """One verdict per constraint of ``shapes``, in order.

    f is resampled once onto the set's inspection nodes, and for each
    constraint the m-th order forward differences of those values are formed
    (m = difference_order: 0 for nonnegativity, 1 for monotonicity, 2 for
    convexity, m for derivative_sign_<m>), the differences that
    ``ConstraintSet.rows`` enforces. A constraint holds when every difference
    is >= -tolerance. The differences carry the step factor h^m relative to
    derivative values, which keeps the check's rounding noise far below the
    default tolerance.
    """
    v = resample_matrix(f.grid, shapes.nodes) @ f.values
    # np.diff with n = 0 returns v itself
    return tuple(
        float(np.diff(v, n=c.difference_order).min()) >= -c.tolerance
        for c in shapes.constraints
    )

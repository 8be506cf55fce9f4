from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npivlab import function_space
from npivlab.function_space import (
    GAUSS_LEGENDRE,
    UNIFORM_TRAPEZOID,
    Grid,
    GridFunction,
    GridMismatchError,
    ShapeConstraint,
    check_shape,
    default_inspection_grid,
    differentiation_matrix,
    l2_norm,
    make_grid,
    resample,
    resample_matrix,
    sobolev_norm,
)
from npivlab.function_space import (
    _build_resample_matrix,
    _cached_resample_matrix,
)
from npivlab.operators import DiscreteOperator, apply, q_infinity


@pytest.fixture(scope="module")
def gauss128():
    return make_grid(128)


def test_gauss_grid_basics(gauss128):
    g = gauss128
    assert g.size == 128
    assert g.rule == GAUSS_LEGENDRE
    assert np.all(g.nodes > 0) and np.all(g.nodes < 1)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - 1.0) < 1e-14


def test_uniform_grid_trapezoid_weights():
    g = make_grid(5, UNIFORM_TRAPEZOID)
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_allclose(g.weights, [0.125, 0.25, 0.25, 0.25, 0.125])


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0)
    with pytest.raises(ValueError):
        make_grid(1, UNIFORM_TRAPEZOID)
    with pytest.raises(ValueError):
        make_grid(8, "chebyshev")


def test_single_node_gauss_grid_is_midpoint():
    g = make_grid(1)
    np.testing.assert_allclose(g.nodes, [0.5])
    np.testing.assert_allclose(g.weights, [1.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=200))
def test_gauss_quadrature_integrates_monomials_exactly(k):
    # 128 nodes are exact through degree 255
    g = make_grid(128)
    val = float(np.dot(g.weights, g.nodes**k))
    assert abs(val - 1.0 / (k + 1)) < 1e-13


def test_grids_with_equal_nodes_and_other_weights_are_not_the_same():
    nodes = np.array([0.1, 0.5, 0.9])
    a = Grid(nodes, np.array([0.25, 0.5, 0.25]), GAUSS_LEGENDRE)
    b = Grid(nodes, np.array([0.2, 0.6, 0.2]), GAUSS_LEGENDRE)
    assert a.same_as(a)
    assert a.same_as(Grid(nodes.copy(), a.weights.copy(), GAUSS_LEGENDRE))
    assert not a.same_as(b) and not b.same_as(a)
    kernel = np.full((3, 3), 1.0 / 3.0)
    for own, other in ((a, b), (b, a)):
        A = DiscreteOperator(own, own, kernel, own.weights)
        theirs = GridFunction(other, np.array([3.0, 1.0, 2.0]))
        with pytest.raises(GridMismatchError):
            apply(A, theirs)
        with pytest.raises(GridMismatchError):
            q_infinity(A, GridFunction(own, np.ones(3)), theirs)


finite_arrays = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=16,
    max_size=16,
)


@settings(max_examples=50, deadline=None)
@given(finite_arrays, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_norm_absolute_homogeneity(a, c):
    g = make_grid(16)
    f = GridFunction(g, np.array(a))
    scaled = GridFunction(g, c * f.values)
    assert abs(l2_norm(scaled) - abs(c) * l2_norm(f)) < 1e-9 * (1.0 + abs(c) * l2_norm(f))


def test_resample_polynomial_is_exact(gauss128):
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.5])
    f = GridFunction(gauss128, np.polyval(coeffs, gauss128.nodes))
    target = make_grid(257, UNIFORM_TRAPEZOID)
    got = resample(f, target)
    np.testing.assert_allclose(got.values, np.polyval(coeffs, target.nodes), atol=1e-11)


def test_resample_same_grid_is_identity(gauss128):
    f = GridFunction(gauss128, np.sin(gauss128.nodes))
    np.testing.assert_array_equal(resample(f, gauss128).values, f.values)


def test_resample_from_uniform_is_linear_interpolation():
    src = make_grid(11, UNIFORM_TRAPEZOID)
    f = GridFunction(src, src.nodes**2)
    target = make_grid(21, UNIFORM_TRAPEZOID)
    got = resample(f, target)
    np.testing.assert_allclose(got.values, np.interp(target.nodes, src.nodes, f.values))


@pytest.mark.parametrize("rule", [GAUSS_LEGENDRE, UNIFORM_TRAPEZOID])
def test_resample_matrix_is_memoized_and_read_only(rule):
    src = make_grid(64, rule)
    targets = default_inspection_grid().nodes
    R = resample_matrix(src, targets)
    np.testing.assert_array_equal(R, _build_resample_matrix(src, targets))
    # an equal grid built afresh hits the same entry
    assert resample_matrix(make_grid(64, rule), targets.copy()) is R
    with pytest.raises(ValueError):
        R[0, 0] = 1.0


@pytest.mark.parametrize("rule", [GAUSS_LEGENDRE, UNIFORM_TRAPEZOID])
def test_resample_matrix_rows_at_source_nodes_are_unit_rows(rule):
    src = make_grid(16, rule)
    cols = np.array([0, 5, 15])
    targets = np.sort(np.concatenate([src.nodes[cols], [0.123, 0.777]]))
    R = resample_matrix(src, targets)
    assert np.all(np.isfinite(R))
    rows = np.searchsorted(targets, src.nodes[cols])
    np.testing.assert_array_equal(R[rows], np.eye(src.size)[cols])


def test_resample_matrix_rejects_non_vector_targets(gauss128):
    with pytest.raises(ValueError):
        resample_matrix(gauss128, np.zeros((2, 3)))


def test_resample_matrix_threaded_equals_serial():
    cases = [
        (make_grid(n, rule), make_grid(m, UNIFORM_TRAPEZOID).nodes)
        for n in (32, 128)
        for rule in (GAUSS_LEGENDRE, UNIFORM_TRAPEZOID)
        for m in (257, 1001)
    ]
    serial = [_build_resample_matrix(src, t) for src, t in cases]
    # more keys than cache entries, so threads also race on evictions
    _cached_resample_matrix.cache_clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(resample_matrix, src, t) for src, t in cases * 3]
        threaded = [f.result(timeout=60) for f in futures]
    for got, want in zip(threaded, serial * 3):
        np.testing.assert_array_equal(got, want)


def test_differentiation_matrix_spectral_on_gauss(gauss128):
    D = differentiation_matrix(gauss128)
    x = gauss128.nodes
    np.testing.assert_allclose(D @ x**3, 3.0 * x**2, atol=1e-10)
    # constants are annihilated
    assert np.abs(D @ np.ones(128)).max() < 1e-10


def test_differentiation_matrix_uniform_matches_stencil_loop():
    g = make_grid(9, UNIFORM_TRAPEZOID)
    n, h = g.size, g.nodes[1] - g.nodes[0]
    want = np.zeros((n, n))
    for i in range(1, n - 1):
        want[i, i - 1] = -0.5 / h
        want[i, i + 1] = 0.5 / h
    want[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    want[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    np.testing.assert_array_equal(differentiation_matrix(g), want)


def test_two_node_uniform_grid_cannot_be_differentiated():
    g = make_grid(2, UNIFORM_TRAPEZOID)
    with pytest.raises(ValueError, match="at least 3 nodes"):
        differentiation_matrix(g)
    with pytest.raises(ValueError, match="at least 3 nodes"):
        sobolev_norm(GridFunction(g, np.array([0.0, 1.0])))


def test_sobolev_norm_builds_the_matrix_once_per_grid(gauss128, monkeypatch):
    calls = []
    original = function_space.differentiation_matrix

    def counting(grid):
        calls.append(grid.size)
        return original(grid)

    monkeypatch.setattr(function_space, "differentiation_matrix", counting)
    function_space._last_differentiation_matrix.cache_clear()
    small = make_grid(16)
    for grid in (gauss128, gauss128, small, small, gauss128):
        want = np.sqrt(1.0 / 5.0 + 4.0 / 3.0)
        assert abs(sobolev_norm(GridFunction(grid, grid.nodes**2)) - want) < 1e-12
    # only the latest grid's matrix is kept
    assert calls == [128, 16, 128]


def test_sobolev_norm_of_square(gauss128):
    # ||x^2||^2 = 1/5 and ||2x||^2 = 4/3
    f = GridFunction(gauss128, gauss128.nodes**2)
    assert abs(sobolev_norm(f) - np.sqrt(1.0 / 5.0 + 4.0 / 3.0)) < 1e-12


def test_sobolev_norm_of_constant(gauss128):
    f = GridFunction(gauss128, np.full(128, -2.5))
    assert abs(sobolev_norm(f) - 2.5) < 1e-10


def test_default_inspection_grid_shape():
    g = default_inspection_grid()
    assert g.size == 1001
    assert g.rule == UNIFORM_TRAPEZOID


class TestCheckShape:
    def setup_method(self):
        self.grid = make_grid(96)
        self.square = GridFunction(self.grid, self.grid.nodes**2)

    def test_square_passes_all_three(self):
        for kind in ("nonnegative", "monotone_nondecreasing", "convex"):
            verdict = check_shape(self.square, ShapeConstraint(kind))
            assert verdict.satisfied
            assert bool(verdict)

    def test_decreasing_fails_monotone_with_location(self):
        f = GridFunction(self.grid, -self.grid.nodes)
        verdict = check_shape(f, ShapeConstraint("monotone_nondecreasing"))
        assert not verdict.satisfied
        assert verdict.worst_slack < 0
        assert 0.0 <= verdict.worst_node <= 1.0

    def test_negative_dip_fails_nonnegativity(self):
        f = GridFunction(self.grid, np.sin(2.0 * np.pi * self.grid.nodes))
        assert not check_shape(f, ShapeConstraint("nonnegative"))

    def test_tolerance_is_respected(self):
        f = GridFunction(self.grid, np.full(96, -5e-10))
        assert check_shape(f, ShapeConstraint("nonnegative"))
        assert not check_shape(f, ShapeConstraint("nonnegative", tolerance=1e-10))

    def test_derivative_sign_orders(self):
        cubic = GridFunction(self.grid, self.grid.nodes**3)
        assert check_shape(cubic, ShapeConstraint("derivative_sign", order=3))
        flipped = GridFunction(self.grid, -self.grid.nodes**3)
        assert not check_shape(flipped, ShapeConstraint("derivative_sign", order=3))

    def test_rejects_gauss_inspection_grid(self):
        with pytest.raises(ValueError):
            check_shape(self.square, ShapeConstraint("convex"), make_grid(32))

    def test_rejects_tiny_inspection_grid(self):
        with pytest.raises(ValueError):
            check_shape(
                self.square,
                ShapeConstraint("convex"),
                make_grid(3, UNIFORM_TRAPEZOID),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=33,
            max_size=33,
        ),
        st.integers(min_value=-20, max_value=20),
    )
    def test_power_of_two_scaling_equivariance(self, vals, k):
        # scaling values and tolerance by 2^k is exact in floating point,
        # so the verdict cannot change
        grid = make_grid(33, UNIFORM_TRAPEZOID)
        f = GridFunction(grid, np.array(vals))
        c = 2.0**k
        scaled = GridFunction(grid, c * f.values)
        for kind in ("nonnegative", "monotone_nondecreasing", "convex"):
            base = check_shape(f, ShapeConstraint(kind, tolerance=1e-9), grid)
            after = check_shape(
                scaled, ShapeConstraint(kind, tolerance=1e-9 * c), grid
            )
            assert base.satisfied == after.satisfied


def test_shape_constraint_validation():
    with pytest.raises(ValueError):
        ShapeConstraint("concave")
    with pytest.raises(ValueError):
        ShapeConstraint("derivative_sign", order=0)
    with pytest.raises(ValueError):
        ShapeConstraint("convex", tolerance=-1e-9)
    # a NaN tolerance made check_shape fail increasing functions with a
    # positive slack, an infinite one passed anything, and a fractional
    # order died as a TypeError inside np.diff
    for tol in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tolerance"):
            ShapeConstraint("monotone_nondecreasing", tolerance=tol)
    for order in (1.5, 2.0, "3", True):
        with pytest.raises(ValueError, match="order"):
            ShapeConstraint("derivative_sign", order=order)


def test_difference_orders():
    assert ShapeConstraint("nonnegative").difference_order == 0
    assert ShapeConstraint("monotone_nondecreasing").difference_order == 1
    assert ShapeConstraint("convex").difference_order == 2
    assert ShapeConstraint("derivative_sign", order=4).difference_order == 4
    assert ShapeConstraint("derivative_sign", order=np.int64(3)).difference_order == 3


def test_grid_function_validation(gauss128):
    with pytest.raises(ValueError):
        GridFunction(gauss128, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(gauss128, np.full(128, np.nan))


def test_grid_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.2, 0.1]), weights=np.array([0.5, 0.5]), rule=GAUSS_LEGENDRE)
    with pytest.raises(ValueError):
        Grid(nodes=np.array([0.1, 0.2]), weights=np.array([0.9, 0.3]), rule=GAUSS_LEGENDRE)
    with pytest.raises(ValueError):
        Grid(nodes=np.array([-0.1, 0.2]), weights=np.array([0.5, 0.5]), rule=GAUSS_LEGENDRE)
    # NaN compares false with everything, so it needs its own check
    for nodes, weights in (([0.1, np.nan], [0.5, 0.5]), ([0.1, 0.2], [np.nan, 0.5])):
        with pytest.raises(ValueError, match="finite"):
            Grid(nodes=np.array(nodes), weights=np.array(weights), rule=GAUSS_LEGENDRE)

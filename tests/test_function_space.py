import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npivlab import function_space
from npivlab.estimators import naive_estimate
from npivlab.function_space import (
    DEFAULT_INSPECTION_SIZE,
    Grid,
    GridFunction,
    ConstraintSet,
    GridMismatchError,
    ShapeConstraint,
    check_shape,
    differentiation_matrix,
    l2_norm,
    make_grid,
    resample_matrix,
    sobolev_norm,
)
from npivlab.function_space import _build_resample_matrix
from npivlab.operators import DiscreteOperator, apply, q_infinity


@pytest.fixture(scope="module")
def gauss128():
    return make_grid(128)


def test_gauss_grid_basics(gauss128):
    g = gauss128
    assert g.size == 128
    assert np.all(g.nodes > 0) and np.all(g.nodes < 1)
    assert np.all(np.diff(g.nodes) > 0)
    assert np.all(g.weights > 0)
    assert abs(g.weights.sum() - 1.0) < 1e-14


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(0)
    # Gauss-Legendre is the one rule, so a grid takes no rule argument
    with pytest.raises(TypeError):
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


# The test ids name the grid rule, Gauss-Legendre, the only one.
def _gauss_ids(value):
    return f"gauss_legendre-{value}"


@pytest.mark.parametrize("size", [1, 3, 64, 128, 512, 1001], ids=_gauss_ids)
def test_grid_arrays_are_bit_equal_to_the_reference_rule(size):
    g = Grid(size)
    # the rule's nodes and weights, written out independently of Grid
    t, w = np.polynomial.legendre.leggauss(size)
    nodes, weights = 0.5 * (t + 1.0), 0.5 * w
    assert g.nodes.dtype == g.weights.dtype == np.float64
    assert g.nodes.tobytes() == nodes.tobytes()
    assert g.weights.tobytes() == weights.tobytes()


def test_grids_of_equal_size_and_rule_are_equal_and_keep_their_own_memos():
    a, b = make_grid(8), Grid(8)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != make_grid(9)
    assert a.memo("key", lambda: "a") == "a"
    assert b.memo("key", lambda: "b") == "b"
    assert a.memo("key", lambda: "again") == "a"
    # an equal grid is no mismatch: an operator accepts functions on it
    A = DiscreteOperator(a, a, np.tile(a.weights, (8, 1)), a.weights)
    on_b = GridFunction(b, np.arange(8.0))
    assert apply(A, on_b).grid is a
    assert q_infinity(A, on_b, apply(A, on_b)) == 0.0
    assert naive_estimate(A, apply(A, on_b)).phi_hat.grid is a


def test_the_memo_stores_an_array_read_only_and_other_values_as_built():
    g = make_grid(8)
    built = np.ones(3)
    kept = g.memo("array", lambda: built)
    assert kept is built and not kept.flags.writeable
    assert g.memo("array", lambda: np.zeros(3)) is built
    value = 0.25
    assert g.memo("float", lambda: value) is value


def test_a_grid_of_another_size_or_rule_is_a_mismatch():
    own = make_grid(8)
    A = DiscreteOperator(own, own, np.tile(own.weights, (8, 1)), own.weights)
    theirs = GridFunction(make_grid(9), np.linspace(1.0, 2.0, 9))
    with pytest.raises(GridMismatchError):
        apply(A, theirs)
    with pytest.raises(GridMismatchError):
        q_infinity(A, GridFunction(own, np.ones(8)), theirs)
    with pytest.raises(GridMismatchError):
        naive_estimate(A, theirs)


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
    targets = np.linspace(0.0, 1.0, 257)
    got = resample_matrix(gauss128, targets) @ f.values
    np.testing.assert_allclose(got, np.polyval(coeffs, targets), atol=1e-11)


def test_resample_same_grid_is_identity(gauss128):
    R = resample_matrix(gauss128, gauss128.nodes)
    np.testing.assert_array_equal(R, np.eye(128))
    f = GridFunction(gauss128, np.sin(gauss128.nodes))
    np.testing.assert_array_equal(R @ f.values, f.values)


def test_resample_matrix_is_memoized_and_read_only():
    src = make_grid(64)
    targets = np.linspace(0.0, 1.0, DEFAULT_INSPECTION_SIZE)
    R = resample_matrix(src, targets)
    np.testing.assert_array_equal(R, _build_resample_matrix(src, targets))
    # the matrix is kept on the grid, keyed by the target values
    assert resample_matrix(src, targets.copy()) is R
    # an equal grid built afresh builds an equal matrix of its own
    fresh = resample_matrix(make_grid(64), targets)
    assert fresh is not R
    np.testing.assert_array_equal(fresh, R)
    with pytest.raises(ValueError):
        R[0, 0] = 1.0


def test_resample_matrix_rows_at_source_nodes_are_unit_rows():
    src = make_grid(16)
    cols = np.array([0, 5, 15])
    targets = np.sort(np.concatenate([src.nodes[cols], [0.123, 0.777]]))
    R = resample_matrix(src, targets)
    assert np.all(np.isfinite(R))
    rows = np.searchsorted(targets, src.nodes[cols])
    np.testing.assert_array_equal(R[rows], np.eye(src.size)[cols])


def test_resample_matrix_rejects_non_vector_targets(gauss128):
    with pytest.raises(ValueError):
        resample_matrix(gauss128, np.zeros((2, 3)))


def test_shared_grid_matrices_threaded_equal_serial():
    # grids shared by every thread, each first read in the pool, so threads
    # race on missing keys
    grids = [make_grid(n) for n in (32, 64, 96, 128)]
    targets = [np.linspace(0.0, 1.0, m) for m in (257, 1001)]
    serial = {
        (i, j): _build_resample_matrix(g, t)
        for i, g in enumerate(grids)
        for j, t in enumerate(targets)
    }
    want_norms = [
        sobolev_norm(GridFunction(make_grid(g.size), g.nodes**2)) for g in grids
    ]

    def work(i, j):
        g = grids[i]
        return resample_matrix(g, targets[j]), sobolev_norm(GridFunction(g, g.nodes**2))

    jobs = [key for key in serial for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(work, *key) for key in jobs]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (i, j), (R, norm) in zip(jobs, results):
        np.testing.assert_array_equal(R, serial[(i, j)])
        assert R is resample_matrix(grids[i], targets[j])
        assert norm == want_norms[i]
    for g in grids:
        kept = g.memo("differentiation_matrix", None)
        np.testing.assert_array_equal(kept, differentiation_matrix(g))


def test_differentiation_matrix_spectral_on_gauss(gauss128):
    D = differentiation_matrix(gauss128)
    x = gauss128.nodes
    np.testing.assert_allclose(D @ x**3, 3.0 * x**2, atol=1e-10)
    # constants are annihilated
    assert np.abs(D @ np.ones(128)).max() < 1e-10


def test_sobolev_norm_builds_the_matrix_once_per_grid(monkeypatch):
    calls = []
    original = function_space.differentiation_matrix

    def counting(grid):
        calls.append(grid.size)
        return original(grid)

    monkeypatch.setattr(function_space, "differentiation_matrix", counting)
    large, small = make_grid(128), make_grid(16)
    for grid in (large, large, small, small, large):
        want = np.sqrt(1.0 / 5.0 + 4.0 / 3.0)
        assert abs(sobolev_norm(GridFunction(grid, grid.nodes**2)) - want) < 1e-12
    # each grid keeps its own matrix
    assert calls == [128, 16]


def test_sobolev_norm_of_square(gauss128):
    # ||x^2||^2 = 1/5 and ||2x||^2 = 4/3
    f = GridFunction(gauss128, gauss128.nodes**2)
    assert abs(sobolev_norm(f) - np.sqrt(1.0 / 5.0 + 4.0 / 3.0)) < 1e-12


def test_sobolev_norm_of_constant(gauss128):
    f = GridFunction(gauss128, np.full(128, -2.5))
    assert abs(sobolev_norm(f) - 2.5) < 1e-10


KINDS = ("nonnegative", "monotone_nondecreasing", "convex")


class TestCheckShape:
    # check_shape returns a tuple, which is truthy even as (False,), so every
    # verdict is compared with the expected tuple
    def setup_method(self):
        self.grid = make_grid(96)
        self.square = GridFunction(self.grid, self.grid.nodes**2)

    def test_square_passes_all_three(self):
        shapes = ConstraintSet(tuple(ShapeConstraint(kind) for kind in KINDS))
        assert check_shape(self.square, shapes) == (True, True, True)

    def test_decreasing_fails_monotone(self):
        f = GridFunction(self.grid, -self.grid.nodes)
        monotone = ConstraintSet((ShapeConstraint("monotone_nondecreasing"),))
        assert check_shape(f, monotone) == (False,)

    def test_negative_dip_fails_nonnegativity(self):
        f = GridFunction(self.grid, np.sin(2.0 * np.pi * self.grid.nodes))
        nonnegative = ConstraintSet((ShapeConstraint("nonnegative"),))
        assert check_shape(f, nonnegative) == (False,)

    def test_tolerance_is_respected(self):
        f = GridFunction(self.grid, np.full(96, -5e-10))
        shapes = ConstraintSet(
            (
                ShapeConstraint("nonnegative"),
                ShapeConstraint("nonnegative", tolerance=1e-10),
            )
        )
        assert check_shape(f, shapes) == (True, False)

    def test_derivative_sign_orders(self):
        third = ConstraintSet((ShapeConstraint("derivative_sign_3"),))
        cubic = GridFunction(self.grid, self.grid.nodes**3)
        assert check_shape(cubic, third) == (True,)
        flipped = GridFunction(self.grid, -self.grid.nodes**3)
        assert check_shape(flipped, third) == (False,)

    def test_rejects_tiny_inspection_grid(self):
        # convex needs m + 2 = 4 nodes
        with pytest.raises(ValueError, match="at least 4 for constraint 'convex', got 3"):
            ConstraintSet((ShapeConstraint("convex"),), 3)

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
        grid = make_grid(33)
        f = GridFunction(grid, np.array(vals))
        c = 2.0**k
        scaled = GridFunction(grid, c * f.values)
        def shapes(tol):
            return ConstraintSet(tuple(ShapeConstraint(k, tolerance=tol) for k in KINDS), 33)

        base = check_shape(f, shapes(1e-9))
        after = check_shape(scaled, shapes(1e-9 * c))
        assert len(base) == 3
        assert base == after


class TestInspectionNodes:
    """A ConstraintSet derives its equally spaced nodes from inspection_size
    and owns the one rule on that size."""

    @pytest.mark.parametrize("size", [2, 3, 64, 128, 512, 1001])
    def test_nodes_are_bit_equal_to_linspace(self, size):
        nodes = ConstraintSet((), size).nodes
        assert nodes.tobytes() == np.linspace(0.0, 1.0, size).tobytes()
        assert not nodes.flags.writeable

    def test_default_size(self):
        assert ConstraintSet(()).inspection_size == DEFAULT_INSPECTION_SIZE == 1001

    def test_the_message_names_the_highest_order_in_either_order(self):
        convex, monotone = ShapeConstraint("convex"), ShapeConstraint("monotone_nondecreasing")
        for constraints in ((convex, monotone), (monotone, convex)):
            with pytest.raises(ValueError) as excinfo:
                ConstraintSet(constraints, 3)
            assert str(excinfo.value) == (
                "inspection_size must be at least 4 for constraint 'convex', got 3"
            )

    def test_an_empty_set_needs_two_nodes(self):
        ConstraintSet((), 2)
        for size in (0, 1):
            with pytest.raises(ValueError) as excinfo:
                ConstraintSet((), size)
            assert str(excinfo.value) == f"inspection_size must be at least 2, got {size}"

    @pytest.mark.parametrize("size", [True, 3.0, 2.5, "4", 1001.0])
    def test_inspection_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="inspection_size must be an integer"):
            ConstraintSet((), size)

    def test_sets_compare_and_hash_by_constraints_and_size(self):
        monotone = (ShapeConstraint("monotone_nondecreasing"),)
        a, b = ConstraintSet(monotone, 257), ConstraintSet(list(monotone), np.int64(257))
        assert a == b and hash(a) == hash(b) and a.nodes is not b.nodes
        assert a != ConstraintSet(monotone, 258)
        assert a != ConstraintSet((ShapeConstraint("convex"),), 257)


def test_shape_constraint_validation():
    # one spelling per constraint, so a config's "# constraints" echo names
    # the constraint that ran
    for name in (
        "concave",
        "derivative_sign_0",
        "derivative_sign",
        "derivative_sign_",
        "convex_1",
        3,
        None,
        ["convex"],
        "derivative_sign_03",
        "derivative_sign_\u0663",  # Arabic-Indic three
        "derivative_sign_+3",
        "derivative_sign_-1",
        "derivative_sign_1.5",
        "derivative_sign_ 3",
    ):
        with pytest.raises(ValueError) as excinfo:
            ShapeConstraint(name)
        assert str(excinfo.value) == f"unknown constraint name {name!r}"
    with pytest.raises(ValueError):
        ShapeConstraint("convex", tolerance=-1e-9)
    # a NaN tolerance made check_shape fail increasing functions with a
    # positive slack, and an infinite one passed anything; a bool counted as
    # 1 and a string raised a bare TypeError from the comparison
    for tol in (np.nan, np.inf, True, "1e-9"):
        with pytest.raises(ValueError, match="tolerance"):
            ShapeConstraint("monotone_nondecreasing", tolerance=tol)


def test_an_order_too_long_for_any_grid_names_its_constraint():
    # int() of a decimal of more than 4,300 digits raised Python's own
    # "Exceeds the limit (4300 digits) for integer string conversion"
    assert ShapeConstraint("derivative_sign_" + "9" * 18).difference_order == 10**18 - 1
    for digits in (19, 4301, 10_000):
        name = "derivative_sign_" + "9" * digits
        with pytest.raises(ValueError) as excinfo:
            ShapeConstraint(name)
        assert str(excinfo.value) == (
            f"constraint {name!r} has a difference order of more than 18 digits, "
            "which no inspection grid can hold"
        )


@pytest.mark.parametrize("kind", KINDS)
def test_only_derivative_sign_takes_an_order(kind):
    # an order suffix on another kind would be a second name for rows that
    # the kind's own name already builds
    for suffix in ("_0", "_1", "_3", "_-1"):
        with pytest.raises(ValueError, match="unknown constraint name"):
            ShapeConstraint(kind + suffix)
    assert ShapeConstraint(kind).difference_order == KINDS.index(kind)


def test_a_constraint_is_its_name_and_tolerance():
    # difference_order is derived from the name and takes no part in comparison
    init = [f.name for f in dataclasses.fields(ShapeConstraint) if f.init]
    assert init == ["name", "tolerance"]
    c = ShapeConstraint("derivative_sign_4", 1e-6)
    assert (c.name, c.tolerance, c.difference_order) == ("derivative_sign_4", 1e-6, 4)
    assert c == ShapeConstraint("derivative_sign_4", tolerance=1e-6)
    assert hash(c) == hash(ShapeConstraint("derivative_sign_4", 1e-6))
    assert c != ShapeConstraint("derivative_sign_4")


def test_difference_orders():
    assert ShapeConstraint("nonnegative").difference_order == 0
    assert ShapeConstraint("monotone_nondecreasing").difference_order == 1
    assert ShapeConstraint("convex").difference_order == 2
    assert ShapeConstraint("derivative_sign_1").difference_order == 1
    assert ShapeConstraint("derivative_sign_4").difference_order == 4
    assert ShapeConstraint("derivative_sign_10").difference_order == 10


@pytest.mark.parametrize(
    "alias, name",
    [("derivative_sign_1", "monotone_nondecreasing"), ("derivative_sign_2", "convex")],
)
def test_constraint_names_are_only_labels(alias, name):
    # two names of one difference order give byte-equal rows and the same
    # verdicts; the sets still differ, since a set keeps the spelling given
    x = make_grid(48)
    a = ConstraintSet((ShapeConstraint(alias),), 101)
    b = ConstraintSet((ShapeConstraint(name),), 101)
    assert a != b
    basis = np.linalg.qr(np.vander(x.nodes, 6))[0]
    assert a.rows(x, basis).tobytes() == b.rows(x, basis).tobytes()
    verdicts = set()
    for values in (x.nodes**2, -x.nodes, np.sin(6.0 * x.nodes), -np.exp(x.nodes)):
        f = GridFunction(x, values)
        verdicts.add(check_shape(f, a))
        assert check_shape(f, b) == check_shape(f, a)
    assert verdicts == {(True,), (False,)}


# Orders 0 to 3 and a mixed set; with the x grid's 48 columns, inspection
# sizes where n - m is and is not a whole number of 32-row chunks.
@pytest.mark.parametrize("inspection_size", [33, 66, 1001])
@pytest.mark.parametrize(
    "names",
    [
        ("nonnegative",),
        ("monotone_nondecreasing",),
        ("convex",),
        ("derivative_sign_3",),
        ("convex", "nonnegative", "derivative_sign_3"),
    ],
    ids="+".join,
)
def test_constraint_rows_are_bit_equal_to_the_plain_formula(names, inspection_size):
    x = make_grid(48)
    cset = ConstraintSet(tuple(map(ShapeConstraint, names)), inspection_size)
    basis = np.linalg.qr(np.vander(x.nodes, 6))[0]
    R = resample_matrix(x, cset.nodes)
    sw = np.sqrt(x.weights)
    plain = np.vstack(
        [(np.diff(R, n=c.difference_order, axis=0) / sw) @ basis for c in cset.constraints]
    )
    assert cset.rows(x, basis).tobytes() == plain.tobytes()


def test_grid_function_validation(gauss128):
    with pytest.raises(ValueError):
        GridFunction(gauss128, np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(gauss128, np.full(128, np.nan))


def test_grid_arrays_are_derived_and_read_only():
    for g in (make_grid(3), make_grid(5)):
        for a in (g.nodes, g.weights):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.125


def test_grid_validation_rejects_bad_inputs():
    # a grid is its size: nodes, weights and a rule cannot be passed in
    with pytest.raises(TypeError):
        Grid(3, nodes=np.array([0.1, 0.5, 0.9]))
    with pytest.raises(TypeError):
        Grid(3, "chebyshev")
    with pytest.raises(ValueError):
        Grid(0)


@pytest.mark.parametrize("size", [True, 3.0, 2.5, "4"], ids=_gauss_ids)
def test_grid_size_must_be_an_integer(size):
    with pytest.raises(ValueError, match="grid size must be an integer"):
        Grid(size)


def test_a_numpy_integer_size_makes_the_same_grid():
    g = Grid(np.int64(5))
    assert g == make_grid(5)
    np.testing.assert_array_equal(g.nodes, make_grid(5).nodes)

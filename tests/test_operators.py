import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npivlab.counterexamples import (
    FAMILIES,
    MONOTONE,
    CounterexampleSpec,
    analytic_sup_A_psi_bound,
    psi,
)
from npivlab.dgp import DgpSpec, make_dgp, phi0_on_grid, sample
from npivlab.estimators import (
    ConstraintSet,
    constrained_estimate,
    naive_estimate,
    sampled_plugin,
    tir_estimate,
)
from npivlab.function_space import (
    GridFunction,
    GridMismatchError,
    ShapeConstraint,
    l2_norm,
    make_grid,
)
from npivlab.operators import (
    SVD_TRUNCATION_RTOL,
    DiscreteOperator,
    TruncatedSvd,
    apply,
    discretize,
    q_infinity,
    svd_report,
    weighted_matrix,
)


@pytest.fixture(scope="module")
def problem():
    x = make_grid(128)
    z = make_grid(128)
    spec = DgpSpec(rho=0.5)
    dgp = make_dgp(spec)
    A = discretize(dgp, x, z)
    phi0 = phi0_on_grid(spec, x)
    r = apply(A, phi0)
    return x, z, dgp, A, phi0, r


@pytest.fixture(scope="module")
def independent():
    x = make_grid(128)
    z = make_grid(128)
    spec = DgpSpec(rho=0.0)
    dgp = make_dgp(spec)
    return x, z, discretize(dgp, x, z)


def test_kernel_rows_integrate_to_one(problem):
    A = problem[3]
    assert np.abs(A.kernel_matrix.sum(axis=1) - 1.0).max() < 1e-15


def test_independent_rows_equal_x_weights(independent):
    x, _, A = independent
    np.testing.assert_allclose(A.kernel_matrix, np.tile(x.weights, (128, 1)), rtol=1e-12)
    f = GridFunction(x, np.cos(x.nodes))
    image = apply(A, f)
    assert np.ptp(image.values) < 1e-14
    expected = float(np.dot(x.weights, f.values))
    assert abs(image.values[0] - expected) < 1e-14


def test_single_row_operator_is_legal():
    dgp = make_dgp(DgpSpec(rho=0.5))
    A = discretize(dgp, make_grid(64), make_grid(1))
    assert A.kernel_matrix.shape == (1, 64)
    assert abs(A.kernel_matrix.sum() - 1.0) < 1e-12


def test_apply_zero_is_zero(problem):
    x, _, _, A, _, _ = problem
    out = apply(A, GridFunction(x, np.zeros(128)))
    assert np.all(out.values == 0.0)


def test_apply_grid_mismatch(problem):
    _, _, _, A, phi0, _ = problem
    wrong = GridFunction(make_grid(64), np.zeros(64))
    with pytest.raises(GridMismatchError):
        apply(A, wrong)
    with pytest.raises(GridMismatchError):
        q_infinity(A, phi0, wrong)
    # every estimator reads its data through the same z-grid check
    with pytest.raises(GridMismatchError):
        naive_estimate(A, wrong)


def test_flat_case_image_of_member_is_its_integral(independent):
    x, _, A = independent
    for n in (0, 2, 9, 33):
        image = apply(A, psi(CounterexampleSpec(MONOTONE, n), x))
        expected = -math.sqrt(2 * n + 1) / (n + 1)
        assert np.ptp(image.values) < 1e-13
        assert abs(image.values[0] - expected) < 1e-12


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_sup_of_image_respects_analytic_bound(rho):
    x = make_grid(128)
    z = make_grid(128)
    dgp = make_dgp(DgpSpec(rho=rho))
    A = discretize(dgp, x, z)
    for family in FAMILIES:
        for n in range(51):
            spec = CounterexampleSpec(family, n)
            sup = float(np.abs(apply(A, psi(spec, x)).values).max())
            bound = analytic_sup_A_psi_bound(spec, dgp.sup_fxz)
            assert sup <= bound * (1.0 + 1e-8), (family, n, rho)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_apply_is_linear(a, b, seed):
    x = make_grid(64)
    z = make_grid(48)
    A = discretize(make_dgp(DgpSpec(rho=0.5)), x, z)
    rng = np.random.default_rng(seed)
    f = GridFunction(x, rng.standard_normal(64))
    g = GridFunction(x, rng.standard_normal(64))
    combo = GridFunction(x, a * f.values + b * g.values)
    lhs = apply(A, combo).values
    rhs = a * apply(A, f).values + b * apply(A, g).values
    assert np.abs(lhs - rhs).max() < 1e-12 * (1.0 + abs(a) + abs(b))


def test_residual_vanishes_at_truth(problem):
    _, _, _, A, phi0, r = problem
    assert q_infinity(A, phi0, r) == 0.0


def test_residual_is_image_of_the_difference(problem):
    x, _, _, A, phi0, r = problem
    spec = CounterexampleSpec(MONOTONE, 14)
    phi_n = GridFunction(x, phi0.values + 0.1 * psi(spec, x).values)
    direct = 0.1 * apply(A, psi(spec, x)).values
    expected = float(np.dot(A.fz_weights, direct**2))
    assert math.isclose(q_infinity(A, phi_n, r), expected, rel_tol=1e-10)


def test_residual_of_shifted_data_is_constant(problem):
    """A constant shift c of the data leaves the residual -c at every node,
    so the criterion is c^2 times the total fz weight, which is 1."""
    _, z, _, A, phi0, r = problem
    shifted = GridFunction(z, r.values + 0.37)
    assert math.isclose(q_infinity(A, phi0, shifted), 0.37**2, rel_tol=1e-14)


def test_criterion_zero_at_truth(problem):
    _, _, _, A, phi0, r = problem
    assert q_infinity(A, phi0, r) < 1e-20


def test_criterion_closed_form_in_flat_case(independent):
    x, z, A = independent
    phi0 = phi0_on_grid(DgpSpec(rho=0.0), x)
    r = apply(A, phi0)
    eps = 0.1
    for n in (0, 1, 5, 40, 100):
        spec = CounterexampleSpec(MONOTONE, n)
        phi_n = GridFunction(x, phi0.values + eps * psi(spec, x).values)
        expected = eps**2 * (2 * n + 1) / (n + 1) ** 2
        assert abs(q_infinity(A, phi_n, r) - expected) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=4.0),
    st.integers(min_value=0, max_value=60),
)
def test_criterion_quadratic_scaling(scale, n):
    x = make_grid(64)
    z = make_grid(64)
    spec = DgpSpec(rho=0.5)
    A = discretize(make_dgp(spec), x, z)
    phi0 = phi0_on_grid(spec, x)
    r = apply(A, phi0)
    member = psi(CounterexampleSpec(MONOTONE, n), x).values
    base = q_infinity(A, GridFunction(x, phi0.values + 0.05 * member), r)
    scaled = q_infinity(A, GridFunction(x, phi0.values + scale * 0.05 * member), r)
    assert abs(scaled - scale**2 * base) < 1e-10 * max(1.0, scale**2) * max(base, 1e-30)


def test_criterion_nonnegative(problem):
    x, z, _, A, phi0, r = problem
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = GridFunction(x, rng.standard_normal(128))
        assert q_infinity(A, f, r) >= 0.0


class TestSvd:
    def test_rank_one_in_flat_case(self, independent):
        _, _, A = independent
        s = svd_report(A).singular_values
        assert abs(s[0] - 1.0) < 1e-10
        assert s[1] < 1e-10
        assert A.svd.rank == 1

    def test_nonincreasing_and_positive_top(self, problem):
        A = problem[3]
        s = svd_report(A).singular_values
        assert np.all(np.diff(s) <= 1e-16)
        assert s[0] > 0.9

    def test_decay_below_1e10_within_64_modes(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        g = make_grid(64)
        s = svd_report(discretize(dgp, g, g)).singular_values
        assert np.any(s / s[0] < 1e-10)
        assert s[31] / s[0] < 1e-8

    def test_second_singular_value_tracks_dependence(self):
        # the copula's singular values start at 1, rho, rho^2, ... in the
        # continuum; discretization reproduces the leading ones closely
        for rho in (0.3, 0.5):
            g = make_grid(64)
            s = svd_report(discretize(make_dgp(DgpSpec(rho=rho)), g, g)).singular_values
            assert abs(s[1] - rho) < 5e-3

    def test_report_reads_the_operator_factorization(self, problem):
        A = problem[3]
        assert svd_report(A).singular_values is A.svd.s

    # Measured max over k < 10 of |sigma_k - |rho|^k| at rho = +-0.5 (the two
    # signs agree to 1e-15): 1.09e-2, 6.16e-3, 3.72e-3 at N = 64, 128, 256; and
    # |sigma_0 - 1| = 1.32e-9 at N = 128. Each bound is 1.25x the measurement.
    MEHLER_BOUNDS = {64: 1.4e-2, 128: 7.7e-3, 256: 4.7e-3}

    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_spectrum_approaches_the_mehler_oracle(self, rho):
        # the Gaussian-copula operator has singular values |rho|^k exactly
        want = abs(rho) ** np.arange(10)
        errors = {}
        for N, bound in self.MEHLER_BOUNDS.items():
            g = make_grid(N)
            s = svd_report(discretize(make_dgp(DgpSpec(rho=rho)), g, g)).singular_values
            errors[N] = float(np.abs(s[:10] - want).max())
            assert errors[N] < bound, (N, errors[N])
            if N == 128:
                assert abs(s[0] - 1.0) < 1.7e-9
        assert errors[64] > errors[128] > errors[256]

    def test_weighted_matrix_norms_match(self, problem):
        x, z, _, A, _, _ = problem
        M = weighted_matrix(A)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(128)
        f = GridFunction(x, v)
        u = np.sqrt(x.weights) * v
        assert abs(np.linalg.norm(u) - l2_norm(f)) < 1e-12
        img = apply(A, f)
        assert (
            abs(
                np.linalg.norm(M @ u)
                - math.sqrt(float(np.dot(A.fz_weights, img.values**2)))
            )
            < 1e-12
        )


def test_weak_convergence_pairings_at_n_100(problem):
    """Pairings of fixed test functions against the image of the n-th
    member shrink at their true n^(-1/2) rate under dependence (rho = 0.5).

    By the tower property, <A psi_n, g>_{f_Z} = int psi_n(x) E[g(Z) | X = x]
    dx, since X is uniform. With |E[g | X]| <= sup|g| and, psi_n having one
    sign, int |psi_n| = sqrt(2n+1)/(n+1), this gives
    (a) the envelope |<A psi_n, g>| <= sup|g| sqrt(2n+1)/(n+1), which tends
        to 0 like n^(-1/2); each g below has sup 1 on [0, 1];
    (b) for g = 1 the identity <A psi_n, 1> = int psi_n = -sqrt(2n+1)/(n+1).
    On the grid the error in both is an average of (A*1 - 1) against
    |psi_n|, and max |A*1 - 1| is 2.0e-3 for the row-normalised kernel at
    128 nodes, hence the 1e-3 relative slack. Measured at n = 100, the three
    pairings are 0.99987, 0.1745 and 0.4043 of the envelope 0.14037.

    An absolute 1e-3 target cannot be reached here: for g = 1 the pairing
    equals the envelope, which falls below 1e-3 only near n = 2e6, far
    beyond MAX_INDEX = 200."""
    x, z, _, A, _, _ = problem
    n = 100
    envelope = math.sqrt(2 * n + 1) / (n + 1)
    image = apply(A, psi(CounterexampleSpec(MONOTONE, n), x)).values
    pairings = {
        name: float(np.dot(A.fz_weights, g * image))
        for name, g in (
            ("one", np.ones(128)),
            ("z", z.nodes),
            ("sin_pi_z", np.sin(np.pi * z.nodes)),
        )
    }
    for name, pairing in pairings.items():
        assert abs(pairing) <= envelope * (1 + 1e-3), (name, pairing, envelope)
    assert abs(pairings["one"] + envelope) <= 1e-3 * envelope, (pairings["one"], -envelope)


def test_weak_convergence_trend(problem):
    # the mechanism itself: pairings shrink monotonically along n and fall
    # well below the n = 1 value by n = 100
    x, z, _, A, _, _ = problem
    def pairing(n):
        img = apply(A, psi(CounterexampleSpec(MONOTONE, n), x)).values
        return abs(float(np.dot(A.fz_weights, img)))

    vals = [pairing(n) for n in (1, 10, 100)]
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 0.25 * vals[0]


def test_operator_validation():
    x = make_grid(8)
    z = make_grid(4)
    bad_rows = np.full((4, 8), 0.2)
    with pytest.raises(ValueError):
        DiscreteOperator(
            x_grid=x, z_grid=z, kernel_matrix=bad_rows, fz_weights=z.weights
        )
    good = np.tile(x.weights, (4, 1))
    with pytest.raises(ValueError):
        DiscreteOperator(
            x_grid=x, z_grid=z, kernel_matrix=good, fz_weights=-z.weights
        )
    with pytest.raises(ValueError):
        DiscreteOperator(
            x_grid=x, z_grid=z, kernel_matrix=good[:3], fz_weights=z.weights
        )
    # every z node flagged: the weighted matrix would have rank 0
    with pytest.raises(ValueError, match="all be zero"):
        DiscreteOperator(
            x_grid=x, z_grid=z, kernel_matrix=good, fz_weights=np.zeros(4)
        )
    for field in ("kernel_matrix", "fz_weights"):
        parts = {"kernel_matrix": good.copy(), "fz_weights": z.weights.copy()}
        parts[field].flat[1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DiscreteOperator(x_grid=x, z_grid=z, **parts)


class TestFactorizationCache:
    @pytest.fixture(scope="class")
    def operators(self):
        spec = DgpSpec(rho=0.5)
        dgp = make_dgp(spec)
        population = discretize(dgp, make_grid(64), make_grid(64))
        draws = sample(dgp, 2_000, seed=3)
        plugin, _ = sampled_plugin(draws, make_grid(64), make_grid(64))
        return {"discretized": population, "sampled_plugin": plugin}

    @pytest.mark.parametrize("kind", ["discretized", "sampled_plugin"])
    def test_cached_svd_equals_a_fresh_one(self, operators, kind):
        A = operators[kind]
        U, s, Vt = np.linalg.svd(weighted_matrix(A), full_matrices=False)
        f = A.svd
        J = f.rank
        assert 0 < J == int(np.sum(s > SVD_TRUNCATION_RTOL * s[0]))
        np.testing.assert_array_equal(f.U, U[:, :J])
        np.testing.assert_array_equal(f.s, s)
        np.testing.assert_array_equal(f.Vt, Vt[:J])
        assert A.svd is f

    @pytest.mark.parametrize("kind", ["discretized", "sampled_plugin"])
    def test_cached_arrays_are_shared_and_read_only(self, operators, kind):
        A = operators[kind]
        assert weighted_matrix(A) is weighted_matrix(A)
        arrays = [A.kernel_matrix, A.fz_weights, weighted_matrix(A)]
        arrays += [A.svd.U, A.svd.s, A.svd.Vt]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    @pytest.mark.parametrize("kind", ["discretized", "sampled_plugin"])
    def test_every_array_cached_by_the_solvers_is_read_only(self, kind):
        # a fresh operator of the same kind, so this test sees every entry
        spec = DgpSpec(rho=0.5)
        if kind == "discretized":
            A = discretize(make_dgp(spec), make_grid(64), make_grid(64))
        else:
            draws = sample(make_dgp(spec), 2_000, seed=3)
            A, _ = sampled_plugin(draws, make_grid(64), make_grid(64))
        r = GridFunction(A.z_grid, A.kernel_matrix @ A.x_grid.nodes)
        cset = ConstraintSet((ShapeConstraint("monotone_nondecreasing"),))
        naive_estimate(A, r)
        tir_estimate(A, r, 1e-4)
        constrained_estimate(A, r, cset)
        # the penalty Gram depends on the x grid alone, so it is kept there,
        # beside the constraint rows' resample matrix
        keys = {k if isinstance(k, str) else k[0] for k in A._cache}
        assert keys == {
            "weighted", "svd", "gram", "tir_eigenvalue_floor", "constraint_rows"
        }
        grid_keys = {k if isinstance(k, str) else k[0] for k in A.x_grid._cache}
        assert grid_keys == {"penalty_gram", "resample"}

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, tuple):
                for v in value:
                    yield from arrays(v)
            elif isinstance(value, TruncatedSvd):
                yield from (value.U, value.s, value.Vt)

        values = [*A._cache.values(), *A.x_grid._cache.values()]
        cached = [a for value in values for a in arrays(value)]
        assert len(cached) == 8
        for a in cached:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_truncated_factors_do_not_hold_the_full_ones(self, independent):
        # rank one: a view into the full factors would keep them resident
        f = independent[2].svd
        assert f.rank == 1
        assert f.U.shape == (128, 1) and f.Vt.shape == (1, 128)
        assert f.U.base is None and f.Vt.base is None

    def test_writing_into_the_kernel_raises(self, problem):
        A = problem[3]
        with pytest.raises(ValueError):
            A.kernel_matrix[0, 0] = 1.0
        with pytest.raises(ValueError):
            A.fz_weights[0] = 1.0

    def test_caller_arrays_are_copied_not_frozen(self):
        x = make_grid(8)
        z = make_grid(4)
        K = np.tile(x.weights, (4, 1))
        fzw = z.weights.copy()
        A = DiscreteOperator(x_grid=x, z_grid=z, kernel_matrix=K, fz_weights=fzw)
        assert K.flags.writeable and fzw.flags.writeable
        K[0, 0] = 5.0
        np.testing.assert_array_equal(A.kernel_matrix[0], x.weights)

    def test_memo_computes_once_and_does_not_store_failures(self):
        x = make_grid(8)
        A = DiscreteOperator(
            x_grid=x, z_grid=x, kernel_matrix=np.tile(x.weights, (8, 1)), fz_weights=x.weights
        )
        calls = []

        def build():
            calls.append(1)
            return len(calls)

        assert A.memo("k", build) == 1
        assert A.memo("k", build) == 1
        assert len(calls) == 1

        def broken():
            raise np.linalg.LinAlgError("singular")

        for _ in range(2):
            with pytest.raises(np.linalg.LinAlgError):
                A.memo("bad", broken)
        assert A.memo("bad", build) == 2

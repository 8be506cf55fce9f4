import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

import npivlab.estimators as estimators
from npivlab.counterexamples import MONOTONE, CounterexampleSpec, psi
from npivlab.dgp import DgpSpec, Sample, make_dgp, phi0_on_grid, sample
from npivlab.estimators import (
    ConstraintSet,
    DegenerateSampleError,
    constrained_estimate,
    naive_estimate,
    sampled_plugin,
    stability_probe,
    tir_estimate,
)
from npivlab.function_space import (
    GridFunction,
    ShapeConstraint,
    check_shape,
    differentiation_matrix,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from npivlab.harness import config_from_mapping, run_experiment
from npivlab.operators import apply, discretize, svd_report, weighted_matrix


@pytest.fixture(scope="module")
def problem():
    x = make_grid(64)
    z = make_grid(64)
    spec = DgpSpec(rho=0.5)
    dgp = make_dgp(spec)
    A = discretize(dgp, x, z)
    phi0 = phi0_on_grid(spec, x)
    r = apply(A, phi0)
    return x, z, A, phi0, r


@pytest.fixture(scope="module")
def independent():
    x = make_grid(64)
    z = make_grid(64)
    spec = DgpSpec(rho=0.0)
    dgp = make_dgp(spec)
    A = discretize(dgp, x, z)
    return x, A, phi0_on_grid(spec, x)


MONOTONE_SET = ConstraintSet(constraints=(ShapeConstraint("monotone_nondecreasing"),))


class TestTir:
    def test_small_lambda_recovers_truth(self, problem):
        x, _, A, phi0, r = problem
        result = tir_estimate(A, r, 1e-8)
        err = l2_norm(GridFunction(x, result.phi_hat.values - phi0.values))
        assert err < 1e-2

    def test_huge_lambda_shrinks_to_zero(self, problem):
        _, _, A, _, r = problem
        result = tir_estimate(A, r, 1e6)
        assert l2_norm(result.phi_hat) < 1e-3

    def test_zero_data_gives_zero_exactly(self, problem):
        x, z, A, _, _ = problem
        result = tir_estimate(A, GridFunction(z, np.zeros(64)), 1e-4)
        assert np.all(result.phi_hat.values == 0.0)

    def test_system_is_positive_definite(self, problem):
        _, _, A, _, r = problem
        for lam in (1e-6, 1e-3, 1.0):
            result = tir_estimate(A, r, lam)
            assert result.condition_diagnostic >= lam * (1 - 1e-9)
            assert result.kkt_residual < 1e-8

    def test_penalty_path_nonincreasing(self, problem):
        _, _, A, _, r = problem
        lams = np.logspace(-6, 2, 9)
        values = []
        for lam in lams:
            values.append(sobolev_norm(tir_estimate(A, r, float(lam)).phi_hat) ** 2)
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)

    def test_rejects_zero_lambda(self, problem):
        _, _, A, _, r = problem
        with pytest.raises(ValueError):
            tir_estimate(A, r, 0.0)


class TestNaive:
    def test_truncation_error_at_truth_is_small_but_nonzero(self, problem):
        x, _, A, phi0, r = problem
        result = naive_estimate(A, r)
        err = l2_norm(GridFunction(x, result.phi_hat.values - phi0.values))
        assert 1e-8 < err < 1e-3
        assert result.kkt_residual == 0.0

    def test_condition_diagnostic_is_smallest_retained_singular_value(self, problem):
        _, _, A, _, r = problem
        result = naive_estimate(A, r)
        smallest = svd_report(A).singular_values[A.svd.rank - 1]
        assert math.isclose(result.condition_diagnostic, smallest, rel_tol=1e-9)

    def test_perturbation_moves_along_singular_direction(self, problem):
        x, z, A, _, r = problem
        M = weighted_matrix(A)
        U, S, Vt = np.linalg.svd(M, full_matrices=False)
        base = naive_estimate(A, r).phi_hat.values
        delta = 1e-6
        sqrt_fzw = np.sqrt(A.fz_weights)
        sqrt_wx = np.sqrt(x.weights)

        # at small k the response is visible only in the k-th coefficient:
        # last-retained-mode roundoff (5e-17 / sigma_min) pollutes the rest
        for k in (0, 1, 2):
            pert = GridFunction(z, r.values + delta * U[:, k] / sqrt_fzw)
            moved = naive_estimate(A, pert).phi_hat.values
            coeff = float(np.dot(Vt[k], sqrt_wx * (moved - base)))
            assert math.isclose(coeff, delta / S[k], rel_tol=1e-6), k

        # at the worst retained mode the move dominates everything else and
        # the whole vector matches delta/sigma_k times the right vector
        k = A.svd.rank - 1
        pert = GridFunction(z, r.values + delta * U[:, k] / sqrt_fzw)
        moved = naive_estimate(A, pert).phi_hat.values
        expected = base + (delta / S[k]) * Vt[k] / sqrt_wx
        rel = np.abs(moved - expected).max() / np.abs(expected).max()
        assert rel < 1e-6

    def test_independent_case_identifies_only_the_mean(self, independent):
        x, A, phi0 = independent
        r = apply(A, phi0)
        result = naive_estimate(A, r)
        assert np.ptp(result.phi_hat.values) < 1e-12
        assert abs(result.phi_hat.values.mean() - 1.0 / 3.0) < 1e-10


class TestConstrained:
    def test_inactive_constraints_match_naive(self, problem):
        x, _, A, _, _ = problem
        # 1 + x^2 is positive, so the unconstrained fit already satisfies
        # the constraint and the QP takes no step
        r = apply(A, GridFunction(x, 1.0 + x.nodes**2))
        cset = ConstraintSet(constraints=(ShapeConstraint("nonnegative"),))
        constrained = constrained_estimate(A, r, cset)
        assert constrained.converged
        assert constrained.iterations == 0
        np.testing.assert_array_equal(
            constrained.phi_hat.values, naive_estimate(A, r).phi_hat.values
        )
        assert check_shape(constrained.phi_hat, cset) == (True,)

    def test_an_empty_constraint_set_is_the_naive_solve(self, problem):
        # reachable from a config as "constraints": []
        x, _, A, _, _ = problem
        r = apply(A, GridFunction(x, np.sin(3 * x.nodes)))
        result = constrained_estimate(A, r, ConstraintSet(constraints=()))
        assert result.converged and result.iterations == 0
        np.testing.assert_array_equal(
            result.phi_hat.values, naive_estimate(A, r).phi_hat.values
        )
        # with no rows the certificate is the stationarity residual alone
        f = A.svd
        S, d = f.s[: f.rank], f.U.T @ (np.sqrt(A.fz_weights) * r.values)
        assert result.kkt_residual == float(np.abs(2.0 * S * (S * (d / S) - d)).max())

    def test_constraints_do_not_restore_stability(self, problem):
        x, z, A, phi0, r = problem
        eps = 0.1
        shift = apply(A, psi(CounterexampleSpec(MONOTONE, 50), x)).values
        perturbed = GridFunction(z, r.values + eps * shift)
        result = constrained_estimate(A, perturbed, MONOTONE_SET)
        assert result.converged
        assert result.iterations >= 1
        assert result.kkt_residual <= 1e-6
        err = l2_norm(GridFunction(x, result.phi_hat.values - phi0.values))
        assert err >= 0.5 * eps
        relaxed = ConstraintSet(
            tuple(ShapeConstraint(c.name, 1e-6) for c in MONOTONE_SET.constraints)
        )
        assert all(check_shape(result.phi_hat, relaxed))

    def test_nonnegativity_is_enforced(self, problem):
        x, z, A, _, _ = problem
        r = apply(A, GridFunction(x, -np.ones(64)))
        cset = ConstraintSet(constraints=(ShapeConstraint("nonnegative"),))
        result = constrained_estimate(A, r, cset)
        assert result.phi_hat.values.min() >= -1e-9
        assert result.kkt_residual <= 1e-6
        assert check_shape(result.phi_hat, cset) == (True,)

    def test_iteration_cap_reports_nonconvergence(self, problem, monkeypatch):
        x, z, A, _, r = problem
        shift = apply(A, psi(CounterexampleSpec(MONOTONE, 50), x)).values
        perturbed = GridFunction(z, r.values + 0.1 * shift)
        monkeypatch.setattr(estimators, "QP_MAX_ITERATIONS", 1)
        result = constrained_estimate(A, perturbed, MONOTONE_SET)
        assert not result.converged
        assert result.iterations == 1
        assert np.all(np.isfinite(result.phi_hat.values))
        assert np.isfinite(result.kkt_residual)

    def test_nnls_errors_other_than_its_iteration_cap_propagate(
        self, problem, monkeypatch
    ):
        x, z, A, _, r = problem
        shift = apply(A, psi(CounterexampleSpec(MONOTONE, 50), x)).values
        perturbed = GridFunction(z, r.values + 0.1 * shift)

        def broken_nnls(*args, **kwargs):
            raise ValueError("synthetic nnls failure")

        monkeypatch.setattr(estimators, "nnls", broken_nnls)
        with pytest.raises(ValueError, match="synthetic nnls failure"):
            constrained_estimate(A, perturbed, MONOTONE_SET)

    @staticmethod
    def _stalling_problem(n):
        # At N = 32 under convexity the active set stalls: it stops where it
        # last fitted multipliers and returns that fit as its best iterate.
        spec = DgpSpec(rho=0.5)
        x = make_grid(32)
        A = discretize(make_dgp(spec), x, x)
        shift = apply(A, psi(CounterexampleSpec(MONOTONE, n), x)).values
        r = GridFunction(x, apply(A, phi0_on_grid(spec, x)).values + 0.1 * shift)
        convex = ConstraintSet(constraints=(ShapeConstraint("convex"),), inspection_size=201)
        return A, r, convex

    @pytest.mark.parametrize("n", [5, 20])
    def test_a_stalled_solve_fits_no_multipliers_twice(self, n, monkeypatch):
        A, r, convex = self._stalling_problem(n)
        seen = []
        original = estimators.nnls

        def recording(E, f, **kwargs):
            seen.append(E.tobytes() + f.tobytes())
            return original(E, f, **kwargs)

        monkeypatch.setattr(estimators, "nnls", recording)
        result = constrained_estimate(A, r, convex)
        assert not result.converged
        assert seen
        assert len(set(seen)) == len(seen)

    def test_a_stalled_solve_reports_the_steps_it_took(self):
        A, r, convex = self._stalling_problem(5)
        result = constrained_estimate(A, r, convex)
        assert not result.converged
        assert result.iterations == 16


# The benchmark's two comparison workloads (perfbench/run.py): the only runs
# whose constrained solves fit multipliers.
COMPARISONS = {
    "compare": {
        "experiment": "estimator_comparison",
        "quadrature_size": 128,
        "z_size": 128,
        "lambdas": [1e-4],
        "constraints": ["monotone_nondecreasing"],
    },
    "compare_n512": {
        "experiment": "estimator_comparison",
        "quadrature_size": 512,
        "z_size": 512,
        "lambdas": [1e-6, 1e-4, 1e-2],
        "constraints": ["monotone_nondecreasing", "convex"],
    },
}


@pytest.fixture(scope="module")
def multiplier_problems():
    """Every (A, b, maxiter) that _restricted_multipliers hands to nnls in
    each comparison workload, as it hands them (A a Fortran-ordered view)."""
    problems = {}
    original = estimators.nnls
    for name, mapping in COMPARISONS.items():
        seen = problems[name] = []

        def recording(A, b, maxiter, seen=seen):
            seen.append((A, b, maxiter))
            return original(A, b, maxiter)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "nnls", recording)
            run_experiment(config_from_mapping(mapping))
    return problems


def _assert_same_as_scipy(A, b, maxiter):
    x, rnorm = estimators.nnls(A, b, maxiter)
    x_ref, rnorm_ref = scipy_nnls(A, b, maxiter=maxiter)
    assert x.tobytes() == x_ref.tobytes()
    assert rnorm == rnorm_ref


class TestNnls:
    """estimators.nnls calls scipy's compiled NNLS without scipy.optimize and
    must return exactly what scipy.optimize.nnls returns."""

    def test_matches_scipy_on_the_compare_multiplier_problems(self, multiplier_problems):
        problems = multiplier_problems["compare"]
        assert problems and {A.shape for A, _, _ in problems} == {(19, 1)}
        for A, b, maxiter in problems:
            _assert_same_as_scipy(A, b, maxiter)

    def test_matches_scipy_on_the_compare_n512_multiplier_problems(self, multiplier_problems):
        problems = multiplier_problems["compare_n512"]
        shapes = [A.shape for A, _, _ in problems]
        # all 1999 convexity and monotonicity rows active, and partial sets
        assert (22, 1999) in shapes
        assert any(rows == 22 and 600 < cols < 1000 for rows, cols in shapes)
        for A, b, maxiter in problems:
            assert A.flags.f_contiguous and not A.flags.c_contiguous
            _assert_same_as_scipy(A, b, maxiter)

    def test_matches_scipy_on_fortran_ordered_and_strided_inputs(self):
        rng = np.random.default_rng(3)
        big = rng.standard_normal((60, 40))
        b_big = rng.standard_normal(60)
        for A, b in [
            (np.asfortranarray(big[:30, :12]), b_big[:30]),
            (big[::2, ::3], b_big[::2]),
            (big[::2, ::3].T, rng.standard_normal(14)[::-1]),
        ]:
            _assert_same_as_scipy(A, b, 100)
            x, rnorm = estimators.nnls(A, b, 100)
            x_c, rnorm_c = estimators.nnls(np.ascontiguousarray(A), b.copy(), 100)
            assert x.tobytes() == x_c.tobytes() and rnorm == rnorm_c

    def test_the_iteration_cap_raises_in_both(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 10))
        b = A @ rng.random(10)
        with pytest.raises(RuntimeError):
            scipy_nnls(A, b, maxiter=1)
        with pytest.raises(RuntimeError):
            estimators.nnls(A, b, 1)
        _assert_same_as_scipy(A, b, 30)


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", ["tir", "probe"])
def test_lambda_outside_its_range_rejected(problem, entry, lam):
    _, _, A, _, r = problem
    solve = {
        "tir": lambda: tir_estimate(A, r, lam),
        "probe": lambda: stability_probe(A, r, [1e-6], lam),
    }[entry]
    with pytest.raises(ValueError, match="lam < inf"):
        solve()


class TestConstraintSet:
    def test_row_counts_on_default_inspection_grid(self):
        cset = ConstraintSet(
            constraints=(
                ShapeConstraint("nonnegative"),
                ShapeConstraint("monotone_nondecreasing"),
                ShapeConstraint("convex"),
            )
        )
        G = cset.rows(make_grid(64), np.eye(64)[:, :5])
        assert G.shape == (1001 + 1000 + 999, 5)

    def test_rejects_inspection_grid_too_small_for_the_order(self):
        ConstraintSet((ShapeConstraint("convex"),), 4)
        with pytest.raises(ValueError, match="derivative_sign_3"):
            ConstraintSet((ShapeConstraint("derivative_sign_3"),), 4)

    def test_matrix_applies_differences_of_the_resampled_values(self):
        # resampling a polynomial from a Gauss grid is exact, so the
        # constraint rows must reproduce differences of the true values
        x = make_grid(32)
        cset = ConstraintSet(constraints=(ShapeConstraint("monotone_nondecreasing"),))
        # the rows act on the weighted coordinates u = sqrt(w_x) phi
        G = cset.rows(x, np.eye(x.size))
        direct = np.diff(cset.nodes**2)
        assert np.abs(G @ (np.sqrt(x.weights) * x.nodes**2) - direct).max() < 1e-10
        # in a basis, they act on the coefficients
        basis = np.linalg.qr(np.vander(x.nodes, 3))[0]
        coeffs = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(
            cset.rows(x, basis) @ coeffs, G @ (basis @ coeffs), rtol=0, atol=1e-13
        )

    def test_rejects_non_constraint_entries(self):
        with pytest.raises(ValueError):
            ConstraintSet(constraints=("monotone_nondecreasing",))


class TestSampledPlugin:
    def test_regression_function_near_truth_in_the_interior(self):
        dgp = make_dgp(DgpSpec(rho=0.0))
        s = sample(dgp, 10_000, seed=11)
        x_grid = make_grid(64)
        z_grid = make_grid(128)
        A_hat, r_hat = sampled_plugin(s, x_grid, z_grid)
        interior = (z_grid.nodes >= 0.1) & (z_grid.nodes <= 0.9)
        assert np.abs(r_hat.values[interior] - 1.0 / 3.0).max() < 0.05
        assert np.all(A_hat.fz_weights > 0.0)

    def test_more_data_reduces_regression_error(self):
        dgp = make_dgp(DgpSpec(rho=0.0))
        x_grid = make_grid(64)
        z_grid = make_grid(128)
        errs = []
        for m in (1_000, 10_000):
            s = sample(dgp, m, seed=11)
            _, r_hat = sampled_plugin(s, x_grid, z_grid)
            interior = (z_grid.nodes >= 0.1) & (z_grid.nodes <= 0.9)
            errs.append(np.abs(r_hat.values[interior] - 1.0 / 3.0).max())
        assert errs[1] < errs[0]

    def test_rows_integrate_to_one(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        s = sample(dgp, 2_000, seed=3)
        A_hat, _ = sampled_plugin(s, make_grid(64), make_grid(64))
        assert np.abs(A_hat.kernel_matrix.sum(axis=1) - 1.0).max() < 1e-9

    def test_unsupported_z_region_is_flagged_not_fatal(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        s = sample(dgp, 2_000, seed=3)
        squeezed = Sample(x=s.x, y=s.y, z=s.z * 0.7)
        z_grid = make_grid(128)
        A_hat, _ = sampled_plugin(squeezed, make_grid(64), z_grid)
        # flagged nodes are the ones whose fz weight is zeroed
        assert np.count_nonzero(A_hat.fz_weights == 0.0) > 0

    def test_identical_instrument_values_are_degenerate(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        s = sample(dgp, 200, seed=0)
        flat = Sample(x=s.x, y=s.y, z=np.full_like(s.z, 0.5))
        with pytest.raises(DegenerateSampleError):
            sampled_plugin(flat, make_grid(32), make_grid(32))

    def test_tightly_clustered_instrument_is_degenerate(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        s = sample(dgp, 200, seed=0)
        rng = np.random.default_rng(1)
        clustered = Sample(x=s.x, y=s.y, z=0.5 + 1e-9 * rng.standard_normal(200))
        with pytest.raises(DegenerateSampleError):
            sampled_plugin(clustered, make_grid(32), make_grid(32))

    def test_rows_without_kernel_mass_are_flagged_by_the_density_threshold(self):
        # with z in [0.4, 0.5], the z nodes far from the band get exactly zero
        # kernel mass; their estimated f_Z is then exactly 0, so they are among
        # the nodes below the density threshold
        rng = np.random.default_rng(0)
        x = rng.random(2000)
        banded = Sample(x=x, y=x**2, z=0.4 + 0.1 * rng.random(2000))
        z_grid = make_grid(32)
        hz = 1.06 * float(np.std(banded.z)) * banded.size**-0.2
        mass = np.exp(-0.5 * ((z_grid.nodes[:, None] - banded.z) / hz) ** 2).sum(axis=1)
        zero_mass = int(np.count_nonzero(mass == 0.0))
        assert zero_mass > 0
        with pytest.raises(DegenerateSampleError) as excinfo:
            sampled_plugin(banded, make_grid(64), z_grid)
        flagged = re.search(r"at (\d+) of 32 nodes", str(excinfo.value))
        assert zero_mass <= int(flagged.group(1))

    @staticmethod
    def _outputs(op, r_hat):
        return (op.kernel_matrix, op.fz_weights, r_hat.values)

    @staticmethod
    def _call_peak():
        """The tracemalloc peak of one plug-in call on montecarlo's 128 x 128
        grids at m = 10^4, in units of one (128, m) kernel block."""
        m, grid = 10_000, make_grid(128)
        s = sample(make_dgp(DgpSpec(rho=0.5)), m, seed=3)
        tracemalloc.start()
        try:
            sampled_plugin(s, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / (grid.size * m * 8)

    def test_call_allocates_its_z_block(self):
        # the z block is built in the call, so it is in the call peak
        assert self._call_peak() >= 1.0

    def test_call_without_work_holds_one_block_and_a_slab(self):
        # the z block whole, the x block one 32-node slab at a time
        assert self._call_peak() < 1.3

    @staticmethod
    def _one_shot_outputs(s, x_grid, z_grid):
        """kernel_matrix, fz_weights and r_hat from one product of the two
        whole Gaussian kernel blocks, norm * (gauss_z @ gauss_x.T)."""
        m = s.size
        hx = 1.06 * float(np.std(s.x)) * m**-0.2
        hz = 1.06 * float(np.std(s.z)) * m**-0.2
        gauss_x = estimators._gaussian_block(x_grid.nodes, s.x, hx)
        gauss_z = estimators._gaussian_block(z_grid.nodes, s.z, hz)
        fxz = (1.0 / (m * hx * hz * 2.0 * math.pi)) * (gauss_z @ gauss_x.T)
        fz = fxz @ x_grid.weights
        K = fxz * x_grid.weights[None, :]
        K = K / K.sum(axis=1)[:, None]
        fzw = z_grid.weights * fz
        fzw[fz < 1e-6] = 0.0
        mass = gauss_z.sum(axis=1)
        return K, fzw, (gauss_z @ s.y) / mass

    @pytest.mark.parametrize("seed", [0, 63])
    def test_slab_product_is_the_one_shot_product_on_the_benchmark_shape(self, seed):
        # montecarlo's grids and sample size: every pinned digest rests on this
        grid = make_grid(128)
        s = sample(make_dgp(DgpSpec(rho=0.5)), 10_000, seed=seed)
        got = self._outputs(*sampled_plugin(s, grid, grid))
        for g, w in zip(got, self._one_shot_outputs(s, grid, grid)):
            np.testing.assert_array_equal(g, w)

    def test_slab_product_is_the_one_shot_product_at_one_blas_thread(self):
        # a child, because OpenBLAS reads its thread count at numpy's import
        here = Path(__file__).resolve()
        case = "TestSampledPlugin::" + (
            "test_slab_product_is_the_one_shot_product_on_the_benchmark_shape"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", f"{here}::{case}"],
            capture_output=True,
            text=True,
            env=env,
            cwd=here.parents[1],
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "2 passed" in proc.stdout

    @pytest.mark.parametrize("sizes", [(100, 48), (130, 130)])
    def test_ragged_last_slab_agrees_with_the_one_shot_product(self, sizes):
        # A ragged last slab may round differently. Over seeds 0-19, m = 500,
        # 2000 and 10^4, and one and two BLAS threads, the worst gap measured
        # on such grids was 3.5e-16 of the largest entry (1.6 eps); the bound
        # is about three times that.
        x_grid, z_grid = (make_grid(n) for n in sizes)
        s = sample(make_dgp(DgpSpec(rho=0.5)), 2_000, seed=3)
        got = self._outputs(*sampled_plugin(s, x_grid, z_grid))
        for g, w in zip(got, self._one_shot_outputs(s, x_grid, z_grid)):
            assert np.abs(g - w).max() <= 1e-15 * np.abs(w).max()

    def test_input_validation(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        s = sample(dgp, 49, seed=0)
        with pytest.raises(ValueError):
            sampled_plugin(s, make_grid(32), make_grid(32))


def test_array_results_compare_and_hash_by_identity(problem):
    # a copy holds the very same arrays, yet == and hash() on those arrays
    # would raise; these objects compare and hash as objects instead
    x, _, A, phi0, r = problem
    objects = [
        phi0,
        A,
        A.svd,
        svd_report(A),
        naive_estimate(A, r),
        sample(make_dgp(DgpSpec(rho=0.5)), 100, seed=0),
    ]
    for obj in objects:
        twin = dataclasses.replace(obj)
        assert obj == obj and hash(obj) == hash(obj)
        assert obj != twin
        assert len({obj, twin}) == 2


@pytest.fixture(scope="module")
def rows(problem):
    _, _, A, _, r = problem
    return stability_probe(A, r, [0.0, 1e-6], 1e-4)


class TestStabilityProbe:
    def test_row_structure(self, rows):
        directions = {"worst_singular", "psi_image", "white_noise"}
        solvers = {"naive", "tir", "constrained"}
        assert len(rows) == 2 * 3 * 3
        for row in rows:
            assert set(row) == {
                "delta",
                "direction",
                "solver",
                "amplification",
                "converged",
            }
            assert row["direction"] in directions
            assert row["solver"] in solvers
            assert row["converged"] or row["solver"] == "constrained"

    def test_zero_delta_rows_report_zero(self, rows):
        zero = [row for row in rows if row["delta"] == 0.0]
        assert zero and all(row["amplification"] == 0.0 for row in zero)

    def test_tikhonov_amplification_respects_norm_bound(self, problem):
        _, _, A, _, r = problem
        for lam in (1e-4, 1e-2):
            rows = stability_probe(A, r, [1e-6], lam)
            bound = 1.0 / (2.0 * math.sqrt(lam))
            tir_rows = [row for row in rows if row["solver"] == "tir"]
            assert tir_rows
            assert all(row["amplification"] <= bound for row in tir_rows)

    def test_naive_amplification_explodes_in_worst_direction(self, rows):
        worst = [
            row
            for row in rows
            if row["solver"] == "naive"
            and row["direction"] == "worst_singular"
            and row["delta"] > 0
        ]
        assert worst and worst[0]["amplification"] >= 1e6

    def test_constrained_rows_report_the_solves_own_flag(self, problem, rows):
        _, _, A, _, r = problem
        directions = estimators._probe_directions(A)
        base = constrained_estimate(A, r, MONOTONE_SET)
        assert base.converged
        constrained = [row for row in rows if row["solver"] == "constrained"]
        assert len(constrained) == 2 * 3
        for row in constrained:
            shifted = GridFunction(
                r.grid, r.values + row["delta"] * directions[row["direction"]]
            )
            direct = constrained_estimate(A, shifted, MONOTONE_SET)
            assert row["converged"] is direct.converged, row
        # white noise at delta = 1e-6 stalls on this problem, and says so
        stalled = [row for row in constrained if not row["converged"]]
        assert [(row["delta"], row["direction"]) for row in stalled] == [
            (1e-6, "white_noise")
        ]

    @pytest.mark.parametrize("size", [64, 128])
    def test_naive_worst_direction_amplification_is_inverse_sigma_j(self, size):
        # v = U_J / sqrt(fz) has unit fz-norm and moves the estimate by
        # delta / sigma_J along the J-th right singular vector
        x = make_grid(size)
        spec = DgpSpec(rho=0.5)
        A = discretize(make_dgp(spec), x, make_grid(size))
        r = apply(A, phi0_on_grid(spec, x))
        want = 1.0 / A.svd.s[A.svd.rank - 1]
        worst = [
            row
            for row in stability_probe(A, r, [1e-2, 1e-6], 1e-4)
            if row["solver"] == "naive" and row["direction"] == "worst_singular"
        ]
        assert len(worst) == 2
        for row in worst:
            assert abs(row["amplification"] - want) <= 1e-10 * want, row

    def test_requires_positive_lambda(self, problem):
        _, _, A, _, r = problem
        with pytest.raises(ValueError):
            stability_probe(A, r, [1e-6], 0.0)

    @pytest.mark.parametrize("delta", [-1e-6, math.nan, math.inf])
    def test_rejects_negative_or_non_finite_delta(self, problem, delta):
        _, _, A, _, r = problem
        with pytest.raises(ValueError, match="delta < inf"):
            stability_probe(A, r, [1e-6, delta], 1e-4)


class TestSolverSuite:
    def test_table_order_and_lambdas(self):
        suite = estimators.solver_suite((1e-2, 1e-4), MONOTONE_SET)
        assert [(name, lam) for name, lam, _ in suite] == [
            ("naive", 0.0),
            ("tir", 1e-2),
            ("tir", 1e-4),
            ("constrained", 0.0),
        ]
        without = estimators.solver_suite((1e-2, 1e-4), None)
        assert [(name, lam) for name, lam, _ in without] == [
            (name, lam) for name, lam, _ in suite[:3]
        ]

    @pytest.mark.parametrize("n_shifts", [1, 3])
    def test_shifted_solves_solve_at_r_once_per_solver(
        self, problem, monkeypatch, n_shifts
    ):
        _, _, A, _, r = problem
        seen = []
        original = estimators.tir_estimate

        def counting(A, r, lam):
            seen.append((r.values.tobytes(), lam))
            return original(A, r, lam)

        monkeypatch.setattr(estimators, "tir_estimate", counting)
        suite = estimators.solver_suite((1e-2, 1e-4), None)
        v = np.linspace(-1.0, 1.0, r.grid.size)
        shifts = [(k, k * 1e-3 * v) for k in range(1, n_shifts + 1)]
        out = list(estimators.shifted_solves(A, r, suite, shifts))
        assert [(key, name) for key, name, *_ in out] == [
            (key, name) for key, _ in shifts for name in ("naive", "tir", "tir")
        ]
        at_r = [lam for values, lam in seen if values == r.values.tobytes()]
        assert at_r == [1e-2, 1e-4]
        assert len(seen) == 2 * (1 + n_shifts)


def _fresh_problem():
    x = make_grid(64)
    spec = DgpSpec(rho=0.5)
    A = discretize(make_dgp(spec), x, make_grid(64))
    return x, A, apply(A, phi0_on_grid(spec, x))


def _perturbed_data(x, A, r, indices):
    return [
        GridFunction(
            r.grid, r.values + 0.1 * apply(A, psi(CounterexampleSpec(MONOTONE, n), x)).values
        )
        for n in indices
    ]


class TestFactorizationReuse:
    def test_one_svd_per_operator(self, monkeypatch):
        x, A, r = _fresh_problem()
        data = _perturbed_data(x, A, r, range(8))
        calls = []
        original = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        naive_estimate(A, r)
        for rr in data:
            naive_estimate(A, rr)
            constrained_estimate(A, rr, MONOTONE_SET)
        assert len(calls) == 1

    def test_condition_diagnostic_is_exact_per_lambda_and_penalty(self):
        _, A, r = _fresh_problem()
        M = weighted_matrix(A)
        n = M.shape[1]
        sw = np.sqrt(A.x_grid.weights)
        F = (sw[:, None] * differentiation_matrix(A.x_grid)) / sw[None, :]
        for _ in range(2):
            for lam in (1e-6, 1e-2):
                H = M.T @ M + lam * np.eye(n) + lam * (F.T @ F)
                want = float(np.linalg.eigvalsh(H)[0])
                assert tir_estimate(A, r, lam).condition_diagnostic == want, lam

    def test_derivative_form_is_built_once_per_operator(self, monkeypatch):
        x, A, r = _fresh_problem()
        calls = []
        original = estimators.differentiation_matrix

        def counting(grid):
            calls.append(1)
            return original(grid)

        monkeypatch.setattr(estimators, "differentiation_matrix", counting)
        for lam in (1e-6, 1e-2, 1e-6):
            tir_estimate(A, r, lam)
        assert len(calls) == 1
        # the form is kept on the x grid, so an operator sharing it reuses it
        twin = discretize(make_dgp(DgpSpec(rho=0.3)), x, A.z_grid)
        tir_estimate(twin, apply(twin, phi0_on_grid(DgpSpec(), x)), 1e-6)
        assert len(calls) == 1
        _, other, r_other = _fresh_problem()
        tir_estimate(other, r_other, 1e-6)
        assert len(calls) == 2

    def test_zero_lambda_constraint_rows_are_built_once_per_set(self, monkeypatch):
        x, A, r = _fresh_problem()
        data = _perturbed_data(x, A, r, (1, 5, 20))
        calls = []
        original = ConstraintSet.rows

        def counting(self, x_grid, basis):
            calls.append(self)
            return original(self, x_grid, basis)

        monkeypatch.setattr(ConstraintSet, "rows", counting)
        for rr in data:
            constrained_estimate(A, rr, MONOTONE_SET)
        # an equal set built anew (fresh node array) is the same cache entry
        same = ConstraintSet(
            constraints=(ShapeConstraint("monotone_nondecreasing"),),
            inspection_size=1001,
        )
        constrained_estimate(A, r, same)
        assert len(calls) == 1
        constrained_estimate(A, r, ConstraintSet((ShapeConstraint("convex"),)))
        assert len(calls) == 2

    def test_constraint_sets_sharing_an_operator_do_not_collide(self):
        x, A, _ = _fresh_problem()
        # neither monotone nor convex, so every set below has active rows
        data = [
            apply(A, GridFunction(x, np.sin(2 * np.pi * x.nodes))),
            apply(A, GridFunction(x, -x.nodes**2)),
        ]
        monotone = ShapeConstraint("monotone_nondecreasing")
        sets = [
            MONOTONE_SET,
            ConstraintSet((ShapeConstraint("convex"),)),
            ConstraintSet((monotone,), 257),
            ConstraintSet((monotone, ShapeConstraint("convex"))),
        ]
        shared = [[constrained_estimate(A, rr, c) for rr in data] for c in sets]
        for cset, got_row in zip(sets, shared):
            _, fresh, _ = _fresh_problem()
            for rr, got in zip(data, got_row):
                want = constrained_estimate(fresh, rr, cset)
                np.testing.assert_array_equal(got.phi_hat.values, want.phi_hat.values)
                assert got.kkt_residual == want.kkt_residual
                assert got.iterations == want.iterations

    def test_gaussian_block_equals_the_plain_expression(self):
        rng = np.random.default_rng(5)
        nodes = make_grid(128).nodes
        obs = rng.random(10_000)
        for h in (0.03, 0.2, 1.7):
            want = np.exp(-0.5 * ((nodes[:, None] - obs[None, :]) / h) ** 2)
            np.testing.assert_array_equal(estimators._gaussian_block(nodes, obs, h), want)

    def test_threads_sharing_an_operator_match_serial(self):
        x, serial_op, r = _fresh_problem()
        _, shared_op, _ = _fresh_problem()
        data = _perturbed_data(x, serial_op, r, (1, 5, 20, 50))

        def solve_all(A, rr):
            return [
                naive_estimate(A, rr),
                tir_estimate(A, rr, 1e-4),
                constrained_estimate(A, rr, MONOTONE_SET),
            ]

        serial = [solve_all(serial_op, rr) for rr in data]
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda rr: solve_all(shared_op, rr), data))
        for want_row, got_row in zip(serial, threaded):
            for want, got in zip(want_row, got_row):
                np.testing.assert_array_equal(got.phi_hat.values, want.phi_hat.values)
                assert got.condition_diagnostic == want.condition_diagnostic

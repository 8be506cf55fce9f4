import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from npivlab.counterexamples import (
    FAMILIES,
    MAX_INDEX,
    MONOTONE,
    NONNEG,
    CounterexampleSpec,
    analytic_sobolev_norm,
    analytic_sup_A_psi_bound,
    psi,
)
from npivlab.dgp import DgpSpec, make_dgp
from npivlab.function_space import (
    ConstraintSet,
    GridFunction,
    ShapeConstraint,
    check_shape,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from npivlab.operators import apply, discretize


@pytest.fixture(scope="module")
def grid():
    return make_grid(128)


def test_monotone_member_closed_form(grid):
    n = 7
    vals = psi(CounterexampleSpec(MONOTONE, n), grid).values
    expected = -math.sqrt(2 * n + 1) * (1.0 - grid.nodes) ** n
    np.testing.assert_allclose(vals, expected, rtol=1e-14)


def test_nonneg_member_closed_form(grid):
    n = 7
    vals = psi(CounterexampleSpec(NONNEG, n), grid).values
    c = math.sqrt((2 * n + 1) / (2.0 ** (2 * n + 1) - 1.0))
    np.testing.assert_allclose(vals, c * (1.0 + grid.nodes) ** n, rtol=1e-13)


def test_unit_norm_whole_sequence(grid):
    for family in FAMILIES:
        worst = max(
            abs(l2_norm(psi(CounterexampleSpec(family, n), grid)) - 1.0)
            for n in range(101)
        )
        assert worst < 1e-9, family


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [0, 1, 7, 40])
def test_unit_norm_against_quad_oracle(grid, family, n):
    f = psi(CounterexampleSpec(family, n), grid)
    # independent integration of the squared member, no quadrature shared
    # with the grid evaluation
    if family == MONOTONE:
        integrand = lambda x: (2 * n + 1) * (1.0 - x) ** (2 * n)
    else:
        c2 = (2 * n + 1) / (2.0 ** (2 * n + 1) - 1.0)
        integrand = lambda x: c2 * (1.0 + x) ** (2 * n)
    oracle, _ = quad(integrand, 0.0, 1.0)
    assert abs(oracle - 1.0) < 1e-12
    assert abs(l2_norm(f) - 1.0) < 1e-9


def test_monotone_family_shape(grid):
    monotone = ConstraintSet((ShapeConstraint("monotone_nondecreasing"),))
    for n in (0, 3, 25):
        f = psi(CounterexampleSpec(MONOTONE, n), grid)
        assert np.all(f.values <= 0)
        assert check_shape(f, monotone) == (True,)


def test_nonneg_family_shape(grid):
    kinds = ("nonnegative", "monotone_nondecreasing", "convex")
    shapes = ConstraintSet(tuple(ShapeConstraint(kind) for kind in kinds))
    for n in (0, 1, 4, 30):
        f = psi(CounterexampleSpec(NONNEG, n), grid)
        assert np.all(f.values >= 0)
        assert check_shape(f, shapes) == (True, True, True)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FAMILIES),
    st.integers(min_value=0, max_value=100),
    st.floats(min_value=1e-3, max_value=0.4),
)
def test_distance_equals_epsilon(family, n, eps):
    g = make_grid(128)
    phi = GridFunction(g, eps * psi(CounterexampleSpec(family, n), g).values)
    assert abs(l2_norm(phi) - eps) < 1e-9 * (1.0 + eps)


class TestAnalyticBound:
    def test_monotone_formula(self):
        for n in (0, 5, 99):
            spec = CounterexampleSpec(MONOTONE, n)
            expected = 2.0 * math.sqrt(2 * n + 1) / (n + 1)
            assert abs(analytic_sup_A_psi_bound(spec, 2.0) - expected) < 1e-13

    def test_bound_equals_integral_in_the_flat_case(self):
        """With a flat conditional density the image of a member is the
        constant equal to its integral, and the bound with C = 1 is exactly
        that integral's magnitude for both families."""
        grid = make_grid(128)
        dgp = make_dgp(DgpSpec(rho=0.0))
        A = discretize(dgp, grid, make_grid(64))
        for family in FAMILIES:
            for n in (0, 3, 17, 60):
                spec = CounterexampleSpec(family, n)
                image = apply(A, psi(spec, grid)).values
                assert np.ptp(image) < 1e-12
                assert abs(
                    abs(image[0]) - analytic_sup_A_psi_bound(spec, 1.0)
                ) < 1e-12

    def test_scales_linearly_in_density_sup(self):
        spec = CounterexampleSpec(NONNEG, 9)
        one = analytic_sup_A_psi_bound(spec, 1.0)
        assert abs(analytic_sup_A_psi_bound(spec, 7.5) - 7.5 * one) < 1e-12

    def test_the_documented_sup_ratio_at_rho_half(self):
        """The README and analytic_sup_A_psi_bound state criterion 2's worst
        sup/bound ratio at rho = 0.5, n <= 100 (monotone) on N x N grids; only
        N = 128 stays below 1, which is why criterion 2 runs there."""
        dgp = make_dgp(DgpSpec(rho=0.5))
        for size, documented in ((128, 0.916), (256, 1.131), (512, 1.346)):
            grid = make_grid(size)
            A = discretize(dgp, grid, grid)
            worst_ratio = 0.0
            for n in range(101):
                spec = CounterexampleSpec(MONOTONE, n)
                sup = float(np.abs(apply(A, psi(spec, grid)).values).max())
                worst_ratio = max(worst_ratio, sup / analytic_sup_A_psi_bound(spec, dgp.sup_fxz))
            assert abs(worst_ratio - documented) < 5e-4, (size, worst_ratio)

    def test_rejects_nonpositive_density_sup(self):
        with pytest.raises(ValueError):
            analytic_sup_A_psi_bound(CounterexampleSpec(MONOTONE, 1), 0.0)

    @pytest.mark.parametrize("density_sup", [math.nan, math.inf])
    def test_rejects_non_finite_density_sup(self, density_sup):
        with pytest.raises(ValueError, match="positive and finite"):
            analytic_sup_A_psi_bound(CounterexampleSpec(MONOTONE, 1), density_sup)


class TestSobolevNorm:
    def test_matches_measured_norm(self):
        grid = make_grid(128)
        for family in FAMILIES:
            for n in range(51):
                spec = CounterexampleSpec(family, n)
                measured = sobolev_norm(psi(spec, grid))
                assert abs(measured - analytic_sobolev_norm(spec)) < 1e-8, (family, n)

    def test_strictly_increasing(self):
        for family in FAMILIES:
            vals = [
                analytic_sobolev_norm(CounterexampleSpec(family, n))
                for n in range(51)
            ]
            assert all(b > a for a, b in zip(vals, vals[1:])), family

    def test_index_zero_is_one(self):
        for family in FAMILIES:
            assert abs(analytic_sobolev_norm(CounterexampleSpec(family, 0)) - 1.0) < 1e-14

    def test_divergence(self):
        # the Sobolev norm grows like n^(1/2) and is what a first-order
        # penalty uses to screen the sequence out
        small = analytic_sobolev_norm(CounterexampleSpec(MONOTONE, 5))
        large = analytic_sobolev_norm(CounterexampleSpec(MONOTONE, 180))
        assert large > 5 * small


def test_high_index_stays_finite(grid):
    # the normalizing constants are astronomically large/small at n = 200;
    # evaluation must come through without overflow
    for family in FAMILIES:
        vals = psi(CounterexampleSpec(family, MAX_INDEX), grid).values
        assert np.all(np.isfinite(vals))


def test_index_cap_enforced(grid):
    with pytest.raises(ValueError):
        psi(CounterexampleSpec(MONOTONE, MAX_INDEX + 1), grid)


def test_spec_validation():
    with pytest.raises(ValueError):
        CounterexampleSpec("bernstein", 3)
    with pytest.raises(ValueError):
        CounterexampleSpec(MONOTONE, -1)
    # n = 2.5 used to give a unit-norm function outside the family
    for n in (2.5, 3.0, True):
        with pytest.raises(ValueError, match="integer"):
            CounterexampleSpec(MONOTONE, n)

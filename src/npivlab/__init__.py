"""Numerical laboratory for ill-posed instrumented regression problems.

The package discretizes the conditional-expectation operator of a
Gaussian-copula data generating process, constructs the perturbation
sequences that drive the population criterion to zero at fixed distance
from the truth, and compares naive, Tikhonov-regularized, and
shape-constrained estimators on the resulting inverse problem.
"""

__version__ = "0.1.0"

from .counterexamples import (
    FAMILIES,
    MAX_INDEX,
    MONOTONE,
    NONNEG,
    CounterexampleSpec,
    analytic_sobolev_norm,
    analytic_sup_A_psi_bound,
    perturb,
    psi,
)
from .dgp import (
    Dgp,
    DgpSpec,
    Sample,
    make_dgp,
    phi0_callable,
    phi0_on_grid,
    sample,
)
from .estimators import (
    ConstraintSet,
    DegenerateSampleError,
    EstimateResult,
    NumericalError,
    constrained_estimate,
    naive_estimate,
    sampled_plugin,
    stability_probe,
    tir_estimate,
)
from .function_space import (
    GAUSS_LEGENDRE,
    UNIFORM_TRAPEZOID,
    Grid,
    GridFunction,
    GridMismatchError,
    ShapeConstraint,
    ShapeVerdict,
    check_shape,
    default_inspection_grid,
    derivative,
    differentiation_matrix,
    inner_product,
    l2_norm,
    make_grid,
    resample,
    sobolev_norm,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultTable,
    config_from_mapping,
    emit_csv,
    load_config,
    load_csv,
    run_estimator_comparison,
    run_experiment,
    run_illposedness_demo,
    run_montecarlo,
    run_svd_report,
)
from .operators import (
    DiscreteOperator,
    SvdReport,
    adjoint_apply,
    apply,
    discretize,
    q_infinity,
    svd_report,
    weighted_matrix,
)

"""The demo's q_infty column against the continuum, through the Mehler basis.

The Gaussian-copula operator is diagonal in e_k(x) = He_k(Phi^-1(x)) / sqrt(k!):
A e_k = rho^k e_k, and {e_k} is orthonormal in L2[0, 1]. So by Parseval the
continuum criterion of the perturbation eps psi_n is

    q_n = eps^2 sum_k rho^(2k) c_k^2,  c_k = <psi_n, e_k>
        = int psi_n(Phi(v)) He_k(v) / sqrt(k!) phi(v) dv,

a smooth Gauss-Hermite integral in v. K = 80 terms leave a tail below
rho^160 at rho = 0.5.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import ndtr

from npivlab.dgp import DgpSpec
from npivlab.harness import ExperimentConfig, run_illposedness_demo

TERMS = 80
EPSILON = 0.1
INDICES = np.arange(101)


def hermite_rule(nodes: int):
    """Nodes v and weights of the standard normal measure, and the
    normalized Hermite functions He_k(v) / sqrt(k!) for k < TERMS as rows,
    from the three-term recurrence."""
    v, w = hermegauss(nodes)
    h = np.empty((TERMS, nodes))
    h[0] = 1.0
    h[1] = v
    for k in range(1, TERMS - 1):
        h[k + 1] = (v * h[k] - math.sqrt(k) * h[k - 1]) / math.sqrt(k + 1)
    return v, w / math.sqrt(2.0 * math.pi), h


def monotone_coefficients(n: int, rule) -> np.ndarray:
    """c_k = <psi_n, e_k> for the monotone member -(2n+1)^(1/2) (1-x)^n."""
    v, w, h = rule
    # 1 - Phi(v) = Phi(-v), without cancellation in the upper tail
    values = -math.sqrt(2.0 * n + 1.0) * ndtr(-v) ** n
    return h @ (w * values)


def oracle_q(rho: float, nodes: int = 300) -> np.ndarray:
    rule = hermite_rule(nodes)
    spectrum_sq = rho ** (2.0 * np.arange(TERMS))
    return np.array(
        [EPSILON**2 * (monotone_coefficients(n, rule) ** 2) @ spectrum_sq for n in INDICES]
    )


def demo_q(rho: float, size: int) -> np.ndarray:
    cfg = ExperimentConfig(
        experiment="illposedness_demo",
        dgp=DgpSpec(rho=rho),
        family="monotone",
        epsilon=EPSILON,
        quadrature_size=size,
        z_size=size,
        n_max=int(INDICES[-1]),
    )
    table = run_illposedness_demo(cfg)
    column = table.columns.index("q_infty")
    return np.array([row[column] for row in table.rows])


def test_oracle_converges_in_the_hermite_rule():
    # the 200- and 300-node rules agree to 4.1e-10 relative (worst at n = 100);
    # the bound leaves a factor 2.4
    coarse, fine = oracle_q(0.5, nodes=200), oracle_q(0.5, nodes=300)
    assert float(np.abs(coarse / fine - 1.0).max()) < 1e-9


def test_oracle_and_demo_agree_with_the_independent_closed_form():
    # at rho = 0 only e_0 survives: q_n = eps^2 (2n+1)/(n+1)^2 (criterion 4).
    # Measured relative gaps: oracle 4.3e-13, demo column 9.6e-13 (N = 128).
    closed = EPSILON**2 * (2 * INDICES + 1) / (INDICES + 1.0) ** 2
    oracle = oracle_q(0.0)
    assert float(np.abs(oracle / closed - 1.0).max()) < 1e-11
    assert float(np.abs(demo_q(0.0, 128) / oracle - 1.0).max()) < 1e-11


# Relative error of the rho = 0.5 demo column against the oracle, measured at
# the listed n; each gate is 1.25x the measurement.
MEASURED_ERROR = {
    128: {1: 2.12e-6, 5: 4.31e-5, 10: 1.60e-4, 20: 5.06e-4, 50: 1.86e-3, 100: 4.33e-3},
    512: {1: 6.46e-8, 5: 1.82e-6, 10: 7.92e-6, 20: 2.86e-5, 50: 1.25e-4, 100: 3.29e-4},
}


@pytest.fixture(scope="module")
def column_errors():
    oracle = oracle_q(0.5)
    return {size: np.abs(demo_q(0.5, size) / oracle - 1.0) for size in MEASURED_ERROR}


@pytest.mark.parametrize("size", sorted(MEASURED_ERROR))
def test_dependent_column_is_within_the_measured_error(column_errors, size):
    err = column_errors[size]
    for n, measured in MEASURED_ERROR[size].items():
        assert err[n] < 1.25 * measured, (n, err[n])
    # the error grows with n, so n = 100 bounds the whole column
    assert float(err.max()) < 1.25 * MEASURED_ERROR[size][100]


def test_dependent_column_error_falls_with_the_grid(column_errors):
    # n = 0 is a constant, exact at both sizes. Beyond it the error falls like
    # about N^-2: the 512-node error is at most 0.076 of the 128-node one.
    coarse, fine = column_errors[128][1:], column_errors[512][1:]
    assert np.all(fine < 0.1 * coarse)

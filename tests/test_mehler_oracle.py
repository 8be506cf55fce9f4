"""The demo's q_infty and sup_A_psi columns against the continuum, through
the Mehler basis.

The Gaussian-copula operator is diagonal in e_k(x) = He_k(Phi^-1(x)) / sqrt(k!):
A e_k = rho^k e_k, and {e_k} is orthonormal in L2[0, 1]. So by Parseval the
continuum criterion of the perturbation eps psi_n is

    q_n = eps^2 sum_k rho^(2k) c_k^2,  c_k = <psi_n, e_k>
        = int psi_n(Phi(v)) He_k(v) / sqrt(k!) phi(v) dv,

a smooth Gauss-Hermite integral in v, and pointwise

    (A psi_n)(z) = sum_k rho^k c_k e_k(z).

K = 80 terms leave a tail below rho^80 at rho = 0.5.
"""

import functools
import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.special import ndtr, ndtri

from npivlab.dgp import DgpSpec
from npivlab.function_space import make_grid
from npivlab.harness import ExperimentConfig, run_illposedness_demo

TERMS = 80
EPSILON = 0.1
INDICES = np.arange(101)


def normalized_hermite(v: np.ndarray) -> np.ndarray:
    """He_k(v) / sqrt(k!) for k < TERMS as rows, from the three-term recurrence."""
    h = np.empty((TERMS, v.size))
    h[0] = 1.0
    h[1] = v
    for k in range(1, TERMS - 1):
        h[k + 1] = (v * h[k] - math.sqrt(k) * h[k - 1]) / math.sqrt(k + 1)
    return h


def hermite_rule(nodes: int):
    """Nodes v and weights of the standard normal measure, and the
    normalized Hermite functions at the nodes."""
    v, w = hermegauss(nodes)
    return v, w / math.sqrt(2.0 * math.pi), normalized_hermite(v)


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


def oracle_sup(rho: float, size: int, nodes: int = 300) -> np.ndarray:
    """max_j |(A psi_n)(z_j)| over the demo's own z nodes, a size-node Gauss grid."""
    rule = hermite_rule(nodes)
    e = normalized_hermite(ndtri(make_grid(size).nodes))
    spectrum = rho ** np.arange(TERMS)
    return np.array(
        [float(np.abs((spectrum * monotone_coefficients(n, rule)) @ e).max()) for n in INDICES]
    )


# Each column's oracle at (rho, N): q does not depend on the demo's z nodes,
# sup |A psi_n| is taken at them.
ORACLES = {"q_infty": lambda rho, size: oracle_q(rho), "sup_A_psi": oracle_sup}


@functools.cache
def demo_table(rho: float, size: int):
    cfg = ExperimentConfig(
        experiment="illposedness_demo",
        dgp=DgpSpec(rho=rho),
        family="monotone",
        epsilon=EPSILON,
        quadrature_size=size,
        z_size=size,
        n_max=int(INDICES[-1]),
    )
    return run_illposedness_demo(cfg)


def demo_column(name: str, rho: float, size: int) -> np.ndarray:
    return np.array(demo_table(rho, size).column(name))


def test_oracle_converges_in_the_hermite_rule():
    # the 200- and 300-node rules agree to 4.1e-10 relative for q (worst at
    # n = 100) and to 2.1e-11 for sup |A psi_n| at N = 128 and 512; each
    # bound leaves a factor 2.4 or more
    coarse, fine = oracle_q(0.5, nodes=200), oracle_q(0.5, nodes=300)
    assert float(np.abs(coarse / fine - 1.0).max()) < 1e-9
    for size in (128, 512):
        coarse, fine = oracle_sup(0.5, size, nodes=200), oracle_sup(0.5, size, nodes=300)
        assert float(np.abs(coarse / fine - 1.0).max()) < 5e-11


def test_oracle_and_demo_agree_with_the_independent_closed_form():
    # at rho = 0 only e_0 survives: A psi_n is the constant c_0 = -sqrt(2n+1)/(n+1),
    # so q_n = eps^2 (2n+1)/(n+1)^2 (criterion 4) and sup |A psi_n| = |c_0|.
    # Measured relative gaps: q oracle 4.3e-13, q column 9.6e-13 (N = 128);
    # sup oracle 2.1e-13, sup column 2.8e-13.
    c0 = np.sqrt(2 * INDICES + 1.0) / (INDICES + 1.0)
    closed = {"q_infty": EPSILON**2 * c0**2, "sup_A_psi": c0}
    for name, oracle_at in ORACLES.items():
        oracle = oracle_at(0.0, 128)
        assert float(np.abs(oracle / closed[name] - 1.0).max()) < 1e-11, name
        column = demo_column(name, 0.0, 128)
        assert float(np.abs(column / oracle - 1.0).max()) < 1e-11, name


# Relative error of the rho = 0.5 demo columns against the oracle, measured at
# the listed n; each gate is 1.25x the measurement.
MEASURED_ERROR = {
    "q_infty": {
        128: {1: 2.12e-6, 5: 4.31e-5, 10: 1.60e-4, 20: 5.06e-4, 50: 1.86e-3, 100: 4.33e-3},
        512: {1: 6.46e-8, 5: 1.82e-6, 10: 7.92e-6, 20: 2.86e-5, 50: 1.25e-4, 100: 3.29e-4},
    },
    "sup_A_psi": {
        128: {1: 1.82e-4, 5: 7.34e-4, 10: 1.26e-3, 20: 2.08e-3, 50: 3.91e-3, 100: 6.19e-3},
        512: {1: 4.39e-5, 5: 1.79e-4, 10: 3.06e-4, 20: 5.04e-4, 50: 9.25e-4, 100: 1.43e-3},
    },
}
SIZES = (128, 512)


@pytest.fixture(scope="module")
def column_errors():
    """Signed relative error column / oracle - 1 per (column, size)."""
    errors = {}
    for name, oracle in ORACLES.items():
        for size in SIZES:
            errors[name, size] = demo_column(name, 0.5, size) / oracle(0.5, size) - 1.0
    return errors


@pytest.mark.parametrize("size", SIZES)
def test_dependent_column_is_within_the_measured_error(column_errors, size):
    for name, measured_at in MEASURED_ERROR.items():
        signed = column_errors[name, size]
        err = np.abs(signed)
        for n, measured in measured_at[size].items():
            assert err[n] < 1.25 * measured, (name, n, err[n])
        # the error grows with n, so n = 100 bounds the whole column
        assert np.all(np.diff(err[1:]) > 0), name
        assert float(err.max()) < 1.25 * measured_at[size][100], name
        # and both columns fall short of the continuum at every n >= 1
        assert np.all(signed[1:] < 0), name


# Largest 512-node over 128-node error ratio allowed at n >= 1: q falls like
# about N^-2 (measured at most 0.076), sup |A psi_n| like N^-1 (0.231-0.244).
FALL_RATIO = {"q_infty": 0.1, "sup_A_psi": 0.3}


def test_dependent_column_error_falls_with_the_grid(column_errors):
    # n = 0 is a constant, exact at both sizes
    for name, ratio in FALL_RATIO.items():
        coarse = np.abs(column_errors[name, 128][1:])
        fine = np.abs(column_errors[name, 512][1:])
        assert np.all(fine < ratio * coarse), name

"""Explicit unit-norm perturbation sequences with preserved shape properties.

Two families on [0, 1], indexed by n:

  monotone: psi_n(x) = -(2n+1)^(1/2) (1-x)^n
  nonneg:   psi_n(x) = (2n+1)^(1/2) (2^(2n+1)-1)^(-1/2) (1+x)^n

Both have unit L2 norm for every n. Adding eps * psi_n to a monotone
(resp. nonnegative, convex) base function preserves monotonicity (resp.
nonnegativity and convexity for the second family), while the sequence
psi_n concentrates mass at a boundary point as n grows: its image under a
smoothing integral operator shrinks like sqrt(2n+1)/(n+1) even though the
perturbation itself never shrinks. The closed-form norm bounds and Sobolev
norms below are the analytic oracles for that behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .function_space import Grid, GridFunction, _is_integer

MONOTONE = "monotone"
NONNEG = "nonneg"
FAMILIES = (MONOTONE, NONNEG)

MAX_INDEX = 200


@dataclass(frozen=True)
class CounterexampleSpec:
    """Family tag and sequence index n."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not _is_integer(self.n):
            raise ValueError(f"index n must be an integer, got {self.n!r}")
        if self.n < 0:
            raise ValueError("index n must be nonnegative")


def _log_power_minus_one(k: int) -> float:
    """log(2^k - 1) without forming 2^k."""
    return k * math.log(2.0) + math.log1p(-math.pow(2.0, -k))


def psi(spec: CounterexampleSpec, grid: Grid) -> GridFunction:
    """Evaluate the chosen family member exactly at the grid nodes.

    The nonneg family normalizer (2^(2n+1)-1)^(-1/2) is assembled in log
    space so that indices up to n = 200 stay inside double range.
    """
    if spec.n > MAX_INDEX:
        raise ValueError(f"index n = {spec.n} out of range (max {MAX_INDEX})")
    x = grid.nodes
    n = spec.n
    if spec.family == MONOTONE:
        values = -math.sqrt(2.0 * n + 1.0) * (1.0 - x) ** n
    else:
        log_c = 0.5 * math.log(2.0 * n + 1.0) - 0.5 * _log_power_minus_one(2 * n + 1)
        values = np.exp(log_c + n * np.log1p(x))
    return GridFunction(grid, values)


def analytic_sup_A_psi_bound(spec: CounterexampleSpec, density_sup: float) -> float:
    """Closed-form bound on sup |(A psi_n)(z)| for a kernel bounded by
    density_sup. The Gaussian copula's is bounded only at rho = 0: at
    rho != 0 its lattice sup bounds the kernel truncated at the lattice, and
    the grid's sup |A psi_n| exceeds the result by up to 1.131x at N = 256
    and 1.346x at N = 512 (rho = 0.5, n <= 100).

    For the monotone family: density_sup * sqrt(2n+1) / (n+1), which is
    density_sup * sqrt(2n+1) * integral of (1-x)^n. For the nonneg family
    the integral of (1+x)^n is (2^(n+1)-1)/(n+1), giving
    density_sup * sqrt(2n+1) * (2^(2n+1)-1)^(-1/2) * (2^(n+1)-1)/(n+1).
    """
    if not 0.0 < density_sup < math.inf:
        raise ValueError(f"density_sup must be positive and finite, got {density_sup!r}")
    n = spec.n
    if spec.family == MONOTONE:
        return density_sup * math.sqrt(2.0 * n + 1.0) / (n + 1.0)
    log_val = (
        0.5 * math.log(2.0 * n + 1.0)
        - 0.5 * _log_power_minus_one(2 * n + 1)
        + _log_power_minus_one(n + 1)
        - math.log(n + 1.0)
    )
    return density_sup * math.exp(log_val)


def analytic_sobolev_norm(spec: CounterexampleSpec) -> float:
    """Closed-form first-order Sobolev norm of psi_n.

    monotone: sqrt(1 + n^2 (2n+1)/(2n-1)); nonneg:
    sqrt(1 + n^2 (2n+1)(2^(2n-1)-1) / ((2n-1)(2^(2n+1)-1))). Both grow
    without bound in n, which is what makes a derivative penalty effective
    against these sequences. For n = 0 both families are unit constants.
    """
    n = spec.n
    if n == 0:
        return 1.0
    if spec.family == MONOTONE:
        return math.sqrt(1.0 + n * n * (2.0 * n + 1.0) / (2.0 * n - 1.0))
    log_ratio = _log_power_minus_one(2 * n - 1) - _log_power_minus_one(2 * n + 1)
    seminorm_sq = n * n * (2.0 * n + 1.0) / (2.0 * n - 1.0) * math.exp(log_ratio)
    return math.sqrt(1.0 + seminorm_sq)

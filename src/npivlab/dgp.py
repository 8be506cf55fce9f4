"""Data-generating processes on [0, 1]^2 with known structural function.

The dependence between X and Z is a Gaussian copula: (X, Z) =
(Phi(V), Phi(W)) for standard bivariate normal (V, W) with correlation rho.
Both marginals are exactly uniform on [0, 1], the joint density is smooth
and bounded for |rho| < 1, and rho = 0 degenerates to the independent
case with density identically 1. Y = phi0(X) + noise_sd * eta with eta
standard normal independent of (V, W), so E[Y - phi0(X) | Z] = 0 holds by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .function_space import Grid, GridFunction, Memoized

PHI0_CHOICES = ("square", "linear", "affine_plus_exp", "custom")

# Evaluation points are clipped away from 0 and 1 before the normal
# quantile transform; ndtri has poles at the endpoints.
_CLIP = 1e-12

_LATTICE = 512


@dataclass(frozen=True)
class DgpSpec:
    """Structural function choice, copula dependence, and noise level."""

    phi0: str = "square"
    rho: float = 0.5
    noise_sd: float = 0.0
    phi0_table: tuple | None = None

    def __post_init__(self):
        if self.phi0 not in PHI0_CHOICES:
            raise ValueError(f"unknown phi0 choice {self.phi0!r}")
        if not abs(self.rho) < 1:
            raise ValueError("rho must satisfy |rho| < 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        if self.phi0_table is not None:
            if self.phi0 != "custom":
                raise ValueError(f"phi0_table needs phi0 = 'custom', got {self.phi0!r}")
            try:
                table = tuple((float(x), float(y)) for x, y in self.phi0_table)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"phi0_table must hold (x, y) pairs: {exc}") from None
            if not all(math.isfinite(v) for pair in table for v in pair):
                raise ValueError("phi0_table values must be finite")
            if any(b[0] <= a[0] for a, b in zip(table, table[1:])):
                raise ValueError("phi0_table x values must be strictly increasing")
            object.__setattr__(self, "phi0_table", table)
        if self.phi0 == "custom" and len(self.phi0_table or ()) < 2:
            raise ValueError("custom phi0 needs a phi0_table of at least two pairs")


def phi0_callable(spec: DgpSpec):
    """Return phi0 as a vectorized callable on [0, 1]."""
    if spec.phi0 == "square":
        return lambda x: np.asarray(x, dtype=float) ** 2
    if spec.phi0 == "linear":
        return lambda x: np.asarray(x, dtype=float)
    if spec.phi0 == "affine_plus_exp":
        return lambda x: np.asarray(x, dtype=float) + 0.25 * np.expm1(
            np.asarray(x, dtype=float)
        )
    xs, ys = np.array(spec.phi0_table).T
    return lambda x: np.interp(np.asarray(x, dtype=float), xs, ys)


def phi0_on_grid(spec: DgpSpec, grid: Grid) -> GridFunction:
    return GridFunction(grid, phi0_callable(spec)(grid.nodes))


@dataclass(frozen=True)
class Dgp(Memoized):
    spec: DgpSpec

    @property
    def sup_fxz(self) -> float:
        """Sup of the joint density over a 512 x 512 lattice of cell midpoints.

        Computed on first read and kept. The copula density grows toward two
        corners of the square, so the lattice value understates the true
        supremum; it is the bound at the resolution the package actually
        evaluates densities on, and is the constant used by the
        integral-bound checks.
        """
        return self.memo("sup_fxz", self._lattice_sup)

    def _lattice_sup(self) -> float:
        pts = (np.arange(_LATTICE) + 0.5) / _LATTICE
        return float(self.f_x_given_z(pts[None, :], pts[:, None]).max())

    def f_x_given_z(self, x, z):
        """Conditional density of X given Z: the copula density itself,
        since both marginals are uniform (f_Z is identically 1)."""
        x = np.clip(np.asarray(x, dtype=float), _CLIP, 1.0 - _CLIP)
        z = np.clip(np.asarray(z, dtype=float), _CLIP, 1.0 - _CLIP)
        rho = self.spec.rho
        a = ndtri(x)
        b = ndtri(z)
        s2 = 1.0 - rho * rho
        expo = (-rho * rho * (a * a + b * b) + 2.0 * rho * a * b) / (2.0 * s2)
        return np.exp(expo) / math.sqrt(s2)


@dataclass(frozen=True, eq=False)
class Sample:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    seed: int

    @property
    def size(self) -> int:
        return self.x.size


def make_dgp(spec: DgpSpec) -> Dgp:
    """Construct the Dgp. No density is evaluated here: the lattice bound
    `Dgp.sup_fxz` is computed on its first read."""
    return Dgp(spec=spec)


def sample(dgp: Dgp, m: int, seed: int) -> Sample:
    """Draw m observations (x_i, y_i, z_i), deterministic in the seed."""
    if m < 1:
        raise ValueError("sample size m must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m)
    w_indep = rng.standard_normal(m)
    rho = dgp.spec.rho
    w = rho * v + math.sqrt(1.0 - rho * rho) * w_indep
    x = ndtr(v)
    z = ndtr(w)
    y = phi0_callable(dgp.spec)(x)
    if dgp.spec.noise_sd > 0:
        y = y + dgp.spec.noise_sd * rng.standard_normal(m)
    return Sample(x=x, y=y, z=z, seed=seed)

"""Data-generating processes on [0, 1]^2 with known structural function.

The dependence between X and Z is a Gaussian copula: (X, Z) =
(Phi(V), Phi(W)) for standard bivariate normal (V, W) with correlation rho.
Both marginals are exactly uniform on [0, 1]. The joint density is smooth
on the open square; for rho != 0 it is unbounded toward the two corners
(0, 0) and (1, 1) (toward (0, 1) and (1, 0) when rho < 0), and rho = 0
degenerates to the independent case with density identically 1.
Y = phi0(X) + noise_sd * eta with eta standard normal independent of
(V, W), so E[Y - phi0(X) | Z] = 0 holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _load_compiled
from .function_space import Grid, GridFunction

# Package code differentiates, resamples and shape-checks phi0 through its
# polynomial interpolant on the Gauss grid, which is exact or spectrally
# accurate only for an analytic function; so phi0 is one of these closed forms.
_PHI0 = {
    "square": lambda x: x**2,
    "linear": lambda x: x,
    "affine_plus_exp": lambda x: x + 0.25 * np.expm1(x),
}
PHI0_CHOICES = tuple(_PHI0)

_LATTICE = 512

# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the source of scipy.special.ndtri, whose bytes ndtri below keeps on
# [_CLIP, 1 - _CLIP], away from the poles at 0 and 1. P0/Q0 serve the centre
# |y - 1/2| <= 1/2 - exp(-2); P1/Q1 the tails in 1/x, x = sqrt(-2 log y) <= 7.43
# (Cephes's P2/Q2, for x >= 8, are out of reach). np.polyval is polevl's Horner
# rule from 0, and 0 * x + c0 = c0; each Q leads with Cephes's implied 1, and
# 1 * x is exact, so it gives p1evl's bytes too.
_CLIP = 1e-12
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# libm's log, as Cephes calls it; numpy's np.log differs in the last bit.
_LOG = np.frompyfunc(math.log, 1, 1)


def ndtri(p):
    """Inverse of the standard normal cdf at p clipped to [1e-12, 1 - 1e-12],
    bit-equal to scipy.special.ndtri on that domain."""
    p = np.asarray(np.clip(p, _CLIP, 1.0 - _CLIP), dtype=float)
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty(p.shape)
    centre = y > _EXP_M2
    t = y[centre] - 0.5
    t2 = t * t
    out[centre] = (t + t * (t2 * np.polyval(_P0, t2) / np.polyval(_Q0, t2))) * _S2PI
    tail = ~centre
    x = np.sqrt(-2.0 * _LOG(y[tail]).astype(float))
    x0 = x - _LOG(x).astype(float) / x
    z = 1.0 / x
    x = x0 - z * np.polyval(_P1, z) / np.polyval(_Q1, z)
    out[tail] = np.where(upper[tail], x, -x)
    return out


@dataclass(frozen=True)
class DgpSpec:
    """Structural function choice, copula dependence, and noise level."""

    phi0: str = "square"
    rho: float = 0.5
    noise_sd: float = 0.0

    def __post_init__(self):
        if self.phi0 not in PHI0_CHOICES:
            raise ValueError(f"unknown phi0 choice {self.phi0!r}")
        if not abs(self.rho) < 1:
            raise ValueError("rho must satisfy |rho| < 1")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError(f"noise_sd must be a finite number >= 0, got {self.noise_sd!r}")


def phi0_on_grid(spec: DgpSpec, grid: Grid) -> GridFunction:
    return GridFunction(grid, _PHI0[spec.phi0](grid.nodes))


@dataclass(frozen=True)
class Dgp:
    spec: DgpSpec

    @property
    def sup_fxz(self) -> float:
        """Sup of the joint density over a 512 x 512 lattice of cell midpoints.

        The copula density grows toward two corners of the square, so the
        lattice value understates the true supremum; it is the bound at the
        resolution the package actually evaluates densities on, and is the
        constant used by the integral-bound checks.
        """
        # The lattice max sits in a corner cell, so only the four corner
        # midpoints are evaluated. Write a = ndtri(x), b = ndtri(z) and c for
        # the edge rows' |a|. For fixed b the exponent is a concave quadratic
        # in a that peaks at a = b / rho with value b^2 / 2. If |b| <= |rho| c,
        # that is at most rho^2 c^2 / 2 <= c^2 |rho| / (1 + |rho|), the
        # exponent at the corners a = b = +-c (a = -b = +-c when rho < 0).
        # Otherwise the peak lies beyond the edge rows, so the max over a is on
        # an edge row, where the same argument in b puts it at a corner.
        corners = np.array([0.5, _LATTICE - 0.5]) / _LATTICE
        return float(self.f_x_given_z(corners[None, :], corners[:, None]).max())

    def f_x_given_z(self, x, z):
        """Conditional density of X given Z: the copula density itself,
        since both marginals are uniform (f_Z is identically 1)."""
        rho = self.spec.rho
        a, b = ndtri(x), ndtri(z)
        s2 = 1.0 - rho * rho
        expo = (-rho * rho * (a * a + b * b) + 2.0 * rho * a * b) / (2.0 * s2)
        return np.exp(expo) / math.sqrt(s2)


@dataclass(frozen=True, eq=False)
class Sample:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def size(self) -> int:
        return self.x.size


def make_dgp(spec: DgpSpec) -> Dgp:
    """Construct the Dgp; no density is evaluated until `sup_fxz` is read."""
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
    ndtr = _load_compiled("special", "_special_ufuncs").ndtr
    x = ndtr(v)
    z = ndtr(w)
    y = _PHI0[dgp.spec.phi0](x)
    if dgp.spec.noise_sd > 0:
        y = y + dgp.spec.noise_sd * rng.standard_normal(m)
    return Sample(x=x, y=y, z=z)

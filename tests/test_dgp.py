import math

import numpy as np
import pytest
import scipy.special
from numpy.polynomial.legendre import leggauss
from scipy.stats import multivariate_normal, norm

from npivlab import _load_compiled
from npivlab.dgp import (
    PHI0_CHOICES,
    Dgp,
    DgpSpec,
    make_dgp,
    ndtri,
    phi0_callable,
    phi0_on_grid,
    sample,
)
from npivlab.function_space import ConstraintSet, check_shape, make_grid, sobolev_norm
from npivlab.harness import DEMO_SHAPES
from npivlab.operators import apply, discretize, q_infinity


def copula_oracle(x, z, rho):
    """Joint density of (F(V), F(W)) for correlated standard normals."""
    a = norm.ppf(x)
    b = norm.ppf(z)
    joint = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]])
    return joint.pdf(np.column_stack([a, b])) / (norm.pdf(a) * norm.pdf(b))


@pytest.mark.parametrize("rho", [0.3, 0.5, -0.6, 0.9])
def test_conditional_density_matches_gaussian_copula_oracle(rho):
    dgp = make_dgp(DgpSpec(rho=rho))
    rng = np.random.default_rng(42)
    x = rng.uniform(0.05, 0.95, 40)
    z = rng.uniform(0.05, 0.95, 40)
    got = dgp.f_x_given_z(x, z)
    np.testing.assert_allclose(got, copula_oracle(x, z, rho), rtol=1e-12)


def test_rho_zero_and_independent_case_are_exactly_flat():
    # the copula formula gives exp(+-0) / sqrt(1) = 1.0 exactly, at rho = -0.0
    # too and at the clipped endpoints 0 and 1 of equally spaced points
    for rho in (0.0, -0.0):
        dgp = make_dgp(DgpSpec(rho=rho))
        for nodes in (make_grid(32).nodes, np.linspace(0.0, 1.0, 33)):
            vals = dgp.f_x_given_z(nodes[None, :], nodes[:, None])
            assert np.all(vals == 1.0)
        assert dgp.sup_fxz == 1.0


def test_instrument_density_is_uniform():
    """f_Z is identically 1, so the operator's fz weights are the
    z-quadrature weights bit for bit."""
    x = make_grid(16)
    z = make_grid(24)
    A = discretize(make_dgp(DgpSpec(rho=0.8)), x, z)
    np.testing.assert_array_equal(A.fz_weights, z.weights)


def test_conditional_density_integrates_to_one():
    """The raw quadrature mass of f(.|z) converges slowly near z = 0 and 1
    where the copula density spikes, so only interior nodes are held to a
    tight tolerance here; the discretized operator renormalizes its rows,
    which is checked at 1e-15 in the operator tests."""
    g = make_grid(64)
    dgp = make_dgp(DgpSpec(rho=0.5))
    dens = dgp.f_x_given_z(g.nodes[None, :], g.nodes[:, None])
    masses = dens @ g.weights
    interior = (g.nodes >= 0.1) & (g.nodes <= 0.9)
    assert np.abs(masses[interior] - 1.0).max() < 1e-4
    assert np.abs(masses - 1.0).max() < 1e-2


@pytest.mark.parametrize("rho", [0.5, 0.9])
def test_density_sup_is_bounded(rho):
    sup = make_dgp(DgpSpec(rho=rho)).sup_fxz
    assert np.isfinite(sup)
    assert 1.0 <= sup < 1e3


def test_make_dgp_evaluates_no_density_until_the_sup_is_read(monkeypatch):
    calls = []
    original = Dgp.f_x_given_z

    def counting(self, x, z):
        calls.append(np.broadcast(x, z).shape)
        return original(self, x, z)

    monkeypatch.setattr(Dgp, "f_x_given_z", counting)
    dgp = make_dgp(DgpSpec(rho=0.5))
    assert calls == []
    first = dgp.sup_fxz
    assert calls == [(2, 2)]  # the four corner cells of the lattice
    assert np.isfinite(first)


@pytest.mark.parametrize("rho", [0.5, -0.6, 0.9])
def test_density_at_the_corners_of_the_square_is_its_value_at_the_clip_edges(rho):
    dgp = make_dgp(DgpSpec(rho=rho))
    ends = np.array([0.0, 1.0])
    edges = np.array([1e-12, 1.0 - 1e-12])
    got = dgp.f_x_given_z(ends[None, :], ends[:, None])
    assert np.all(np.isfinite(got))
    assert _same_bytes(got, dgp.f_x_given_z(edges[None, :], edges[:, None]))


def test_sup_over_the_corner_cells_is_the_lattice_max():
    pts = (np.arange(512) + 0.5) / 512
    sweep = [*np.linspace(-0.999, 0.999, 201), 0.0, -0.0, 1e-9, -1e-9, 0.9999999, -0.9999999]
    differ = []
    for rho in sweep:
        dgp = make_dgp(DgpSpec(rho=float(rho)))
        lattice_max = float(dgp.f_x_given_z(pts[None, :], pts[:, None]).max())
        if np.float64(dgp.sup_fxz).tobytes() != np.float64(lattice_max).tobytes():
            differ.append((float(rho), dgp.sup_fxz, lattice_max))
    assert differ == []


def test_stronger_dependence_has_larger_sup():
    mild = make_dgp(DgpSpec(rho=0.5)).sup_fxz
    strong = make_dgp(DgpSpec(rho=0.9)).sup_fxz
    assert strong > mild > 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(rho=1.0)
    with pytest.raises(ValueError):
        DgpSpec(rho=-1.2)
    with pytest.raises(ValueError):
        DgpSpec(noise_sd=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="noise_sd must be a finite number"):
            DgpSpec(noise_sd=bad)
    with pytest.raises(ValueError):
        DgpSpec(phi0="cubic")


def test_phi0_choices():
    x = np.linspace(0.0, 1.0, 9)
    assert np.allclose(phi0_callable(DgpSpec(phi0="square"))(x), x**2)
    assert np.allclose(phi0_callable(DgpSpec(phi0="linear"))(x), x)
    affine = phi0_callable(DgpSpec(phi0="affine_plus_exp"))(x)
    assert np.all(np.isfinite(affine))
    assert np.all(np.diff(affine) > 0)


# sqrt(int_0^1 phi0^2 + int_0^1 phi0'^2) for each choice. For affine_plus_exp,
# phi0 = (x - 1/4) + e^x / 4 and phi0' = 1 + e^x / 4, so the two integrals
# are 7/48 + (5 - e)/8 + (e^2 - 1)/32 and 1 + (e - 1)/2 + (e^2 - 1)/32.
_E = math.e
SOBOLEV_NORMS = {
    "square": math.sqrt(1 / 5 + 4 / 3),
    "linear": math.sqrt(1 / 3 + 1),
    "affine_plus_exp": math.sqrt(
        7 / 48 + (5 - _E) / 8 + (_E**2 - 1) / 32 + 1 + (_E - 1) / 2 + (_E**2 - 1) / 32
    ),
}


@pytest.mark.parametrize("size", [64, 128, 512])
@pytest.mark.parametrize("choice", PHI0_CHOICES)
def test_every_phi0_is_monotone_nonnegative_convex_and_normed_exactly(choice, size):
    # shape verdicts and Sobolev norms read phi0 through its polynomial
    # interpolant on the grid, which is this accurate only for an analytic phi0
    phi0 = phi0_on_grid(DgpSpec(phi0=choice), make_grid(size))
    assert check_shape(phi0, ConstraintSet(DEMO_SHAPES)) == (True, True, True)
    assert abs(sobolev_norm(phi0) - SOBOLEV_NORMS[choice]) <= 1e-13


def test_phi0_on_grid():
    g = make_grid(16)
    f = phi0_on_grid(DgpSpec(), g)
    np.testing.assert_allclose(f.values, g.nodes**2)
    assert f.grid is g


class TestSampling:
    def test_deterministic_in_seed(self):
        dgp = make_dgp(DgpSpec(rho=0.5, noise_sd=0.3))
        a = sample(dgp, 500, seed=9)
        b = sample(dgp, 500, seed=9)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)
        c = sample(dgp, 500, seed=10)
        assert not np.array_equal(a.x, c.x)

    def test_supports_and_noiseless_outcome(self):
        dgp = make_dgp(DgpSpec(rho=0.5))
        s = sample(dgp, 2000, seed=1)
        assert s.size == 2000
        assert np.all((s.x > 0) & (s.x < 1))
        assert np.all((s.z > 0) & (s.z < 1))
        np.testing.assert_allclose(s.y, s.x**2, rtol=1e-14)

    def test_noise_enters_outcome_only(self):
        quiet = sample(make_dgp(DgpSpec()), 300, seed=4)
        noisy = sample(make_dgp(DgpSpec(noise_sd=0.5)), 300, seed=4)
        np.testing.assert_array_equal(quiet.x, noisy.x)
        np.testing.assert_array_equal(quiet.z, noisy.z)
        assert np.abs(quiet.y - noisy.y).max() > 0.1

    def test_marginals_are_near_uniform(self):
        s = sample(make_dgp(DgpSpec(rho=0.8)), 20000, seed=2)
        assert abs(s.x.mean() - 0.5) < 0.01
        assert abs(s.z.mean() - 0.5) < 0.01
        assert np.corrcoef(s.x, s.z)[0, 1] > 0.5

    def test_independent_case_kills_dependence(self):
        s = sample(make_dgp(DgpSpec(rho=0.0)), 20000, seed=2)
        assert abs(np.corrcoef(s.x, s.z)[0, 1]) < 0.03

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sample(make_dgp(DgpSpec()), 0, seed=0)


def test_reduced_form_satisfies_moment_condition_exactly():
    """r = A phi0 is the quadrature of phi0 against the conditional density,
    normalized to unit mass per z node, and the criterion vanishes at phi0."""
    x = make_grid(128)
    z = make_grid(128)
    spec = DgpSpec(rho=0.5)
    dgp = make_dgp(spec)
    phi0 = phi0_on_grid(spec, x)
    A = discretize(dgp, x, z)
    r = apply(A, phi0)
    dens = dgp.f_x_given_z(x.nodes[None, :], z.nodes[:, None]) * x.weights
    np.testing.assert_allclose(r.values, dens @ phi0.values / dens.sum(axis=1), rtol=1e-13)
    assert q_infinity(A, phi0, r) == 0.0


def test_reduced_form_of_increasing_phi0_is_increasing():
    x = make_grid(96)
    z = make_grid(96)
    spec = DgpSpec(rho=0.5)
    r = apply(discretize(make_dgp(spec), x, z), phi0_on_grid(spec, x))
    assert np.all(np.diff(r.values) > 0)


def _same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def ndtri_battery() -> np.ndarray:
    """Inputs that reach every branch of ndtri and its clip: uniform draws,
    normal cdf values, log-uniform tail values down to 1e-300, the lattice
    midpoints, equally spaced points and Gauss-Legendre nodes (every size to
    100, then a stride and the sizes the package runs), these three clipped
    as ndtri clips them, the branch points exp(-2) and 1 - exp(-2) with
    their float neighbours, and the endpoints."""
    rng = np.random.default_rng(20260101)
    e2 = math.exp(-2.0)
    sizes = [*range(2, 101), *range(101, 1002, 50), 128, 256, 512, 1001]
    nodes = np.concatenate([
        (np.arange(512) + 0.5) / 512,
        np.linspace(0.0, 1.0, 1001),
        *(0.5 * (leggauss(n)[0] + 1.0) for n in sizes),
    ])
    return np.concatenate([
        rng.uniform(size=10**6),
        scipy.special.ndtr(rng.standard_normal(10**6)),
        scipy.special.ndtr(3.0 * rng.standard_normal(10**6)),
        10.0 ** rng.uniform(-300.0, 0.0, 10**5),
        np.clip(nodes, 1e-12, 1.0 - 1e-12),
        [np.nextafter(e2, 0.0), e2, np.nextafter(e2, 1.0)],
        [np.nextafter(1.0 - e2, 0.0), 1.0 - e2, np.nextafter(1.0 - e2, 1.0)],
        [0.0, 1.0, 0.5, 1e-300, 5e-324],
    ])


class TestNormalKernels:
    def test_ndtri_matches_scipy_byte_for_byte(self, ndtri_battery):
        p = ndtri_battery
        assert _same_bytes(ndtri(p), scipy.special.ndtri(np.clip(p, 1e-12, 1 - 1e-12)))

    def test_the_battery_runs_every_branch(self, ndtri_battery):
        p = ndtri_battery
        y = np.minimum(p, 1.0 - p)
        assert np.any(y > math.exp(-2.0))  # the centre rational
        assert np.any((y >= 1e-12) & (y <= math.exp(-2.0)))  # the tail rational
        assert math.sqrt(-2.0 * math.log(1e-12)) < 8.0  # no x >= 8 rational needed
        assert np.any(p > 1.0 - math.exp(-2.0)) and np.any(p < math.exp(-2.0))
        assert np.any(p < 1e-12) and np.any(p > 1.0 - 1e-12)  # beyond the clip

    def test_ndtri_endpoints_and_domain(self):
        low, high = ndtri(1e-12), ndtri(1.0 - 1e-12)
        assert _same_bytes(ndtri([0.0, 5e-324, 1e-300]), [low] * 3)
        assert _same_bytes(ndtri(1.0), high)
        assert ndtri(0.5) == 0.0
        assert _same_bytes(ndtri(0.3), scipy.special.ndtri(0.3))

    def test_ndtr_gives_scipys_bytes(self):
        rng = np.random.default_rng(7)
        v = np.concatenate([rng.standard_normal(10**6), 3.0 * rng.standard_normal(10**6)])
        v = np.concatenate([v, [-40.0, -38.0, 0.0, 38.0, -np.inf, np.inf]])
        # the kernel dgp.sample calls, loaded as the package loads it
        ndtr = _load_compiled("special", "_special_ufuncs").ndtr
        assert _same_bytes(ndtr(v), scipy.special.ndtr(v))

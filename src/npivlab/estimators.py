"""Estimators for the inverse problem A phi = r, stable and unstable.

Four routes are implemented on top of the discretized operator:

  * tir_estimate: Tikhonov-regularized least squares with the first-order
    Sobolev penalty, solved by the normal equations. Stable, with
    amplification bounded by 1/(2 sqrt(lambda)).
  * naive_estimate: minimum-norm least squares through a truncated SVD at
    machine tolerance. Faithful to the data and catastrophically unstable,
    since retained singular values reach the truncation floor.
  * constrained_estimate: the naive solver's unregularized least-squares
    objective under linear shape inequalities (nonnegativity, monotonicity,
    convexity) enforced at equally spaced inspection nodes, solved by a
    primal active-set method in the retained singular subspace with a KKT
    certificate.
  * sampled_plugin: kernel plug-in estimates of the operator and reduced
    form from a finite sample, feeding the same solvers.

solver_suite lists the solvers a table runs, and shifted_solves measures how
far each one's estimate moves when the reduced form moves: the one loop behind
the comparison table's and the stability probe's amplification columns.

All solves work in weighted coordinates u = sqrt(w_x) phi so that Euclidean
norms agree with the L2 norms of the function space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _load_compiled
from .counterexamples import MONOTONE, CounterexampleSpec, psi
from .function_space import (
    ConstraintSet,
    Grid,
    GridFunction,
    GridMismatchError,
    ShapeConstraint,
    _CHUNK_ROWS,
    _row_chunks,
    differentiation_matrix,
    l2_norm,
)
from .operators import SVD_TRUNCATION_RTOL, DiscreteOperator, apply, weighted_matrix

QP_MAX_ITERATIONS = 2000

# Perturbation index whose image stability_probe uses as a direction.
PROBE_PSI_INDEX = 50


def nnls(A: np.ndarray, b: np.ndarray, maxiter: int):
    """argmin ||A x - b|| over x >= 0, returning (x, rnorm): the same bytes as
    scipy.optimize.nnls, with the same input conversion before the compiled
    call. Raises RuntimeError when the iteration cap is reached."""
    A = np.asarray_chkfinite(A, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(b, dtype=np.float64)
    x, rnorm, info = _load_compiled("optimize", "_slsqplib").nnls(A, b, maxiter)
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return x, rnorm


class NumericalError(RuntimeError):
    """A solve failed for numerical reasons."""


class DegenerateSampleError(NumericalError):
    """The sample cannot support a kernel plug-in (zero spread or the
    estimated instrument density vanishes on most of the grid)."""


@dataclass(frozen=True, eq=False)
class EstimateResult:
    phi_hat: GridFunction
    kkt_residual: float
    condition_diagnostic: float
    converged: bool = True
    iterations: int = 0


def _weighted_system(A: DiscreteOperator, r: GridFunction):
    if r.grid != A.z_grid:
        raise GridMismatchError("r must live on the operator's z grid")
    M = weighted_matrix(A)
    sw = np.sqrt(A.x_grid.weights)
    rt = np.sqrt(A.fz_weights) * r.values
    return M, sw, rt


def _penalty_gram(grid: Grid) -> np.ndarray:
    """F^T F for the derivative F in the weighted coordinates, built once per
    grid, read-only; neither F nor D is kept."""

    def build():
        sw = np.sqrt(grid.weights)
        F = (sw[:, None] * differentiation_matrix(grid)) / sw[None, :]
        return F.T @ F

    return grid.memo("penalty_gram", build)


def tir_estimate(A: DiscreteOperator, r: GridFunction, lam: float) -> EstimateResult:
    """Tikhonov-regularized solve via the normal equations, 0 < lam < inf.

    Minimizes ||A phi - r||^2 (fz-weighted) + lam * ||phi||_{H^1}^2, the
    first-order Sobolev penalty. The system matrix M^T M + lam (I + F^T F)
    is symmetric positive definite with smallest eigenvalue at least lam.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"tir_estimate requires 0 < lam < inf, got {lam!r}")
    M, sw, rt = _weighted_system(A, r)
    # M^T M depends on the operator, F^T F on the x grid alone
    MtM = A.memo("gram", lambda: M.T @ M)
    FtF = _penalty_gram(A.x_grid)
    # H = (M^T M + lam I) + lam F^T F in one buffer, each entry rounded as in
    # that order: off the diagonal the identity adds nothing.
    H = np.multiply(FtF, lam)
    diag = MtM.diagonal() + lam
    diag += H.diagonal()
    H += MtM
    np.fill_diagonal(H, diag)
    b = M.T @ rt
    try:
        u = np.linalg.solve(H, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"normal equations solve failed: {exc}") from exc
    kkt = float(np.linalg.norm(H @ u - b))
    # H depends on the operator and lam only, not on r.
    smallest_eig = A.memo(
        ("tir_eigenvalue_floor", lam),
        lambda: float(np.linalg.eigvalsh(H)[0]),
    )
    return EstimateResult(
        phi_hat=GridFunction(A.x_grid, u / sw),
        kkt_residual=kkt,
        condition_diagnostic=smallest_eig,
    )


def naive_estimate(A: DiscreteOperator, r: GridFunction) -> EstimateResult:
    """Minimum-norm least squares through a truncated SVD.

    Truncation keeps singular values above 1e-12 relative to the largest,
    so the pseudo-inverse amplifies data perturbations by up to the
    reciprocal of the smallest retained value. condition_diagnostic reports
    that smallest retained singular value.
    """
    _, sw, rt = _weighted_system(A, r)
    f = A.svd
    J = f.rank
    u = f.Vt.T @ ((f.U.T @ rt) / f.s[:J])
    return EstimateResult(
        phi_hat=GridFunction(A.x_grid, u / sw),
        kkt_residual=0.0,
        condition_diagnostic=float(f.s[J - 1]),
    )


def _restricted_multipliers(Acon: np.ndarray, grad: np.ndarray, slack: np.ndarray):
    """Nonnegative multipliers supported on the near-active rows (nc > 0)."""
    scale = max(1.0, float(np.abs(slack).max()))
    active = slack <= 1e-7 * scale
    mu = np.zeros(Acon.shape[0])
    if active.any():
        try:
            mu_a, _ = nnls(Acon[active].T, grad, maxiter=max(600, 3 * Acon.shape[1] * 10))
        except RuntimeError:
            # nnls raises RuntimeError at its iteration cap
            mu_a = np.zeros(int(active.sum()))
        mu[np.nonzero(active)[0]] = mu_a
    return mu


def _solve_inequality_qp(S: np.ndarray, d: np.ndarray, Acon: np.ndarray, maxit: int):
    """min ||diag(S) y - d||^2 subject to Acon y >= 0, starting from y = 0.

    Primal active-set iteration with two safeguards for the degenerate
    geometry that arises here (hundreds of constraint rows meeting a low
    dimensional subspace): inner equality-constrained solves take the
    minimum-norm least-squares solution, and whenever a candidate point
    stalls, a nonnegative-least-squares fit of the gradient on the active
    rows either certifies optimality or supplies its residual as a strictly
    feasible descent direction (by the NNLS optimality conditions, the
    residual has nonnegative inner product with every active row).

    Returns (y, multipliers, iterations, converged); iterations is the loop
    step at which the solve stopped, maxit when it hit the cap.
    """
    nv = S.size
    nc = Acon.shape[0]
    y_unc = d / S
    if nc == 0 or float((Acon @ y_unc).min()) >= -1e-9:
        return y_unc, np.zeros(nc), 0, True
    y = np.zeros(nv)
    # working rows in the order they entered (the order of Acon[work] fixes
    # the QR's rounding)
    work: list[int] = []
    grad_scale = max(1.0, float(np.abs(2.0 * S * d).max()))
    best = (np.inf, y, np.zeros(nc))

    def fit(y):
        # multipliers at y, kept with y (never written to) if the best yet
        nonlocal best
        grad = 2.0 * S * (S * y - d)
        slack = Acon @ y
        mu = _restricted_multipliers(Acon, grad, slack)
        residual_dir = Acon.T @ mu - grad
        stat = float(np.abs(residual_dir).max())
        if stat < best[0]:
            best = (stat, y, mu)
        return grad, slack, mu, residual_dir, stat

    for it in range(1, maxit + 1):
        # a full working set leaves no free direction: the step is zero
        stalled = len(work) >= nv
        if not stalled:
            if work:
                Q, _ = np.linalg.qr(Acon[work].T, mode="complete")
                Z = Q[:, len(work):]
            else:
                Z = np.eye(nv)
            t, *_ = np.linalg.lstsq(S[:, None] * Z, d, rcond=SVD_TRUNCATION_RTOL)
            y_cand = Z @ t
            p = y_cand - y
            stalled = np.linalg.norm(p) <= 1e-11 * (1.0 + np.linalg.norm(y))
        if stalled:
            grad, slack, mu, residual_dir, stat = fit(y)
            if stat <= 1e-8 * grad_scale:
                return y, mu, it, True
            q = S * residual_dir
            # q @ q > (1e-20 * S[0])**2 > 0: stat > 1e-8 and each S > 1e-12 * S[0]
            step_unc = -float(grad @ residual_dir) / (2.0 * float(q @ q))
            along = Acon @ residual_dir
            # rows where the direction points inward only by NNLS rounding
            # noise are not treated as blocking
            thresh = -1e-9 * max(1.0, float(np.abs(along).max()))
            blocking = along < thresh
            ratios = np.maximum(-slack[blocking], 0.0) / (-along[blocking])
            alpha = min(step_unc, float(np.min(ratios, initial=np.inf)))
            # y is where mu was just fitted, so best already holds its certificate
            if alpha <= 1e-16:
                return best[1], best[2], it, False
            y = y + alpha * residual_dir
            work = []
            continue
        slack = Acon @ y
        along = Acon @ p
        mask = along < -1e-13
        mask[work] = False
        ratios = np.where(mask, -slack / np.where(mask, along, -1.0), np.inf)
        np.clip(ratios, 0.0, None, out=ratios)
        step_max = float(ratios.min())
        if step_max < 1.0:
            y = y + step_max * p
            entering = int(np.argmin(ratios))
            work.append(entering)
        else:
            y = y_cand
    fit(y)
    return best[1], best[2], maxit, False


def _qp_certificate(S, d, Acon, y, mu):
    grad = 2.0 * S * (S * y - d)
    slack = Acon @ y
    stat = float(np.abs(grad - Acon.T @ mu).max())
    feas = max(0.0, -float(slack.min(initial=0.0)))
    comp = float(np.abs(mu * slack).max(initial=0.0))
    dual = max(0.0, -float(mu.min(initial=0.0)))
    return max(stat, feas, comp, dual)


def constrained_estimate(
    A: DiscreteOperator,
    r: GridFunction,
    constraints: ConstraintSet,
) -> EstimateResult:
    """Shape-constrained least squares, no penalty, with a KKT certificate.

    Minimizes the data fit ||M u - rt||^2 (the naive solver's objective)
    subject to the constraint rows evaluated at the set's inspection nodes. The
    problem is projected onto the operator's retained singular subspace;
    within it the active-set solver returns a certified optimum or, if it
    stalls or hits the iteration cap, the best iterate found with
    converged = False and the honest residual.
    """
    _, sw, rt = _weighted_system(A, r)
    f = A.svd
    Sj = f.s[: f.rank]
    d = f.U.T @ rt
    V = f.Vt.T
    # V is the operator's own, so the rows depend on it and the set alone.
    A_red = A.memo(("constraint_rows", constraints), lambda: constraints.rows(A.x_grid, V))
    y, mu, iterations, converged = _solve_inequality_qp(Sj, d, A_red, QP_MAX_ITERATIONS)
    u = V @ y
    return EstimateResult(
        phi_hat=GridFunction(A.x_grid, u / sw),
        kkt_residual=_qp_certificate(Sj, d, A_red, y, mu),
        condition_diagnostic=float(Sj[-1]),
        converged=converged,
        iterations=iterations,
    )


def solver_suite(lambdas, constraints) -> list:
    """The solvers a table runs, as (name, lambda, solve) triples in table
    order, each called as solve(A, r): naive (lambda 0.0), Tikhonov at each of
    lambdas, then the unregularized constrained solve (lambda 0.0) when
    constraints is a ConstraintSet; None leaves it out."""
    suite = [("naive", 0.0, naive_estimate)]
    suite += [("tir", lam, partial(tir_estimate, lam=lam)) for lam in lambdas]
    if isinstance(constraints, ConstraintSet):
        solve = partial(constrained_estimate, constraints=constraints)
        suite.append(("constrained", 0.0, solve))
    return suite


def shifted_solves(A: DiscreteOperator, r: GridFunction, suite, shifts):
    """Solves once at r per solver of suite (from solver_suite), then, for
    each (key, shift) of shifts and each solver, at r.values + shift, yielding
    (key, name, lambda, base, est, movement): the results at r and at the
    shifted data, and movement = ||est - base|| in L2."""
    bases = [solve(A, r) for _, _, solve in suite]
    for key, shift in shifts:
        shifted = GridFunction(A.z_grid, r.values + shift)
        for (name, lam, solve), base in zip(suite, bases):
            est = solve(A, shifted)
            moved = GridFunction(A.x_grid, est.phi_hat.values - base.phi_hat.values)
            yield key, name, lam, base, est, l2_norm(moved)


def _gaussian_block(
    nodes: np.ndarray, obs: np.ndarray, h: float, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-0.5 ((nodes[i] - obs[j]) / h)^2), formed in one buffer (out, if given)."""
    out = np.subtract.outer(nodes, obs, out=out)
    out /= h
    np.square(out, out=out)
    out *= -0.5
    return np.exp(out, out=out)


def _product_with_x_block(
    gauss_z: np.ndarray, nodes: np.ndarray, obs: np.ndarray, h: float
) -> np.ndarray:
    """gauss_z @ _gaussian_block(nodes, obs, h).T, that block built and
    multiplied _CHUNK_ROWS nodes at a time, so it is never held whole."""
    out = np.empty((gauss_z.shape[0], nodes.size))
    slab = np.empty((min(_CHUNK_ROWS, nodes.size), obs.size))
    for chunk in _row_chunks(nodes.size):
        rows = slab[: chunk.stop - chunk.start]
        _gaussian_block(nodes[chunk], obs, h, out=rows)
        np.matmul(gauss_z, rows.T, out=out[:, chunk])
    return out


def sampled_plugin(sample, x_grid: Grid, z_grid: Grid):
    """Kernel plug-in operator and reduced form from a finite sample.

    The joint density of (X, Z) is estimated by a product-Gaussian kernel
    density estimator evaluated on the grid lattice, the instrument density
    by marginal integration over the x-quadrature, and the reduced form by
    Nadaraya-Watson regression of Y on Z at the z nodes. Kernel rows are
    renormalized to integrate to one. Nodes where the estimated instrument
    density falls below 1e-6 are flagged and get fz weight 0, so the flagged
    nodes are exactly those with ``fz_weights == 0``; if more than half the
    nodes are flagged the sample is declared degenerate. Both bandwidths
    follow the 1.06 * sigma * m^(-1/5) rule of thumb.

    Only the z Gaussian kernel block is ever whole. The x block feeds
    nothing but its product with the z block, so it is built and multiplied
    a slab of _CHUNK_ROWS x nodes at a time. On the benchmark's 128 x 128
    grids with m = 10^4 this is bit-equal to one product of the two whole
    blocks, at one BLAS thread and at the default count; on other shapes (a
    ragged last slab, say) it may differ at rounding level.
    """
    m = sample.size
    if m < 50:
        raise ValueError("sampled_plugin needs at least 50 observations")
    hx = 1.06 * float(np.std(sample.x)) * m**-0.2
    hz = 1.06 * float(np.std(sample.z)) * m**-0.2
    if not (hx > 1e-12 and hz > 1e-12):
        raise DegenerateSampleError("sample has (near) zero spread in x or z")
    gauss_z = _gaussian_block(z_grid.nodes, sample.z, hz)
    fxz_hat = _product_with_x_block(gauss_z, x_grid.nodes, sample.x, hx)
    fxz_hat *= 1.0 / (m * hx * hz * 2.0 * math.pi)
    fz_hat = fxz_hat @ x_grid.weights
    flagged = fz_hat < 1e-6
    if int(flagged.sum()) > z_grid.size // 2:
        raise DegenerateSampleError(
            f"estimated instrument density below threshold at "
            f"{int(flagged.sum())} of {z_grid.size} nodes"
        )
    K = fxz_hat * x_grid.weights[None, :]
    row_sums = K.sum(axis=1)
    dead = row_sums <= 0.0
    K[dead] = x_grid.weights[None, :]
    row_sums[dead] = 1.0
    K = K / row_sums[:, None]
    kernel_mass = gauss_z.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r_hat = np.where(kernel_mass > 0.0, (gauss_z @ sample.y) / kernel_mass, 0.0)
    fzw = z_grid.weights * fz_hat
    fzw[flagged] = 0.0
    op = DiscreteOperator(x_grid=x_grid, z_grid=z_grid, kernel_matrix=K, fz_weights=fzw)
    return op, GridFunction(z_grid, r_hat)


def _probe_directions(A: DiscreteOperator):
    fzw = A.fz_weights
    f = A.svd
    sqrt_fzw = np.sqrt(fzw)
    inv = np.where(sqrt_fzw > 0, 1.0 / np.where(sqrt_fzw > 0, sqrt_fzw, 1.0), 0.0)
    worst = f.U[:, -1] * inv

    direction = psi(CounterexampleSpec(MONOTONE, PROBE_PSI_INDEX), A.x_grid)
    image = apply(A, direction).values
    noise = np.random.default_rng(0).standard_normal(A.z_grid.size)

    # every fz-norm is > 0: U's columns vanish where fzw = 0, psi's image is < 0
    def fz_normalize(v):
        return v / math.sqrt(float(np.dot(fzw, v**2)))

    return {
        "worst_singular": fz_normalize(worst),
        "psi_image": fz_normalize(image),
        "white_noise": fz_normalize(noise),
    }


def stability_probe(
    A: DiscreteOperator,
    r: GridFunction,
    deltas,
    lam: float,
) -> list:
    """Amplification table ||phi_hat(r + delta v) - phi_hat(r)|| / delta.

    Probed directions: the retained singular direction with the smallest
    singular value, the image of a high-index perturbation sequence member,
    and seeded white noise, each normalized in the fz-weighted norm. Rows
    cover the naive solver, the Tikhonov solver at lam, and the
    unregularized solve under monotonicity. Tikhonov rows obey the
    operator-norm bound 1/(2 sqrt(lam)), so 0 < lam < inf is required; the
    constrained rows have no such bound, since the constraints bind only
    where the data push against them. Each delta must satisfy
    0 <= delta < inf (delta = 0 reports 0).

    Every row carries ``converged``: always True for the two closed-form
    solvers, and on constrained rows True only when both the solve at r and
    the solve at r + delta v converged.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"stability_probe requires 0 < lam < inf, got {lam!r}")
    deltas = list(deltas)
    for delta in deltas:
        if not 0 <= delta < math.inf:
            raise ValueError(f"stability_probe requires 0 <= delta < inf, got {delta!r}")
    directions = _probe_directions(A)
    cset = ConstraintSet(constraints=(ShapeConstraint("monotone_nondecreasing"),))
    shifts = [
        ((delta, dname), delta * v) for delta in deltas for dname, v in directions.items()
    ]
    return [
        {
            "delta": float(delta),
            "direction": dname,
            "solver": name,
            "amplification": float(movement / delta if delta > 0 else 0.0),
            "converged": base.converged and est.converged,
        }
        for (delta, dname), name, _, base, est, movement in shifted_solves(
            A, r, solver_suite((lam,), cset), shifts
        )
    ]

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
    convexity) enforced on a uniform inspection grid, solved by a primal
    active-set method in the retained singular subspace with a KKT
    certificate.
  * sampled_plugin: kernel plug-in estimates of the operator and reduced
    form from a finite sample, feeding the same solvers.

All solves work in weighted coordinates u = sqrt(w_x) phi so that Euclidean
norms agree with the L2 norms of the function space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import nnls

from .counterexamples import MONOTONE, CounterexampleSpec, psi
from .function_space import (
    Grid,
    GridFunction,
    ShapeConstraint,
    default_inspection_grid,
    differentiation_matrix,
    l2_norm,
    resample_matrix,
)
from .operators import (
    SVD_TRUNCATION_RTOL,
    DiscreteOperator,
    _read_only,
    apply,
    weighted_matrix,
)

QP_MAX_ITERATIONS = 2000

# Perturbation index whose image stability_probe uses as a direction.
PROBE_PSI_INDEX = 50


class NumericalError(RuntimeError):
    """A solve failed for numerical reasons."""


class DegenerateSampleError(NumericalError):
    """The sample cannot support a kernel plug-in (zero spread or the
    estimated instrument density vanishes on most of the grid)."""


@dataclass(frozen=True)
class ConstraintSet:
    """Shape constraints enforced as linear inequalities on grid values.

    Each constraint contributes the rows of an m-th order difference matrix
    applied to the estimate's values on the inspection grid, which must
    hold at least m + 2 nodes.
    """

    constraints: tuple
    inspection_grid: Grid = field(default_factory=default_inspection_grid)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for c in self.constraints:
            if not isinstance(c, ShapeConstraint):
                raise ValueError("constraints must be ShapeConstraint instances")
            if self.inspection_grid.size < c.difference_order + 2:
                raise ValueError(
                    f"inspection grid of size {self.inspection_grid.size} is "
                    f"too small for constraint {c.name!r}"
                )

    def rows(self, x_grid: Grid, basis: np.ndarray) -> np.ndarray:
        """Stacked inequality rows acting on coefficients in ``basis``.

        basis holds, as columns, directions in the weighted coordinates
        u = sqrt(w_x) phi on x_grid. Each constraint's block is built and
        reduced on its own, so no full inspection-by-x_grid stack is formed.
        """
        R = resample_matrix(x_grid, self.inspection_grid.nodes)
        sw = np.sqrt(x_grid.weights)

        def block(m):
            # divided in place (R itself is shared and read-only); D dies on
            # return, so no two full-size blocks are alive at once
            D = np.diff(R, n=m, axis=0) if m > 0 else R.copy()
            D /= sw
            return D @ basis

        blocks = [block(c.difference_order) for c in self.constraints]
        return np.vstack(blocks) if blocks else np.zeros((0, basis.shape[1]))


@dataclass(frozen=True)
class EstimateResult:
    phi_hat: GridFunction
    objective: float
    kkt_residual: float
    condition_diagnostic: float
    converged: bool = True
    iterations: int = 0


def _weighted_system(A: DiscreteOperator, r: GridFunction):
    if not r.grid.same_as(A.z_grid):
        raise ValueError("r must live on the operator's z grid")
    M = weighted_matrix(A)
    sw = np.sqrt(A.x_grid.weights)
    rt = np.sqrt(A.fz_weights) * r.values
    return M, sw, rt


def _derivative_form(A: DiscreteOperator) -> np.ndarray:
    # derivative operator expressed in the weighted coordinates
    sw = np.sqrt(A.x_grid.weights)
    D = differentiation_matrix(A.x_grid)
    return (sw[:, None] * D) / sw[None, :]


def _penalty_form(A: DiscreteOperator) -> np.ndarray:
    """F = _derivative_form(A), built once per operator, read-only."""
    return A.memo("derivative_form", lambda: _read_only(_derivative_form(A)))


def _tikhonov_grams(A: DiscreteOperator):
    """(M^T M, F^T F), built once per operator, read-only."""

    def build():
        M = weighted_matrix(A)
        F = _penalty_form(A)
        return _read_only(M.T @ M), _read_only(F.T @ F)

    return A.memo("tikhonov_grams", build)


def tir_estimate(A: DiscreteOperator, r: GridFunction, lam: float) -> EstimateResult:
    """Tikhonov-regularized solve via the normal equations, 0 < lam < inf.

    Minimizes ||A phi - r||^2 (fz-weighted) + lam * ||phi||_{H^1}^2, the
    first-order Sobolev penalty. The system matrix M^T M + lam (I + F^T F)
    is symmetric positive definite with smallest eigenvalue at least lam.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"tir_estimate requires 0 < lam < inf, got {lam!r}")
    M, sw, rt = _weighted_system(A, r)
    F = _penalty_form(A)
    MtM, FtF = _tikhonov_grams(A)
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
    fit = float(np.linalg.norm(M @ u - rt) ** 2)
    pen = float(u @ u) + float(np.linalg.norm(F @ u) ** 2)
    # H depends on the operator and lam only, not on r.
    smallest_eig = A.memo(
        ("tir_eigenvalue_floor", lam),
        lambda: float(np.linalg.eigvalsh(H)[0]),
    )
    return EstimateResult(
        phi_hat=GridFunction(A.x_grid, u / sw),
        objective=fit + lam * pen,
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
    M, sw, rt = _weighted_system(A, r)
    f = A.svd
    J = f.rank
    if J == 0:
        u = np.zeros(M.shape[1])
        sigma_min = 0.0
    else:
        coeffs = (f.U[:, :J].T @ rt) / f.s[:J]
        u = f.Vt[:J].T @ coeffs
        sigma_min = float(f.s[J - 1])
    fit = float(np.linalg.norm(M @ u - rt) ** 2)
    return EstimateResult(
        phi_hat=GridFunction(A.x_grid, u / sw),
        objective=fit,
        kkt_residual=0.0,
        condition_diagnostic=sigma_min,
    )


def _restricted_multipliers(Acon: np.ndarray, grad: np.ndarray, slack: np.ndarray):
    """Nonnegative multipliers supported on the near-active rows."""
    scale = max(1.0, float(np.abs(slack).max()) if slack.size else 1.0)
    active = slack <= 1e-7 * scale
    mu = np.zeros(Acon.shape[0])
    if active.any():
        try:
            mu_a, _ = nnls(Acon[active].T, grad, maxiter=max(600, 3 * Acon.shape[1] * 10))
        except RuntimeError:
            # scipy's nnls reports its iteration cap this way
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
    # the QR's rounding), and the same rows as a mask
    work: list[int] = []
    in_work = np.zeros(nc, dtype=bool)
    grad_scale = max(1.0, float(np.abs(2.0 * S * d).max()))
    best = (np.inf, y.copy(), np.zeros(nc))
    for it in range(1, maxit + 1):
        if len(work) >= nv:
            Z = np.zeros((nv, 0))
        elif work:
            Q, _ = np.linalg.qr(Acon[work].T, mode="complete")
            Z = Q[:, len(work):]
        else:
            Z = np.eye(nv)
        if Z.shape[1]:
            t, *_ = np.linalg.lstsq(S[:, None] * Z, d, rcond=SVD_TRUNCATION_RTOL)
            y_cand = Z @ t
        else:
            y_cand = y
        p = y_cand - y
        if np.linalg.norm(p) <= 1e-11 * (1.0 + np.linalg.norm(y)):
            grad = 2.0 * S * (S * y - d)
            slack = Acon @ y
            mu = _restricted_multipliers(Acon, grad, slack)
            residual_dir = Acon.T @ mu - grad
            stat = float(np.abs(residual_dir).max())
            if stat < best[0]:
                best = (stat, y.copy(), mu.copy())
            if stat <= 1e-8 * grad_scale:
                return y, mu, it, True
            q = S * residual_dir
            denom = 2.0 * float(q @ q)
            # Both exits below leave y where mu was just fitted, so best
            # already holds the certificate a final fit would give.
            if denom <= 0.0:
                return best[1], best[2], it, False
            step_unc = -float(grad @ residual_dir) / denom
            along = Acon @ residual_dir
            # rows where the direction points inward only by NNLS rounding
            # noise are not treated as blocking
            thresh = -1e-9 * max(1.0, float(np.abs(along).max()))
            blocking = along < thresh
            if blocking.any():
                step_max = float(
                    np.min(np.maximum(-slack[blocking], 0.0) / (-along[blocking]))
                )
            else:
                step_max = np.inf
            alpha = min(step_unc, step_max)
            if not np.isfinite(alpha) or alpha <= 1e-16:
                return best[1], best[2], it, False
            y = y + alpha * residual_dir
            work = []
            in_work[:] = False
            continue
        slack = Acon @ y
        along = Acon @ p
        mask = (along < -1e-13) & (~in_work)
        if mask.any():
            ratios = np.where(mask, -slack / np.where(mask, along, -1.0), np.inf)
            np.clip(ratios, 0.0, None, out=ratios)
            step_max = float(ratios.min())
        else:
            step_max = np.inf
        if step_max < 1.0:
            y = y + step_max * p
            if len(work) >= nv:
                grad = 2.0 * S * (S * y - d)
                mu_w, *_ = np.linalg.lstsq(Acon[work].T, grad, rcond=None)
                in_work[work.pop(int(np.argmin(mu_w)))] = False
            entering = int(np.argmin(ratios))
            work.append(entering)
            in_work[entering] = True
        else:
            y = y_cand
    grad = 2.0 * S * (S * y - d)
    slack = Acon @ y
    mu = _restricted_multipliers(Acon, grad, slack)
    stat = float(np.abs(Acon.T @ mu - grad).max())
    if stat < best[0]:
        best = (stat, y, mu)
    return best[1], best[2], maxit, False


def _qp_certificate(S, d, Acon, y, mu):
    grad = 2.0 * S * (S * y - d)
    slack = Acon @ y if Acon.shape[0] else np.zeros(0)
    stat = float(np.abs(grad - Acon.T @ mu).max()) if Acon.shape[0] else float(
        np.abs(grad).max()
    )
    feas = float(max(0.0, -slack.min())) if slack.size else 0.0
    comp = float(np.abs(mu * slack).max()) if slack.size else 0.0
    dual = float(max(0.0, -mu.min())) if mu.size else 0.0
    return max(stat, feas, comp, dual)


def constrained_estimate(
    A: DiscreteOperator,
    r: GridFunction,
    constraints: ConstraintSet,
    maxit: int = QP_MAX_ITERATIONS,
) -> EstimateResult:
    """Shape-constrained least squares, no penalty, with a KKT certificate.

    Minimizes the data fit ||M u - rt||^2 (the naive solver's objective)
    subject to the constraint rows evaluated on the inspection grid. The
    problem is projected onto the operator's retained singular subspace;
    within it the active-set solver returns a certified optimum or, if it
    stalls or hits the iteration cap, the best iterate found with
    converged = False and the honest residual.
    """
    M, sw, rt = _weighted_system(A, r)
    f = A.svd
    J = f.rank
    if J == 0:
        return EstimateResult(
            phi_hat=GridFunction(A.x_grid, np.zeros(M.shape[1])),
            objective=float(rt @ rt),
            kkt_residual=0.0,
            condition_diagnostic=0.0,
        )
    Sj = f.s[:J]
    d = f.U[:, :J].T @ rt
    V = f.Vt[:J].T
    # V is the operator's own, so the rows depend on it and the set alone.
    # A Grid holds arrays, so the set is keyed by value, not hashed.
    grid = constraints.inspection_grid
    A_red = A.memo(
        ("constraint_rows", constraints.constraints, grid.rule, grid.nodes.tobytes()),
        lambda: _read_only(constraints.rows(A.x_grid, V)),
    )
    y, mu, iterations, converged = _solve_inequality_qp(Sj, d, A_red, maxit)
    u = V @ y
    return EstimateResult(
        phi_hat=GridFunction(A.x_grid, u / sw),
        objective=float(np.linalg.norm(M @ u - rt) ** 2),
        kkt_residual=_qp_certificate(Sj, d, A_red, y, mu),
        condition_diagnostic=float(Sj[-1]),
        converged=converged,
        iterations=iterations,
    )


def _gaussian_block(
    nodes: np.ndarray, obs: np.ndarray, h: float, out: np.ndarray | None = None
) -> np.ndarray:
    """exp(-0.5 ((nodes[i] - obs[j]) / h)^2), formed in one buffer (out, if given)."""
    out = np.subtract.outer(nodes, obs, out=out)
    out /= h
    np.square(out, out=out)
    out *= -0.5
    return np.exp(out, out=out)


def _check_work(work, shapes) -> None:
    """Reject a kernel-block buffer pair that sampled_plugin cannot fill."""
    if len(work) != 2 or not all(
        isinstance(buf, np.ndarray)
        and buf.shape == shape
        and buf.dtype == np.float64
        and buf.flags.c_contiguous
        for buf, shape in zip(work, shapes)
    ):
        raise ValueError(
            f"work must be two C-contiguous float64 arrays of shapes {shapes}"
        )
    if np.may_share_memory(*work):
        raise ValueError("work buffers must not overlap")


def sampled_plugin(sample, x_grid: Grid, z_grid: Grid, h_x=None, h_z=None, work=None):
    """Kernel plug-in operator and reduced form from a finite sample.

    The joint density of (X, Z) is estimated by a product-Gaussian kernel
    density estimator evaluated on the grid lattice, the instrument density
    by marginal integration over the x-quadrature, and the reduced form by
    Nadaraya-Watson regression of Y on Z at the z nodes. Kernel rows are
    renormalized to integrate to one. Nodes where the estimated instrument
    density falls below 1e-6 are flagged and excluded from the fz weights;
    if more than half the nodes are flagged the sample is declared
    degenerate. Bandwidths h_x, h_z default to the 1.06 * sigma * m^(-1/5)
    rule of thumb.

    When work is given, a pair of distinct C-contiguous float64 arrays of
    shapes (x_grid.size, m) and (z_grid.size, m), the two Gaussian kernel
    blocks are built in it instead of in fresh arrays. It is scratch:
    nothing returned refers to it, and each thread needs its own pair.
    """
    m = sample.size
    if m < 50:
        raise ValueError("sampled_plugin needs at least 50 observations")
    if work is None:
        work = (None, None)
    else:
        _check_work(work, ((x_grid.size, m), (z_grid.size, m)))
    for h in (h_x, h_z):
        if h is not None and not 0 < h < math.inf:
            raise ValueError(f"bandwidths must be positive and finite, got {h!r}")
    hx = h_x if h_x is not None else 1.06 * float(np.std(sample.x)) * m**-0.2
    hz = h_z if h_z is not None else 1.06 * float(np.std(sample.z)) * m**-0.2
    if not (hx > 1e-12 and hz > 1e-12):
        raise DegenerateSampleError("sample has (near) zero spread in x or z")
    gauss_x = _gaussian_block(x_grid.nodes, sample.x, hx, out=work[0])
    gauss_z = _gaussian_block(z_grid.nodes, sample.z, hz, out=work[1])
    norm = 1.0 / (m * hx * hz * 2.0 * math.pi)
    fxz_hat = norm * (gauss_z @ gauss_x.T)
    fz_hat = fxz_hat @ x_grid.weights
    flagged = fz_hat < 1e-6
    kernel_mass = gauss_z.sum(axis=1)
    flagged = flagged | (kernel_mass <= 0.0)
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
    with np.errstate(invalid="ignore", divide="ignore"):
        r_hat = np.where(kernel_mass > 0.0, (gauss_z @ sample.y) / kernel_mass, 0.0)
    fzw = z_grid.weights * fz_hat
    fzw[flagged] = 0.0
    op = DiscreteOperator(
        x_grid=x_grid,
        z_grid=z_grid,
        kernel_matrix=K,
        fz_weights=fzw,
        flagged_z=flagged,
    )
    return op, GridFunction(z_grid, r_hat)


def _probe_directions(A: DiscreteOperator):
    fzw = A.fz_weights
    f = A.svd
    sqrt_fzw = np.sqrt(fzw)
    inv = np.where(sqrt_fzw > 0, 1.0 / np.where(sqrt_fzw > 0, sqrt_fzw, 1.0), 0.0)
    worst = f.U[:, max(f.rank, 1) - 1] * inv

    direction = psi(CounterexampleSpec(MONOTONE, PROBE_PSI_INDEX), A.x_grid)
    image = apply(A, direction).values
    noise = np.random.default_rng(0).standard_normal(A.z_grid.size)

    def fz_normalize(v):
        nrm = math.sqrt(float(np.dot(fzw, v**2)))
        return v / nrm if nrm > 0 else v

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
    solvers = {
        "naive": lambda rr: naive_estimate(A, rr),
        "tir": lambda rr: tir_estimate(A, rr, lam),
        "constrained": lambda rr: constrained_estimate(A, rr, cset),
    }
    base = {name: solve(r) for name, solve in solvers.items()}
    rows = []
    for delta in deltas:
        for dname, v in directions.items():
            for sname, solve in solvers.items():
                if delta == 0:
                    amp = 0.0
                    moved = base[sname]
                else:
                    shifted = GridFunction(A.z_grid, r.values + delta * v)
                    moved = solve(shifted)
                    diff = GridFunction(
                        A.x_grid,
                        moved.phi_hat.values - base[sname].phi_hat.values,
                    )
                    amp = l2_norm(diff) / delta
                rows.append(
                    {
                        "delta": float(delta),
                        "direction": dname,
                        "solver": sname,
                        "amplification": float(amp),
                        "converged": base[sname].converged and moved.converged,
                    }
                )
    return rows

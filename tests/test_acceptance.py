"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single machine-greppable verdict line (run pytest with
-s to see the lines for passing criteria as well). Two criteria encode
targets the continuum mathematics provably exceeds at these grid sizes and
perturbation indices; they fail honestly with the measured values and the
mechanism in the verdict line rather than being weakened. The README's
testing section summarizes both.
"""

import math

import numpy as np
import pytest

from npivlab.counterexamples import (
    FAMILIES,
    MONOTONE,
    CounterexampleSpec,
    analytic_sobolev_norm,
    analytic_sup_A_psi_bound,
    psi,
)
from npivlab.dgp import DgpSpec, make_dgp, phi0_on_grid
from npivlab.estimators import (
    ConstraintSet,
    constrained_estimate,
    stability_probe,
)
from npivlab.function_space import (
    GridFunction,
    ShapeConstraint,
    check_shape,
    l2_norm,
    make_grid,
    sobolev_norm,
)
from npivlab.harness import (
    COMPARISON_N_VALUES,
    ExperimentConfig,
    emit_csv,
    run_illposedness_demo,
    run_montecarlo,
)
from npivlab.operators import apply, discretize, svd_report

EPS = 0.1


def verdict(number: int, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def demo_rho_half():
    cfg = ExperimentConfig(
        experiment="illposedness_demo",
        dgp=DgpSpec(rho=0.5),
        family="monotone",
        n_max=100,
        epsilon=EPS,
        ball_radius=0.5,
    )
    return run_illposedness_demo(cfg)


@pytest.fixture(scope="module")
def constrained_solves():
    """Zero-lambda constrained solves under perturbed reduced forms.

    Shared between the regularization-contrast and KKT-certificate
    criteria so the QP work runs once.
    """
    x = make_grid(128)
    z = make_grid(128)
    spec = DgpSpec(rho=0.5)
    A = discretize(make_dgp(spec), x, z)
    phi0 = phi0_on_grid(spec, x)
    r = apply(A, phi0)
    cset = ConstraintSet(constraints=(ShapeConstraint("monotone_nondecreasing"),))
    solves = {}
    for n in COMPARISON_N_VALUES:
        shift = EPS * apply(A, psi(CounterexampleSpec(MONOTONE, n), x)).values
        r_n = GridFunction(z, r.values + shift)
        solves[n] = constrained_estimate(A, r_n, cset)
    return x, z, A, phi0, r, solves


def test_criterion_1_unit_norms():
    grid = make_grid(128)
    worst = 0.0
    for family in FAMILIES:
        for n in range(101):
            norm = l2_norm(psi(CounterexampleSpec(family, n), grid))
            worst = max(worst, abs(norm - 1.0))
    ok = worst < 1e-9
    assert verdict(1, ok, f"max |norm - 1| = {worst:.3e} over both families, n <= 100")


def test_criterion_2_proof_bound():
    x = make_grid(128)
    z = make_grid(128)
    worst_ratio = 0.0
    for rho in (0.0, 0.5, 0.9):
        dgp = make_dgp(DgpSpec(rho=rho))
        A = discretize(dgp, x, z)
        for n in range(101):
            spec = CounterexampleSpec(MONOTONE, n)
            sup = float(np.abs(apply(A, psi(spec, x)).values).max())
            bound = analytic_sup_A_psi_bound(spec, dgp.sup_fxz)
            worst_ratio = max(worst_ratio, sup / bound)
    ok = worst_ratio <= 1.0 + 1e-8
    assert verdict(2, ok, f"max sup/bound = {worst_ratio:.12f} over rho in (0, 0.5, 0.9)")


def test_criterion_3_illposedness_exhibit(demo_rho_half):
    q = demo_rho_half.column("q_infty")
    dist = demo_rho_half.column("l2_dist")
    flags = demo_rho_half.column("monotone_ok")
    dist_ok = max(abs(d - EPS) for d in dist) < 1e-9
    ratio = q[1] / q[100]
    collapse_ok = q[100] < q[1] / 50
    flags_ok = all(flags)
    ok = dist_ok and collapse_ok and flags_ok
    assert verdict(
        3,
        ok,
        f"l2_dist pinned: {dist_ok}, flags: {flags_ok}, "
        f"q(1)/q(100) = {ratio:.3f} vs required > 50 "
        f"(the criterion sequence decays like 1/n, reaching 50 needs n ~ 500)",
    )


def test_criterion_4_independent_closed_form():
    cfg = ExperimentConfig(
        experiment="illposedness_demo",
        dgp=DgpSpec(rho=0.0),
        family="monotone",
        n_max=100,
        epsilon=EPS,
        ball_radius=0.5,
    )
    table = run_illposedness_demo(cfg)
    worst = 0.0
    for n, q in zip(table.column("n"), table.column("q_infty")):
        worst = max(worst, abs(q - EPS**2 * (2 * n + 1) / (n + 1) ** 2))
    ok = worst < 1e-10
    assert verdict(4, ok, f"max |q - closed form| = {worst:.3e} for n <= 100")


def test_criterion_5_compactness_diagnostic():
    dgp = make_dgp(DgpSpec(rho=0.5))
    s64 = svd_report(discretize(dgp, make_grid(64), make_grid(64))).singular_values
    s128 = svd_report(discretize(dgp, make_grid(128), make_grid(128))).singular_values
    ratio = s64[31] / s64[0]
    ratio_ok = ratio < 1e-8
    drift = float(np.abs(s64[:10] - s128[:10]).max())
    stable_ok = drift < 1e-8
    ok = ratio_ok and stable_ok
    assert verdict(
        5,
        ok,
        f"sigma_32/sigma_1 = {ratio:.3e} (ok: {ratio_ok}); leading-10 drift "
        f"64->128 = {drift:.3e} vs 1e-8 (ok: {stable_ok}; the edge-singular "
        f"continuum eigenfunctions keep quadrature convergence at ~5e-3 here)",
    )


def test_criterion_6_regularization_contrast(constrained_solves):
    x, z, A, phi0, r, solves = constrained_solves
    floor_ok = True
    floor_detail = []
    for n in (20, 50, 100):
        err = l2_norm(GridFunction(x, solves[n].phi_hat.values - phi0.values))
        floor_detail.append(f"n={n}: {err:.4f}")
        floor_ok = floor_ok and err >= 0.5 * EPS
    probe = stability_probe(A, r, [1e-6], 1e-4)
    bound = 1.0 / (2.0 * math.sqrt(1e-4))
    tir_rows = [row for row in probe if row["solver"] == "tir"]
    amp = max(row["amplification"] for row in tir_rows)
    amp_ok = amp <= bound
    ok = floor_ok and amp_ok
    assert verdict(
        6,
        ok,
        f"constrained error floor 0.05: {', '.join(floor_detail)}; "
        f"max TiR amplification {amp:.3f} <= {bound:.0f}: {amp_ok}",
    )


def test_criterion_7_sobolev_divergence():
    grid = make_grid(128)
    worst = 0.0
    increasing = True
    for family in FAMILIES:
        previous = None
        for n in range(51):
            spec = CounterexampleSpec(family, n)
            measured = sobolev_norm(psi(spec, grid))
            worst = max(worst, abs(measured - analytic_sobolev_norm(spec)))
            if previous is not None and measured <= previous:
                increasing = False
            previous = measured
    ok = worst < 1e-8 and increasing
    assert verdict(
        7,
        ok,
        f"max |measured - analytic| = {worst:.3e} (n <= 50, both families); "
        f"strictly increasing: {increasing}",
    )


def test_criterion_8_kkt_certificates(constrained_solves):
    x, _, _, _, _, solves = constrained_solves
    worst_kkt = max(result.kkt_residual for result in solves.values())
    relaxed = ShapeConstraint("monotone_nondecreasing", tolerance=1e-6)
    shapes_ok = all(
        bool(check_shape(result.phi_hat, relaxed)) for result in solves.values()
    )
    converged = all(result.converged for result in solves.values())
    ok = worst_kkt <= 1e-6 and shapes_ok and converged
    assert verdict(
        8,
        ok,
        f"max kkt residual = {worst_kkt:.3e} over {len(solves)} solves; "
        f"shapes at 1e-6: {shapes_ok}; converged: {converged}",
    )


def test_criterion_9_reproducibility(tmp_path):
    cfg = ExperimentConfig(
        experiment="montecarlo",
        dgp=DgpSpec(rho=0.5),
        lambdas=(1e-3,),
        replications=20,
        sample_size=10_000,
        seed=7,
    )

    def emit(name):
        path = tmp_path / name
        emit_csv(run_montecarlo(cfg), path)
        return [
            line
            for line in path.read_bytes().split(b"\r\n")
            if not line.startswith(b"# timestamp")
        ]

    first = emit("first.csv")
    second = emit("second.csv")
    ok = first == second
    assert verdict(
        9,
        ok,
        f"two runs, {len(first)} lines compared after dropping the "
        f"timestamp: {'identical' if ok else 'differ'}",
    )

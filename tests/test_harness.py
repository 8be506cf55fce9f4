import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from npivlab import function_space
from npivlab.dgp import DgpSpec, make_dgp
from npivlab.estimators import DegenerateSampleError
from npivlab.function_space import ConstraintSet, ShapeConstraint, make_grid, sobolev_norm
from npivlab.harness import (
    DEMO_SHAPES,
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
from npivlab.dgp import phi0_on_grid
from npivlab.function_space import Grid, GridFunction
from npivlab.operators import discretize, svd_report


def demo_config(**overrides):
    base = dict(
        experiment="illposedness_demo",
        dgp=DgpSpec(rho=0.0),
        family="monotone",
        n_max=100,
        epsilon=0.1,
        ball_radius=0.5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def demo_independent():
    return run_illposedness_demo(demo_config())


@pytest.fixture(scope="module")
def demo_dependent():
    return run_illposedness_demo(demo_config(dgp=DgpSpec(rho=0.5)))


@pytest.fixture(scope="module")
def comparison():
    cfg = ExperimentConfig(
        experiment="estimator_comparison",
        dgp=DgpSpec(rho=0.5),
        lambdas=(1e-4,),
        constraints=("monotone_nondecreasing",),
        n_max=100,
        epsilon=0.1,
        ball_radius=0.5,
    )
    return cfg, run_estimator_comparison(cfg)


class TestConfigValidation:
    def test_each_rule_gets_its_own_message(self):
        cases = [
            (dict(experiment="bogus"), "unknown experiment"),
            (dict(dgp="not a spec"), "dgp must be a DgpSpec"),
            (dict(family="weird"), "unknown family"),
            (dict(quadrature_size=1), "must be at least 2"),
            (dict(inspection_size=2), "inspection_size must be at least 4"),
            (dict(n_max=-1), "n_max must be nonnegative"),
            (dict(n_max=300), "n_max must not exceed 200"),
            (dict(ball_radius=0.0), "ball_radius must be positive"),
            (dict(epsilon=0.0), "epsilon must be positive"),
            (
                dict(epsilon=0.5, ball_radius=0.5),
                "epsilon must lie strictly inside the ball",
            ),
            (dict(lambdas=()), "lambdas must contain at least one value"),
            (dict(lambdas=(1e-4, -1.0)), "Tikhonov lambda values must be positive"),
            (dict(lambdas=(1e-4, 1e-4)), "lambdas must be distinct"),
            (dict(constraints=("wiggly",)), "unknown constraint name"),
            (dict(replications=0), "replications must be at least 1"),
        ]
        for overrides, fragment in cases:
            with pytest.raises(ConfigError, match=fragment):
                demo_config(**overrides)

    def test_montecarlo_sample_size_floor(self):
        with pytest.raises(ConfigError, match="sample_size must be at least 50"):
            ExperimentConfig(
                experiment="montecarlo", dgp=DgpSpec(rho=0.5), sample_size=10
            )

    def test_epsilon_strictly_inside_ball_is_accepted(self):
        cfg = demo_config(epsilon=0.499, ball_radius=0.5)
        assert cfg.epsilon == 0.499

    def test_derivative_sign_constraints_parse(self):
        raw = {"experiment": "estimator_comparison", "constraints": ["derivative_sign_3"]}
        assert config_from_mapping(raw).constraints == ("derivative_sign_3",)
        # one spelling per order, so the "# constraints" echo names the
        # constraint that ran
        for bad in (
            "derivative_sign_0",
            "derivative_sign",
            "convex_1",
            3,
            "derivative_sign_03",
            "derivative_sign_\u0663",
            "derivative_sign_+3",
        ):
            with pytest.raises(ConfigError) as excinfo:
                config_from_mapping(dict(raw, constraints=["convex", bad]))
            assert str(excinfo.value) == f"unknown constraint name {bad!r}"

    def test_an_order_too_long_for_any_grid_is_a_config_error_naming_it(self):
        name = "derivative_sign_1" + "0" * 4300
        raw = {"experiment": "estimator_comparison", "constraints": ["convex", name]}
        with pytest.raises(ConfigError) as excinfo:
            config_from_mapping(raw)
        assert str(excinfo.value) == (
            f"constraint {name!r} has a difference order of more than 18 digits, "
            "which no inspection grid can hold"
        )

    @pytest.mark.parametrize(
        "name",
        ["nonnegative", "monotone_nondecreasing", "convex", "derivative_sign_3"],
    )
    def test_constraint_names_round_trip(self, name):
        # a config's name is the constraint's name, and it sets the difference
        # order: the comparison's set needs order + 2 nodes, the demo's 4
        order = {"nonnegative": 0, "monotone_nondecreasing": 1, "convex": 2}.get(name, 3)
        assert ShapeConstraint(name).name == name
        assert ShapeConstraint(name).difference_order == order
        needed = max(order, 2) + 2
        raw = {"experiment": "svd_report", "constraints": [name]}
        cfg = config_from_mapping(dict(raw, inspection_size=needed))
        assert cfg.constraints == (name,)
        with pytest.raises(ConfigError, match=f"at least {needed}"):
            config_from_mapping(dict(raw, inspection_size=needed - 1))

    @pytest.mark.parametrize(
        "out", ["a\n# fake = 1\nn,evil\n1,2.csv", "a\r.csv", "a.csv\r\n"]
    )
    def test_out_with_a_line_break_is_rejected(self, out):
        # the path is echoed into the "# out = ..." metadata line, where a
        # line break would start a forged metadata line or header row
        with pytest.raises(ConfigError, match="out must not contain a line break"):
            config_from_mapping({"experiment": "svd_report", "out": out})

    def test_wrong_experiment_for_runner(self):
        with pytest.raises(ConfigError, match="config is for experiment"):
            run_svd_report(demo_config())


class TestIllposednessDemo:
    def test_row_count_and_columns(self, demo_independent):
        assert len(demo_independent.rows) == 101
        assert demo_independent.columns == (
            "n",
            "l2_dist",
            "q_infty",
            "analytic_bound",
            "sup_A_psi",
            "sobolev_norm_phi_n",
            "monotone_ok",
            "nonneg_ok",
            "convex_ok",
        )

    def test_independent_case_matches_closed_form(self, demo_independent):
        q = demo_independent.column("q_infty")
        for n, value in zip(demo_independent.column("n"), q):
            expected = 0.01 * (2 * n + 1) / (n + 1) ** 2
            assert abs(value - expected) < 1e-10

    def test_perturbations_stay_on_the_epsilon_sphere(self, demo_independent):
        for value in demo_independent.column("l2_dist"):
            assert abs(value - 0.1) < 1e-9

    def test_criterion_collapses_while_distance_does_not(self, demo_independent):
        q = demo_independent.column("q_infty")
        assert q[-1] < q[0] / 50

    def test_criterion_nonincreasing_after_index_five(self, demo_dependent):
        q = demo_dependent.column("q_infty")
        diffs = np.diff(q[5:])
        assert np.all(diffs <= 1e-15)

    @pytest.mark.parametrize("fixture", ["demo_independent", "demo_dependent"])
    def test_criterion_below_analytic_bound(self, fixture, request):
        table = request.getfixturevalue(fixture)
        q = table.column("q_infty")
        bound = table.column("analytic_bound")
        for qv, bv in zip(q, bound):
            assert qv <= bv * (1 + 1e-8)

    def test_first_row_is_the_constant_perturbation(self, demo_independent):
        x = make_grid(128)
        phi0 = phi0_on_grid(DgpSpec(rho=0.0), x)
        shifted = GridFunction(x, phi0.values - 0.1)
        expected = sobolev_norm(shifted)
        assert abs(demo_independent.column("sobolev_norm_phi_n")[0] - expected) < 1e-12

    def test_monotone_family_keeps_monotonicity(self, demo_independent):
        assert all(demo_independent.column("monotone_ok"))

    def test_nonneg_family_keeps_nonnegativity_and_convexity(self):
        table = run_illposedness_demo(
            demo_config(dgp=DgpSpec(rho=0.5), family="nonneg", n_max=60)
        )
        assert all(table.column("convex_ok"))
        assert all(table.column("nonneg_ok"))


class TestSvdReport:
    def test_row_structure(self):
        cfg = ExperimentConfig(experiment="svd_report", dgp=DgpSpec(rho=0.5))
        table = run_svd_report(cfg)
        sizes = table.column("grid_size")
        assert sorted(set(sizes)) == [64, 128]
        assert len(table.rows) == 64 + 128
        ks = [k for size, k in zip(sizes, table.column("k")) if size == 64]
        assert ks == list(range(1, 65))

    def test_independent_case_is_rank_one(self):
        cfg = ExperimentConfig(experiment="svd_report", dgp=DgpSpec(rho=0.0))
        table = run_svd_report(cfg)
        for size in (64, 128):
            sigma = [
                s
                for g, s in zip(table.column("grid_size"), table.column("sigma_k"))
                if g == size
            ]
            assert abs(sigma[0] - 1.0) < 1e-10
            assert sigma[1] < 1e-10

    def test_leading_values_strictly_decreasing_under_dependence(self):
        cfg = ExperimentConfig(experiment="svd_report", dgp=DgpSpec(rho=0.5))
        table = run_svd_report(cfg)
        sigma = [
            s
            for g, s in zip(table.column("grid_size"), table.column("sigma_k"))
            if g == 64
        ]
        assert all(a > b for a, b in zip(sigma[:9], sigma[1:10]))

    def test_stronger_dependence_decays_slower(self):
        def sigma10(rho):
            cfg = ExperimentConfig(experiment="svd_report", dgp=DgpSpec(rho=rho))
            table = run_svd_report(cfg)
            return [
                s
                for g, s in zip(table.column("grid_size"), table.column("sigma_k"))
                if g == 64
            ][9]

        assert sigma10(0.9) > sigma10(0.5)


class TestEstimatorComparison:
    def test_row_structure(self, comparison):
        cfg, table = comparison
        assert table.columns == (
            "n",
            "lambda",
            "solver",
            "error",
            "amplification",
            "kkt_residual",
            "constraints_ok",
            "condition_diagnostic",
            "converged",
        )
        ns = sorted(set(table.column("n")))
        assert ns == [0, 1, 2, 5, 10, 20, 50, 100]
        assert len(table.rows) == len(ns) * 3

    def test_regularization_beats_constraints_alone(self, comparison):
        _, table = comparison
        err = {}
        for row in table.rows:
            n, lam, solver = row[0], row[1], row[2]
            err[(n, solver)] = row[3]
        assert err[(50, "tir")] < err[(50, "constrained")]
        assert err[(100, "tir")] < err[(100, "constrained")]

    def test_naive_condition_is_retained_sigma_min(self, comparison):
        cfg, table = comparison
        grid = make_grid(cfg.quadrature_size)
        zgrid = make_grid(cfg.z_size)
        A = discretize(make_dgp(cfg.dgp), grid, zgrid)
        smallest = svd_report(A).singular_values[A.svd.rank - 1]
        for row in table.rows:
            if row[2] == "naive":
                assert math.isclose(row[7], smallest, rel_tol=1e-9)

    def test_constant_direction_is_benign(self, comparison):
        _, table = comparison
        errs = [row[3] for row in table.rows if row[0] == 0]
        assert max(errs) <= 2 * min(errs)

    def test_constrained_rows_are_certified(self, comparison):
        _, table = comparison
        rows = [row for row in table.rows if row[2] == "constrained"]
        assert rows
        for row in rows:
            assert row[5] <= 1e-6
            assert row[6] is True or row[6] == True  # noqa: E712
            assert row[8]


def mc_config(**overrides):
    base = dict(
        experiment="montecarlo",
        dgp=DgpSpec(rho=0.5),
        quadrature_size=64,
        z_size=64,
        lambdas=(1e-3,),
        replications=1,
        sample_size=10_000,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestMontecarlo:
    def test_row_count_and_columns(self):
        table = run_montecarlo(mc_config(replications=2, sample_size=500))
        # naive and tir in each replication, then a mean and an sd row for each
        assert len(table.rows) == 2 * 2 + 2 * 2
        assert table.columns == (
            "row_kind",
            "replication",
            "m",
            "lambda",
            "solver",
            "interior_error",
            "status",
        )

    def test_single_replication_tir_error_is_small(self):
        table = run_montecarlo(mc_config())
        rows = [
            row
            for row in table.rows
            if row[0] == "replication" and row[4] == "tir" and row[6] == "ok"
        ]
        assert len(rows) == 1
        assert rows[0][5] < 0.1

    def test_same_seed_reproduces_rows(self):
        cfg = mc_config(replications=3, sample_size=500)
        first = run_montecarlo(cfg)
        second = run_montecarlo(cfg)
        assert first.rows == second.rows

    def test_naive_mean_error_exceeds_tir_mean_error(self):
        table = run_montecarlo(mc_config(replications=20, sample_size=1_000))
        means = {
            row[4]: row[5]
            for row in table.rows
            if row[0] == "mean" and row[6] == "summary"
        }
        assert means["naive"] > means["tir"]

    def test_summary_rows_recompute_from_replication_rows(self):
        table = run_montecarlo(mc_config(replications=5, sample_size=500))
        for solver in ("naive", "tir"):
            errs = [
                row[5]
                for row in table.rows
                if row[0] == "replication" and row[4] == solver and row[6] == "ok"
            ]
            mean = [
                row[5]
                for row in table.rows
                if row[0] == "mean" and row[4] == solver
            ][0]
            sd = [
                row[5] for row in table.rows if row[0] == "sd" and row[4] == solver
            ][0]
            assert math.isclose(mean, float(np.mean(errs)), rel_tol=1e-15)
            assert math.isclose(sd, float(np.std(errs, ddof=1)), rel_tol=1e-12)

    def test_degenerate_replication_is_recorded_not_fatal(self, monkeypatch):
        import npivlab.harness as harness_mod

        real = harness_mod.sampled_plugin
        cfg = mc_config(replications=3, sample_size=500)
        # replications run in order, so call i is replication i
        degenerate_calls = {1}
        calls = []

        def flaky(draws, x_grid, z_grid):
            replication = len(calls)
            calls.append(replication)
            if replication in degenerate_calls:
                raise DegenerateSampleError("synthetic degenerate draw")
            return real(draws, x_grid, z_grid)

        monkeypatch.setattr(harness_mod, "sampled_plugin", flaky)
        table = run_montecarlo(cfg)
        assert calls == [0, 1, 2]
        degenerate = [row for row in table.rows if row[6] == "degenerate"]
        assert {row[1] for row in degenerate} == {1}
        assert all(math.isnan(row[5]) for row in degenerate)
        ok = [row for row in table.rows if row[0] == "replication" and row[6] == "ok"]
        assert {row[1] for row in ok} == {0, 2}
        means = [row for row in table.rows if row[0] == "mean"]
        assert means and all(math.isfinite(row[5]) for row in means)
        # every replication degenerate: the run still returns its table, and
        # the summary rows have nothing to average
        calls.clear()
        degenerate_calls.update(range(cfg.replications))
        table = run_montecarlo(cfg)
        replications = [row for row in table.rows if row[0] == "replication"]
        assert len(replications) == 6
        assert all(row[6] == "degenerate" for row in replications)
        summary = [row for row in table.rows if row[0] in ("mean", "sd")]
        assert len(summary) == 4 and all(math.isnan(row[5]) for row in summary)

    def test_previous_operator_is_released_before_the_next_sample(self, monkeypatch):
        # each operator carries its cached factorizations; keeping it alive
        # into the next replication raises the run's peak memory
        import npivlab.harness as harness_mod

        real_sample, real_plugin = harness_mod.sample, harness_mod.sampled_plugin
        operators = []
        alive_at_draw = []

        def watched_sample(dgp, m, seed):
            alive_at_draw.append([ref() is not None for ref in operators])
            return real_sample(dgp, m, seed)

        def watched_plugin(draws, x_grid, z_grid):
            op, r_hat = real_plugin(draws, x_grid, z_grid)
            operators.append(weakref.ref(op))
            return op, r_hat

        monkeypatch.setattr(harness_mod, "sample", watched_sample)
        monkeypatch.setattr(harness_mod, "sampled_plugin", watched_plugin)
        run_montecarlo(mc_config(replications=3, sample_size=500))
        assert alive_at_draw == [[], [False], [False, False]]

    def test_no_kernel_block_outlives_its_replication(self, monkeypatch):
        # each (z_size, m) kernel block is built inside its replication's
        # plug-in call, so none is held when the next sample is drawn
        import npivlab.harness as harness_mod

        real_sample = harness_mod.sample
        m, z_size = 10_000, 128
        held = []

        def watched_sample(dgp, size, seed):
            held.append(tracemalloc.get_traced_memory()[0])
            return real_sample(dgp, size, seed)

        monkeypatch.setattr(harness_mod, "sample", watched_sample)
        cfg = mc_config(quadrature_size=128, z_size=z_size, replications=3, sample_size=m)
        tracemalloc.start()
        try:
            run_montecarlo(cfg)
        finally:
            tracemalloc.stop()
        block = z_size * m * 8
        assert len(held) == 3
        assert all(current < 0.5 * block for current in held), [
            current / block for current in held
        ]

    def test_replication_rows_depend_only_on_seed_plus_index(self):
        seed = 11
        longer = run_montecarlo(mc_config(replications=3, sample_size=500, seed=seed))
        shifted = run_montecarlo(
            mc_config(replications=2, sample_size=500, seed=seed + 1)
        )

        def replication_rows(table):
            return [row for row in table.rows if row[0] == "replication"]

        tail = [
            (row[0], row[1] - 1) + row[2:]
            for row in replication_rows(longer)
            if row[1] >= 1
        ]
        assert [row[1] for row in replication_rows(longer)] == [0, 0, 1, 1, 2, 2]
        assert tail == replication_rows(shifted)


class TestCsv:
    def test_round_trip_recovers_floats_exactly(self, tmp_path, demo_independent):
        path = tmp_path / "demo.csv"
        emit_csv(demo_independent, path)
        metadata, columns, rows = load_csv(path)
        assert columns == demo_independent.columns
        assert len(rows) == 101
        for raw, original in zip(rows, demo_independent.rows):
            assert int(raw[0]) == original[0]
            for j in (1, 2, 3, 4, 5):
                assert float(raw[j]) == original[j]
            for j in (6, 7, 8):
                assert raw[j] == ("true" if original[j] else "false")

    def test_metadata_echoes_every_config_field(self, tmp_path, demo_independent):
        path = tmp_path / "demo.csv"
        emit_csv(demo_independent, path)
        metadata, _, _ = load_csv(path)
        expected = {
            "artifact_version",
            "experiment",
            "phi0",
            "rho",
            "noise_sd",
            "quadrature_size",
            "inspection_size",
            "z_size",
            "family",
            "n_max",
            "epsilon",
            "ball_radius",
            "lambdas",
            "constraints",
            "replications",
            "sample_size",
            "seed",
            "out",
            "timestamp",
        }
        assert set(metadata) == expected

    def test_metadata_is_sufficient_to_rerun(self, tmp_path):
        cfg = demo_config(n_max=5)
        table = run_experiment(cfg)
        path = tmp_path / "demo.csv"
        emit_csv(table, path)
        metadata, _, _ = load_csv(path)
        raw = {
            "experiment": metadata["experiment"],
            "dgp": {
                "phi0": metadata["phi0"],
                "rho": float(metadata["rho"]),
                "noise_sd": float(metadata["noise_sd"]),
            },
            "quadrature_size": int(metadata["quadrature_size"]),
            "inspection_size": int(metadata["inspection_size"]),
            "z_size": int(metadata["z_size"]),
            "family": metadata["family"],
            "n_max": int(metadata["n_max"]),
            "epsilon": float(metadata["epsilon"]),
            "ball_radius": float(metadata["ball_radius"]),
            "lambdas": [float(v) for v in metadata["lambdas"].split(";")],
            "constraints": [
                c for c in metadata["constraints"].split(";") if c
            ],
            "replications": int(metadata["replications"]),
            "sample_size": int(metadata["sample_size"]),
            "seed": int(metadata["seed"]),
        }
        rerun = run_experiment(config_from_mapping(raw))
        assert rerun.rows == table.rows

    def test_empty_table_writes_header_and_metadata_only(self, tmp_path):
        table = ResultTable(
            columns=("a", "b"), rows=[], metadata={"experiment": "none"}
        )
        path = tmp_path / "empty.csv"
        emit_csv(table, path)
        metadata, columns, rows = load_csv(path)
        assert columns == ("a", "b")
        assert rows == []
        assert metadata["experiment"] == "none"
        text = path.read_bytes()
        assert text.count(b"\r\n") >= 2

    def test_unwritable_path_raises_oserror_naming_the_path(self, demo_independent):
        bad = "/nonexistent-dir-for-tests/out.csv"
        with pytest.raises(OSError, match="nonexistent-dir-for-tests"):
            emit_csv(demo_independent, bad)

    def test_reruns_are_byte_identical_modulo_timestamp(self, tmp_path):
        cfg = demo_config(n_max=10)

        def emit(name):
            path = tmp_path / name
            emit_csv(run_experiment(cfg), path)
            return [
                line
                for line in path.read_bytes().split(b"\r\n")
                if not line.startswith(b"# timestamp")
            ]

        assert emit("one.csv") == emit("two.csv")

    def test_metadata_only_file_has_no_header_row(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("# experiment = svd_report\n# seed = 0\n")
        with pytest.raises(ValueError, match="no header row"):
            load_csv(path)

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row length"):
            ResultTable(columns=("a", "b"), rows=[(1,)], metadata={})

    def test_metadata_lines_match_the_recorded_block(self, tmp_path):
        # Every '#' line but the timestamp, byte for byte, as emitted for
        # this config since artifact version 0.1.0.
        expected = (
            b"# artifact_version = 0.1.0\r\n"
            b"# experiment = estimator_comparison\r\n"
            b"# phi0 = affine_plus_exp\r\n"
            b"# rho = 0.29999999999999999\r\n"
            b"# noise_sd = 0.25\r\n"
            b"# quadrature_size = 16\r\n"
            b"# inspection_size = 64\r\n"
            b"# z_size = 12\r\n"
            b"# family = monotone\r\n"
            b"# n_max = 2\r\n"
            b"# epsilon = 0.10000000000000001\r\n"
            b"# ball_radius = 0.5\r\n"
            b"# lambdas = 0.0001;0.01\r\n"
            b"# constraints = monotone_nondecreasing;derivative_sign_2\r\n"
            b"# replications = 1\r\n"
            b"# sample_size = 10000\r\n"
            b"# seed = 7\r\n"
            b"# out = pinned.csv\r\n"
        )
        raw = {
            "experiment": "estimator_comparison",
            "dgp": {
                "phi0": "affine_plus_exp",
                "rho": 0.3,
                "noise_sd": 0.25,
            },
            "quadrature_size": 16,
            "inspection_size": 64,
            "z_size": 12,
            "n_max": 2,
            "epsilon": 0.1,
            "lambdas": [1e-4, 0.01],
            "constraints": ["monotone_nondecreasing", "derivative_sign_2"],
            "seed": 7,
            "out": "pinned.csv",
        }
        path = tmp_path / "table.csv"
        emit_csv(run_experiment(config_from_mapping(raw)), path)
        with open(path, "rb") as handle:
            lines = [line for line in handle if line.startswith(b"#")]
        assert lines[-1].startswith(b"# timestamp = ")
        assert b"".join(lines[:-1]) == expected


class TestConfigLoading:
    def test_mapping_round_trip(self):
        raw = {
            "experiment": "illposedness_demo",
            "dgp": {"phi0": "square", "rho": 0.3},
            "n_max": 7,
            "epsilon": 0.05,
            "ball_radius": 0.2,
            "lambdas": [1e-4, 1e-2],
            "constraints": ["monotone_nondecreasing", "derivative_sign_2"],
        }
        cfg = config_from_mapping(raw)
        assert cfg.experiment == "illposedness_demo"
        assert cfg.dgp.rho == 0.3
        assert cfg.lambdas == (1e-4, 1e-2)
        assert cfg.constraints == ("monotone_nondecreasing", "derivative_sign_2")

    def test_unknown_keys_rejected_at_both_levels(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            config_from_mapping({"experiment": "svd_report", "grid": 64})
        with pytest.raises(ConfigError, match="unknown dgp config key"):
            config_from_mapping(
                {"experiment": "svd_report", "dgp": {"rho": 0.5, "sigma": 1.0}}
            )

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="must name an experiment"):
            config_from_mapping({"n_max": 3})

    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("quadrature_size", 16.5, "quadrature_size must be an integer"),
            ("inspection_size", 1001.0, "inspection_size must be an integer"),
            ("z_size", True, "z_size must be an integer"),
            ("n_max", 3.5, "n_max must be an integer"),
            ("replications", 1.5, "replications must be an integer"),
            ("sample_size", "10000", "sample_size must be an integer"),
            ("seed", 2.0, "seed must be an integer"),
            ("seed", -1, "seed must be nonnegative"),
        ],
    )
    def test_counts_and_seed_must_be_nonnegative_integers(self, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_mapping({"experiment": "montecarlo", key: value})

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ('"epsilon": NaN', "epsilon must be a finite number"),
            ('"ball_radius": NaN', "ball_radius must be a finite number"),
            ('"ball_radius": Infinity', "ball_radius must be a finite number"),
            ('"dgp": {"noise_sd": NaN}', "noise_sd must be a finite number"),
            ('"lambdas": [Infinity]', "lambda values must be positive and finite"),
            ('"lambdas": [1e-4, NaN]', "lambda values must be positive and finite"),
            ('"lambdas": [true]', "lambda values must be positive and finite"),
            ('"lambdas": ["0.5"]', "lambda values must be positive and finite"),
            ('"epsilon": true', "epsilon must be a finite number"),
            ('"ball_radius": "0.5"', "ball_radius must be a finite number"),
            ('"dgp": {"independent_case": "yes"}', "unknown dgp config key"),
            ('"dgp": {"independent_case": 1}', "unknown dgp config key"),
            ('"dgp": {"independent_case": null}', "unknown dgp config key"),
        ],
    )
    def test_floats_must_be_finite_and_booleans_boolean(self, payload, fragment):
        raw = json.loads('{"experiment": "estimator_comparison", %s}' % payload)
        with pytest.raises(ConfigError, match=fragment):
            config_from_mapping(raw)

    def test_custom_phi0_rejected(self):
        # phi0 is one of the analytic closed forms; an interpolated table is not
        with pytest.raises(ConfigError) as excinfo:
            config_from_mapping({"experiment": "illposedness_demo", "dgp": {"phi0": "custom"}})
        assert str(excinfo.value) == "invalid dgp config: unknown phi0 choice 'custom'"

    @pytest.mark.parametrize(
        "table",
        [
            [[0, 1, 2], [1, 2]],
            [["a", 1], [1, 2]],
            5,
            [[0, 1], [1, float("nan")]],
        ],
    )
    def test_malformed_phi0_table_rejected(self, table):
        # phi0_table is no longer a field, so any table is an unknown key
        raw = {
            "experiment": "illposedness_demo",
            "dgp": {"phi0": "square", "phi0_table": table},
        }
        with pytest.raises(ConfigError) as excinfo:
            config_from_mapping(raw)
        assert str(excinfo.value) == "unknown dgp config key 'phi0_table'"

    def test_phi0_table_needs_custom_phi0(self):
        # with no custom phi0 left, a table is rejected whatever phi0 names
        for phi0 in ("square", "custom"):
            raw = {
                "experiment": "illposedness_demo",
                "dgp": {"phi0": phi0, "phi0_table": [[0, 0], [1, 1]]},
            }
            with pytest.raises(ConfigError) as excinfo:
                config_from_mapping(raw)
            assert str(excinfo.value) == "unknown dgp config key 'phi0_table'"

    @pytest.mark.parametrize(
        "key, value",
        [("constraints", "convex"), ("lambdas", "1e-4"), ("lambdas", 1e-4)],
    )
    def test_list_fields_reject_a_string_or_a_bare_number(self, key, value):
        raw = {"experiment": "estimator_comparison", key: value}
        with pytest.raises(ConfigError, match=f"{key} must be a list, got {value!r}"):
            config_from_mapping(raw)

    @pytest.mark.parametrize("value", [True, 3, ["a.csv"]])
    def test_out_must_be_a_string(self, value):
        raw = {"experiment": "svd_report", "out": value}
        with pytest.raises(ConfigError) as excinfo:
            config_from_mapping(raw)
        assert str(excinfo.value) == f"out must be a string, got {value!r}"

    def test_inspection_size_must_fit_every_constraint_order(self):
        raw = {
            "experiment": "estimator_comparison",
            "inspection_size": 4,
            "constraints": ["convex", "derivative_sign_3"],
        }
        with pytest.raises(ConfigError, match="at least 5 for constraint 'derivative_sign"):
            config_from_mapping(raw)
        assert config_from_mapping(dict(raw, inspection_size=5)).inspection_size == 5

    @pytest.mark.parametrize(
        "size, names, failing",
        [
            # below the demo's convexity check, whatever the constraints
            (3, ["monotone_nondecreasing"], DEMO_SHAPES),
            (4, ["derivative_sign_3", "convex"], None),
            (6, ["nonnegative", "derivative_sign_5"], None),
        ],
    )
    def test_inspection_size_errors_are_the_constraint_set_messages(
        self, size, names, failing
    ):
        raw = {"experiment": "svd_report", "inspection_size": size, "constraints": names}
        failing = failing or tuple(map(ShapeConstraint, names))
        with pytest.raises(ValueError) as want:
            ConstraintSet(failing, size)
        with pytest.raises(ConfigError) as got:
            config_from_mapping(raw)
        assert str(got.value) == str(want.value)

    def test_dgp_that_is_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="dgp config must be a JSON object"):
            config_from_mapping({"experiment": "svd_report", "dgp": 3})

    def test_load_config_happy_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(
            json.dumps({"experiment": "svd_report", "dgp": {"rho": 0.7}})
        )
        cfg = load_config(str(path))
        assert cfg.experiment == "svd_report"
        assert cfg.dgp.rho == 0.7

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(str(tmp_path / "missing.json"))

    def test_load_config_non_object_root(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="config root must be a JSON object"):
            load_config(str(path))


class TestRunInvariantWork:
    """Work that depends on the config alone is done once per run."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig(
                experiment="estimator_comparison",
                quadrature_size=32,
                z_size=32,
                inspection_size=101,
                n_max=5,
            ),
            mc_config(quadrature_size=32, z_size=32, sample_size=500),
        ],
        ids=["estimator_comparison", "montecarlo"],
    )
    def test_equal_x_and_z_sizes_share_one_gauss_rule(self, cfg, monkeypatch):
        calls = self._count(monkeypatch, function_space, "leggauss")
        run_experiment(cfg)
        assert calls == [(32,)]

    def test_demo_builds_one_differentiation_matrix(self, monkeypatch):
        builds = self._count(monkeypatch, function_space, "differentiation_matrix")
        resamples = self._count(monkeypatch, function_space, "resample_matrix")
        cfg = demo_config(quadrature_size=32, inspection_size=101, n_max=20)
        table = run_illposedness_demo(cfg)
        assert len(table.rows) == 21
        assert len(builds) == 1
        # each perturbed function is resampled once for its three shape checks
        assert len(resamples) == 21

    def test_demo_evaluates_each_psi_once_per_row(self, monkeypatch):
        import npivlab.counterexamples as counterexamples_mod
        import npivlab.harness as harness_mod

        # both bindings, so an evaluation through either one is counted
        direct = self._count(monkeypatch, harness_mod, "psi")
        inner = self._count(monkeypatch, counterexamples_mod, "psi")
        table = run_illposedness_demo(demo_config(quadrature_size=32, n_max=20))
        assert len(table.rows) == 21
        assert len(direct) + len(inner) == 21

    def test_montecarlo_builds_one_penalty_form_and_keeps_its_rows(self, monkeypatch):
        import npivlab.estimators as estimators_mod
        import npivlab.harness as harness_mod

        cfg = mc_config(quadrature_size=32, z_size=24, replications=3, sample_size=500)
        real = harness_mod.sampled_plugin

        def copy(g):
            return Grid(g.size)

        def fresh_grids(draws, x_grid, z_grid):
            # equal grids of its own per replication, so nothing is shared
            return real(draws, copy(x_grid), copy(z_grid))

        with monkeypatch.context() as patch:
            patch.setattr(harness_mod, "sampled_plugin", fresh_grids)
            unshared = run_montecarlo(cfg)
        builds = self._count(monkeypatch, estimators_mod, "differentiation_matrix")
        shared = run_montecarlo(cfg)
        assert len(builds) == 1
        assert shared.rows == unshared.rows

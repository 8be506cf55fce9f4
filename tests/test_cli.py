import json
import subprocess
import sys

import pytest

import npivlab.cli as cli
from npivlab.estimators import NumericalError
from npivlab.harness import load_csv
from support import WORKLOADS, data_digest, fresh_env, recorded_digest, run_fresh


def test_svd_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "svd.csv"
    code = cli.main(["svd", "--out", str(out), "--seed", "3"])
    assert code == 0
    metadata, columns, rows = load_csv(out)
    assert metadata["experiment"] == "svd_report"
    assert metadata["seed"] == "3"
    assert columns == ("grid_size", "k", "sigma_k")
    assert len(rows) == 64 + 128
    assert f"wrote {out}: {len(rows)} rows" in capsys.readouterr().out


def test_config_file_supplies_the_output_path(tmp_path):
    out = tmp_path / "demo.csv"
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "illposedness_demo",
                "dgp": {"rho": 0.0},
                "n_max": 5,
                "out": str(out),
            }
        )
    )
    assert cli.main(["demo", "--config", str(cfg_path)]) == 0
    metadata, _, rows = load_csv(out)
    assert len(rows) == 6
    assert metadata["rho"] == "0"


def test_out_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "demo.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "illposedness_demo",
                "n_max": 3,
                "out": str(tmp_path / "ignored.csv"),
            }
        )
    )
    out = tmp_path / "actual.csv"
    assert cli.main(["demo", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()
    assert not (tmp_path / "ignored.csv").exists()


def test_seed_flag_overrides_config(tmp_path):
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "montecarlo",
                "quadrature_size": 32,
                "z_size": 32,
                "sample_size": 200,
                "seed": 0,
            }
        )
    )
    out = tmp_path / "mc.csv"
    code = cli.main(
        ["montecarlo", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]
    )
    assert code == 0
    metadata, _, _ = load_csv(out)
    assert metadata["seed"] == "9"


def test_flags_may_come_before_the_command(tmp_path):
    cfg_path = tmp_path / "mc.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "montecarlo",
                "quadrature_size": 32,
                "z_size": 32,
                "sample_size": 200,
            }
        )
    )
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    config = ["--config", str(cfg_path)]
    assert cli.main(["--seed", "7", "montecarlo", *config, "--out", str(before)]) == 0
    assert cli.main(["montecarlo", *config, "--out", str(after), "--seed", "7"]) == 0
    meta_before, *table_before = load_csv(before)
    meta_after, *table_after = load_csv(after)
    assert meta_before["seed"] == "7"
    for meta in (meta_before, meta_after):
        del meta["timestamp"], meta["out"]
    assert meta_before == meta_after
    assert table_before == table_after


# Each size asks for more than the address space, so the allocation fails at
# once; a size the kernel could grant lazily would commit real memory.
@pytest.mark.parametrize(
    "command, raw",
    [
        ("montecarlo", {"experiment": "montecarlo", "sample_size": 10**15}),
        ("demo", {"experiment": "illposedness_demo", "quadrature_size": 10**15}),
        ("compare", {"experiment": "estimator_comparison", "z_size": 10**15}),
        ("svd", {"experiment": "svd_report", "inspection_size": 10**15}),
    ],
    ids=["sample-draw", "leggauss-x", "leggauss-z", "inspection-nodes"],
)
def test_size_too_large_to_allocate_exits_2_on_one_line(tmp_path, capsys, command, raw):
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "x.csv"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: out of memory: ")
    assert captured.err.count("\n") == 1
    # the line names the allocation: numpy's array shape or the raising statement
    assert captured.err.split(": ", 2)[2].strip()
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        "{broken json",
        json.dumps({"experiment": "svd_report", "bogus_key": 1}),
        json.dumps({"experiment": "svd_report", "dgp": {"rho": 2.0}}),
        # the independent case is spelled rho = 0; the old flag is unknown
        json.dumps({"experiment": "svd_report", "dgp": {"independent_case": True}}),
        # each raised out of load_config with a traceback and exit 1
        pytest.param(b'\xff\xfe{"experiment": "svd_report"}', id="not-utf-8"),
        pytest.param(
            b'{"experiment": "svd_report", "seed": 1' + b"0" * 5000 + b"}", id="5000-digits"
        ),
    ],
)
def test_bad_config_files_exit_2(tmp_path, payload, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_bytes(payload.encode() if isinstance(payload, str) else payload)
    assert cli.main(["svd", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_negative_seed_exits_2(tmp_path, capsys):
    code = cli.main(["montecarlo", "--seed", "-1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "nan.json"
    cfg_path.write_text('{"experiment": "illposedness_demo", "epsilon": NaN}')
    assert cli.main(["demo", "--config", str(cfg_path)]) == 2
    assert "epsilon must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, message",
    [
        ({"dgp": {"rho": "0.5"}}, "rho must be a finite number, got '0.5'"),
        ({"dgp": {"noise_sd": "1"}}, "noise_sd must be a finite number, got '1'"),
        ({"experiment": ["demo"]}, "experiment must be a string, got ['demo']"),
    ],
    ids=["rho", "noise_sd", "experiment"],
)
def test_config_value_of_the_wrong_type_exits_2_naming_its_field(
    tmp_path, capsys, raw, message
):
    cfg_path = tmp_path / "typed.json"
    cfg_path.write_text(json.dumps({"experiment": "illposedness_demo", **raw}))
    assert cli.main(["demo", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_inspection_grid_too_small_for_a_constraint_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "small.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "estimator_comparison",
                "inspection_size": 4,
                "constraints": ["derivative_sign_5"],
            }
        )
    )
    assert cli.main(["compare", "--config", str(cfg_path)]) == 2
    assert "inspection_size must be at least 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("constraints", "convex"), ("lambdas", "1e-4"), ("lambdas", 1e-4)]
)
def test_list_field_given_a_scalar_exits_2(tmp_path, capsys, key, value):
    cfg_path = tmp_path / "scalar.json"
    cfg_path.write_text(json.dumps({"experiment": "estimator_comparison", key: value}))
    assert cli.main(["compare", "--config", str(cfg_path)]) == 2
    assert f"{key} must be a list, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", [True, 3, ["a.csv"]])
def test_non_string_out_exits_2_before_any_computation(
    tmp_path, monkeypatch, capsys, value
):
    def must_not_run(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli, "run_experiment", must_not_run)
    cfg_path = tmp_path / "out.json"
    cfg_path.write_text(json.dumps({"experiment": "svd_report", "out": value}))
    assert cli.main(["svd", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out must be a string" in captured.err
    assert "Traceback" not in captured.err


def test_out_flag_with_a_line_break_exits_2_and_writes_nothing(tmp_path, capsys):
    # run through dataclasses.replace, the --out override meets the same
    # check as a config file's out
    out = tmp_path / "a\n# fake = 1\nn,evil\n1,2.csv"
    assert cli.main(["svd", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "out must not contain a line break" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert cli.main(["svd", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


def test_experiment_subcommand_mismatch_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "svd.json"
    cfg_path.write_text(json.dumps({"experiment": "svd_report"}))
    assert cli.main(["demo", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "svd_report" in err and "demo" in err


def test_unwritable_output_exits_2(capsys):
    code = cli.main(["svd", "--out", "/nonexistent-dir-for-tests/x.csv"])
    assert code == 2
    assert "nonexistent-dir-for-tests" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(cfg):
        raise NumericalError("synthetic blowup")

    monkeypatch.setattr(cli, "run_experiment", boom)
    code = cli.main(["svd", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "numerical failure: synthetic blowup" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2


def test_module_entry_point_runs_in_a_subprocess(tmp_path):
    out = tmp_path / "svd.csv"
    # the child must import the same checkout, also when pytest put src/ on
    # sys.path through its own pythonpath setting rather than PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "npivlab.cli", "svd", "--out", str(out)],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote" in proc.stdout


# Fresh interpreters, so the test process's own collector state cannot leak in.
COLLECTOR_STATE = "import gc\n{}\nprint(gc.isenabled(), gc.get_freeze_count() > 0)"


def test_importing_the_cli_freezes_its_objects_and_leaves_the_collector_on():
    assert run_fresh(COLLECTOR_STATE.format("import npivlab.cli")) == "True True"


def test_importing_the_library_leaves_the_collector_as_it_was():
    assert run_fresh(COLLECTOR_STATE.format("import npivlab.harness")) == "True False"


def test_a_failed_cli_import_turns_the_collector_back_on():
    program = (
        "import sys\nsys.modules['argparse'] = None\n"
        "try:\n    import npivlab.cli\nexcept ImportError:\n    print('ImportError')"
    )
    assert run_fresh(COLLECTOR_STATE.format(program)) == "ImportError\nTrue False"


def test_a_collector_the_importer_turned_off_stays_off():
    program = "gc.disable()\nimport npivlab.cli"
    assert run_fresh(COLLECTOR_STATE.format(program)) == "False True"


# The benchmark's workloads (perfbench/run.py) at seed 0, in one interpreter
# that imports the command line as the console script does; reference.json
# records their table digests.
RUN_WORKLOADS = """import json, os, sys
import npivlab.cli
for command, config, out in json.loads(sys.argv[1]):
    assert npivlab.cli.main([command, "--config", config, "--out", out]) == 0
print(os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def test_workload_tables_hold_their_digests_with_the_blas_spin_timeout(tmp_path):
    # pytest imports numpy, scipy.optimize and scipy.special before npivlab,
    # so the in-process digest tests run under OpenBLAS's own spin timeout and
    # call scipy's NNLS at the default thread count; this child imports
    # npivlab first, as the console script does, so its numpy reads the
    # timeout and its NNLS runs on the one-thread OpenBLAS the package loads
    runs = []
    for name, workload in WORKLOADS.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(dict(workload.config, seed=0)))
        runs.append([workload.command, str(config), str(tmp_path / f"{name}.csv")])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WORKLOADS, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=fresh_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "26"
    for name in WORKLOADS:
        assert data_digest(tmp_path / f"{name}.csv") == recorded_digest(name), name

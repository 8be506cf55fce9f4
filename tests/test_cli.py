import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import npivlab.cli as cli
from npivlab.estimators import NumericalError
from npivlab.harness import load_csv


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


@pytest.mark.parametrize(
    "payload",
    [
        "{broken json",
        json.dumps({"experiment": "svd_report", "bogus_key": 1}),
        json.dumps({"experiment": "svd_report", "dgp": {"rho": 2.0}}),
        # the independent case is spelled rho = 0; the old flag is unknown
        json.dumps({"experiment": "svd_report", "dgp": {"independent_case": True}}),
    ],
)
def test_bad_config_files_exit_2(tmp_path, payload, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(payload)
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "npivlab.cli", "svd", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert out.exists()
    assert "wrote" in proc.stdout


# The demo and compare workloads of perfbench/run.py, whose table digests
# perfbench/reference.json records.
WORKLOAD_RUNS = {
    "demo": {
        "experiment": "illposedness_demo",
        "quadrature_size": 128,
        "inspection_size": 1001,
        "family": "monotone",
        "n_max": 100,
        "epsilon": 0.1,
    },
    "compare": {
        "experiment": "estimator_comparison",
        "quadrature_size": 128,
        "z_size": 128,
        "lambdas": [1e-4],
        "constraints": ["monotone_nondecreasing"],
    },
}
RUN_WORKLOADS = """import json, os, sys
import npivlab.cli
for command, config, out in json.loads(sys.argv[1]):
    assert npivlab.cli.main([command, "--config", config, "--out", out]) == 0
print(os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def test_workload_tables_hold_their_digests_with_the_blas_spin_timeout(tmp_path):
    # pytest imports numpy before npivlab, so the in-process digest tests run
    # under OpenBLAS's own spin timeout; this child imports npivlab first, as
    # the console script does, at the default thread count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT"):
        env.pop(name, None)
    runs = []
    for name, config in WORKLOAD_RUNS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        runs.append([name, str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.csv")])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WORKLOADS, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "26"
    reference = Path(src).parent / "perfbench" / "reference.json"
    recorded = json.loads(reference.read_text(encoding="utf-8"))["digests"]
    for name in WORKLOAD_RUNS:
        with open(tmp_path / f"{name}.csv", "rb") as handle:
            data = b"".join(line for line in handle if not line.startswith(b"#"))
        assert hashlib.sha256(data).hexdigest() == recorded[name], name

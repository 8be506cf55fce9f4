"""Byte gate on the emitted tables: data rows must match the recorded digests.

The configs are the benchmark workloads of ``perfbench/run.py`` (``montecarlo``
at seed 0, and again at seed 63, so two independent draw sequences pass
through the kernel-block buffers a run reuses); the recorded SHA-256 of each
table's header and data rows (every line not starting with ``#``, so the
timestamped metadata is ignored) is read from ``perfbench/reference.json``.
The default ``svd_report`` table, an ``estimator_comparison`` on unequal x
and z grids with three constraint kinds, and the ``stability_probe`` rows,
which no workload runs, are pinned by literal digests; the probe's
constrained rows include a white-noise solve that stops unconverged, so its
``converged`` flag is pinned too. A change that moves any printed digit of
these tables fails here.

The digests hold at OpenBLAS's default thread count. BLAS results depend on
the thread count: with ``OPENBLAS_NUM_THREADS=1`` the ``compare``,
``compare_n512`` and both ``montecarlo`` cases fail, and did so already when
this gate was recorded; the ``svd_report``, mixed-comparison and probe
digests hold at both.
"""

import hashlib
import json
from pathlib import Path

import pytest

from npivlab.dgp import DgpSpec, make_dgp, phi0_on_grid
from npivlab.estimators import stability_probe
from npivlab.function_space import make_grid
from npivlab.harness import config_from_mapping, emit_csv, run_experiment
from npivlab.operators import apply, discretize

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

WORKLOAD_CONFIGS = {
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
    "compare_n512": {
        "experiment": "estimator_comparison",
        "quadrature_size": 512,
        "z_size": 512,
        "lambdas": [1e-6, 1e-4, 1e-2],
        "constraints": ["monotone_nondecreasing", "convex"],
    },
    "montecarlo": {
        "experiment": "montecarlo",
        "replications": 20,
        "sample_size": 10000,
        "lambdas": [1e-4],
        "seed": 0,
    },
}

SVD_REPORT_DIGEST = "b8488e80b2fba1a10f3f95de1eb8d9edc5169dc7c39304b1463f962f38462c9f"

# Unequal quadrature and z sizes, two lambdas, and constraints of difference
# orders 2, 0 and 3; every constrained row stops without convergence.
MIXED_COMPARISON_CONFIG = {
    "experiment": "estimator_comparison",
    "quadrature_size": 96,
    "z_size": 64,
    "lambdas": [1e-3, 1e-5],
    "constraints": ["convex", "nonnegative", "derivative_sign_3"],
}
MIXED_COMPARISON_DIGEST = "f1d6df91ea456dd2de25dc8f3cd358714e5e37f3ae6a987d442967e729976abf"

# stability_probe(A, r, [0.0, 1e-6], 1e-4) on the 64-node rho = 0.5 problem,
# one "delta,direction,solver,amplification,converged" line per row, floats
# as .hex().
STABILITY_PROBE_DIGEST = "b339330f89fed630bdde1a364010d2f56bcf8766e0fb5ba0e985a975cc8aba25"


def _data_digest(path: Path) -> str:
    with open(path, "rb") as handle:
        data = b"".join(line for line in handle if not line.startswith(b"#"))
    return hashlib.sha256(data).hexdigest()


def _table_digest(config: dict, out: Path) -> str:
    emit_csv(run_experiment(config_from_mapping(config)), out)
    return _data_digest(out)


def _recorded_digest(name: str, seed: int):
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"][name]
    return recorded[str(seed)] if name == "montecarlo" else recorded


@pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGS))
def test_table_bytes_match_recorded_digest(name, tmp_path):
    config = WORKLOAD_CONFIGS[name]
    recorded = _recorded_digest(name, config.get("seed", 0))
    assert _table_digest(config, tmp_path / f"{name}.csv") == recorded


def test_montecarlo_bytes_at_a_second_seed_match_recorded_digest(tmp_path):
    config = dict(WORKLOAD_CONFIGS["montecarlo"], seed=63)
    recorded = _recorded_digest("montecarlo", 63)
    assert _table_digest(config, tmp_path / "montecarlo_63.csv") == recorded


def test_svd_report_bytes_match_recorded_digest(tmp_path):
    digest = _table_digest({"experiment": "svd_report"}, tmp_path / "svd.csv")
    assert digest == SVD_REPORT_DIGEST


def test_mixed_comparison_bytes_match_recorded_digest(tmp_path):
    digest = _table_digest(MIXED_COMPARISON_CONFIG, tmp_path / "mixed.csv")
    assert digest == MIXED_COMPARISON_DIGEST


def test_stability_probe_rows_match_recorded_digest():
    spec = DgpSpec(rho=0.5)
    x = make_grid(64)
    A = discretize(make_dgp(spec), x, make_grid(64))
    r = apply(A, phi0_on_grid(spec, x))
    text = "".join(
        f"{row['delta'].hex()},{row['direction']},{row['solver']},"
        f"{row['amplification'].hex()},{row['converged']}\n"
        for row in stability_probe(A, r, [0.0, 1e-6], 1e-4)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == STABILITY_PROBE_DIGEST

"""Plumbing the test modules share; pytest collects no test from this file.

It holds the paths of the checkout, each package module parsed once, the
benchmark's own workloads and data-row digest (imported from ``perfbench/``,
so the byte gate runs exactly the configs the benchmark runs and hashes the
rows the same way), and the runners of fresh interpreters.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "npivlab"
MODULES = sorted(SOURCE.glob("*.py"))
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in MODULES
}

sys.path.insert(0, str(ROOT / "perfbench"))
from checks import data_digest  # noqa: E402,F401  (re-exported)
from run import WORKLOADS  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"
RECORDED_DIGESTS = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]


def recorded_digest(name: str, seed: int = 0) -> str:
    """The digest reference.json records for workload ``name``; a seeded
    workload records one per seed."""
    recorded = RECORDED_DIGESTS[name]
    return recorded[str(seed)] if WORKLOADS[name].seeded_digest else recorded


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports npivlab from src,
    with the BLAS thread counts and spin timeout a user gets by default."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SOURCE.parent), env.get("PYTHONPATH")]))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_THREAD_TIMEOUT"):
        env.pop(name, None)
    return env


def run_fresh(program: str, *args: str) -> str:
    """Run ``program`` with ``args`` in a fresh interpreter (see fresh_env);
    return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", program, *args],
        env=fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip()


def rerun_at_one_blas_thread(test_file: str, cases, passed: int) -> None:
    """Rerun the tests ``cases`` of ``test_file`` under pytest in a child
    process at one BLAS thread, and check that ``passed`` tests pass.

    A child, because OpenBLAS reads its thread count when numpy is imported.
    """
    here = Path(test_file).resolve()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *(f"{here}::{case}" for case in cases)],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{passed} passed" in proc.stdout, proc.stdout

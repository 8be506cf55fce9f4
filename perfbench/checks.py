"""Output checks for one benchmark operation.

An operation fails when its exit code is nonzero (see run.py), when the digest
of its CSV data rows differs from the reference, or when a closed-form
invariant of its table does not hold. The digest skips the '#' metadata
lines, which carry a timestamp and the output path.
"""

from __future__ import annotations

import csv
import hashlib
import math

REL_TOL = 1e-12


def data_lines(path) -> list:
    """The header and data rows of an emitted CSV, as raw bytes."""
    with open(path, "rb") as handle:
        return [line for line in handle if not line.startswith(b"#")]


def data_digest(path) -> str:
    return hashlib.sha256(b"".join(data_lines(path))).hexdigest()


def _rows(path) -> list:
    text = [line.decode("utf-8") for line in data_lines(path)]
    return list(csv.DictReader(text))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _demo_invariants(rows, cfg, require_converged) -> list:
    eps = cfg["epsilon"]
    problems = []
    for row in rows:
        if not _close(float(row["l2_dist"]), eps):
            problems.append(f"n={row['n']}: l2_dist {row['l2_dist']} != epsilon {eps}")
        if float(row["q_infty"]) > float(row["analytic_bound"]):
            problems.append(f"n={row['n']}: q_infty above analytic_bound")
    if len(rows) != cfg["n_max"] + 1:
        problems.append(f"{len(rows)} rows, expected {cfg['n_max'] + 1}")
    return problems


def _compare_invariants(rows, cfg, require_converged) -> list:
    problems = []
    for row in rows:
        where = f"n={row['n']} {row['solver']} lambda={row['lambda']}"
        if row["solver"] == "tir":
            lam = float(row["lambda"])
            if float(row["amplification"]) > 1.0 / (2.0 * math.sqrt(lam)):
                problems.append(f"{where}: amplification above 1/(2 sqrt(lambda))")
        if row["solver"] == "constrained":
            if row["constraints_ok"] != "true":
                problems.append(f"{where}: constraints violated")
            if require_converged and row["converged"] != "true":
                problems.append(f"{where}: QP did not converge")
    if not any(row["solver"] == "constrained" for row in rows):
        problems.append("no constrained rows")
    return problems


def _montecarlo_invariants(rows, cfg, require_converged) -> list:
    problems = []
    reps = [row for row in rows if row["row_kind"] == "replication"]
    bad = [row["replication"] for row in reps if row["status"] != "ok"]
    if bad:
        problems.append(f"replications not ok: {sorted(set(bad))}")
    if len({row["replication"] for row in reps}) != cfg["replications"]:
        problems.append("replication count differs from the config")
    for row in rows:
        if row["row_kind"] != "mean":
            continue
        errs = [
            float(r["interior_error"])
            for r in reps
            if r["solver"] == row["solver"] and r["lambda"] == row["lambda"]
        ]
        mean = math.fsum(errs) / len(errs) if errs else float("nan")
        if not _close(float(row["interior_error"]), mean):
            problems.append(f"{row['solver']} mean {row['interior_error']} != {mean!r}")
    return problems


INVARIANTS = {
    "illposedness_demo": _demo_invariants,
    "estimator_comparison": _compare_invariants,
    "montecarlo": _montecarlo_invariants,
}


def check_output(csv_path, cfg, digest, require_converged=True) -> list:
    """Reasons an operation's CSV is wrong; an empty list means it passed.

    cfg is the generated config. require_converged=False accepts constrained
    rows that report converged=false; the digest still pins those rows.
    """
    try:
        actual = data_digest(csv_path)
        rows = _rows(csv_path)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return [f"unreadable CSV: {exc}"]
    problems = []
    if actual != digest:
        problems.append(f"data digest {actual[:12]} != reference {digest[:12]}")
    try:
        problems += INVARIANTS[cfg["experiment"]](rows, cfg, require_converged)
    except (KeyError, ValueError) as exc:
        problems.append(f"malformed table: {exc!r}")
    return problems

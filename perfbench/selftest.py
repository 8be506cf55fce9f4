"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. It checks that:

* a corrupted CSV counts as a failed operation, through the digest and, with
  the digest matched, through the closed-form invariants;
* per-layer call counts repeat exactly across two traced passes and match the
  counts recorded in reference.json;
* the traced pass writes the same CSV data rows as the untraced one and leaves
  no wrapper installed;
* no layer's summed self time exceeds the operation's run_s, times the pool
  threads on montecarlo.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

import checks
import run

SEED = 0


def _corrupt(path, old: bytes, new: bytes) -> str:
    """Copy path with the first data-row occurrence of old replaced by new."""
    with open(path, "rb") as handle:
        lines = handle.readlines()
    for i, line in enumerate(lines):
        if not line.startswith(b"#") and i and old in line:
            lines[i] = line.replace(old, new, 1)
            break
    else:
        raise ValueError(f"{old!r} not found in {path}")
    bad = path + ".bad"
    with open(bad, "wb") as handle:
        handle.writelines(lines)
    return bad


def corrupted_csv_fails(work, failures):
    cases = {
        # a digit changed in a data row: only the digest can see it
        "compare": (b"0.", b"1."),
        # constraints_ok flipped on a constrained row
        "compare_n512": (b",true,", b",false,"),
        # l2_dist no longer equals epsilon
        "demo": (b",0.10000000000000001,", b",0.10000000100000001,"),
    }
    for name, (old, new) in cases.items():
        bench = run.Bench(name, SEED, work)
        bench.digest = bench.reference_digest()
        op = bench.operate()
        if op.problems:
            failures.append(f"{name}: clean operation failed: {op.problems}")
            continue
        bad = _corrupt(os.path.join(work, "out.csv"), old, new)
        if not bench.check(bad):
            failures.append(f"{name}: corrupted CSV passed the checks")
        if name != "compare":
            bench.digest = checks.data_digest(bad)
            if not bench.check(bad):
                failures.append(f"{name}: invariants missed a corrupted CSV")


def traced_passes_repeat(work, failures, recorded):
    for name, expected in recorded.items():
        bench = run.Bench(name, SEED, work)
        bench.digest = bench.reference_digest()
        untraced = bench.operate()
        passes = [bench.operate(trace=True) for _ in range(2)]
        for op in [untraced] + passes:
            failures += [f"{name}: {p}" for p in op.problems]
        if any(op.problems for op in [untraced] + passes):
            continue
        if any(op.digest != untraced.digest for op in passes):
            failures.append(f"{name}: traced CSV data rows differ from untraced")
        calls = [op.report["trace"]["calls"] for op in passes]
        if calls[0] != calls[1]:
            failures.append(f"{name}: call counts differ between traced passes")
        for key, count in expected.items():
            if calls[0].get(key, 0) != count:
                failures.append(f"{name}: {key} = {calls[0].get(key, 0)}, expected {count}")
        threads = (os.cpu_count() or 1) if name == "montecarlo" else 1
        for op in passes:
            by_layer = defaultdict(float)
            for key, seconds in op.report["trace"]["self_s"].items():
                by_layer[key.split(".")[0]] += seconds
            for layer, seconds in sorted(by_layer.items()):
                if seconds > op.run_s * threads:
                    failures.append(
                        f"{name}: {layer} self time {seconds:.3f} s exceeds "
                        f"run_s {op.run_s:.3f} s x {threads} threads"
                    )


def main() -> int:
    with open(os.path.join(run.HERE, "reference.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)["calls"]
    failures = []
    with run.workspace() as work:
        corrupted_csv_fails(work, failures)
        traced_passes_repeat(work, failures, recorded)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

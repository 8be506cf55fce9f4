"""One benchmark operation: a fresh interpreter that runs one npivlab command.

    python3 child.py REPORT SRC [--trace] -- ARGV...
    python3 child.py REPORT SRC --probe

The command runs as the console script runs it, ``npivlab.cli.main(ARGV)``,
with the package imported from SRC. The child writes a JSON report to REPORT:
the CLOCK_MONOTONIC time at which ``npivlab.cli`` finished importing (the
parent subtracts its spawn time), the duration of the ``main`` call, the exit
code, and the thread settings it saw. With --trace it also wraps the layers
(see tracer.py) after the import and reports their spans. With --probe it
reports the environment and imports the package without running a command,
which also leaves its bytecode compiled for the timed operations.
"""

import json
import os
import sys
import time

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NPIVLAB_THREADS")


def _probe() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def main(argv) -> int:
    report_path, src = argv[0], argv[1]
    flags = argv[2:argv.index("--")] if "--" in argv else argv[2:]
    command = argv[argv.index("--") + 1:] if "--" in argv else []
    sys.path.insert(0, os.path.abspath(src))
    report = {"threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}
    if "--probe" in flags:
        report.update(_probe())
        import npivlab.cli  # noqa: F401  (compiles the package's bytecode)
    else:
        import npivlab.cli

        report["imported_at"] = time.monotonic()
        tracer = None
        if "--trace" in flags:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            report["exit_code"] = npivlab.cli.main(command)
        finally:
            report["run_s"] = time.perf_counter() - start
            if tracer is not None:
                report["unrestored"] = tracer.restore()
                report["trace"] = tracer.summary()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return report.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Numerical laboratory for ill-posed instrumented regression problems.

The package discretizes the conditional-expectation operator of a
Gaussian-copula data generating process, constructs the perturbation
sequences that drive the population criterion to zero at fixed distance
from the truth, and compares naive, Tikhonov-regularized, and
shape-constrained estimators on the resulting inverse problem.
"""

import os
import sys
import threading
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

__version__ = "0.1.0"

# An idle OpenBLAS worker busy-waits for 2^28 TSC cycles (about 0.13 s at
# 2.1 GHz) before it sleeps, burning a core after every burst of BLAS calls.
# 2^26 (about 32 ms) still bridges the sub-millisecond gaps inside a burst;
# 2^24 made the replication loop slower, as sleeping workers wake slowly.
# numpy's OpenBLAS reads this once, when function_space first imports numpy,
# so it holds when npivlab is imported before numpy. The setting moves no
# result (the thread count and the work split stay as they are), and a
# user's own value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "26")

# Held across a load, which changes os.environ for the whole process.
_loading = threading.Lock()


def _load_compiled(subpackage: str, name: str):
    """Return one of scipy's compiled extension modules, loading its file on
    the first call without importing the scipy package that holds it
    (scipy.optimize and scipy.special cost about half a second of import
    between them). So a command loads only the kernels it calls: demo and svd
    none, montecarlo the normal cdf, compare NNLS at its first constrained
    solve. The extension registers itself in sys.modules as it loads, and a
    later call returns that module.

    scipy/optimize/_slsqplib links scipy's own OpenBLAS, which starts worker
    threads as it loads, and an idle worker spins for about 32 ms. The load
    therefore runs with OPENBLAS_NUM_THREADS=1, unless the user has set it:
    that copy serves only NNLS's small BLAS calls, and at one thread it
    starts no worker. os.environ is restored once the file is loaded.
    """
    qualified = f"scipy.{subpackage}.{name}"
    with _loading:
        if qualified in sys.modules:
            return sys.modules[qualified]
        scipy = find_spec("scipy")
        roots = scipy.submodule_search_locations if scipy else ()
        found = PathFinder.find_spec(qualified, [os.path.join(r, subpackage) for r in roots])
        if found is not None:
            user_threads = "OPENBLAS_NUM_THREADS" in os.environ
            os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
            try:
                module = module_from_spec(found)
                found.loader.exec_module(module)
            finally:
                if not user_threads:
                    del os.environ["OPENBLAS_NUM_THREADS"]
            return module
    raise ImportError(f"npivlab needs scipy>=1.17, whose scipy/{subpackage}/{name} it loads")

"""Numerical laboratory for ill-posed instrumented regression problems.

The package discretizes the conditional-expectation operator of a
Gaussian-copula data generating process, constructs the perturbation
sequences that drive the population criterion to zero at fixed distance
from the truth, and compares naive, Tikhonov-regularized, and
shape-constrained estimators on the resulting inverse problem.
"""

import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location

__version__ = "0.1.0"

# An idle OpenBLAS worker busy-waits for 2^28 TSC cycles (about 0.13 s at
# 2.1 GHz) before it sleeps, burning a core after every burst of BLAS calls.
# 2^26 (about 32 ms) still bridges the sub-millisecond gaps inside a burst;
# 2^24 made the replication loop slower, as sleeping workers wake slowly.
# Each OpenBLAS copy reads this once, when it loads: both load below when
# npivlab is imported before numpy. The setting moves no result (the thread
# count and the work split stay as they are), and a user's own value wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "26")


def _load_compiled(subpackage: str, name: str):
    """Load one of scipy's compiled extension files without importing the
    scipy package that holds it (scipy.optimize and scipy.special cost about
    half a second of import between them).

    Load order matters. scipy/optimize/_slsqplib links scipy's own OpenBLAS,
    whose worker thread spins idle for a while after the library loads
    (about 32 ms under the OPENBLAS_THREAD_TIMEOUT set above), and the
    extension's init imports numpy. Loaded first, before anything has
    imported numpy, that spin overlaps numpy's import instead of the command
    that follows. The package __init__ runs before every submodule, so this
    holds for any fresh import of npivlab.
    """
    qualified = f"scipy.{subpackage}.{name}"
    spec = find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, subpackage, name + suffix)
            if os.path.isfile(path):
                loader = ExtensionFileLoader(qualified, path)
                module = module_from_spec(spec_from_file_location(qualified, path, loader=loader))
                loader.exec_module(module)
                return module
    raise ImportError(f"npivlab needs scipy>=1.17, whose scipy/{subpackage}/{name} it loads")


# Lawson-Hanson NNLS: nnls(A, b, maxiter) -> (x, rnorm, info). Loaded first.
_nnls = _load_compiled("optimize", "_slsqplib").nnls
# The standard normal cdf, the very ufunc scipy.special.ndtr exports.
_ndtr = _load_compiled("special", "_special_ufuncs").ndtr

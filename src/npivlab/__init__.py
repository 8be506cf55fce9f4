"""Numerical laboratory for ill-posed instrumented regression problems.

The package discretizes the conditional-expectation operator of a
Gaussian-copula data generating process, constructs the perturbation
sequences that drive the population criterion to zero at fixed distance
from the truth, and compares naive, Tikhonov-regularized, and
shape-constrained estimators on the resulting inverse problem.
"""

__version__ = "0.1.0"

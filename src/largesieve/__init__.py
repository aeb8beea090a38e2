"""Numerical verification toolkit for large sieve inequalities.

Dirichlet character arithmetic, Gauss/Ramanujan sums, the associated
multiplicative-function machinery, and evaluators that check each sieve
inequality and asymptotic statement at desk scale.
"""

import os

# One BLAS thread.  numpy's bundled OpenBLAS starts nproc - 1 workers when it
# loads, and they busy-poll; no BLAS call here (a 2-adic value-matrix product,
# char_sum's one row, reduced_fraction_lhs's vdot) is large enough to split, and
# threaded gemm never splits the inner sum, so only idle CPU is saved.  A value
# the user sets is kept; "" counts as unset, since OpenBLAS reads it as its
# default.  This must run before numpy is first imported: a process that
# imported numpy before largesieve keeps the threads it already has.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from largesieve._backend import BACKEND  # noqa: E402

__version__ = "0.1.0"

__all__ = ["BACKEND", "__version__"]

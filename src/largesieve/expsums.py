"""Ramanujan sums c_r as a table mod r, by squarefree divisors."""

from __future__ import annotations

import numpy as np

from largesieve.arith import factorize
# group is unused here but stays importable from this module:
# perfbench/test_perfbench.py checks that its tracer wraps it.
from largesieve.characters import group  # noqa: F401


def ramanujan_table(r: int) -> np.ndarray:
    """c_r(n) for n = 0..r-1 as an exact int64 array.

    c_r(n) = sum over d | (n, r) of d mu(r/d) (Montgomery-Vaughan,
    Multiplicative Number Theory I, 4.1).  Only squarefree k = r/d count, so
    each squarefree k | r adds mu(k) r/k at the multiples of r/k: one strided
    pass per k, from one factorization of r.
    """
    c = np.zeros(r, dtype=np.int64)
    signed = [(1, 1)]  # (k, mu(k)) over the squarefree k | r
    for p in factorize(r).prime_factors:
        signed += [(k * p, -mu) for k, mu in signed]
    for k, mu in signed:
        c[:: r // k] += mu * (r // k)
    return c

"""Ramanujan sums c_r(n) by their divisor formula, one at a time or as a table."""

from __future__ import annotations

import math

import numpy as np

from largesieve.arith import factorize, mobius
# group is unused here but stays importable from this module:
# perfbench/test_perfbench.py checks that its tracer wraps it.
from largesieve.characters import group  # noqa: F401


def ramanujan_sum_divisor(r, n: int) -> int:
    """c_r(n) = sum over d | (n, r) of d mu(r/d); exact integer."""
    f = factorize(r)
    g = math.gcd(n, f.n)  # gcd(0, r) = r gives c_r(0) = phi(r)
    total = 0
    for d in f.divisors():
        if g % d == 0:
            total += d * mobius(f.n // d)
    return total


def ramanujan_table(r: int) -> np.ndarray:
    """c_r(n) for n = 0..r-1 (int64; c_r(n) depends on n only through (n, r))."""
    gcds, at = np.unique(np.gcd(np.arange(r), r), return_inverse=True)
    return np.array([ramanujan_sum_divisor(r, int(g)) for g in gcds], dtype=np.int64)[at]

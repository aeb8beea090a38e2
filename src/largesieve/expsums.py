"""Gauss sums and Ramanujan sums, by definition and by closed formula."""

from __future__ import annotations

import math

import numpy as np

from largesieve.arith import factorize, mobius
# group is unused here but stays importable from this module:
# perfbench/test_perfbench.py checks that its tracer wraps it.
from largesieve.characters import DirichletCharacter, group  # noqa: F401


def e(x: float) -> complex:
    """e(x) = exp(2 pi i x), argument reduced mod 1 before scaling."""
    x = x - math.floor(x)
    return complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over u mod q of chi(u) e(u/q).

    Computed by definition for every character, imprimitive ones included:
    it is the oracle for the closed form of |tau(chi)|^2 that lsi_thm12 uses.
    """
    q = chi.modulus
    values = chi.values()
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(values @ phases)


def ramanujan_sum_exp(r: int, n: int) -> complex:
    """c_r(n) as the exponential sum over u mod r with (u, r) = 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    u = np.arange(r)
    u = u[np.gcd(u, r) == 1]
    return complex(np.exp(2j * np.pi * (u * (n % r)) / r).sum())


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

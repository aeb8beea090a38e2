"""Gauss sums and Ramanujan sums, by definition and by closed formula."""

from __future__ import annotations

import math

import numpy as np

from largesieve.arith import euler_phi, factorize, mobius
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
    if q == 1:
        return 1 + 0j
    values = chi.values()
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(values @ phases)


def ramanujan_sum_exp(r: int, n: int) -> complex:
    """c_r(n) as the exponential sum over u mod r with (u, r) = 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return 1 + 0j
    u = np.arange(r)
    u = u[np.gcd(u, r) == 1]
    return complex(np.exp(2j * np.pi * (u * (n % r)) / r).sum())


def ramanujan_sum_divisor(r, n: int) -> int:
    """c_r(n) = sum over d | (n, r) of d mu(r/d); exact integer."""
    f = factorize(r)
    if f.n == 1:
        return 1
    g = math.gcd(n, f.n)  # gcd(0, r) = r gives c_r(0) = phi(r)
    total = 0
    for d in f.divisors():
        if g % d == 0:
            total += d * mobius(f.n // d)
    return total


def ramanujan_table(r: int) -> np.ndarray:
    """c_r(n) for n = 0..r-1 (int64; c_r depends on n only mod r)."""
    f = factorize(r)
    out = np.empty(r if r > 0 else 1, dtype=np.int64)
    by_gcd = {}
    for n in range(max(r, 1)):
        g = math.gcd(n, r) if r > 1 else 1
        if g not in by_gcd:
            by_gcd[g] = sum(d * mobius(f.n // d) for d in f.divisors() if g % d == 0)
        out[n] = by_gcd[g]
    return out

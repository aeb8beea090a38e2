"""Shared brute-force oracles used by both unit and acceptance tests."""

import math

import numpy as np

from largesieve.arith import von_mangoldt
from largesieve.asymptotics import _nu_sums


def vm_k_recurrence_tables(N, kmax):
    """Lambda_k for k = 1..kmax via the convolution recurrence.

    Independent of the divisor-sum evaluation: builds Lambda_{k+1} from
    Lambda_k * Lambda and the pointwise log multiplication.
    """
    divisors = [[] for _ in range(N + 1)]
    for d in range(1, N + 1):
        for m in range(d, N + 1, d):
            divisors[m].append(d)
    lam = np.array([0.0] + [von_mangoldt(n) for n in range(1, N + 1)])
    tables = {1: lam}
    for k in range(1, kmax):
        nxt = np.zeros(N + 1)
        for n in range(1, N + 1):
            conv = sum(tables[k][d] * lam[n // d] for d in divisors[n])
            nxt[n] = tables[k][n] * math.log(n) + conv
        tables[k + 1] = nxt
    return tables


def nu_dfs_recursive(primes, x, s):
    """The recursive squarefree-product enumeration, kept as the reference.

    Visits the products in depth-first preorder and adds each weight to a
    running float.  _backend.nu_dfs keeps this accumulation order, so
    tests/test_series_kernels.py compares the two with ==.  Each weight m^-s
    is a numpy power of a one-element array, as the kernel's are of whole
    arrays; libm pow rounds differently on about 5% of m at s = 1.5.
    """
    ps = np.asarray(primes, dtype=np.int64).tolist()
    n_ps = len(ps)
    count = 1
    sum_tau = 1
    sum_inv = 1.0
    sum_tau_inv = 1.0

    def rec(start, n, tau):
        nonlocal count, sum_tau, sum_inv, sum_tau_inv
        for j in range(start, n_ps):
            m = n * float(ps[j])
            if m > x:
                break
            t2 = tau * 2
            w = float((np.array([m]) ** -s)[0])
            count += 1
            sum_tau += t2
            sum_inv += w
            sum_tau_inv += float(t2) * w
            rec(j + 1, m, t2)

    rec(0, 1.0, 1)
    return count, sum_tau, sum_inv, sum_tau_inv


def L1_chiD_chunks(table, T):
    """sum over n <= T of table[n % D] / n, one pairwise np.sum per 2^20 terms."""
    D = len(table)
    total = 0.0
    chunk = 1 << 20
    for lo in range(1, T + 1, chunk):
        hi = min(lo + chunk - 1, T)
        n = np.arange(lo, hi + 1)
        total += float(np.sum(table[n % D] / n)) if D > 1 else float(np.sum(1.0 / n))
    return total


def T_q(q, x: float) -> float:
    """sum of nu(n) / n over n <= x with (n, q) = 1."""
    return _nu_sums(q, x)[2]


def count_nu_tau(x: float) -> int:
    """Exact sum of nu(n) tau(n) over n <= x."""
    return int(_nu_sums(1, x)[1])

"""The vectorised series kernels against their loop oracles, output for output.

nu_dfs and L1_chiD promise the same floats as the loops in oracles.py (the
same additions in the same order), so every comparison is exact.
"""

import tracemalloc

import numpy as np
import pytest

from largesieve import _backend, asymptotics
from largesieve import exceptional as ex
from largesieve.arith import FactoredInt, factorize, sieve_primes
from largesieve.characters import chi4, real_primitive_characters
from oracles import L1_chiD_chunks, nu_dfs_recursive


def _primes(x, mod4=True, excluded=()):
    ps = sieve_primes(max(int(x), 2)).primes
    ps = ps[(ps <= x) & ~np.isin(ps, list(excluded))]
    return ps[ps % 4 == 3] if mod4 else ps


def _assert_same(ps, x, s):
    got = _backend.nu_dfs(ps, x, s)
    want = nu_dfs_recursive(ps, x, s)
    assert got == want
    assert [type(v) for v in got] == [int, int, float, float]


@pytest.mark.parametrize("s", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("x", [10, 10**4, 10**5, 3 * 10**6])
def test_nu_dfs_matches_recursion(x, s):
    _assert_same(_primes(x), float(x), s)


def test_nu_dfs_empty_prime_list():
    ps = np.zeros(0, dtype=np.int64)
    for x in (0.5, 100.0):
        assert _backend.nu_dfs(ps, x, 1.0) == (1, 1, 1.0, 1.0)
        _assert_same(ps, x, 1.5)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 2.5, 2.999])
def test_nu_dfs_below_three(x):
    ps = np.array([2, 3, 5, 7], dtype=np.int64)
    for s in (1.0, 1.5):
        _assert_same(ps, x, s)


@pytest.mark.parametrize("q", [21, 3 * 7 * 11 * 19, 1003 * 1019])
def test_nu_dfs_with_the_primes_of_q_excluded(q):
    for x in (10**4, 10**5 + 0.5):
        ps = asymptotics._primes_3mod4(x, factorize(q).prime_factors)
        assert np.array_equal(ps, _primes(x, excluded=factorize(q).prime_factors))
        for s in (1.0, 1.5):
            _assert_same(ps, x, s)
        assert asymptotics.S_q(q, x) == nu_dfs_recursive(ps, float(int(x)), 1.0)[3]


@pytest.mark.parametrize("batch", [1, 5, 64, 1000])
def test_nu_dfs_across_batch_boundaries(monkeypatch, batch):
    monkeypatch.setattr(_backend, "_BATCH_NODES", batch)
    for x in (10**3, 10**4 + 0.5):
        for mod4 in (True, False):
            for s in (1.0, 1.5):
                _assert_same(_primes(x, mod4), float(x), s)


def test_S_q_excludes_primes_of_a_modulus_beyond_int64():
    x = 10**4
    huge = FactoredInt(3**40 * 7**5 * (2**89 - 1), ((3, 40), (7, 5), (2**89 - 1, 1)))
    assert huge.n > 2**63
    assert asymptotics.S_q(huge, x) == asymptotics.S_q(21, x)


@pytest.mark.parametrize("D", [4, 5, 8, 12, 1009])
def test_L1_chiD_matches_chunk_loop(D):
    for chi in real_primitive_characters(D):
        table = chi.values().real
        for T in (D * D, 2**14 - 1, 2**14, 2**14 + 1, 2**20 - 1, 2**20, 2**20 + 1,
                  2**20 + 5, 2**20 + 129, 3 * 2**20 + 7):
            if T < D * D:
                continue  # below the T >= D^2 guard
            L = ex.L1_chiD(chi, T)
            assert L.value == L1_chiD_chunks(table, T)
            assert L.truncation == T


@pytest.mark.parametrize("leaf", [128, 1000, 2**16])
def test_L1_chiD_across_leaf_sizes(monkeypatch, leaf):
    # np.sum splits only runs of more than 128 terms, so any leaf of at least
    # 128 terms gives the same bits
    monkeypatch.setattr(ex, "_LEAF", leaf)
    for chi in real_primitive_characters(5) + real_primitive_characters(8):
        table = chi.values().real
        for T in (leaf - 1, leaf, leaf + 1, 5 * leaf + 3, 2**20 + 129):
            if T >= chi.modulus ** 2:
                assert ex.L1_chiD(chi, T).value == L1_chiD_chunks(table, T)


def test_L1_chiD_memory_is_independent_of_T():
    # the leaves need O(2^14 + D) memory, well under one 2^20-float chunk (8 MB)
    chi = chi4()
    tracemalloc.start()
    try:
        ex.L1_chiD(chi, 3 * 2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20

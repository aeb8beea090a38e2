"""The vectorised series kernels against their loop oracles, output for output.

nu_dfs, nu_dfs_excluding, the zeta and L(s, chi_4) partial sums and L1_chiD
promise the same floats as the loops in oracles.py (the same additions in
the same order), so every comparison is exact.
"""

import math

import tracemalloc

import numpy as np
import pytest

from largesieve import _backend, asymptotics
from largesieve import exceptional as ex
from largesieve.arith import FactoredInt, factorize, sieve_primes
from largesieve.characters import chi4, real_primitive_characters
from oracles import L_chi4_partial, L1_chiD_chunks, nu_dfs_recursive, zeta_partial


def _primes(x, mod4=True, excluded=()):
    ps = sieve_primes(max(int(x), 2))
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
        ps = _primes(x, excluded=factorize(q).prime_factors)
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


def _assert_shared(qs, x):
    """S_q over qs, from one walk, equals the recursion over each q's own primes."""
    want = [nu_dfs_recursive(_primes(x, excluded=factorize(q).prime_factors),
                             float(math.floor(x)), 1.0)[3] for q in qs]
    assert asymptotics.S_q(qs, x) == want
    assert all(type(v) is float for v in want)
    for q, w in zip(qs, want):
        assert asymptotics.S_q(q, x) == w


def _assert_excluding(ps, x, excluded, s):
    """nu_dfs_excluding equals the recursion over ps without each set."""
    got = _backend.nu_dfs_excluding(ps, x, excluded, s)
    want = [nu_dfs_recursive(ps[~np.isin(ps, [p for p in e if p <= x])], x, s)
            for e in excluded]
    assert got == want
    assert all([type(v) for v in t] == [int, int, float, float] for t in got)


@pytest.mark.parametrize("x", [10**3, 10**4 + 0.5, 10**5])
def test_shared_walk_serves_duplicate_trivial_and_unrelated_moduli(x):
    # q = 1 and q = 5 * 13 (no prime = 3 mod 4) exclude nothing and share a
    # sum with each other; 21 appears twice and 3 * 7 * 5 hits the same primes
    _assert_shared([21, 1, 3, 21, 5 * 13, 105, 7, 1, 3 * 7 * 11 * 19], x)


def test_shared_walk_with_an_excluded_prime_above_x():
    # 10007 and 10039 = 3 (mod 4) exceed x: 3 * 10007 and 3 share the sums of 3
    x = 10**4
    _assert_shared([3 * 10007, 10039, 3, 1, 7 * 10039], x)
    ps = _primes(x)
    _assert_excluding(ps, float(x), [(3, 10007), (10039,), (3,), ()], 1.5)


def test_shared_walk_with_a_modulus_beyond_int64():
    x = 10**4
    huge = FactoredInt(3**40 * 7**5 * (2**89 - 1), ((3, 40), (7, 5), (2**89 - 1, 1)))
    assert huge.n > 2**63
    got = asymptotics.S_q([huge, 21, 1], x)
    assert got == [asymptotics.S_q(21, x)] * 2 + [asymptotics.S_q(1, x)]
    ps = _primes(x)
    assert (_backend.nu_dfs_excluding(ps, float(x), [(3, 7, 2**89 - 1)], 1.0)
            == [nu_dfs_recursive(_primes(x, excluded=(3, 7)), float(x), 1.0)])


def test_shared_walk_beyond_one_mask_of_distinct_sets():
    # 70 single primes and 30 pairs: 100 distinct sets, two groups of bits
    x = 10**4
    ps = _primes(x)
    small = ps[:70].tolist()
    excluded = [(p,) for p in small] + [(p, q) for p, q in zip(small[:30], small[1:31])]
    assert len(set(excluded)) > _backend._MASK_BITS
    _assert_excluding(ps, float(x), excluded + [()], 1.0)
    _assert_shared([1] + small[:40] + [p * q for p, q in zip(small[:30], small[1:31])], x)


@pytest.mark.parametrize("batch", [1, 5, 64])
def test_shared_walk_across_batch_boundaries(monkeypatch, batch):
    monkeypatch.setattr(_backend, "_BATCH_NODES", batch)
    for x in (10**3, 10**4 + 0.5):
        ps = _primes(x)
        _assert_excluding(ps, float(x), [(3,), (7, 11), (), (3, 7, 11, 19), (19, 23)], 1.5)
        _assert_shared([3, 77, 1, 3 * 7 * 11 * 19, 19 * 23], x)


@pytest.mark.parametrize("x", [1, 1.5, 2, 2.999])
def test_shared_walk_below_three(x):
    _assert_shared([1, 3, 21, 5], x)
    ps = np.array([3, 7, 11], dtype=np.int64)
    for xx in (0.5, x):
        _assert_excluding(ps, float(xx), [(3,), (), (7, 11)], 1.5)


@pytest.mark.parametrize("s", [1.1, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("cutoff", [1000, 1001, 1002, 1003, 10**6])
def test_zeta_and_L_chi4_match_separate_tables(s, cutoff):
    zeta, L4 = asymptotics._zeta_and_L_chi4(s, cutoff)
    assert zeta == zeta_partial(s, cutoff)
    assert L4 == L_chi4_partial(s, cutoff)


def test_zeta_and_L_chi4_keep_one_table():
    # one float64 table of 10^6 entries (8 MB), not four
    tracemalloc.start()
    try:
        asymptotics._zeta_and_L_chi4(2.0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 10**6


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

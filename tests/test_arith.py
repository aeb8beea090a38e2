import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largesieve import _backend, arith
from largesieve.arith import (FactoredInt, euler_phi, factorize, q3_radical,
                              r2_coprime_table, sieve_primes, von_mangoldt_table)
from largesieve.errors import ResourceLimitError
from oracles import (divisor_count, divisors_td, factorize_td, mobius_td, nu_td, r2_coprime,
                     rho_weight, von_mangoldt, von_mangoldt_k)


def is_prime_td(n):
    """Trial division by 6k+-1; fully independent of the sieve."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def test_sieve_small():
    assert list(sieve_primes(10).primes) == [2, 3, 5, 7]
    assert list(sieve_primes(2).primes) == [2]
    assert len(sieve_primes(97)) == 25 and sieve_primes(97).primes[-1] == 97
    assert not _backend.prime_mask(1).any()


def test_sieve_against_trial_division():
    table = sieve_primes(10**6)
    assert len(table) == sum(1 for n in range(2, 10**6 + 1) if is_prime_td(n))
    primes = set(table.primes.tolist())
    rng = np.random.default_rng(42)
    for n in rng.integers(2, 10**6, size=500):
        assert (int(n) in primes) == is_prime_td(int(n))


def test_sieve_primes_keeps_one_read_only_int64_array():
    # the primes are the array np.flatnonzero returns, not a copy of it
    limit = 2_650_000
    tracemalloc.start()
    try:
        table = sieve_primes(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.primes.dtype == np.int64
    assert not table.primes.flags.writeable
    mask_bytes = limit + 1  # one uint8 per n <= limit
    assert peak <= 1.1 * (mask_bytes + table.primes.nbytes)


@pytest.mark.parametrize("lo, hi", [
    (0, 2), (0, 3), (1, 2), (1, 10), (2, 2), (2, 3), (3, 3), (3, 4), (0, 1000),
    (1, 1000), (2, 1000), (3, 1000),
    (500, 500), (9, 9), (8, 9), (7, 9),  # lo = hi
    (100, 121), (120, 169), (9000, 97**2), (97**2 - 1, 97**2),  # hi a prime square
    (20, 1000), (31, 1000), (25, 961),  # the window contains sqrt(hi)
])
def test_sieve_window_edges(lo, hi):
    table = sieve_primes(hi, lo)
    assert table.primes.tolist() == [n for n in range(lo + 1, hi + 1) if is_prime_td(n)]
    assert (table.lo, table.limit) == (lo, hi)
    assert table.primes.dtype == np.int64 and not table.primes.flags.writeable


def test_sieve_random_windows_against_trial_division():
    is_prime = np.array([is_prime_td(n) for n in range(10**5)])
    rng = np.random.default_rng(15)
    for _ in range(200):
        hi = int(rng.integers(2, 10**5))
        lo = int(rng.integers(0, hi + 1))
        want = np.flatnonzero(is_prime[lo + 1:hi + 1]) + lo + 1
        assert np.array_equal(sieve_primes(hi, lo).primes, want), (lo, hi)


def test_prime_mask_holds_the_odd_n_of_its_window():
    assert not _backend.prime_mask(1).any() and not _backend.prime_mask(0).size
    mask = _backend.prime_mask(120, 100)  # 101, 103, ..., 119
    assert mask.tolist() == [is_prime_td(n) for n in range(101, 121, 2)]


def test_sieve_window_rejects_lo_outside_zero_to_limit():
    for lo in (-1, 11):
        with pytest.raises(ValueError):
            sieve_primes(10, lo)


def test_prime_table_builds_the_first_request_then_at_least_doubles(monkeypatch):
    monkeypatch.setattr(arith, "_table", None)
    assert arith.prime_table(3_000_000).limit == 3_000_000
    assert arith.prime_table(3_000_001).limit == 6_000_000
    assert arith.prime_table(100).limit == 6_000_000
    monkeypatch.setattr(arith, "_table", None)
    assert arith.prime_table(100).limit == 2**16
    assert arith.prime_table(2**16 + 1).limit == 2**17


def test_sieve_budget_guard(monkeypatch):
    monkeypatch.setattr(arith, "SIEVE_LIMIT_BUDGET", 1000)
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**6)
    with pytest.raises(ResourceLimitError):
        sieve_primes(10**6, 10**6 - 10)  # the budget holds for a window, too


def test_factorize():
    assert factorize(1).factors == ()
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(9991).factors == ((97, 1), (103, 1))
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_matches_trial_division():
    for n in range(1, 10**5 + 1):
        assert factorize(n).factors == factorize_td(n), n


def test_factorize_edge_cases(monkeypatch):
    """Prime powers, products of two primes near 10^6, and n whose square root
    lies just below and just above the limit of the shared prime table, here
    set to 1000 (997 and 1009 are the primes around it)."""
    monkeypatch.setattr(arith, "_table", sieve_primes(1000))
    below = [997**2, 999 * 1001, 1000**2 - 1]  # isqrt(n) + 1 <= 1000: the table as it is
    above = [1000**2, 1000**2 + 1, 997 * 1009, 1001**2, 1009**2, 1009 * 1013, 2 * 1009**2]
    for n in below:
        assert factorize(n).factors == factorize_td(n), n
    assert arith.prime_table(2).limit == 1000
    for n in above:
        assert factorize(n).factors == factorize_td(n), n
    assert arith.prime_table(2).limit == 2000  # grown once, by doubling
    assert factorize(1).factors == ()
    assert factorize(2**40).factors == ((2, 40),)
    assert factorize(3**30).factors == ((3, 30),)
    for p, q in [(999983, 1000003), (999979, 999983), (1000003, 1000033)]:
        assert factorize(p * q).factors == factorize_td(p * q) == ((p, 1), (q, 1))


def test_factored_int_invariants():
    with pytest.raises(ValueError):
        FactoredInt(12, ((3, 1), (2, 2)))  # primes must increase
    with pytest.raises(ValueError):
        FactoredInt(10, ((2, 1), (3, 1)))  # does not multiply back


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(12) == sum(1 for k in range(1, 13) if math.gcd(k, 12) == 1)
    assert euler_phi(97) == 96


def test_phi_divisor_sum_identity():
    for n in range(1, 10**4 + 1):
        assert sum(euler_phi(d) for d in divisors_td(n)) == n


def test_mobius():
    assert mobius_td(1) == 1
    assert mobius_td(12) == 0
    assert mobius_td(30) == -1


def test_mobius_divisor_sum_identity():
    mu = [0] + [mobius_td(n) for n in range(1, 10**4 + 1)]
    for n in range(1, 10**4 + 1):
        total = sum(mu[d] for d in divisors_td(n))
        assert total == (1 if n == 1 else 0)


@given(st.integers(2, 1000), st.integers(2, 1000))
@settings(max_examples=200, deadline=None)
def test_multiplicativity(m, n):
    if math.gcd(m, n) != 1:
        return
    assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
    assert divisor_count(m * n) == divisor_count(m) * divisor_count(n)
    assert mobius_td(m * n) == mobius_td(m) * mobius_td(n)


def test_divisor_count():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(2**10) == 11


def test_von_mangoldt():
    assert von_mangoldt(1) == 0.0
    assert von_mangoldt(8) == math.log(2)
    assert von_mangoldt(12) == 0.0
    assert von_mangoldt(97) == math.log(97)


def test_von_mangoldt_table_matches_pointwise():
    table = von_mangoldt_table(3000)
    for n in range(1, 3001):
        assert table[n] == von_mangoldt(n)


def test_von_mangoldt_k_examples():
    assert von_mangoldt_k(1, 1) == 0.0
    assert von_mangoldt_k(1, 3) == 0.0
    assert von_mangoldt_k(7, 1) == pytest.approx(math.log(7), abs=1e-12)
    # direct mu * log^2 evaluation at n = 12
    expect = sum(mobius_td(d) * math.log(12 / d) ** 2 for d in divisors_td(12))
    assert von_mangoldt_k(12, 2) == pytest.approx(expect, abs=1e-12)


def test_von_mangoldt_k_recurrence():
    from oracles import vm_k_recurrence_tables
    N, kmax = 10**4, 3
    tables = vm_k_recurrence_tables(N, kmax)
    for k in range(1, kmax + 1):
        direct = np.array([0.0] + [von_mangoldt_k(n, k) for n in range(1, N + 1)])
        assert np.max(np.abs(direct - tables[k])) <= 1e-8


def test_nu():
    assert nu_td(1) == 1
    assert nu_td(3) == 1
    assert nu_td(9) == 0
    assert nu_td(21) == 1
    assert nu_td(6) == 0  # 2 is not 3 mod 4
    for n in range(1, 500):
        if nu_td(n):
            assert mobius_td(n) ** 2 == 1
            assert all(p % 4 == 3 for p, _ in factorize(n).factors)


def test_q3_radical():
    assert q3_radical(1).n == 1
    assert q3_radical(63).n == 21
    assert q3_radical(10).n == 1
    assert q3_radical(4389).n == 4389  # 3*7*11*19, all 3 mod 4


def r2_brute(n):
    """Oracle: full scan over the lattice square."""
    count = 0
    r = math.isqrt(n)
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            if x * x + y * y == n and math.gcd(x, y) == 1:
                count += 1
    return count


def test_squarefree_inverse_phi_matches_trial_division():
    from oracles import euler_phi_td
    n = 10**4
    w = arith.squarefree_inverse_phi(n)
    assert w.dtype == np.float64 and w.shape == (n + 1,) and w[0] == 0.0
    for r in range(1, n + 1):
        assert w[r] == (1.0 / euler_phi_td(r) if mobius_td(r) else 0.0), r
    for m in range(40):
        assert np.array_equal(arith.squarefree_inverse_phi(m), w[: m + 1])


def test_squarefree_inverse_phi_budget(monkeypatch):
    monkeypatch.setattr(arith, "SIEVE_LIMIT_BUDGET", 1000)
    assert arith.squarefree_inverse_phi(1000).shape == (1001,)
    with pytest.raises(ResourceLimitError):
        arith.squarefree_inverse_phi(1001)


def test_r2_coprime():
    assert r2_coprime(1) == 4
    assert r2_coprime(5) == 8
    assert r2_coprime(9) == 0
    for n in range(1, 400):
        assert r2_coprime(n) == r2_brute(n)


def test_r2_table_matches_scalar():
    table = r2_coprime_table(2000)
    for n in range(1, 2001):
        assert table[n] == r2_coprime(n)


def test_rho_weight():
    assert rho_weight(1, 100) == 1.0
    assert rho_weight(7, 7) == 1.0
    expect = math.log(2) * math.log(3) / math.log(100) ** 2
    assert rho_weight(6, 100) == pytest.approx(expect, rel=1e-12)

"""Prime sieving, factorization, and the arithmetic functions used throughout.

Everything here is a pure function of its inputs, except prime_table, which
keeps one shared PrimeTable and replaces it by a larger one on demand.
PrimeTable instances are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from largesieve import _backend
from largesieve.errors import ResourceLimitError

# Desk-scale guard: sieving/enumeration requests beyond this raise
# ResourceLimitError rather than thrash memory.  10^8 entries ~ 100 MB mask.
SIEVE_LIMIT_BUDGET = 10**8


@dataclass(frozen=True)
class PrimeTable:
    """All primes in (lo, limit], ascending."""

    limit: int
    primes: np.ndarray  # int64, ascending
    lo: int = 0

    def __post_init__(self):
        self.primes.setflags(write=False)

    def __len__(self) -> int:
        return int(self.primes.shape[0])

    def upto(self, x: int | float) -> np.ndarray:
        """Primes in (lo, x] (requires x <= limit)."""
        if x > self.limit:
            raise ValueError(f"table only covers primes <= {self.limit}")
        return self.primes[: int(np.searchsorted(self.primes, math.floor(x), side="right"))]


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer with its prime factorization.

    factors is a tuple of (prime, exponent) pairs with primes strictly
    increasing; n = 1 has an empty tuple.
    """

    n: int
    factors: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if e < 1 or p <= last:
                raise ValueError(f"malformed factorization of {self.n}")
            last = p
            prod *= p**e
        if prod != self.n or self.n < 1:
            raise ValueError(f"factorization does not multiply back to {self.n}")

    @property
    def prime_factors(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


_table: PrimeTable | None = None


def sieve_primes(limit: int, lo: int = 0) -> PrimeTable:
    """Every prime in (lo, limit], by the odd-only sieve of Eratosthenes.

    The primes are the indices np.flatnonzero finds in _backend.prime_mask,
    mapped in place to the odd n they stand for.  For lo < 2 the mask starts
    at n = 1, and the slot of 1 stands for 2.
    """
    if limit < 2:
        raise ValueError("limit must be >= 2")
    if limit > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(
            f"sieve limit {limit} exceeds budget {SIEVE_LIMIT_BUDGET}")
    if not 0 <= lo <= limit:
        raise ValueError("lo must be in [0, limit]")
    start = int(lo) if lo >= 2 else 0
    mask = _backend.prime_mask(int(limit), start)
    if not start:
        mask[0] = True
    primes = np.flatnonzero(mask)
    primes += (start + 1) // 2
    primes *= 2
    primes += 1
    if not start:
        primes[0] = 2
    return PrimeTable(limit=int(limit), primes=primes, lo=int(lo))


def prime_table(limit: int) -> PrimeTable:
    """Shared table of the primes <= limit.

    The first call sieves exactly max(limit, 2^16); a later call past the
    table's limit sieves at least twice that limit, so a run of growing
    requests sieves O(largest request) in all.
    """
    global _table
    limit = max(int(limit), 2)
    if _table is None or _table.limit < limit:
        size = 2**16 if _table is None else 2 * _table.limit
        _table = sieve_primes(max(limit, min(size, SIEVE_LIMIT_BUDGET)))
    return _table


def factorize(n: int | FactoredInt) -> FactoredInt:
    """Canonical factorization by trial division (inputs are desk-scale)."""
    if isinstance(n, FactoredInt):
        return n
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    table = prime_table(math.isqrt(n) + 1)
    m = n
    factors = []
    for p in table.primes:  # every prime <= isqrt(n); the loop stops at p^2 > m
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    if m > 1:
        factors.append((m, 1))
    return FactoredInt(n, tuple(factors))


def euler_phi(n: int | FactoredInt) -> int:
    """phi(n) = n * prod(1 - 1/p)."""
    f = factorize(n)
    out = f.n
    for p, _ in f.factors:
        out = out // p * (p - 1)
    return out


def q3_radical(q: int | FactoredInt) -> FactoredInt:
    """Product of the distinct primes p | q with p = 3 (mod 4)."""
    f = factorize(q)
    ps = [p for p, _ in f.factors if p % 4 == 3]
    out = 1
    for p in ps:
        out *= p
    return FactoredInt(out, tuple((p, 1) for p in ps))


def squarefree_inverse_phi(n: int) -> np.ndarray:
    """w[r] = 1/phi(r) at every squarefree r <= n, and 0.0 elsewhere (w[0] too).

    One strided pass per prime p <= n multiplies phi[p::p] by p - 1 and zeroes
    phi[p*p::p*p].  phi(r) stays an exact integer in float64, so each entry is
    the correctly rounded 1.0 / euler_phi(r).
    """
    if n > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(f"table size {n} exceeds budget {SIEVE_LIMIT_BUDGET}")
    phi = np.ones(n + 1)
    phi[0] = 0.0
    for p in prime_table(n).upto(n):
        phi[p::p] *= p - 1
        phi[p * p::p * p] = 0.0
    return np.reciprocal(phi, out=phi, where=phi != 0.0)


def r2_coprime_table(n_max: int) -> np.ndarray:
    """r2(n) for every n <= n_max in one pass (int64 array).

    r2(n) counts the ordered pairs (x, y), signs included, with x^2 + y^2 = n
    and gcd(x, y) = 1; gcd(0, k) = |k|, so r2(1) = 4.
    """
    if n_max > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(
            f"r2 table size {n_max} exceeds budget {SIEVE_LIMIT_BUDGET}")
    return _backend.r2_counts(int(n_max))


def von_mangoldt_table(N: int) -> np.ndarray:
    """Lambda(n) for 0 <= n <= N as a float array (index 0 unused)."""
    if N > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(f"table size {N} exceeds budget {SIEVE_LIMIT_BUDGET}")
    out = np.zeros(N + 1)
    if N < 2:
        return out
    for p in prime_table(N).upto(N):
        p = int(p)
        logp = math.log(p)
        m = p
        while m <= N:
            out[m] = logp
            m *= p
    return out

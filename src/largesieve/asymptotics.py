"""Sums over squarefree products of primes = 3 (mod 4) and their asymptotics.

S_q(x) sums nu(n) tau(n) / n over n <= x coprime to q and satisfies
explicit main-term/error-term bounds with the Euler-product constant
computed here.  The generating Dirichlet series factorizes through
zeta(s)/L(s, chi_4); z_series_check verifies the factorization numerically
three ways.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from largesieve import _backend
from largesieve.arith import SIEVE_LIMIT_BUDGET, factorize, primes_upto, q3_radical
from largesieve.errors import DomainError, ResourceLimitError

# cutoff used when a single value of the constant is needed internally
CONSTANT_C_CUTOFF = 10**6


@dataclass(frozen=True)
class EulerProductValue:
    """A truncated Euler product with its cutoff and tail estimate."""

    value: float
    cutoff: int
    tail_bound: float


def _primes_3mod4(x: float) -> np.ndarray:
    """Primes p = 3 (mod 4) up to x."""
    if x > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(f"enumeration bound {x} exceeds budget {SIEVE_LIMIT_BUDGET}")
    ps = primes_upto(x)
    return ps[ps % 4 == 3]


def _nu_sums(qs, x: float):
    """nu_dfs's (count, sum_tau, sum_inv, sum_tau_inv) over n <= x with (n, q) = 1.

    One 4-tuple per modulus in qs, in order, all read off one walk.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    excluded = [factorize(q).prime_factors for q in qs]
    return _backend.nu_dfs_excluding(_primes_3mod4(x), math.floor(x), excluded, 1.0)


def S_q(q, x: float):
    """sum of nu(n) tau(n) / n over n <= x with (n, q) = 1.

    q may also be a sequence of moduli: then the sums form a list, one per
    modulus in order, read off one enumeration of the products up to x.
    """
    if isinstance(q, Iterable):
        return [sums[3] for sums in _nu_sums(q, x)]
    return _nu_sums([q], x)[0][3]


def constant_c(cutoff: int) -> EulerProductValue:
    """Residue of the nu tau generating series at s = 1.

    (2/pi) * prod over p = 3 (mod 4), p <= cutoff, of (1 - 2/(p(p+1))),
    with tail bound 2/cutoff by integral comparison.  (The source display
    carries prefactor 3/pi, an Euler-factor slip at p = 2: nu-supported
    integers are odd, and the empirical mean of nu tau pins 2/pi.)
    """
    if cutoff < 3:
        raise DomainError("cutoff must be >= 3")
    ps = _primes_3mod4(cutoff).astype(np.float64)
    value = 2.0 / math.pi * float(np.prod(1.0 - 2.0 / (ps * (ps + 1.0))))
    return EulerProductValue(value=value, cutoff=int(cutoff), tail_bound=2.0 / cutoff)


@lru_cache(maxsize=8)
def _c_at(cutoff: int) -> float:
    return constant_c(cutoff).value


def lemma21_main_term(q, x: float, cutoff: int = CONSTANT_C_CUTOFF) -> float:
    """c * prod over p | q3 of (1 + 2/p)^-1 * log x."""
    if x < 1:
        raise DomainError("x must be >= 1")
    rad = q3_radical(q)
    out = _c_at(cutoff) * math.log(x)
    for p in rad.prime_factors:
        out /= 1.0 + 2.0 / p
    return out


@dataclass(frozen=True)
class ErrorBounds:
    """Error-term shapes for the S_q main-term approximation.

    structured: (1 + sum over p | q3 of log(p)/p) * prod over p | q3 of (1 + 2/p)
    simplified: (log log 3q)^3
    Both come without implied constants; consumers fit those empirically.
    """

    structured: float
    simplified: float


def lemma21_error(q, x: float) -> ErrorBounds:
    if x < 1:
        raise DomainError("x must be >= 1")
    rad = q3_radical(q)
    s = 1.0 + sum(math.log(p) / p for p in rad.prime_factors)
    prod = 1.0
    for p in rad.prime_factors:
        prod *= 1.0 + 2.0 / p
    n = factorize(q).n
    return ErrorBounds(structured=s * prod,
                       simplified=math.log(math.log(3 * n)) ** 3)


def lemma21_scan(qs, xs, cutoff: int = CONSTANT_C_CUTOFF):
    """Deviation |S_q(x) - main| / structured-error over a grid.

    Returns (rows, fitted_C): one dict per grid point, q outer and x inner,
    and the single fitted constant max deviation/error across the grid.
    Each q is factorized once, and each x enumerates its products once for
    every q.
    """
    fs = [factorize(q) for q in qs]
    xs = [float(x) for x in xs]
    sums = {x: S_q(fs, x) for x in xs if fs}
    rows = []
    fitted = 0.0
    for i, f in enumerate(fs):
        err = lemma21_error(f, max(xs)).structured
        for x in xs:
            s = sums[x][i]
            main = lemma21_main_term(f, x, cutoff)
            dev = abs(s - main)
            ratio = dev / err
            fitted = max(fitted, ratio)
            rows.append({"q": int(f.n), "x": x, "S_q": s, "main_term": main,
                         "deviation": dev, "structured_error": err, "ratio": ratio})
    return rows, fitted


# ---------------------------------------------------------------------
# Dirichlet-series factorization checks


def _zeta_and_L_chi4(s: float, cutoff: int) -> tuple[float, float]:
    """Partial sums of zeta(s) and L(s, chi_4) over n <= cutoff, from one power table.

    chi_4 is the n^-s table with its even entries zeroed and its n = 3 (mod 4)
    entries negated, so both sums add the same floats as the separate
    tables chi_4(n) * n^-s would.
    """
    w = np.arange(1, cutoff + 1, dtype=np.float64)
    np.power(w, -s, out=w)
    zeta = float(np.sum(w))
    w[1::2] = 0.0
    np.negative(w[2::4], out=w[2::4])  # n = 3 (mod 4) at indices 2, 6, ...
    return zeta, float(np.sum(w))


@dataclass
class ZSeriesReport:
    s: float
    cutoff: int
    direct: float
    euler_product: float
    factored: float
    factored_paper_variant: float
    max_discrepancy: float
    tolerance: float
    passed: bool
    two_factor: float        # 1 - 2^-s, the corrected 2-adic factor
    two_factor_paper: float  # 1 - 4^-s, as printed in the source display


def z_series_check(s: float, cutoff: int) -> ZSeriesReport:
    """Compare three evaluations of the nu tau Dirichlet series at s.

    direct: truncated series; euler_product: prod (1 + 2 p^-s) over
    p = 3 (mod 4) up to cutoff; factored: zeta(s)/L(s,chi4) times
    (1 - 2^-s) times the convergent correction product.  The variant with
    the 2-adic factor (1 - 4^-s) is reported alongside for reference; it
    overshoots by the factor (1 + 2^-s).
    """
    if s <= 1:
        raise DomainError("series diverges for s <= 1")
    if cutoff < 10**3:
        raise DomainError("cutoff must be >= 10^3")
    primes = _primes_3mod4(cutoff)
    _, _, _, direct = _backend.nu_dfs(primes, float(cutoff), s)
    ps = primes.astype(np.float64)
    ps_s = ps**-s
    euler = float(np.prod(1.0 + 2.0 * ps_s))
    zeta, L4 = _zeta_and_L_chi4(s, cutoff)
    corr = float(np.prod((1.0 + ps_s - 2.0 * ps ** (-2 * s)) / (1.0 + ps_s)))
    two = 1.0 - 2.0**-s
    two_paper = 1.0 - 4.0**-s
    factored = zeta / L4 * two * corr
    factored_paper = zeta / L4 * two_paper * corr
    # truncation tails: integral comparison for the series, with a log factor
    # for the divisor weight
    tail = 2.0 * (1.0 + math.log(cutoff)) * cutoff ** (1.0 - s) / (s - 1.0)
    vals = [direct, euler, factored]
    max_disc = max(abs(u - v) for i, u in enumerate(vals) for v in vals[i + 1:])
    return ZSeriesReport(s=s, cutoff=int(cutoff), direct=direct, euler_product=euler,
                         factored=factored, factored_paper_variant=factored_paper,
                         max_discrepancy=max_disc, tolerance=10.0 * tail,
                         passed=max_disc <= 10.0 * tail,
                         two_factor=two, two_factor_paper=two_paper)

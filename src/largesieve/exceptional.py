"""Exceptional-character interactions with the log-weighted sieve.

Coefficients Lambda(n) f(n/N), truncated L(1, chi_D) values, and the
verification reports for the exceptional-character inequalities: the
prime-indicator bound, the smoothed psi-sum bound, and the per-character
consequence with its guard hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from largesieve.arith import SIEVE_LIMIT_BUDGET, von_mangoldt_table
# group, is_primitive and residue_sums are unused here but stay importable from
# this module: perfbench/test_perfbench.py checks that its tracer wraps them.
from largesieve.characters import (DirichletCharacter, group, is_primitive,  # noqa: F401
                                   real_primitive_characters)
from largesieve.errors import DomainError, ResourceLimitError
from largesieve.lsi import (REL_TOL, CoefficientSequence, InequalityReport,  # noqa: F401
                            _residues, char_sum, energies, log_weights, make_report,
                            ordered_sum, prime_indicator, primitive_char_sums,
                            residue_sums)


# ---------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A weight on [0, 1] with 0 <= f <= 1 and its first two moments."""

    kind: str
    A1: float  # integral of f
    A2: float  # integral of f^2
    _fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        inside = (u >= 0.0) & (u <= 1.0)
        out = np.zeros(u.shape)
        if inside.any():
            out[inside] = self._fn(u[inside])
        return out


def indicator_function() -> TestFunction:
    return TestFunction("indicator", 1.0, 1.0, lambda u: np.ones(u.shape))


def _gauss_legendre_moments(fn, nodes: int = 400) -> tuple[float, float]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = (x + 1.0) / 2.0
    fu = fn(u)
    return float(np.sum(w * fu) / 2.0), float(np.sum(w * fu * fu) / 2.0)


def smooth_bump_function() -> TestFunction:
    """exp(1 - 1/(u(1-u))) scaled to peak value 1 at u = 1/2."""

    def fn(u):
        out = np.zeros(u.shape)
        interior = (u > 0.0) & (u < 1.0)
        ui = u[interior]
        out[interior] = np.exp(4.0 - 1.0 / (ui * (1.0 - ui)))
        return out

    A1, A2 = _gauss_legendre_moments(fn)
    return TestFunction("smooth_bump", A1, A2, fn)


# ---------------------------------------------------------------------
# setup


@dataclass(frozen=True)
class ExceptionalSetup:
    """A real primitive character of conductor D against length-N data.

    lhs is the log-weighted sieve of Lambda(n) f(n/N) up to Q_real =
    sqrt(N)/log N with the chi_D term left out, and L1 the truncated
    L(1, chi_D); lemma31 and prop31 both read them.
    """

    D: int
    chi_D: DirichletCharacter
    N: int
    f: TestFunction
    Q_real: float
    lhs: float
    L1: LTruncation

    @property
    def Q(self) -> int:
        return math.floor(self.Q_real)


def sieve_ranges(Ds: list[int], Ns: list[int]) -> dict[int, float]:
    """Q = sqrt(N)/log N for each N, after checking N >= 3 and 3 <= D <= Q for every D."""
    Qs = {}
    for N in Ns:
        if N < 3:
            raise DomainError("N must be >= 3")
        Q = Qs[N] = math.sqrt(N) / math.log(N)
        for D in Ds:
            if not 3 <= D <= Q:
                raise DomainError(f"requires 3 <= D <= sqrt(N)/log N = {Q:.3f}; got D = {D}")
    return Qs


def make_setups(characters: list[DirichletCharacter], Ns: list[int],
                f: TestFunction | None = None) -> list[ExceptionalSetup]:
    """One setup per pair of a real primitive character and an N, character-major.

    Every pair is validated before any is evaluated.  The full log-weighted
    sieve depends only on N and f, and L(1, chi_D) only on chi_D, so each is
    evaluated once; a setup subtracts its own chi_D term from its N's sieve.
    """
    f = f if f is not None else indicator_function()
    Ns = [int(N) for N in Ns]
    Qs = sieve_ranges([chi.modulus for chi in characters], Ns)
    L1s = [L1_chiD(chi) for chi in characters]
    lhs = {}
    for N, Q in Qs.items():
        a = coeffs_lambda_f(N, f)
        full = _log_weighted_sieve(a, Q)
        for j, chi in enumerate(characters):
            lhs[j, N] = _log_weighted_lhs(a, Q, chi, full)
    return [ExceptionalSetup(chi.modulus, chi, N, f, Qs[N], lhs[j, N], L1)
            for j, (chi, L1) in enumerate(zip(characters, L1s)) for N in Ns]


# ---------------------------------------------------------------------
# coefficients and L(1, chi_D)


# coeffs_lambda_f and thm21_coefficients scale the Lambda table in place, this
# many entries (256 KB of float64) at a time, so that n, n/N and f(n/N) are
# built per chunk, in cache, and never as arrays of length N.
_COEFF_CHUNK = 1 << 15


def _chunks(values: np.ndarray):
    """(chunk, n) for consecutive pieces of at most _COEFF_CHUNK entries of
    values, the a_n for n = 1..N, with n as float64 for each entry of the chunk."""
    for lo in range(0, values.size, _COEFF_CHUNK):
        chunk = values[lo:lo + _COEFF_CHUNK]
        yield chunk, np.arange(lo + 1, lo + chunk.size + 1.0)


def coeffs_lambda_f(N: int, f: TestFunction) -> CoefficientSequence:
    """a_n = Lambda(n) f(n/N) on (0, N], the Lambda table multiplied by
    f(n/N) in place, _COEFF_CHUNK entries at a time; the table is the one
    array of length N that is built."""
    if N < 3:
        raise DomainError("N must be >= 3")
    values = von_mangoldt_table(N)[1:]
    for chunk, n in _chunks(values):
        chunk *= f(np.divide(n, N, out=n))
    return CoefficientSequence(0, values)


def thm21_coefficients(N: int) -> CoefficientSequence:
    """Theorem 2.1's a_n = Lambda(n) f(n/N) / (sqrt(n) log N), f the indicator.

    f(n/N) = 1 on (0, N] and x * 1.0 = x, so the product by f is left out:
    the Lambda table is divided in place by sqrt(n) and then by log N.
    """
    if N < 3:
        raise DomainError("N must be >= 3")
    values = von_mangoldt_table(N)[1:]
    logN = math.log(N)
    for chunk, n in _chunks(values):
        chunk /= np.sqrt(n, out=n)
        chunk /= logN
    return CoefficientSequence(0, values)


@dataclass(frozen=True)
class LTruncation:
    """Truncated L(1, chi_D) with its partial-summation tail bound."""

    value: float
    truncation: int
    tail_bound: float


# L1_chiD makes and sums its terms in leaves of at most _LEAF consecutive n,
# whose n, chi_D(n) and quotients (128 KB each) stay in cache; _CHUNK fixes
# the summation order its value is defined by.  Every leaf starts at an odd n:
# chunks start at 1 + k _CHUNK, and np.sum splits only at multiples of 8.
_LEAF = 1 << 14
_CHUNK = 1 << 20


def L1_truncation(D: int, truncation: int | None = None) -> int:
    """L1_chiD's truncation T for conductor D, after checking D^2 <= T <= SIEVE_LIMIT_BUDGET."""
    T = int(max(10**6, 10**3 * D, D * D) if truncation is None else truncation)
    if T < D * D:
        raise DomainError(f"truncation {T} below D^2 = {D * D}: tail bound too weak")
    if T > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(f"truncation {T} exceeds budget {SIEVE_LIMIT_BUDGET}")
    return T


def L1_chiD(chi_D: DirichletCharacter, truncation: int | None = None) -> LTruncation:
    """sum over n <= T of chi_D(n)/n, tail bounded by D/T.

    Default truncation max(10^6, 10^3 D, D^2) keeps the relative tail below
    about 10^-3 for desk-scale conductors and meets the T >= D^2 guard; a T
    above SIEVE_LIMIT_BUDGET raises ResourceLimitError.

    The value is that of summing chunks of 2^20 consecutive n, each by
    np.sum, in increasing n into a float.  np.sum adds float64 pairwise: a run
    of more than 128 terms is the sum of its two parts split at
    n//2 - (n//2) % 8.  So each chunk is split that way until a part holds at
    most _LEAF terms, each such leaf is made and summed by np.sum in one
    reused buffer, and the parts are added back up the same tree; that is
    the chunk's np.sum, bit for bit, in O(_LEAF + D) memory.  A leaf's n is
    a fixed offset vector plus its first n, and its chi_D(n) a slice of the
    character table tiled to _LEAF + D entries.

    Every leaf starts at an odd n.  For even D, chi_D(n) = 0 at every even n,
    so the buffer is zeroed once, its odd offsets (the even n) are never
    written, and only the quotients at the odd n are made, from a contiguous
    copy of chi_D at the odd residues into every second entry of the buffer;
    np.sum then adds the same array as before, so the value is unchanged bit
    for bit.  Odd D takes the same path with a step of 1, dividing in place.
    """
    D = chi_D.modulus
    T = L1_truncation(D, truncation)
    leaf = min(_LEAF, T)
    step = 2 if D % 2 == 0 else 1  # for even D only the odd n have chi_D(n) != 0
    # chi[i] = chi_D(step i + step - 1), contiguous so that the divide reads it fast
    chi = np.ascontiguousarray(np.tile(chi_D.values().real, -(-(leaf + D) // D))[step - 1::step])
    offsets = np.arange(0, leaf, step, dtype=np.float64)
    buf = np.zeros(leaf)
    n_buf = buf if step == 1 else np.empty(offsets.size)  # odd D divides in place

    def pairwise(lo: int, n: int) -> float:
        """np.sum of the terms of lo, lo + 1, ..., lo + n - 1."""
        if n > _LEAF:
            half = n // 2 - (n // 2) % 8
            return pairwise(lo, half) + pairwise(lo + half, n - half)
        m, i = -(-n // step), lo % D // step
        np.add(offsets[:m], lo, out=n_buf[:m])
        np.divide(chi[i:i + m], n_buf[:m], out=buf[:n:step])
        return np.add.reduce(buf[:n])  # what np.sum calls, without its dispatch

    total = 0.0
    for lo in range(1, T + 1, _CHUNK):
        total += float(pairwise(lo, min(_CHUNK, T + 1 - lo)))
    return LTruncation(value=total, truncation=T, tail_bound=D / T)


# ---------------------------------------------------------------------
# inequality reports


def _log_weighted_sieve(a: CoefficientSequence, Q: float) -> float:
    """sum over 1 < q <= Q of log(Q/q) sum* over chi of |S_chi|^2, the full sieve."""
    w = log_weights(Q)
    w[1] = 0.0  # the sieve starts at q = 2
    return ordered_sum(energies(a, math.floor(Q)) * w)


def _log_weighted_lhs(a: CoefficientSequence, Q: float, chi_D: DirichletCharacter,
                      full: float | None = None) -> float:
    """sum over 1 < q <= Q of log(Q/q) sum* over chi != chi_D of |S_chi|^2.

    The full sieve (evaluated here unless given) less the term
    log(Q/D) |S_chi_D|^2: every caller has D <= Q, so chi_D, primitive
    mod D, has its term in the sieve.
    """
    if full is None:
        full = _log_weighted_sieve(a, Q)
    return full - math.log(Q / chi_D.modulus) * abs(char_sum(chi_D, a)) ** 2


# The stated limit on the absolute constant that lemma31 and prop31 fit to a run.
CONSTANT_LIMIT = 50.0


def lemma31_report(setup: ExceptionalSetup) -> InequalityReport:
    """Smoothed psi-sum sieve bound with the chi_D term extracted.

    RHS = (A2 log N - A1^2 log(N/D)) N^2
        + 2 A1 log(Q/D) N^2 L(1, chi_D) log N + kappa N^2,
    with kappa fitted to the run and passing while kappa <= CONSTANT_LIMIT.
    """
    N, D, Q, lhs = setup.N, setup.D, setup.Q_real, setup.lhs
    A1, A2 = setup.f.A1, setup.f.A2
    L1 = setup.L1.value
    logN = math.log(N)
    main1 = (A2 * logN - A1 * A1 * math.log(N / D)) * N * N
    main2 = 2.0 * A1 * math.log(Q / D) * N * N * L1 * logN
    kappa = (lhs - main1 - main2) / (N * N)
    rhs = main1 + main2 + CONSTANT_LIMIT * N * N
    return make_report("lemma31", {"D": D, "N": N, "Q": Q, "f": setup.f.kind},
                       lhs, rhs,
                       extras={"A1": A1, "A2": A2, "L1": L1,
                               "main_term_1": main1, "main_term_2": main2,
                               "fitted_kappa": kappa, "kappa_limit": CONSTANT_LIMIT})


def prop31_report(setup: ExceptionalSetup) -> InequalityReport:
    """Unsmoothed psi-sum bound with the chi_D term extracted.

    RHS = N^2 (log D + L(1, chi_D) (log N)^2 + CONSTANT_LIMIT).  The fitted
    C0 = lhs/N^2 - log D - L(1, chi_D) (log N)^2 is recorded so its
    stability can be compared across N; the row passes while
    C0 <= CONSTANT_LIMIT.
    """
    if setup.f.kind != "indicator":
        raise DomainError("prop31 uses the indicator weight")
    N, D, Q, lhs = setup.N, setup.D, setup.Q_real, setup.lhs
    L1 = setup.L1.value
    logN = math.log(N)
    C0 = lhs / (N * N) - math.log(D) - L1 * logN * logN
    rhs = N * N * (math.log(D) + L1 * logN * logN + CONSTANT_LIMIT)
    return make_report("prop31", {"D": D, "N": N, "Q": Q}, lhs, rhs,
                       extras={"C0": C0, "C0_limit": CONSTANT_LIMIT, "L1": L1,
                               "lhs_over_N2": lhs / (N * N)})


def prop32_window(D: int, eps: float) -> tuple[float, float]:
    """The range D^(1/eps^2) < N < D^(1/eps^3) in which prop32 applies."""
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    try:
        return D ** (1 / eps**2), D ** (1 / eps**3)
    except OverflowError:
        raise DomainError(f"the window D^(1/eps^3) overflows for D = {D}, eps = {eps}") from None


def prop32_check(D: int, eps: float, N: int, q_max: int) -> dict:
    """Evaluate the hypothesis L(1,chi_D) log D <= eps^5, then scan.

    Scans every primitive chi mod q, 2 <= q <= q_max with N >= q^4,
    excluding chi_D, and compares max |sum_{n<=N} chi(n) Lambda(n)| with
    3 eps N.  When the hypothesis fails the conclusion is left untested.
    Returns the scan prop32 row, whose pass is empty for an untested row.
    """
    lo, hi = prop32_window(D, eps)
    if not lo < N < hi:
        raise DomainError(
            f"N must lie in the window D^(1/eps^2) < N < D^(1/eps^3) "
            f"= ({lo:.4g}, {hi:.4g}); got N = {N}")
    L1_truncation(D)  # before the characters mod D are built
    chars = real_primitive_characters(D)
    if not chars:
        raise DomainError(f"no real primitive character of conductor {D}")
    chi_D = chars[0]
    L1 = L1_chiD(chi_D)
    hyp_value = L1.value * math.log(D)
    hypothesis = hyp_value <= eps**5
    eff_q_max = min(q_max, math.floor(N ** 0.25))
    a = coeffs_lambda_f(max(N, 3), indicator_function())
    max_abs = 0.0
    tested = hypothesis and eff_q_max >= 2
    if tested:
        for q in range(2, eff_q_max + 1):
            chars_q, sums = primitive_char_sums(a, q)
            for chi, s in zip(chars_q, sums):
                if chi != chi_D:
                    max_abs = max(max_abs, abs(s))
    bound = 3.0 * eps * N
    return {"D": D, "eps": eps, "N": N, "effective_q_max": eff_q_max,
            "window_lo": lo, "window_hi": hi, "L1_logD": hyp_value,
            "threshold": eps**5,
            "hypothesis_status": "satisfied" if hypothesis else "not satisfied",
            "max_abs_sum": max_abs, "bound": bound, "conclusion_tested": tested,
            "pass": max_abs <= bound * (1 + REL_TOL) if tested else ""}


def eq31_check(a: CoefficientSequence, Q: float,
               chi_D: DirichletCharacter) -> InequalityReport:
    """Prime-indicator sieve with the principal and chi_D terms extracted.

    RHS = (Q^2 + N) P - log(Q^2/D) P^2 + 2 log(Q/D) P sum_p lambda(p),
    where P is the number of primes in the support.
    """
    D = chi_D.modulus
    if D > Q:
        raise DomainError(f"requires D <= Q; got D = {D}, Q = {Q}")
    ps, vals = a.nonzero
    if not (np.array_equal(ps, prime_indicator(a.M, a.N).index) and np.all(vals == 1)):
        raise DomainError("coefficients must be the indicator of every prime in (M, M+N]")
    P = float(ps.size)
    lhs = _log_weighted_lhs(a, Q, chi_D)
    chi = chi_D.values().real[_residues(ps, D, np.empty_like(ps))]
    lam_sum = float(np.sum(1.0 + chi))
    rhs = ((Q * Q + a.N) * P - math.log(Q * Q / D) * P * P
           + 2.0 * math.log(Q / D) * P * lam_sum)
    return make_report("eq31", {"M": a.M, "N": a.N, "Q": Q, "D": D}, lhs, rhs,
                       extras={"prime_count": P, "lambda_sum": lam_sum})

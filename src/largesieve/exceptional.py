"""Exceptional-character interactions with the log-weighted sieve.

Coefficients Lambda(n) f(n/N), the divisor convolution lambda = 1 * chi_D,
truncated L(1, chi_D) values, and the verification reports for the
exceptional-character inequalities: the prime-indicator bound, the smoothed
psi-sum bound, and the per-character consequence with its guard hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from largesieve.arith import factorize, von_mangoldt_table
# group, is_primitive and residue_sums are unused here but stay importable from
# this module: perfbench/test_perfbench.py checks that its tracer wraps them.
from largesieve.characters import (DirichletCharacter, group, is_primitive,  # noqa: F401
                                   real_primitive_characters)
from largesieve.errors import DomainError
from largesieve.lsi import (REL_TOL, CoefficientSequence, InequalityReport,  # noqa: F401
                            char_sum, make_report, prime_indicator,
                            primitive_char_sums, residue_sums, sieve_lhs)


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


def table_function(us, values) -> TestFunction:
    """Piecewise-linear f from sample points on [0, 1]."""
    us = np.asarray(us, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < 0) or np.any(values > 1):
        raise DomainError("table values must lie in [0, 1]")
    fn = lambda u: np.interp(u, us, values, left=0.0, right=0.0)
    A1, A2 = _gauss_legendre_moments(fn, nodes=2000)
    return TestFunction("user_table", A1, A2, fn)


# ---------------------------------------------------------------------
# setup


@dataclass
class ExceptionalSetup:
    """A real primitive character of conductor D against length-N data."""

    D: int
    chi_D: DirichletCharacter
    N: int
    f: TestFunction

    @property
    def Q_real(self) -> float:
        return math.sqrt(self.N) / math.log(self.N)

    @property
    def Q(self) -> int:
        return math.floor(self.Q_real)


def make_setup(D: int, N: int, f: TestFunction | None = None,
               char_index: int = 0) -> ExceptionalSetup:
    """Build a setup, validating 3 <= D <= sqrt(N)/log N."""
    if N < 3:
        raise DomainError("N must be >= 3")
    chars = real_primitive_characters(D)
    if not chars:
        raise DomainError(f"no real primitive character of conductor {D} exists")
    chi = chars[char_index]
    setup = ExceptionalSetup(D=D, chi_D=chi, N=int(N),
                             f=f if f is not None else indicator_function())
    if not 3 <= D <= setup.Q_real:
        raise DomainError(
            f"requires 3 <= D <= sqrt(N)/log N = {setup.Q_real:.3f}; got D = {D}")
    return setup


# ---------------------------------------------------------------------
# coefficients and convolutions


def coeffs_lambda_f(N: int, f: TestFunction) -> CoefficientSequence:
    """a_n = Lambda(n) f(n/N) on (0, N]."""
    if N < 3:
        raise DomainError("N must be >= 3")
    n = np.arange(1, N + 1)
    vals = von_mangoldt_table(N)[1:] * f(n / N)
    return CoefficientSequence(0, vals.astype(np.complex128))


def one_plus_chi(n: int, chi_D: DirichletCharacter) -> float:
    """1 + chi_D(n); lies in {0, 1, 2} on units, equals 1 off them."""
    return 1.0 + chi_D(n).real


def lambda_conv(n, chi_D: DirichletCharacter) -> float:
    """(1 * chi_D)(n) = sum over d | n of chi_D(d)."""
    f = factorize(n)
    return float(sum(chi_D(d).real for d in f.divisors()))


def lambda_partial_sum(N: int, chi_D: DirichletCharacter) -> float:
    """sum over n <= N of (1 * chi_D)(n), via the hyperbola-free O(N) form."""
    d = np.arange(1, N + 1)
    chi_vals = chi_D.values().real[d % chi_D.modulus] if chi_D.modulus > 1 \
        else np.ones(N)
    return float(np.sum(chi_vals * (N // d)))


@dataclass(frozen=True)
class LTruncation:
    """Truncated L(1, chi_D) with its partial-summation tail bound."""

    value: float
    truncation: int
    tail_bound: float


def L1_chiD(chi_D: DirichletCharacter, truncation: int | None = None) -> LTruncation:
    """sum over n <= T of chi_D(n)/n, tail bounded by D/T.

    Default truncation max(10^6, 10^3 D, D^2) keeps the relative tail below
    about 10^-3 for desk-scale conductors and meets the T >= D^2 guard.
    """
    D = chi_D.modulus
    if truncation is None:
        truncation = max(10**6, 10**3 * D, D * D)
    T = int(truncation)
    if T < D * D:
        raise DomainError(f"truncation {T} below D^2 = {D * D}: tail bound too weak")
    table = chi_D.values().real if D > 1 else np.ones(1)
    total = 0.0
    chunk = 1 << 20
    for lo in range(1, T + 1, chunk):
        hi = min(lo + chunk - 1, T)
        n = np.arange(lo, hi + 1)
        total += float(np.sum(table[n % D] / n)) if D > 1 else float(np.sum(1.0 / n))
    return LTruncation(value=total, truncation=T, tail_bound=D / T)


# ---------------------------------------------------------------------
# inequality reports


def eq37_check(a: CoefficientSequence, chi_D: DirichletCharacter) -> InequalityReport:
    """Algebraic lower bound for the squared chi_D sum of nonnegative data.

    (sum chi_D(n) a_n)^2 >= (sum a_n)^2 - 2 (sum a_n)(sum rho(n) a_n),
    rho = 1 + chi_D.  Reported with lhs = the lower bound, rhs = the square.
    """
    vals = a.values
    if np.any(np.abs(vals.imag) > 0) or np.any(vals.real < 0):
        raise DomainError("requires real nonnegative coefficients")
    D = chi_D.modulus
    x = a.total().real
    chi_sum = char_sum(chi_D, a).real
    rho_sum = x + chi_sum
    lower = x * x - 2.0 * x * rho_sum
    return make_report("eq37", {"M": a.M, "N": a.N, "D": D},
                       lower, chi_sum * chi_sum,
                       extras={"coeff_sum": x, "rho_sum": rho_sum})


def _log_weighted_lhs(a: CoefficientSequence, Q: float,
                      exclude: DirichletCharacter | None) -> float:
    """sum over 1 < q <= Q of log(Q/q) sum* over chi != exclude of |S_chi|^2."""
    return sieve_lhs(a, lambda q: math.log(Q / q), range(2, math.floor(Q) + 1), exclude)


def lemma31_report(setup: ExceptionalSetup, kappa_limit: float = 50.0,
                   L_truncation: int | None = None) -> InequalityReport:
    """Smoothed psi-sum sieve bound with the chi_D term extracted.

    RHS = (A2 log N - A1^2 log(N/D)) N^2
        + 2 A1 log(Q/D) N^2 L(1, chi_D) log N + kappa N^2,
    with kappa fitted to the run and passing while kappa <= kappa_limit.
    """
    N, D, Q = setup.N, setup.D, setup.Q_real
    if not 3 <= D <= Q:
        raise DomainError(f"requires 3 <= D <= Q = {Q:.3f}")
    a = coeffs_lambda_f(N, setup.f)
    lhs = _log_weighted_lhs(a, Q, setup.chi_D)
    A1, A2 = setup.f.A1, setup.f.A2
    L1 = L1_chiD(setup.chi_D, L_truncation)
    logN = math.log(N)
    main1 = (A2 * logN - A1 * A1 * math.log(N / D)) * N * N
    main2 = 2.0 * A1 * math.log(Q / D) * N * N * L1.value * logN
    kappa = (lhs - main1 - main2) / (N * N)
    rhs = main1 + main2 + kappa_limit * N * N
    return make_report("lemma31", {"D": D, "N": N, "Q": Q, "f": setup.f.kind},
                       lhs, rhs,
                       extras={"A1": A1, "A2": A2, "L1": L1.value,
                               "main_term_1": main1, "main_term_2": main2,
                               "fitted_kappa": kappa, "kappa_limit": kappa_limit})


def prop31_report(setup: ExceptionalSetup,
                  L_truncation: int | None = None) -> InequalityReport:
    """Unsmoothed psi-sum bound; the absolute constant is fitted per run.

    C0 = lhs/N^2 - log D - L(1,chi_D) (log N)^2 is recorded so its
    stability can be compared across N.
    """
    if setup.f.kind != "indicator":
        raise DomainError("prop31 uses the indicator weight")
    N, D, Q = setup.N, setup.D, setup.Q_real
    if not 3 <= D <= Q:
        raise DomainError(f"requires 3 <= D <= Q = {Q:.3f}")
    a = coeffs_lambda_f(N, setup.f)
    lhs = _log_weighted_lhs(a, Q, setup.chi_D)
    L1 = L1_chiD(setup.chi_D, L_truncation)
    logN = math.log(N)
    C0 = lhs / (N * N) - math.log(D) - L1.value * logN * logN
    rhs = N * N * (math.log(D) + L1.value * logN * logN + C0)
    return make_report("prop31", {"D": D, "N": N, "Q": Q}, lhs, rhs,
                       extras={"C0": C0, "L1": L1.value,
                               "lhs_over_N2": lhs / (N * N)})


@dataclass
class Prop32Report:
    """Per-character psi-sum bound under the small-L hypothesis."""

    D: int
    eps: float
    N: int
    q_max: int
    effective_q_max: int  # restricted so N >= q^4
    window: tuple[float, float]
    L1_logD: float
    threshold: float  # eps^5
    hypothesis_satisfied: bool
    conclusion_tested: bool
    max_abs_sum: float
    bound: float  # 3 eps N
    conclusion_holds: bool
    worst: dict


def prop32_window(D: int, eps: float) -> tuple[float, float]:
    """The range D^(1/eps^2) < N < D^(1/eps^3) in which prop32 applies."""
    if not 0 < eps < 1:
        raise DomainError("eps must lie in (0, 1)")
    try:
        return D ** (1 / eps**2), D ** (1 / eps**3)
    except OverflowError:
        raise DomainError(f"the window D^(1/eps^3) overflows for D = {D}, eps = {eps}") from None


def prop32_check(D: int, eps: float, N: int, q_max: int,
                 char_index: int = 0) -> Prop32Report:
    """Evaluate the hypothesis L(1,chi_D) log D <= eps^5, then scan.

    Scans every primitive chi mod q, 2 <= q <= q_max with N >= q^4,
    excluding chi_D, and compares max |sum_{n<=N} chi(n) Lambda(n)| with
    3 eps N.  When the hypothesis fails the conclusion is left untested.
    """
    lo, hi = prop32_window(D, eps)
    if not lo < N < hi:
        raise DomainError(
            f"N must lie in the window D^(1/eps^2) < N < D^(1/eps^3) "
            f"= ({lo:.4g}, {hi:.4g}); got N = {N}")
    chars = real_primitive_characters(D)
    if not chars:
        raise DomainError(f"no real primitive character of conductor {D}")
    chi_D = chars[char_index]
    L1 = L1_chiD(chi_D)
    hyp_value = L1.value * math.log(D)
    hypothesis = hyp_value <= eps**5
    eff_q_max = min(q_max, math.floor(N ** 0.25))
    a = coeffs_lambda_f(max(N, 3), indicator_function())
    max_abs = 0.0
    worst = {}
    tested = hypothesis and eff_q_max >= 2
    if tested:
        for q in range(2, eff_q_max + 1):
            chars_q, sums = primitive_char_sums(a, q)
            for chi, s in zip(chars_q, sums):
                if chi == chi_D:
                    continue
                v = abs(s)
                if v > max_abs:
                    max_abs = v
                    worst = {"q": q, "exponents": chi.exponents}
    bound = 3.0 * eps * N
    return Prop32Report(
        D=D, eps=eps, N=N, q_max=q_max, effective_q_max=eff_q_max,
        window=(lo, hi), L1_logD=hyp_value, threshold=eps**5,
        hypothesis_satisfied=hypothesis, conclusion_tested=tested,
        max_abs_sum=max_abs, bound=bound,
        conclusion_holds=(max_abs <= bound * (1 + REL_TOL)) if tested else True,
        worst=worst)


def eq31_check(a: CoefficientSequence, Q: float,
               chi_D: DirichletCharacter) -> InequalityReport:
    """Prime-indicator sieve with the principal and chi_D terms extracted.

    RHS = (Q^2 + N) P - log(Q^2/D) P^2 + 2 log(Q/D) P sum_p lambda(p),
    where P is the number of primes in the support.
    """
    D = chi_D.modulus
    if D > Q:
        raise DomainError(f"requires D <= Q; got D = {D}, Q = {Q}")
    if not np.array_equal(a.values, prime_indicator(a.M, a.N).values):
        raise DomainError("coefficients must be the indicator of every prime in (M, M+N]")
    ps = a.n_values[a.values.real > 0]
    P = float(ps.size)
    lhs = _log_weighted_lhs(a, Q, chi_D)
    lam_sum = float(np.sum(1.0 + chi_D.values().real[ps % D]))
    rhs = ((Q * Q + a.N) * P - math.log(Q * Q / D) * P * P
           + 2.0 * math.log(Q / D) * P * lam_sum)
    return make_report("eq31", {"M": a.M, "N": a.N, "Q": Q, "D": D}, lhs, rhs,
                       extras={"prime_count": P, "lambda_sum": lam_sum})

"""Shared brute-force oracles used by both unit and acceptance tests."""

import math
from dataclasses import dataclass

import numpy as np

from largesieve.arith import FactoredInt, factorize, q3_radical
from largesieve.asymptotics import S_q, _nu_sums
from largesieve.characters import (DirichletCharacter, character_group, conductor, group,
                                   is_primitive, primitive_characters)
from largesieve.errors import DomainError
from largesieve.exceptional import TestFunction, _gauss_legendre_moments
from largesieve.lsi import CoefficientSequence, InequalityReport, char_sum, make_report


# ---------------------------------------------------------------------
# pointwise arithmetic functions, one n at a time


def factorize_td(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n by trial division by every d >= 2; no prime table."""
    factors = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def euler_phi_td(n: int) -> int:
    out = n
    for p, _ in factorize_td(n):
        out = out // p * (p - 1)
    return out


def mobius_td(n: int) -> int:
    f = factorize_td(n)
    return 0 if any(e >= 2 for _, e in f) else (-1) ** len(f)


def nu_td(n: int) -> int:
    """1 iff n is squarefree with every prime factor = 3 (mod 4); nu(1) = 1."""
    return int(all(e == 1 and p % 4 == 3 for p, e in factorize_td(n)))


def divisors_td(n: int) -> list[int]:
    """All positive divisors of n, unsorted."""
    divs = [1]
    for p, e in factorize_td(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return divs


def ramanujan_sum_divisor(r: int, n: int) -> int:
    """c_r(n) = sum over d | (n, r) of d mu(r/d), one divisor at a time; exact integer."""
    g = math.gcd(n, r)  # gcd(0, r) = r gives c_r(0) = phi(r)
    return sum(d * mobius_td(r // d) for d in divisors_td(r) if g % d == 0)


def squarefree_inverse_phi_sum(rs, q: int) -> float:
    """Sum of 1/phi(r) over the r in rs with mu(r) != 0 and gcd(r, q) = 1, added in ascending r."""
    total = 0.0
    for r in sorted(rs):
        if mobius_td(r) != 0 and math.gcd(r, q) == 1:
            total += 1.0 / euler_phi_td(r)
    return total


def script_L_sum(Q: int, rs) -> float:
    """min over q <= Q of (q/phi(q)) times the sum above over rs."""
    return min(q / euler_phi_td(q) * squarefree_inverse_phi_sum(rs, q) for q in range(1, Q + 1))


def squarefree_divisors(n: int | FactoredInt) -> list[int]:
    f = factorize(n)
    divs = [1]
    for p, _ in f.factors:
        divs += [d * p for d in divs]
    return divs


def divisor_count(n: int | FactoredInt) -> int:
    f = factorize(n)
    out = 1
    for _, e in f.factors:
        out *= e + 1
    return out


def von_mangoldt(n: int) -> float:
    """log p at prime powers p^k, 0 elsewhere.  Exact 0 off the support."""
    f = factorize(n)
    if len(f.factors) != 1:
        return 0.0
    return math.log(f.factors[0][0])


def von_mangoldt_k(n: int, k: int) -> float:
    """Generalized von Mangoldt value: sum over d | n of mu(d) log(n/d)^k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    f = factorize(n)
    if f.n == 1 or len(f.factors) > k:
        # mu * log^k vanishes once n has more than k distinct prime factors
        return 0.0
    total = 0.0
    for d in squarefree_divisors(f):
        total += mobius_td(d) * math.log(f.n / d) ** k
    return total


def r2_coprime(n: int) -> int:
    """Ordered pairs (x, y) with x^2 + y^2 = n and gcd(x, y) = 1.

    Signs count; gcd(0, k) = |k|, so n = 1 has the four representations
    (0, +-1) and (+-1, 0).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 0
    for x in range(math.isqrt(n) + 1):
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2 and math.gcd(x, y) == 1:
            total += (2 if x else 1) * (2 if y else 1)
    return total


def rho_weight(n: int | FactoredInt, N: int) -> float:
    """prod over p | n of log p / log N (empty product = 1)."""
    if N < 2:
        raise ValueError("N must be >= 2")
    f = factorize(n)
    out = 1.0
    for p, _ in f.factors:
        out *= math.log(p) / math.log(N)
    return out


# ---------------------------------------------------------------------
# principal and induced characters


def principal_character(q: int) -> DirichletCharacter:
    g = group(q)
    return DirichletCharacter(g, (0,) * len(g.components))


def induce(chi: DirichletCharacter, modulus: int) -> DirichletCharacter:
    """The character mod `modulus` agreeing with chi on units.

    chi must be primitive of conductor dividing `modulus`.
    """
    q1 = chi.modulus
    if modulus % q1 != 0:
        raise DomainError(f"conductor {q1} does not divide modulus {modulus}")
    big = group(modulus)
    exps = []
    for c in big.components:
        # CRT lift of this component's generator: c.generator at p^e, 1 elsewhere
        other = modulus // c.prime_power
        lifted = _crt(c.generator, c.prime_power, 1, other)
        ph = chi.phase(lifted % q1)
        if ph is None:
            raise DomainError("character is not primitive at its own conductor")
        a = ph * c.order
        if a.denominator != 1:
            raise DomainError("character does not lift to the requested modulus")
        exps.append(int(a) % c.order)
    return DirichletCharacter(big, tuple(exps))


def _crt(a1: int, m1: int, a2: int, m2: int) -> int:
    inv = pow(m1, -1, m2)
    return (a1 + m1 * ((a2 - a1) * inv % m2)) % (m1 * m2)


def primitive_core(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi."""
    f = conductor(chi)
    for cand in primitive_characters(f):
        ind = induce(cand, chi.modulus)
        if ind == chi:
            return cand
    raise RuntimeError("no primitive core found")  # unreachable


# ---------------------------------------------------------------------
# exponential sums, by definition


def e(x: float) -> complex:
    """e(x) = exp(2 pi i x), argument reduced mod 1 before scaling."""
    x = x - math.floor(x)
    return complex(math.cos(2 * math.pi * x), math.sin(2 * math.pi * x))


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over u mod q of chi(u) e(u/q).

    Computed by definition for every character, imprimitive ones included:
    it is the oracle for the closed form of |tau(chi)|^2, and for the
    Gauss-sum duality by which lsi_thm12 needs no tau(chi).
    """
    q = chi.modulus
    values = chi.values()
    phases = np.exp(2j * np.pi * np.arange(q) / q)
    return complex(values @ phases)


def additive_energy(a: CoefficientSequence, q: int) -> float:
    """A(q) = sum over x mod q, (x, q) = 1, of |S(x/q)|^2, S(alpha) = sum_n a_n e(n alpha).

    The sign is e(+n x/q); e(-n x/q) gives the same A, as x -> -x permutes
    the units.  e(n x/q) depends on n mod q only, so S(x/q) is summed as
    sum over u mod q of b_u e(u x/q), b_u the sum of the a_n with n % q = u
    (Python's %, no fold and no FFT), and (u x) % q is taken in integers.
    """
    n, vals = a.nonzero
    b = np.zeros(q, dtype=np.complex128)
    np.add.at(b, n % q, vals)
    units = np.array([x for x in range(q) if math.gcd(x, q) == 1])
    phases = np.exp(2j * np.pi * (np.outer(units, np.arange(q)) % q) / q)
    return float(np.sum(np.abs(phases @ b) ** 2))


def primitive_sums(a: CoefficientSequence, q: int) -> list[tuple[DirichletCharacter, complex]]:
    """(chi, sum_n a_n chi(n)) for every primitive chi mod q, one chi(n) at a time."""
    ns, vals = a.nonzero
    return [(chi, sum(v * chi(int(n)) for n, v in zip(ns, vals)))
            for chi in character_group(q) if is_primitive(chi)]


def eq14_lhs(a: CoefficientSequence, Q: int) -> float:
    """eq14's left side from its stated double sum, one chi(n) at a time.

    The sum over q r <= Q with (q, r) = 1 of q mu^2(r) / phi(q r) times
    sum over primitive chi mod q of |sum_n a_n chi(n)|^2, with mu and phi by
    trial division.  O(N sum phi(q)) work.
    """
    total = 0.0
    for q in range(1, Q + 1):
        energy = sum(abs(s) ** 2 for _, s in primitive_sums(a, q))
        for r in range(1, Q // q + 1):
            if math.gcd(q, r) == 1:
                total += q * mobius_td(r) ** 2 / euler_phi_td(q * r) * energy
    return total


def eq16_lhs(a: CoefficientSequence, Q: int) -> float:
    """eq16's left side: sum over q <= Q of log(Q/q) sum* over chi mod q of |S(chi)|^2.

    S(chi) = sum_n a_n chi(n), one chi(n) at a time; terms added in ascending q.
    """
    total = 0.0
    for q in range(1, Q + 1):
        total += math.log(Q / q) * sum(abs(s) ** 2 for _, s in primitive_sums(a, q))
    return total


def unit_weight_lhs(a: CoefficientSequence, Q: int) -> float:
    """sum over q <= Q of sum* over chi mod q of |S(chi)|^2: prop21's and thm21's left side.

    S(chi) = sum_n a_n chi(n), one chi(n) at a time; terms added in ascending q.
    """
    total = 0.0
    for q in range(1, Q + 1):
        total += sum(abs(s) ** 2 for _, s in primitive_sums(a, q))
    return total


def prop22_lhs(a: CoefficientSequence, Q: int) -> float:
    """unit_weight_lhs of r(n) a_n, r(n) counting the coprime x^2 + y^2 = n by r2_coprime."""
    r = [r2_coprime(n) for n in range(a.M + 1, a.M + a.N + 1)]
    return unit_weight_lhs(CoefficientSequence(a.M, np.array(r) * a.dense()), Q)


def log_weighted_lhs(a: CoefficientSequence, Q: float, chi_D: DirichletCharacter) -> float:
    """sum over 1 < q <= Q of log(Q/q) sum* over chi mod q, chi != chi_D, of |S(chi)|^2.

    The left side of lemma31, prop31 and eq31, with chi_D left out of the
    sum rather than subtracted from it.
    """
    total = 0.0
    for q in range(2, math.floor(Q) + 1):
        total += math.log(Q / q) * sum(abs(s) ** 2 for chi, s in primitive_sums(a, q)
                                       if chi != chi_D)
    return total


def ramanujan_sum_exp(r: int, n: int) -> complex:
    """c_r(n) as the exponential sum over u mod r with (u, r) = 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    u = np.arange(r)
    u = u[np.gcd(u, r) == 1]
    return complex(np.exp(2j * np.pi * (u * (n % r)) / r).sum())


# ---------------------------------------------------------------------
# the convolution lambda = 1 * chi_D, eq. 3.7 and tabulated test functions


def one_plus_chi(n: int, chi_D: DirichletCharacter) -> float:
    """1 + chi_D(n); lies in {0, 1, 2} on units, equals 1 off them."""
    return 1.0 + chi_D(n).real


def lambda_conv(n, chi_D: DirichletCharacter) -> float:
    """(1 * chi_D)(n) = sum over d | n of chi_D(d)."""
    return float(sum(chi_D(d).real for d in divisors_td(n)))


def lambda_partial_sum(N: int, chi_D: DirichletCharacter) -> float:
    """sum over n <= N of (1 * chi_D)(n), via the hyperbola-free O(N) form."""
    d = np.arange(1, N + 1)
    chi_vals = chi_D.values().real[d % chi_D.modulus]
    return float(np.sum(chi_vals * (N // d)))


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


def table_function(us, values) -> TestFunction:
    """Piecewise-linear f from sample points on [0, 1]."""
    us = np.asarray(us, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if np.any(values < 0) or np.any(values > 1):
        raise DomainError("table values must lie in [0, 1]")
    fn = lambda u: np.interp(u, us, values, left=0.0, right=0.0)
    A1, A2 = _gauss_legendre_moments(fn, nodes=2000)
    return TestFunction("user_table", A1, A2, fn)


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


def L1_closed_form(table) -> float:
    """L(1, chi) for a real primitive chi mod D = len(table), table[a] = chi(a),
    by Dirichlet's finite formulas (Davenport, Multiplicative Number Theory,
    chs. 1 and 6): -pi D^(-3/2) sum chi(a) a for odd chi, and
    -D^(-1/2) sum chi(a) log sin(pi a / D) for even chi, over 0 < a < D."""
    D = len(table)
    if table[D - 1] < 0:  # chi(-1) = -1
        return -math.pi * D ** -1.5 * math.fsum(table[a] * a for a in range(1, D))
    return -math.fsum(table[a] * math.log(math.sin(math.pi * a / D))
                      for a in range(1, D)) / math.sqrt(D)


def T_q(q, x: float) -> float:
    """sum of nu(n) / n over n <= x with (n, q) = 1."""
    return _nu_sums([q], x)[0][2]


def count_nu_tau(x: float) -> int:
    """Exact sum of nu(n) tau(n) over n <= x."""
    return int(_nu_sums([1], x)[0][1])


def zeta_partial(s: float, cutoff: int) -> float:
    """sum of n^-s over n <= cutoff, one pairwise np.sum of its own power table."""
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    return float(np.sum(n**-s))


def L_chi4_partial(s: float, cutoff: int) -> float:
    """sum of chi_4(n) n^-s over n <= cutoff, the character table times n^-s."""
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    chi = np.zeros(cutoff)
    chi[0::4] = 1.0   # n = 1 (mod 4) at indices 0, 4, ...
    chi[2::4] = -1.0  # n = 3 (mod 4)
    return float(np.sum(chi * n**-s))


@dataclass
class ConvolutionReport:
    q: int
    x: float
    lhs: float  # S_q(x)
    rhs: float  # sum over a <= x of f(a)/a * S(x/a)
    rel_discrepancy: float
    passed: bool


def convolution_identity_check(q, x: float, rel_tol: float = 1e-11) -> ConvolutionReport:
    """Verify S_q(x) = sum over a of f(a)/a S(x/a) exactly (finite sum).

    f is multiplicative, supported on integers composed of primes dividing
    q3, with f(p^alpha) = (-2)^alpha.
    """
    if x < 1:
        raise DomainError("x must be >= 1")
    f = factorize(q)
    lhs = S_q(f, x)
    rad = q3_radical(f).prime_factors
    terms = [(1, 1.0)]
    stack = [(0, 1, 1.0)]
    while stack:
        start, a, fa = stack.pop()
        for j in range(start, len(rad)):
            p = rad[j]
            m, fm = a, fa
            while m * p <= x:
                m *= p
                fm *= -2.0
                terms.append((m, fm))
                stack.append((j + 1, m, fm))
    rhs = 0.0
    for a, fa in sorted(terms):
        rhs += fa / a * S_q(1, x / a)
    denom = max(abs(lhs), 1e-300)
    rel = abs(lhs - rhs) / denom
    return ConvolutionReport(q=f.n, x=x, lhs=lhs, rhs=rhs, rel_discrepancy=rel,
                             passed=rel <= rel_tol)

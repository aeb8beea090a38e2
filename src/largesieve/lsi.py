"""Large sieve inequality evaluators.

Each evaluator computes the exact left and right sides of one inequality
for a concrete coefficient sequence and returns an InequalityReport.  Every
left side is a weighted sum of primitive energies E(q; b), the sum of
|S(chi)|^2 over the primitive chi mod q of a residue vector b, and each is
one call of primitive_energy: sieve_lhs weights E(q; a mod q) over a
q-range, thm12 sums E over the conductors of each modulus and thm13 over
Ramanujan-twisted folds.  Every b comes from residue_folds, which reads the
coefficients only for the moduli in (top/2, top] and folds the others from
them.  Each E is summed in character order and kept as a Python float, and
the terms are added in a fixed order, so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from largesieve import arith, expsums
from largesieve.arith import euler_phi, factorize, prime_table
from largesieve.characters import DirichletCharacter, group, is_primitive
from largesieve.errors import DomainError, SupportError

REL_TOL = 1e-9


# ---------------------------------------------------------------------
# data types


@dataclass
class CoefficientSequence:
    """Complex coefficients a_n supported on (M, M+N]."""

    M: int
    values: np.ndarray  # complex128, entry i is a_{M+1+i}
    seed: int | None = None
    trial: int | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)

    @property
    def N(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_values(self) -> np.ndarray:
        return np.arange(self.M + 1, self.M + self.N + 1, dtype=np.int64)

    @property
    def norm_sq(self) -> float:
        """sum of |a_n|^2, as the sum of the squared real and imaginary parts."""
        parts = self.values.view(np.float64)
        return float(np.einsum("i,i->", parts, parts))

    def total(self) -> complex:
        return complex(self.values.sum())

    @classmethod
    def ones(cls, N: int, M: int = 0) -> CoefficientSequence:
        return cls(M, np.ones(N, dtype=np.complex128))

    @classmethod
    def zeros(cls, N: int, M: int = 0) -> CoefficientSequence:
        return cls(M, np.zeros(N, dtype=np.complex128))


def random_sequence(N: int, M: int = 0, seed: int = 0, trial: int = 0,
                    restriction: SupportRestriction | None = None) -> CoefficientSequence:
    """Seeded complex-Gaussian coefficients, zeroed off the allowed support.

    Each (seed, trial) pair keys an independent generator stream, so trials
    share no state and every run is reproducible.
    """
    rng = np.random.default_rng([seed, trial, N, M])
    vals = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
    seq = CoefficientSequence(M, vals, seed=seed, trial=trial)
    if restriction is not None and restriction.kind != "none":
        seq.values[~restriction.allowed_mask(seq.n_values)] = 0.0
    return seq


@dataclass(frozen=True)
class SupportRestriction:
    """Which n may carry nonzero coefficients."""

    kind: str  # "none" | "prime_free" | "coprime_to"
    primes: frozenset = frozenset()
    moduli: frozenset = frozenset()

    @classmethod
    def none(cls) -> SupportRestriction:
        return cls("none")

    @classmethod
    def prime_free(cls, primes) -> SupportRestriction:
        return cls("prime_free", primes=frozenset(int(p) for p in primes))

    @classmethod
    def rough(cls, Q: int) -> SupportRestriction:
        """No prime divisors <= Q."""
        return cls.prime_free(int(p) for p in prime_table(max(Q, 2)).upto(Q))

    @classmethod
    def coprime_to(cls, moduli) -> SupportRestriction:
        return cls("coprime_to", moduli=frozenset(int(r) for r in moduli))

    def allowed_mask(self, n: np.ndarray) -> np.ndarray:
        mask = np.ones(n.shape, dtype=bool)
        if self.kind == "prime_free":
            for p in sorted(self.primes):
                mask &= n % p != 0
        elif self.kind == "coprime_to":
            for r in sorted(self.moduli):
                mask &= np.gcd(n, r) == 1
        return mask

    def validate(self, a: CoefficientSequence, context: str) -> None:
        if self.kind == "none":
            return
        n = np.flatnonzero(a.values != 0) + (a.M + 1)
        bad = n[~self.allowed_mask(n)]
        if bad.size:
            raise SupportError(
                f"{context}: {bad.size} coefficients violate the support "
                f"condition (first at n={int(bad[0])})")


@dataclass
class InequalityReport:
    """One verification record for a single inequality instance."""

    inequality_id: str
    parameters: dict
    lhs: float
    rhs: float
    ratio: float
    passed: bool
    extras: dict = field(default_factory=dict)
    direction: str = "le"  # "le": pass means lhs <= rhs; "ge": lhs >= rhs


def make_report(inequality_id: str, parameters: dict, lhs: float, rhs: float,
                direction: str = "le", extras: dict | None = None) -> InequalityReport:
    if rhs == 0.0:
        ratio = 0.0 if lhs == 0.0 else math.inf
    else:
        ratio = lhs / rhs
    if direction == "le":
        passed = lhs <= rhs * (1 + REL_TOL)
    elif direction == "ge":
        passed = lhs >= rhs * (1 - REL_TOL)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return InequalityReport(inequality_id, dict(parameters), float(lhs), float(rhs),
                            float(ratio), bool(passed), extras or {}, direction)


# ---------------------------------------------------------------------
# character-sum plumbing


# residue_folds reads a sparsely when fewer than this share of its entries
# are nonzero.  Measured on a 2-vCPU x86 VM (numpy 2.4, N = 1e6, q in
# (75, 150], best of 5): a dense fold costs 1.0-1.4 ns per entry, the sparse
# read 6.2-6.8 ns per nonzero real entry and 7.9-9.4 ns per complex one, so
# per modulus they meet at a density of 0.13-0.2.  Finding the nonzero
# entries costs another 5-6 ns per entry once per left side, which puts
# the threshold below that.
_SPARSE_BELOW = 0.1


def sparse_terms(a: CoefficientSequence):
    """The nonzero a_n as (n, Re a_n, Im a_n), the input of the sparse read.

    None when at least _SPARSE_BELOW of the a_n are nonzero: a is then read
    densely.  Im a_n is None when every a_n is real.
    """
    nonzero = a.values != 0
    if not np.count_nonzero(nonzero) < _SPARSE_BELOW * a.N:
        return None
    n = np.flatnonzero(nonzero)
    re, im = a.values.real[n], a.values.imag[n]
    n += a.M + 1
    return n, re, im if im.any() else None


def residue_sums(a: CoefficientSequence, q: int, terms=None) -> np.ndarray:
    """b_u = sum of a_n over n = u (mod q), u = 0..q-1.

    Without terms, folds the coefficients period by period: the partial
    head period lands in b[s:], where s is the residue of the first n; the
    full periods are summed as a (k, q) view of the vector; the tail lands
    in b[:t].  With terms from sparse_terms(a), it bincounts the nonzero a_n
    by n mod q instead, real and imaginary parts apart, in ascending n.
    """
    if terms is not None:
        n, re, im = terms
        u = n % q
        b = np.bincount(u, re, q).astype(np.complex128)
        if im is not None:
            b.imag = np.bincount(u, im, q)
        return b
    v = a.values
    b = np.zeros(q, dtype=np.complex128)
    s = (a.M + 1) % q
    head = min(-s % q, v.size)
    b[s:s + head] = v[:head]
    k, t = divmod(v.size - head, q)
    if k:
        b += fold(v[head:head + k * q], q)
    b[:t] += v[v.size - t:]
    return b


def fold(b: np.ndarray, d: int) -> np.ndarray:
    """b mod d from b mod m, for d dividing m = len(b): a (m/d, d) reshape-sum."""
    return b.reshape(-1, d).sum(axis=0)


def residue_folds(a: CoefficientSequence, qs):
    """Yield (q, b mod q) once for each distinct q in qs.

    The moduli are grouped by m = q floor(top/q), top = max(qs), so every m
    lies in (top/2, top].  Only b mod m is read from a, by residue_sums;
    every b mod q of its group is a fold of it, and one b mod m is held at a
    time.  Whether a is read sparsely is decided once, by sparse_terms.  The
    yield order is by m, then q, both ascending.
    """
    qs = sorted(set(qs))
    if not qs:
        return
    top = qs[-1]
    groups = {}
    for q in qs:
        groups.setdefault(q * (top // q), []).append(q)
    terms = sparse_terms(a)
    for m in sorted(groups):
        b = residue_sums(a, m, terms)
        for q in groups[m]:
            yield q, fold(b, q)


def char_sum(chi: DirichletCharacter, a: CoefficientSequence) -> complex:
    """sum over M < n <= M+N of a_n chi(n)."""
    return complex((chi.group.value_matrix([chi]) @ residue_sums(a, chi.modulus))[0])


def primitive_char_sums(a: CoefficientSequence, q: int, b: np.ndarray | None = None):
    """(primitive characters mod q, their coefficient sums) in group order.

    b is the residue vector of a mod q when the caller already has it.
    """
    g = group(q)
    chars = [chi for chi in g.characters() if is_primitive(chi)]
    return chars, g.value_matrix(chars) @ (residue_sums(a, q) if b is None else b)


def primitive_energy(a: CoefficientSequence, q: int, b: np.ndarray,
                     exclude: DirichletCharacter | None = None) -> float:
    """E(q; b): the sum of |S(chi)|^2 over the primitive chi mod q, in group order.

    S(chi) is the sum over u mod q of b_u chi(u); the character exclude, when
    given, adds nothing.  No primitive character exists mod q = 2 (mod 4),
    so there E(q; b) = 0.0.
    """
    chars, sums = primitive_char_sums(a, q, b)
    sq = np.abs(sums) ** 2
    if exclude is not None and exclude.modulus == q:
        sq[[chi == exclude for chi in chars]] = 0.0
    return float(np.sum(sq))


def sieve_lhs(a: CoefficientSequence, weight, qs,
              exclude: DirichletCharacter | None = None) -> float:
    """sum over q in qs of weight(q) * E(q), added in the order of qs.

    E(q) is primitive_energy of b = a mod q, leaving out the character
    exclude when one is given.  The E(q) come from residue_folds, in its
    order, and are kept as floats until the weighted sum.  No primitive
    character exists mod q = 2 (mod 4), so those q need no fold and add
    weight(q) * 0.0.
    """
    energy = {}
    for q, b in residue_folds(a, [q for q in qs if q % 4 != 2]):
        energy[q] = primitive_energy(a, q, b, exclude)
    lhs = 0.0
    for q in qs:
        lhs += weight(q) * energy.get(q, 0.0)
    return lhs


def _moduli(Q: int) -> range:
    """The moduli q = 1..Q of a sieve, after checking Q >= 1."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    return range(1, Q + 1)


def _squarefree_phi_sum(rs, q: int) -> float:
    """sum over squarefree r in rs with (r, q) = 1 of 1/phi(r), in the order of rs."""
    total = 0.0
    for r in rs:
        if q > 1 and math.gcd(r, q) != 1:
            continue
        f = factorize(r)
        if any(e >= 2 for _, e in f.factors):
            continue
        total += 1.0 / euler_phi(f)
    return total


# ---------------------------------------------------------------------
# the inequalities of the introduction


def lsi_mvs(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Montgomery-Vaughan/Selberg form: RHS weight N + Q^2."""
    lhs = sieve_lhs(a, lambda q: q / euler_phi(q), _moduli(Q))
    rhs = (a.N + Q * Q) * a.norm_sq
    return make_report("mvs", _params(a, Q=Q), lhs, rhs)


def lsi_bd(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Original Bombieri-Davenport form: RHS weight (sqrt(N) + Q)^2."""
    lhs = sieve_lhs(a, lambda q: q / euler_phi(q), _moduli(Q))
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("bd", _params(a, Q=Q), lhs, rhs)


def lsi_thm12(a: CoefficientSequence, moduli, excluded_primes) -> InequalityReport:
    """Gauss-sum weighted sieve over a prime-avoiding modulus set.

    Both the moduli and the coefficient support must avoid every prime in
    excluded_primes; all characters mod q enter, weighted |tau(chi)|^2/phi(q).
    A chi mod q induced from conductor f has |tau(chi)|^2 = f mu^2(q/f) when
    (f, q/f) = 1 and 0 otherwise, and S(chi) is the sum of its primitive
    character over b mod q with the residues not coprime to q zeroed, folded
    to mod f.  So the term of q is the sum of f E(f) / phi(q) over those f.
    """
    moduli = sorted(int(q) for q in moduli)
    P = frozenset(int(p) for p in excluded_primes)
    for q in moduli:
        if any(q % p == 0 for p in P):
            raise DomainError(f"modulus {q} has a prime divisor in the excluded set")
    SupportRestriction.prime_free(P).validate(a, "thm12")
    energy = {}
    for q, b in residue_folds(a, moduli):
        b = b * group(q).coprime_mask
        total = 0.0
        for d in arith.squarefree_divisors(q):
            f = q // d
            if math.gcd(f, d) == 1:
                total += f * primitive_energy(a, f, fold(b, f))
        energy[q] = total / euler_phi(q)
    lhs = 0.0
    for q in moduli:
        lhs += energy[q]
    Q = max(moduli, default=0)
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("thm12", _params(a, Q=Q, num_moduli=len(moduli),
                                        num_excluded_primes=len(P)), lhs, rhs)


def lsi_eq14(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Induced-character double sum with weights q mu^2(r) / phi(qr)."""
    SupportRestriction.rough(Q).validate(a, "eq14")
    lhs = sieve_lhs(
        a, lambda q: q / euler_phi(q) * _squarefree_phi_sum(range(1, Q // q + 1), q),
        _moduli(Q))
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("eq14", _params(a, Q=Q), lhs, rhs)


def check_eq15(q: int, X: float) -> InequalityReport:
    """Lower bound sum over squarefree r <= X coprime to q of 1/phi(r).

    Reversed direction: pass means lhs >= rhs (1 - tol).
    """
    if not 1 <= X < math.inf:
        raise DomainError("X must be a finite number >= 1")
    lhs = _squarefree_phi_sum(range(1, math.floor(X) + 1), q)
    rhs = euler_phi(q) / q * math.log(X)
    return make_report("eq15", {"q": q, "X": X}, lhs, rhs, direction="ge")


def lsi_eq16(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Log-weighted sieve: weights log(Q/q) over primitive characters."""
    SupportRestriction.rough(Q).validate(a, "eq16")
    lhs = sieve_lhs(a, lambda q: math.log(Q / q), _moduli(Q))
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("eq16", _params(a, Q=Q), lhs, rhs)


def lsi_thm13(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Ramanujan-sum twisted sieve with RHS weight N + Q^2.

    The term of each coprime pair (q, r), qr <= Q, is q/phi(qr) E(q) of
    b_u c_r(u) for b = a mod qr, folded to mod q.  The terms are computed in
    the order of residue_folds and added in ascending (q, r).
    """
    pairs = {}
    for q in _moduli(Q):
        for r in range(1, Q // q + 1):
            if math.gcd(q, r) == 1:
                pairs.setdefault(q * r, []).append((q, r))
    terms = {}
    for m, b in residue_folds(a, pairs):
        for q, r in pairs[m]:
            twisted = b * np.tile(expsums.ramanujan_table(r), q)
            terms[q, r] = q / euler_phi(m) * primitive_energy(a, q, fold(twisted, q))
    lhs = 0.0
    for key in sorted(terms):
        lhs += terms[key]
    rhs = (a.N + Q * Q) * a.norm_sq
    return make_report("thm13", _params(a, Q=Q), lhs, rhs)


# ---------------------------------------------------------------------
# restricted-support machinery (Section 2)


def script_L_q(q: int, R_set) -> float:
    """(q/phi(q)) * sum over squarefree r in R_set coprime to q of 1/phi(r)."""
    return q / euler_phi(q) * _squarefree_phi_sum(sorted(int(r) for r in R_set), q)


def script_L(Q: int, R_set) -> float:
    """Minimum of script_L_q over q <= Q."""
    return min(script_L_q(q, R_set) for q in _moduli(Q))


def lsi_prop21(a: CoefficientSequence, Q: int, R_set, R: int) -> InequalityReport:
    """Unit-weight sieve for support coprime to every element of R_set."""
    qs = _moduli(Q)
    R_set = sorted(int(r) for r in R_set)
    if any(r > R for r in R_set):
        raise DomainError(f"R_set contains an element above R = {R}")
    SupportRestriction.coprime_to(R_set).validate(a, "prop21")
    lhs = sieve_lhs(a, lambda q: 1.0, qs)
    L = script_L(Q, R_set)
    rhs = math.inf if L == 0 else (Q * Q * R * R + a.N) / L * a.norm_sq
    return make_report("prop21", _params(a, Q=Q, R=R, R_set_size=len(R_set)),
                       lhs, rhs, extras={"script_L": L})


def nu_supported_upto(R: float, exclude_divisors_of: int = 1) -> list[int]:
    """Squarefree products of primes = 3 (mod 4) up to R (1 included)."""
    ps = [int(p) for p in prime_table(max(int(R), 2)).upto(R)
          if p % 4 == 3 and exclude_divisors_of % int(p) != 0]
    out = [1]
    stack = [(0, 1)]
    while stack:
        start, n = stack.pop()
        for j in range(start, len(ps)):
            m = n * ps[j]
            if m > R:
                break
            out.append(m)
            stack.append((j + 1, m))
    return sorted(out)


def lsi_prop22(a: CoefficientSequence, Q: int, alpha: float = 1.0) -> InequalityReport:
    """Sieve weighted by coprime two-square representation counts r(n).

    The stored coefficients are the a_n; the sieve is applied to r(n) a_n.
    alpha is the unspecified threshold constant: the guard requires
    N >= Q^2 exp((alpha log log Q)^3).
    """
    qs = _moduli(Q)
    N = a.N
    if Q == 1:
        threshold = 0.0
    else:
        threshold = Q * Q * math.exp((alpha * math.log(math.log(Q))) ** 3)
    if N < threshold or N <= Q * Q:
        raise DomainError(
            f"prop22 requires N >= Q^2 exp((alpha log log Q)^3) = {threshold:.6g} "
            f"and N > Q^2; got N = {N}")
    r_table = arith.r2_coprime_table(a.M + N)
    r_n = r_table[a.n_values].astype(np.float64)
    weighted = CoefficientSequence(a.M, r_n * a.values)
    lhs = sieve_lhs(weighted, lambda q: 1.0, qs)
    denom = math.sqrt(math.log(N / (Q * Q)))
    rhs = 2 * N / denom * float(np.sum(r_n**2 * np.abs(a.values) ** 2))
    R = math.sqrt(N) / Q
    R_set = nu_supported_upto(R)
    return make_report("prop22", _params(a, Q=Q, alpha=alpha), lhs, rhs,
                       extras={"R": R, "R_set": R_set,
                               "script_L": script_L(Q, R_set)})


# ---------------------------------------------------------------------
# Theorem 2.1: almost-prime coefficient sieve


@dataclass
class ConditionCheck:
    """Outcome of the almost-prime coefficient conditions."""

    ok: bool
    witness: int | None  # smallest violating prime, None if ok
    norm_sq: float
    worst_ratio: float  # max over p of (divisible-mass sum) / (bound at p)
    worst_p: int | None


def thm21_conditions(a: CoefficientSequence, slack: float = 1.0) -> ConditionCheck:
    """Check sum |a_n|^2 <= slack and the per-prime divisible-mass bounds.

    The second condition demands, for every prime p <= N, that the mass on
    multiples of p be at most slack * (1/p)(log p / log N)^2.
    """
    N = a.N
    logN = math.log(N) if N > 1 else 1.0
    abs2 = np.abs(a.values) ** 2
    norm_sq = float(abs2.sum())
    ok = norm_sq <= slack * (1 + REL_TOL)
    witness = None
    worst_ratio = norm_sq
    worst_p = None
    for p in prime_table(max(N, 2)).upto(N):
        p = int(p)
        first = (a.M // p + 1) * p  # smallest multiple of p above M
        if first > a.M + N:
            continue
        mass = float(abs2[first - a.M - 1 :: p].sum())
        bound = (math.log(p) / logN) ** 2 / p
        ratio = mass / bound
        if ratio > worst_ratio:
            worst_ratio = ratio
            worst_p = p
        if mass > slack * bound * (1 + REL_TOL) and witness is None:
            witness = p
            ok = False
    return ConditionCheck(ok, witness, norm_sq, worst_ratio, worst_p)


def check_thm21_range(N: int, Q: int) -> None:
    """Raise DomainError unless 8 Q^2 <= N."""
    if 8 * Q * Q > N:
        raise DomainError(f"thm21 requires 8 Q^2 <= N; got Q = {Q}, N = {N}")


def lsi_thm21(a: CoefficientSequence, Q: int,
              condition_slack: float = 1.0) -> InequalityReport:
    """Sieve bound 24 N / log(N/Q^2) for almost-prime-supported coefficients."""
    N = a.N
    check_thm21_range(N, Q)
    check = thm21_conditions(a, slack=condition_slack)
    if not check.ok:
        raise DomainError(
            "thm21 coefficient conditions fail"
            + (f" at witness prime p = {check.witness}" if check.witness is not None
               else f": sum |a_n|^2 = {check.norm_sq:.6g} > {condition_slack}"))
    lhs = sieve_lhs(a, lambda q: 1.0, _moduli(Q))
    rhs = 24 * N / math.log(N / (Q * Q))
    empirical = lhs * math.log(N / (Q * Q)) / N
    return make_report("thm21", _params(a, Q=Q, condition_slack=condition_slack),
                       lhs, rhs,
                       extras={"split_R": (N / (Q * Q)) ** (1 / 3),
                               "empirical_constant": empirical,
                               "condition_worst_ratio": check.worst_ratio,
                               "condition_worst_p": check.worst_p})


# ---------------------------------------------------------------------
# Brun-Titchmarsh


def prime_indicator(M: int, N: int) -> CoefficientSequence:
    """a_p = 1 at primes in (M, M+N], zero elsewhere."""
    ps = arith.sieve_primes(max(M + N, 2)).primes
    vals = np.zeros(N, dtype=np.complex128)
    vals[ps[(ps > M) & (ps <= M + N)] - M - 1] = 1.0
    return CoefficientSequence(M, vals)


@dataclass
class BrunTitchmarshReport:
    M: int
    N: int
    Q: int
    Q_real: float
    prime_count: int
    bound: float
    asymptote: float  # 2N / log N
    ratio_to_asymptote: float
    passed: bool
    eq16_report: InequalityReport | None = None


def brun_titchmarsh(M: int, N: int, verify_chain: bool = True) -> BrunTitchmarshReport:
    """Count primes in (M, M+N] and compare with the sieve-derived bound.

    The bound comes from keeping only the principal-character term of the
    log-weighted sieve with Q = sqrt(N)/log N:
        log(Q) count^2 <= (sqrt(N)+Q)^2 count,
    so count <= (sqrt(N)+Q)^2 / log Q.
    """
    if N < 100:
        raise DomainError("N must be >= 100")
    if M <= math.sqrt(N):
        raise DomainError(f"requires M > sqrt(N); got M = {M}, sqrt(N) = {math.sqrt(N):.2f}")
    Q_real = math.sqrt(N) / math.log(N)
    Q = max(2, math.floor(Q_real))
    seq = prime_indicator(M, N)
    count = int(np.count_nonzero(seq.values))
    bound = (math.sqrt(N) + Q) ** 2 / math.log(Q)
    asymptote = 2 * N / math.log(N)
    eq16_report = None
    passed = count <= bound
    if verify_chain:
        eq16_report = lsi_eq16(seq, Q)
        # principal-term extraction must sit below the full left side
        principal = math.log(Q) * count * count
        passed = passed and eq16_report.passed and principal <= eq16_report.lhs * (1 + REL_TOL)
    return BrunTitchmarshReport(M, N, Q, Q_real, count, bound, asymptote,
                                bound / asymptote, passed, eq16_report)


# ---------------------------------------------------------------------


def _params(a: CoefficientSequence, **kw) -> dict:
    out = {"M": a.M, "N": a.N}
    if a.seed is not None:
        out["seed"] = a.seed
    if a.trial is not None:
        out["trial"] = a.trial
    out.update(kw)
    return out

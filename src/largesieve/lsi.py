"""Large sieve inequality evaluators.

Each evaluator computes the exact left and right sides of one inequality
for a concrete coefficient sequence and returns an InequalityReport.
energies(a, Q) is the vector of primitive energies E(q; a mod q), the sum
of |S(chi)|^2 over the primitive chi mod q, for q = 0..Q; every
multiplicative sieve is a weight array (phi_weights, log_weights or 1) times
that vector.  thm13 weights E of Ramanujan-twisted folds; thm12 and eq14 are
one additive sieve over the reduced fractions x/q (reduced_fraction_lhs).
Every residue vector comes from residue_folds, which reads the coefficients
only for the moduli in (top/2, top], two of them at a time (mod their lcm L)
when 4 L is at most the entries a read touches, and folds the others from
them; with Q^2 << N that halves the passes over the coefficients (bd at
N = 1e6, Q = 150: 0.185 -> 0.135 s end to end).  Every left side ends in
ordered_sum, which adds its float64 terms one at a time in a fixed order,
so results are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from largesieve import arith, expsums
from largesieve.arith import euler_phi, factorize, primes_upto
from largesieve.characters import (DirichletCharacter, PrimitiveCharacters, group,
                                   is_primitive)
from largesieve.errors import DomainError, SupportError

REL_TOL = 1e-9


# Integer arrays are reduced mod a scalar q as n - (n // q) q, never by %.
# numpy divides by a scalar integer with libdivide's multiply and shift, but
# computes % with one hardware division per entry.  Measured on a 2-vCPU x86
# VM (numpy 2.4.6, the 104,419 primes of a window of 1.5e6 above 1.03e6): %
# costs 4.3 ns per entry, // 1.2 ns in int64 and 0.36 ns in int32, and the
# whole reduction 2.0 ns in int64 and 0.65 ns in int32.  Each step writes
# into out, so the reduction holds no array but n and out.
def _residues(n: np.ndarray, q: int, out: np.ndarray) -> np.ndarray:
    """n mod q into out, an array of n's shape and dtype, for 1 <= q in that dtype."""
    np.floor_divide(n, q, out=out)
    out *= q
    return np.subtract(n, out, out=out)


# ---------------------------------------------------------------------
# data types


@dataclass
class CoefficientSequence:
    """Coefficients a_n supported on (M, M+N], real or complex.

    Real input is stored as float64 and complex input as complex128, bit for
    bit.  With index None the storage is dense: values[i] is a_{M+1+i} and N
    is len(values).  Otherwise N must be given, index holds the n with a_n
    != 0 in ascending order and values[j] is a_{index[j]}, never 0.  Either
    way values holds every nonzero a_n, so its sums are the sums over the
    sequence.  values must not change once nonzero is read.
    """

    M: int
    values: np.ndarray
    seed: int | None = None
    trial: int | None = None
    N: int | None = None
    index: np.ndarray | None = None

    def __post_init__(self):
        dtype = np.complex128 if np.iscomplexobj(self.values) else np.float64
        self.values = np.ascontiguousarray(self.values, dtype=dtype)
        if self.index is None:
            if self.N not in (None, self.values.size):
                raise ValueError(f"N = {self.N} but {self.values.size} dense values")
            self.N = self.values.size
            return
        index = np.ascontiguousarray(self.index, dtype=np.int64)
        if (self.N is None or self.N < 0 or index.shape != self.values.shape
                or np.any(index[1:] <= index[:-1]) or np.any(self.values == 0)
                or index.size and not self.M < index[0] <= index[-1] <= self.M + self.N):
            raise ValueError("index storage needs N and one ascending n in (M, M+N] "
                             "per nonzero value")
        self.index = index

    @cached_property
    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, a_n) for every nonzero a_n, n ascending, found once per sequence."""
        if self.index is not None:
            return self.index, self.values
        n = np.flatnonzero(self.values)
        values = self.values[n]
        n += self.M + 1
        return n, values

    def dense(self) -> np.ndarray:
        """a_{M+1}, ..., a_{M+N} as one vector; for dense storage, values itself."""
        if self.index is None:
            return self.values
        out = np.zeros(self.N, dtype=self.values.dtype)
        out[self.index - (self.M + 1)] = self.values
        return out

    @property
    def norm_sq(self) -> float:
        """sum of |a_n|^2, as the sum of the squared real and imaginary parts."""
        parts = self.values.view(np.float64)
        return float(np.einsum("i,i->", parts, parts))

    def total(self) -> complex:
        return complex(self.values.sum())

    @classmethod
    def ones(cls, N: int, M: int = 0) -> CoefficientSequence:
        return cls(M, np.ones(N))

    @classmethod
    def zeros(cls, N: int, M: int = 0) -> CoefficientSequence:
        return cls(M, np.zeros(N))


def random_sequence(N: int, M: int = 0, seed: int = 0, trial: int = 0,
                    restriction: SupportRestriction | None = None) -> CoefficientSequence:
    """Seeded complex-Gaussian coefficients, zeroed off the allowed support.

    Each (seed, trial) pair keys an independent generator stream, so trials
    share no state and every run is reproducible.  The real parts are the
    first N normal draws and the imaginary parts the next N, both scaled by
    1/sqrt(2), written into one complex vector.
    """
    rng = np.random.default_rng([seed, trial, N, M])
    vals = np.empty(N, dtype=np.complex128)
    draws = rng.standard_normal(N)
    vals.real = draws
    vals.imag = rng.standard_normal(out=draws)
    vals *= 1 / math.sqrt(2)
    if restriction is not None:
        restriction.zero_forbidden(vals, M)
    return CoefficientSequence(M, vals, seed=seed, trial=trial)


@dataclass(frozen=True)
class SupportRestriction:
    """No n with a_n != 0 may be divisible by a listed prime or by a prime <= R."""

    primes: tuple = ()
    R: int = 1

    @classmethod
    def prime_free(cls, primes) -> SupportRestriction:
        return cls(tuple(sorted(primes)))

    @classmethod
    def rough(cls, R: int) -> SupportRestriction:
        """No prime divisors <= R."""
        return cls(R=R)

    def _struck(self, top: int) -> list:  # the listed primes and those <= min(R, sqrt(top))
        return [*self.primes, *primes_upto(min(self.R, math.isqrt(top))).tolist()]

    def allowed_mask(self, n: np.ndarray) -> np.ndarray:
        """True where n >= 1 is allowed: n is 1 or above R, and no prime of
        _struck(max(n)) divides it (of 1 < n <= R, only primes survive the strikes).

        p divides n = min(n) + k exactly when k = -min(n) (mod p), so each
        prime reduces the offsets k = n - min(n), held in int32 when they and
        the primes are below 2^31 and in n's dtype otherwise, into one reused
        buffer by _residues.  The mask of n > R is built before those buffers.
        """
        struck = self._struck(int(n.max(initial=1)))
        mask = n > self.R
        mask |= n == 1
        if not (n.size and struck):
            return mask
        lo = int(n.min())
        small = max(int(n.max()) - lo, *struck) < 2**31
        k = np.empty(n.shape, dtype=np.int32 if small else n.dtype)
        np.subtract(n, lo, out=k)
        r = np.empty_like(k)
        for p in struck:
            mask &= _residues(k, p, r) != -lo % p
        return mask

    def zero_forbidden(self, values: np.ndarray, M: int) -> None:
        """Zero values[i], the coefficient of n = M+1+i, wherever n is not allowed."""
        for p in self._struck(M + values.size):
            values[-(M + 1) % p::p] = 0
        values[max(1 - M, 0):max(self.R - M, 0)] = 0

    def validate(self, a: CoefficientSequence, context: str) -> None:
        n = a.nonzero[0]
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
# (75, 150], densities 0.05-0.2, best of 5): a dense fold costs 0.6-0.7 ns
# per real entry and 1.0-1.2 ns per complex one, the sparse read 4.0-4.4 ns
# per nonzero real entry and 5.1-6.3 ns per complex one, so per modulus
# they meet at a density of 0.15-0.22.  Finding the nonzero entries costs
# another 5-6 ns per entry once per left side, which puts the threshold
# below that.
_SPARSE_BELOW = 0.1

# residue_folds reads two group tops m_1 < m_2 together, as b mod
# L = lcm(m_1, m_2), when this many L are at most the entries a read
# touches: N for a dense read, the nonzero count for a sparse one.  Either
# read costs about one addition per entry and folding b mod L to m_1 and to
# m_2 about L each, so a paired read costs entries + 2 L against 2 entries
# for two reads; at L <= entries / 4 the two folds cost at most half of the
# pass they save.  Consecutive tops are coprime or nearly so, so L is about
# top^2 and pairs form when Q^2 << N: bd at N = 1e6, Q = 150 reads the
# coefficients 35 times instead of 69 and runs in 0.135 s instead of 0.185 s
# (BENCH_paired_residue_reads.json); mvs at N = 4e4, Q = 800 never pairs.
# Three tops are not read together: their lcm is about top^3.
_PAIR_FACTOR = 4


def sparse_terms(a: CoefficientSequence):
    """The nonzero a_n as (n, Re a_n, Im a_n), the input of the sparse read.

    None when a is stored densely and at least _SPARSE_BELOW of its a_n are
    nonzero: a is then read densely.  Im a_n is None when every a_n is real.
    """
    if a.index is None and not np.count_nonzero(a.values) < _SPARSE_BELOW * a.N:
        return None
    n, v = a.nonzero
    if not np.iscomplexobj(v):
        return n, v, None
    im = np.ascontiguousarray(v.imag)
    return n, np.ascontiguousarray(v.real), im if im.any() else None


def residue_sums(a: CoefficientSequence, q: int, terms=None) -> np.ndarray:
    """b_u = sum of a_n over n = u (mod q), u = 0..q-1.

    Without terms, folds the coefficients period by period: the partial
    head period lands in b[s:], where s is the residue of the first n; the
    full periods are summed as a (k, q) view of the vector; the tail lands
    in b[:t].  With terms from sparse_terms(a), it bincounts the nonzero a_n
    by n mod q instead, real and imaginary parts apart, in ascending n; a
    sequence stored by index is always read so.  The sparse read reduces
    the int64 n by _residues into one new array: int32 offsets would reduce
    faster, but bincount copies its input to intp, which would add an int64
    array per read (0.8 MB on the prime indicator of sparse_bt).
    """
    if terms is None and a.index is not None:
        terms = sparse_terms(a)
    if terms is not None:
        n, re, im = terms
        u = _residues(n, q, np.empty_like(n))
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
    lies in (top/2, top].  Taken in ascending order, two consecutive tops
    m_1 < m_2 are read together, as b mod L for L = lcm(m_1, m_2), when
    _PAIR_FACTOR * L is at most the entries the read touches; otherwise m_1
    is read alone and m_2 is tried with the next top.  Only these b mod L
    are read from a, by residue_sums; each b mod m is a fold of one, every
    b mod q of its group a fold of that, and one b mod L is held at a time.
    Whether a is read sparsely is decided once, by sparse_terms.  The yield
    order is by read, then m, then q, each ascending.
    """
    qs = sorted(set(qs))
    if not qs:
        return
    top = qs[-1]
    groups = {}
    for q in qs:
        groups.setdefault(q * (top // q), []).append(q)
    terms = sparse_terms(a)
    entries = a.N if terms is None else terms[0].size
    tops = sorted(groups)
    while tops:
        read, L = tops[:2], math.lcm(*tops[:2])
        if _PAIR_FACTOR * L > entries:
            read, L = tops[:1], tops[0]
        del tops[:len(read)]
        b = residue_sums(a, L, terms)
        for m in read:
            bm = fold(b, m)
            for q in groups[m]:
                yield q, fold(bm, q)


def char_sum(chi: DirichletCharacter, a: CoefficientSequence) -> complex:
    """sum over M < n <= M+N of a_n chi(n)."""
    return complex((chi.group.value_matrix([chi]) @ residue_sums(a, chi.modulus))[0])


def primitive_char_sums(a: CoefficientSequence, q: int, b: np.ndarray | None = None):
    """(primitive_characters(q), their coefficient sums), in that order.

    b is the residue vector of a mod q when the caller already has it.  Let
    m_1, ..., m_k be the prime powers of q in factorize order, with CRT
    idempotents e_j (1 mod m_j, 0 mod q/m_j).  A character mod q is a
    product of characters mod the m_j, and it is primitive exactly when
    every factor is.  So b is gathered once, as the tensor
    B[t_1, ..., t_k] = b_n with n = sum_j r_j(t_j) e_j mod q, and contracted
    one axis at a time, last axis first, with the primitive characters mod
    m_j; the character axes come out in group order.  For q = 1 (k = 0) the
    sum is b[0].

    An odd m_j = p^e has a cyclic unit group with generator g, and its
    character of exponent k sends g^t to e(kt/phi(m_j)).  So its axis is
    laid out along the walk, r_j(t) = g^t for t < phi(m_j), and its sums
    are a discrete Fourier transform of that axis, taken at the rows k with
    p not dividing k: by the conductor formula these are the exponents of
    conductor p^e (for e = 1, every k != 0, as k < p - 1).  That is
    O(m_j log m_j) work, and no character object or value table.  The
    2-adic m_j (4 or 2^e) keeps r_j(t) = t for t < m_j and is contracted
    with the value matrix of its primitive characters.  Only group(m_j) is
    built, never group(q): the labels are a PrimitiveCharacters, whose
    length is known at once and whose members, primitive_characters(q), are
    built when first read.
    """
    b = residue_sums(a, q) if b is None else b
    local_groups = [group(p**e) for p, e in factorize(q).factors]
    n = np.zeros((), dtype=np.int64)
    for local in local_groups:
        m = local.modulus
        idempotent = q // m * pow(q // m, -1, m)  # 1 mod m, 0 mod q/m
        r = local.components[0].walk if m % 2 else np.arange(m)
        n = np.add.outer(n, r * idempotent) % q
    sums = b[n]
    after = 1
    for j in reversed(range(len(local_groups))):
        local = local_groups[j]
        axis = sums.reshape(math.prod(n.shape[:j]), n.shape[j], after)
        if local.modulus % 2:
            (component,) = local.components
            rows = np.flatnonzero(np.arange(component.order) % component.p)
            # norm="forward" leaves the inverse transform, sum x_t e(+kt/n), unscaled
            sums = np.fft.ifft(axis, axis=1, norm="forward")[:, rows, :]
        else:
            prim = [chi for chi in local.characters() if is_primitive(chi)]
            sums = np.matmul(local.value_matrix(prim), axis)
        after *= sums.shape[1]
    sums = sums.reshape(-1)
    return PrimitiveCharacters(q, sums.size), sums


def primitive_energy(a: CoefficientSequence, q: int, b: np.ndarray) -> float:
    """E(q; b): the sum of |S(chi)|^2 over the primitive chi mod q, in group order.

    S(chi) is the sum over u mod q of b_u chi(u).  No primitive character
    exists mod q = 2 (mod 4), so there E(q; b) = 0.0.
    """
    return float(np.sum(np.abs(primitive_char_sums(a, q, b)[1]) ** 2))


def energies(a: CoefficientSequence, Q: int) -> np.ndarray:
    """E[q] = E(q; a mod q) for q = 0..Q as float64, with E[0] = 0.0.

    Each E[q] is primitive_energy of a fold from residue_folds, in its order.
    No primitive character exists mod q = 2 (mod 4): those q keep E[q] = 0.0.
    """
    E = np.zeros(Q + 1)
    for q, b in residue_folds(a, [q for q in _moduli(Q) if q % 4 != 2]):
        E[q] = primitive_energy(a, q, b)
    return E


def ordered_sum(terms: np.ndarray) -> float:
    """The float64 terms added one at a time, first to last; 0.0 if there are none.

    terms is overwritten by its partial sums.  np.add.accumulate adds in this
    order on every Python version; sum() of floats is compensated from 3.12 on.
    """
    return float(np.add.accumulate(terms, out=terms)[-1]) if terms.size else 0.0


def reduced_fraction_lhs(a: CoefficientSequence, moduli) -> float:
    """sum over q in moduli and chi mod q of |tau(chi) S(chi)|^2 / phi(q).

    S(chi) sums c = a mod q zeroed off the units.  By Gauss-sum duality
    (Davenport, Multiplicative Number Theory, ch. 27) the term of q is the
    sum of |fft(c)[x]|^2 over the units x, the additive sieve at the reduced
    fractions x/q.  The terms are added by ordered_sum in the order of moduli.
    """
    terms = {}
    for q, b in residue_folds(a, moduli):
        units = np.gcd(np.arange(q), q) == 1
        s = np.fft.fft(b * units)[units]
        terms[q] = float(np.vdot(s, s).real)
    return ordered_sum(np.array([terms[q] for q in moduli], dtype=np.float64))


def _moduli(Q: int) -> range:
    """The moduli q = 1..Q of a sieve, after checking Q >= 1."""
    if Q < 1:
        raise DomainError("Q must be >= 1")
    return range(1, Q + 1)


# _coprime_total reads w in chunks of this many entries (512 KB of float64),
# so that one modulus costs a pass in cache, not a copy of w and its R + 1
# partial sums written back to memory.
_CHUNK = 1 << 16


def _coprime_total(w: np.ndarray, q: int) -> float:
    """Sum of w[r] over the r coprime to q, added in ascending r; w is not written.

    Each chunk is copied to one buffer, zeroed at the multiples of q's primes
    and accumulated after the running total is added to its first entry, so
    the additions and their order are those of ordered_sum over all of w.
    """
    primes = factorize(q).prime_factors
    buf, total = np.empty(min(_CHUNK, w.size)), 0.0
    for lo in range(0, w.size, _CHUNK):
        chunk = w[lo:lo + _CHUNK]
        b = buf[:chunk.size]
        b[:] = chunk
        for p in primes:
            b[-lo % p::p] = 0.0
        b[0] += total
        total = float(np.add.accumulate(b, out=b)[-1])
    return total


def phi_weights(Q: int) -> np.ndarray:
    """q/phi(q) at q = 0..Q, 0.0 at q = 0: the weights of mvs and bd."""
    return np.array([0.0] + [q / euler_phi(q) for q in range(1, Q + 1)])


def log_weights(Q: float) -> np.ndarray:
    """log(Q/q) at q = 0..floor(Q), 0.0 at q = 0: the weights of eq16."""
    return np.array([0.0] + [math.log(Q / q) for q in range(1, math.floor(Q) + 1)])


# ---------------------------------------------------------------------
# the inequalities of the introduction


def lsi_mvs(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Montgomery-Vaughan/Selberg form: RHS weight N + Q^2."""
    lhs = ordered_sum(energies(a, Q) * phi_weights(Q))
    rhs = (a.N + Q * Q) * a.norm_sq
    return make_report("mvs", _params(a, Q=Q), lhs, rhs)


def lsi_bd(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Original Bombieri-Davenport form: RHS weight (sqrt(N) + Q)^2."""
    lhs = ordered_sum(energies(a, Q) * phi_weights(Q))
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("bd", _params(a, Q=Q), lhs, rhs)


def lsi_thm12(a: CoefficientSequence, moduli, excluded_primes) -> InequalityReport:
    """Gauss-sum weighted sieve over a prime-avoiding modulus set.

    Both the moduli and the coefficient support must avoid every prime in
    excluded_primes; all characters mod q enter, weighted |tau(chi)|^2/phi(q).
    """
    moduli = sorted(int(q) for q in moduli)
    P = frozenset(int(p) for p in excluded_primes)
    for q in moduli:
        if any(q % p == 0 for p in P):
            raise DomainError(f"modulus {q} has a prime divisor in the excluded set")
    SupportRestriction.prime_free(P).validate(a, "thm12")
    lhs = reduced_fraction_lhs(a, moduli)
    Q = max(moduli, default=0)
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("thm12", _params(a, Q=Q, num_moduli=len(moduli),
                                        num_excluded_primes=len(P)), lhs, rhs)


def lsi_eq14(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Induced-character double sum with weights q mu^2(r) / phi(qr).

    On rough support (no prime <= Q divides an n with a_n != 0) it is thm12's
    sum over m = qr <= Q: chi mod m induced from a primitive chi mod q has
    |tau|^2 = q mu^2(r) when (q, r) = 1 and 0 otherwise.
    """
    SupportRestriction.rough(Q).validate(a, "eq14")
    lhs = reduced_fraction_lhs(a, _moduli(Q))
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("eq14", _params(a, Q=Q), lhs, rhs)


def check_eq15(q: int, X: float) -> InequalityReport:
    """Lower bound sum over squarefree r <= X coprime to q of 1/phi(r).

    Read off arith.squarefree_inverse_phi(floor(X)), the one array of X + 1
    floats held.  Reversed direction: pass means lhs >= rhs (1 - tol).
    """
    if not 1 <= X < math.inf:
        raise DomainError("X must be a finite number >= 1")
    lhs = _coprime_total(arith.squarefree_inverse_phi(math.floor(X)), q)
    rhs = euler_phi(q) / q * math.log(X)
    return make_report("eq15", {"q": q, "X": X}, lhs, rhs, direction="ge")


def lsi_eq16(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Log-weighted sieve: weights log(Q/q) over primitive characters; at Q = 1 all are 0."""
    if Q < 2:
        raise DomainError(f"eq16 requires Q >= 2; got Q = {Q}")
    SupportRestriction.rough(Q).validate(a, "eq16")
    lhs = ordered_sum(energies(a, Q) * log_weights(Q))
    rhs = (math.sqrt(a.N) + Q) ** 2 * a.norm_sq
    return make_report("eq16", _params(a, Q=Q), lhs, rhs)


def lsi_thm13(a: CoefficientSequence, Q: int) -> InequalityReport:
    """Ramanujan-sum twisted sieve with RHS weight N + Q^2.

    The term of each coprime pair (q, r), qr <= Q, is q/phi(qr) E(q) of
    b_u c_r(u) for b = a mod qr, folded to mod q.  Each table c_r is built
    once per r.  The terms are computed in the order of residue_folds and
    added by ordered_sum in ascending (q, r).  E(q) = 0.0 at q = 2 (mod 4),
    so those pairs are skipped; every m keeps its pair (1, m).
    """
    tables = {r: expsums.ramanujan_table(r) for r in _moduli(Q)}
    pairs = {}
    for q in _moduli(Q):
        for r in range(1, Q // q + 1):
            if q % 4 != 2 and math.gcd(q, r) == 1:
                pairs.setdefault(q * r, []).append((q, r))
    terms = {}
    for m, b in residue_folds(a, pairs):
        for q, r in pairs[m]:
            twisted = b * np.tile(tables[r], q)
            terms[q, r] = q / euler_phi(m) * primitive_energy(a, q, fold(twisted, q))
    lhs = ordered_sum(np.array([terms[key] for key in sorted(terms)], dtype=np.float64))
    rhs = (a.N + Q * Q) * a.norm_sq
    return make_report("thm13", _params(a, Q=Q), lhs, rhs)


# ---------------------------------------------------------------------
# restricted-support machinery (Section 2)


def script_L(Q: int, w: np.ndarray) -> float:
    """min over q <= Q of (q/phi(q)) * sum over the r in a set coprime to q of w[r].

    w is arith.squarefree_inverse_phi zeroed off the set.  Only the squarefree q
    are evaluated: both factors depend only on rad(q).
    """
    L = math.inf
    for f in (f for f in map(factorize, _moduli(Q)) if all(e == 1 for _, e in f.factors)):
        L = min(L, f.n / euler_phi(f) * _coprime_total(w, f))
    return L


@lru_cache(maxsize=1)
def _rough_script_L(Q: int, R: int) -> float:
    """script_L over every r <= R, computed once for all trials of one (Q, R)."""
    return script_L(Q, arith.squarefree_inverse_phi(R))


def lsi_prop21(a: CoefficientSequence, Q: int, R: int) -> InequalityReport:
    """Unit-weight sieve for support coprime to every r in {1, ..., R} (R-rough)."""
    if R < 1:
        raise DomainError("R must be >= 1")
    SupportRestriction.rough(R).validate(a, "prop21")
    lhs = ordered_sum(energies(a, Q))
    L = _rough_script_L(Q, R)
    rhs = math.inf if L == 0 else (Q * Q * R * R + a.N) / L * a.norm_sq
    return make_report("prop21", _params(a, Q=Q, R=R, R_set_size=R),
                       lhs, rhs, extras={"script_L": L})


def lsi_prop22(a: CoefficientSequence, Q: int, alpha: float = 1.0) -> InequalityReport:
    """Sieve weighted by coprime two-square representation counts r(n).

    The stored coefficients are the a_n; the sieve is applied to r(n) a_n.
    alpha is the unspecified threshold constant: the guard requires
    N >= Q^2 exp((alpha log log Q)^3).
    """
    _moduli(Q)  # Q >= 1 before log log Q is taken
    N = a.N
    try:
        threshold = 0.0 if Q == 1 else Q * Q * math.exp((alpha * math.log(math.log(Q))) ** 3)
    except OverflowError:  # exp((alpha log log Q)^3) is 0 or inf to a float
        threshold = 0.0 if alpha * math.log(math.log(Q)) < 0 else math.inf
    if N < threshold or N <= Q * Q:
        raise DomainError(
            f"prop22 requires N >= Q^2 exp((alpha log log Q)^3) = {threshold:.6g} "
            f"and N > Q^2; got N = {N}")
    r_n = arith.r2_coprime_table(a.M + N)[a.M + 1:].astype(np.float64)
    values = a.dense()
    weighted = CoefficientSequence(a.M, r_n * values)
    lhs = ordered_sum(energies(weighted, Q))
    denom = math.sqrt(math.log(N / (Q * Q)))
    rhs = 2 * N / denom * float(np.sum(r_n**2 * np.abs(values) ** 2))
    R = math.sqrt(N) / Q
    w = arith.squarefree_inverse_phi(math.floor(R))
    for p in primes_upto(R):
        if p % 4 != 3:
            w[::p] = 0.0  # what is left is the nu-supported r <= R
    return make_report("prop22", _params(a, Q=Q, alpha=alpha), lhs, rhs,
                       extras={"R": R, "R_set_size": int(np.count_nonzero(w)),
                               "script_L": script_L(Q, w)})


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
    logN = math.log(a.N) if a.N > 1 else 1.0
    abs2 = np.abs(a.dense()) ** 2
    norm_sq = float(abs2.sum())
    witness, worst_p, worst_ratio = None, None, norm_sq
    for p in primes_upto(a.N).tolist():
        mass = float(abs2[-(a.M + 1) % p::p].sum())  # the multiples of p in (M, M+N]
        bound = (math.log(p) / logN) ** 2 / p
        if mass / bound > worst_ratio:
            worst_p, worst_ratio = p, mass / bound
        if witness is None and mass > slack * bound * (1 + REL_TOL):
            witness = p
    ok = norm_sq <= slack * (1 + REL_TOL) and witness is None
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
    lhs = ordered_sum(energies(a, Q))
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
    """a_p = 1 at primes in (M, M+N], zero elsewhere, stored by index."""
    ps = arith.sieve_primes(max(M + N, 2), M)
    ps = ps[:np.searchsorted(ps, M + N, side="right")]  # M + N < 2 holds no prime
    return CoefficientSequence(M, np.ones(ps.size), N=N, index=ps)


def brun_titchmarsh(M: int, N: int) -> dict:
    """Count primes in (M, M+N] and compare with the sieve-derived bound.

    The bound comes from keeping only the principal-character term of the
    log-weighted sieve with Q = sqrt(N)/log N:
        log(Q) count^2 <= (sqrt(N)+Q)^2 count,
    so count <= (sqrt(N)+Q)^2 / log Q.  Returns the scan bt row: M, N, Q,
    Q_real, prime_count, bound, asymptote (2N / log N), ratio_to_asymptote
    and pass.
    """
    if N < 100:
        raise DomainError("N must be >= 100")
    if M <= math.sqrt(N):
        raise DomainError(f"requires M > sqrt(N); got M = {M}, sqrt(N) = {math.sqrt(N):.2f}")
    Q_real = math.sqrt(N) / math.log(N)
    Q = max(2, math.floor(Q_real))
    seq = prime_indicator(M, N)
    count = seq.nonzero[0].size
    bound = (math.sqrt(N) + Q) ** 2 / math.log(Q)
    asymptote = 2 * N / math.log(N)
    eq16_report = lsi_eq16(seq, Q)
    # principal-term extraction must sit below the full left side
    principal = math.log(Q) * count * count
    passed = (count <= bound and eq16_report.passed
              and principal <= eq16_report.lhs * (1 + REL_TOL))
    return {"M": M, "N": N, "Q": Q, "Q_real": Q_real, "prime_count": count,
            "bound": bound, "asymptote": asymptote,
            "ratio_to_asymptote": bound / asymptote, "pass": passed}


# ---------------------------------------------------------------------


def _params(a: CoefficientSequence, **kw) -> dict:
    out = {"M": a.M, "N": a.N}
    if a.seed is not None:
        out["seed"] = a.seed
    if a.trial is not None:
        out["trial"] = a.trial
    out.update(kw)
    return out

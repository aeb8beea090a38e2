"""Dirichlet characters mod q via exponents on CRT generators.

A character is stored as one exponent per cyclic component of (Z/qZ)^x:
one primitive-root component per odd prime power, the component of -1 for
4 | q, and the {-1, 5} pair when 8 | q.  Discrete-log tables are built
eagerly per modulus and memoized, giving O(1) value lookup; phases are
exact integers modulo the group exponent, so characters compare and
classify without any floating-point ambiguity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from largesieve.arith import factorize
from largesieve.errors import DomainError


def _primitive_root_mod_prime(p: int) -> int:
    if p == 2:
        return 1
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r, _ in fac.factors):
            return g
    raise RuntimeError(f"no primitive root mod {p}")  # unreachable for prime p


def _primitive_root_mod_odd_power(p: int, e: int) -> int:
    g = _primitive_root_mod_prime(p)
    if e == 1:
        return g
    # g generates mod p^e iff g^(p-1) != 1 mod p^2; otherwise g+p does.
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


class _Component:
    """One cyclic factor of (Z/qZ)^x."""

    __slots__ = ("kind", "p", "prime_power", "generator", "order", "dlog", "walk")

    def __init__(self, kind: str, p: int, e: int, generator: int, order: int):
        self.kind = kind  # "odd" | "four" | "two_neg" | "two_five"
        self.p = p
        self.prime_power = p**e
        self.generator = generator % self.prime_power
        self.order = order
        self.dlog = None  # filled by the group constructor
        self.walk = None  # generator**t mod prime_power for t < order; None on the 2^e pair

    def conductors(self, a):
        """Conductor of n -> e(a dlog(n) / order), for an exponent or an array of them.

        The character of exponent a has order o = order / gcd(order, a).  On
        an odd component its conductor is p times the p-part of o; on the
        component of 5 mod 2^e it is 4 o, and on that of -1 it is 4.  The
        conductor of a character is the lcm of those of its components.
        """
        o = self.order // np.gcd(self.order, a)
        if self.kind == "odd":
            f = self.p * np.gcd(o, self.prime_power // self.p)
        else:
            f = (4 if self.kind == "two_five" else 2) * o
        return np.where(a == 0, 1, f)


class CharacterGroup:
    """Structure of (Z/qZ)^x with discrete-log tables over a full period."""

    def __init__(self, modulus: int):
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        self.modulus = modulus
        self.components: tuple[_Component, ...] = tuple(self._build_components(modulus))
        self.exponent = math.lcm(*(c.order for c in self.components))
        self._fill_dlogs()
        n = np.arange(modulus, dtype=np.int64)
        self.coprime_mask = np.gcd(n, modulus) == 1
        # rows: component dlogs on a full period (garbage at non-coprime n)
        self.dlog_matrix = np.zeros((len(self.components), modulus), dtype=np.int64)
        for j, comp in enumerate(self.components):
            self.dlog_matrix[j] = comp.dlog[n % comp.prime_power]
        self.root_table = np.exp(2j * np.pi * np.arange(self.exponent) / self.exponent)
        # exact values at quarter turns so real characters return exact +-1
        for j, value in enumerate((1.0, 1j, -1.0, -1j)):
            if j * self.exponent % 4 == 0:
                self.root_table[j * self.exponent // 4] = value

    @staticmethod
    def _build_components(modulus):
        for p, e in factorize(modulus).factors:
            if p == 2:
                if e == 2:
                    yield _Component("four", 2, 2, 3, 2)
                elif e >= 3:
                    yield _Component("two_neg", 2, e, 2**e - 1, 2)
                    yield _Component("two_five", 2, e, 5, 2 ** (e - 2))
                # e == 1: trivial unit group, no component
            else:
                g = _primitive_root_mod_odd_power(p, e)
                yield _Component("odd", p, e, g, p ** (e - 1) * (p - 1))

    def _fill_dlogs(self):
        two_pair = [c for c in self.components if c.kind in ("two_neg", "two_five")]
        for comp in self.components:
            if comp.kind in ("odd", "four"):
                walk, r = [], 1
                for _ in range(comp.order):
                    walk.append(r)
                    r = r * comp.generator % comp.prime_power
                comp.walk = np.array(walk, dtype=np.int64)
                comp.dlog = np.zeros(comp.prime_power, dtype=np.int64)
                comp.dlog[comp.walk] = np.arange(comp.order)
        if two_pair:
            neg, five = two_pair
            pe = neg.prime_power
            tneg = np.zeros(pe, dtype=np.int64)
            tfive = np.zeros(pe, dtype=np.int64)
            for s in range(2):
                r = pe - 1 if s else 1
                for t in range(five.order):
                    tneg[r] = s
                    tfive[r] = t
                    r = r * 5 % pe
            neg.dlog = tneg
            five.dlog = tfive

    # ---- character enumeration -------------------------------------

    def characters(self) -> list[DirichletCharacter]:
        """All phi(q) characters; the principal character comes first.

        They come in the order of product() over the component exponents,
        each with its conductor stored: the lcm of the conductors of its
        components, computed for the whole exponent grid at once in the same
        (C) order.
        """
        conductors = reduce(np.lcm.outer, (c.conductors(np.arange(c.order, dtype=np.int64))
                                           for c in self.components), np.int64(1))
        make = DirichletCharacter._reduced
        return [make(self, exps, f) for exps, f in
                zip(product(*(range(c.order) for c in self.components)),
                    np.ravel(conductors).tolist())]

    def product_characters(self, factors) -> list[DirichletCharacter]:
        """chi_1 ... chi_k for every choice of chi_j from factors[j], in C order.

        factors[j] holds characters mod the j-th prime power of q, in
        factorize order.  Each component of this group is the one of the
        group mod its prime power, so the exponent tuple of a product is
        the factors' tuples concatenated, and its conductor is the product
        of theirs.  A single factor is already a list of characters of this
        group, and is returned as it is.
        """
        if len(factors) == 1:
            return factors[0]
        conductors = reduce(np.multiply.outer,
                            ([conductor(chi) for chi in f] for f in factors), np.int64(1))
        make = DirichletCharacter._reduced
        return [make(self, sum(combo, ()), f) for combo, f in
                zip(product(*([chi.exponents for chi in f] for f in factors)),
                    np.ravel(conductors).tolist())]

    def phase_rows(self, chars) -> np.ndarray:
        """Integer phases (mod group exponent) of each character on 0..q-1."""
        L = self.exponent
        exps = np.array([ch.exponents for ch in chars], dtype=np.int64)
        exps = exps.reshape(len(chars), len(self.components))
        phases = np.zeros((len(chars), self.modulus), dtype=np.int64)
        for j, c in enumerate(self.components):
            phases += np.multiply.outer(exps[:, j] * (L // c.order), self.dlog_matrix[j])
        phases %= L
        return phases

    def value_matrix(self, chars) -> np.ndarray:
        """Complex value table, one row per character, columns n = 0..q-1."""
        values = self.root_table[self.phase_rows(chars)]
        values[:, ~self.coprime_mask] = 0.0
        return values


@lru_cache(maxsize=None)
def group(modulus: int) -> CharacterGroup:
    return CharacterGroup(modulus)


class ProductCharacters(Sequence):
    """group(q).product_characters of per-factor lists, built on first read.

    factors[j] is (m_j, rows) for the j-th prime power m_j of q, in
    factorize order, and lists group(m_j).characters()[k] for k in rows.
    len() is the product of the row counts and builds nothing.
    """

    def __init__(self, modulus: int, factors):
        self.modulus = modulus
        self._factors = factors
        self._len = math.prod(len(rows) for _, rows in factors)
        self._chars = None

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if self._chars is None:
            lists = []
            for m, rows in self._factors:
                chars = group(m).characters()
                lists.append([chars[k] for k in rows])
            self._chars = group(self.modulus).product_characters(lists)
        return self._chars[i]


class DirichletCharacter:
    """A character mod q, identified by its exponent vector."""

    __slots__ = ("group", "exponents", "_conductor")

    def __init__(self, grp: CharacterGroup, exponents):
        exponents = tuple(int(a) % c.order for a, c in zip(exponents, grp.components))
        if len(exponents) != len(grp.components):
            raise ValueError("one exponent per group component required")
        self.group = grp
        self.exponents = exponents
        self._conductor = None

    @classmethod
    def _reduced(cls, grp: CharacterGroup, exponents: tuple, conductor: int):
        """The character of exponents already reduced mod the component orders.

        Nothing is checked; conductor is stored for conductor() to return.
        """
        chi = cls.__new__(cls)
        chi.group, chi.exponents, chi._conductor = grp, exponents, conductor
        return chi

    @property
    def modulus(self) -> int:
        return self.group.modulus

    def __eq__(self, other):
        return (isinstance(other, DirichletCharacter)
                and self.modulus == other.modulus
                and self.exponents == other.exponents)

    def __hash__(self):
        return hash((self.modulus, self.exponents))

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, exponents={self.exponents})"

    # ---- classification ---------------------------------------------

    @property
    def is_principal(self) -> bool:
        return all(a == 0 for a in self.exponents)

    @property
    def order(self) -> int:
        orders = [c.order // math.gcd(c.order, a)
                  for a, c in zip(self.exponents, self.group.components)]
        return math.lcm(*orders)

    @property
    def is_real(self) -> bool:
        return all((2 * a) % c.order == 0
                   for a, c in zip(self.exponents, self.group.components))

    # ---- evaluation --------------------------------------------------

    def phase(self, n: int) -> Fraction | None:
        """Exact phase in [0, 1) with chi(n) = e(phase); None when chi(n) = 0."""
        q = self.modulus
        if math.gcd(n, q) != 1:
            return None
        total = 0
        L = self.group.exponent
        for a, c in zip(self.exponents, self.group.components):
            total += a * (L // c.order) * int(c.dlog[n % c.prime_power])
        return Fraction(total % L, L)

    def __call__(self, n: int) -> complex:
        ph = self.phase(n)
        if ph is None:
            return 0j
        return complex(self.group.root_table[int(ph * self.group.exponent) % self.group.exponent])

    def values(self) -> np.ndarray:
        """chi(n) for n = 0..q-1 (complex array)."""
        return self.group.value_matrix([self])[0]


# ---------------------------------------------------------------------
# module-level operations


def character_group(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q; element 0 is the principal character."""
    return group(q).characters()


def principal_character(q: int) -> DirichletCharacter:
    g = group(q)
    return DirichletCharacter(g, (0,) * len(g.components))


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi factors through a character mod f."""
    if chi._conductor is None:
        chi._conductor = math.lcm(*(int(c.conductors(a)) for a, c in
                                    zip(chi.exponents, chi.group.components)))
    return chi._conductor


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.modulus


def primitive_characters(q: int) -> list[DirichletCharacter]:
    return [chi for chi in character_group(q) if is_primitive(chi)]


def real_primitive_characters(D: int) -> list[DirichletCharacter]:
    """Primitive characters of conductor D with chi^2 principal."""
    return [chi for chi in primitive_characters(D) if chi.is_real]


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


def chi4() -> DirichletCharacter:
    """The nonprincipal (conductor-4) character."""
    return character_group(4)[1]


def primitive_core(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character inducing chi."""
    f = conductor(chi)
    for cand in primitive_characters(f):
        ind = induce(cand, chi.modulus)
        if ind == chi:
            return cand
    raise RuntimeError("no primitive core found")  # unreachable

"""Dirichlet characters mod q via exponents on CRT generators.

A character is stored as one exponent per cyclic component of (Z/qZ)^x:
one primitive-root component per odd prime power, the component of -1 for
4 | q, and that of 5 as well when 8 | q.  Each prime power's discrete-log
tables come from one walk per component generator, built eagerly per
modulus and memoized, giving O(1) value lookup; phases are exact integers
modulo the group exponent, so characters compare and classify without any
floating-point ambiguity.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product

import numpy as np

from largesieve.arith import factorize


def _primitive_root_mod_prime(p: int) -> int:
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r, _ in fac.factors):
            return g
    raise RuntimeError(f"no primitive root mod {p}")  # unreachable for prime p


def _primitive_root_mod_odd_power(p: int, e: int) -> int:
    g = _primitive_root_mod_prime(p)
    # for e >= 2, g generates mod p^e iff g^(p-1) != 1 mod p^2; otherwise g+p does.
    return g + p if e >= 2 and pow(g, p - 1, p * p) == 1 else g


class _Component:
    """One cyclic factor of (Z/qZ)^x, of one of three kinds.

    "odd" is generated by a primitive root mod an odd p^e, "two_neg" by -1
    mod 2^e (e >= 2) and "two_five" by 5 mod 2^e (e >= 3).
    """

    __slots__ = ("kind", "p", "prime_power", "generator", "order", "dlog", "walk")

    def __init__(self, kind: str, p: int, e: int, generator: int, order: int):
        self.kind = kind  # "odd" | "two_neg" | "two_five"
        self.p = p
        self.prime_power = p**e
        self.generator = generator % self.prime_power
        self.order = order
        self.dlog = None  # filled by the group constructor
        self.walk = None  # generator**t mod prime_power for t < order

    def conductor(self, a: int) -> int:
        """Conductor of n -> e(a dlog(n) / order).

        The character of exponent a has order o = order / gcd(order, a).  On
        an odd component its conductor is p times the p-part of o; on the
        component of 5 mod 2^e it is 4 o, and on that of -1 it is 4.  The
        conductor of a character is the lcm of those of its components.
        """
        if a == 0:
            return 1
        o = self.order // math.gcd(self.order, a)
        if self.kind == "odd":
            return self.p * math.gcd(o, self.prime_power // self.p)
        return (4 if self.kind == "two_five" else 2) * o


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
            if p == 2:  # e == 1: trivial unit group, no component
                if e >= 2:
                    yield _Component("two_neg", 2, e, 2**e - 1, 2)
                if e >= 3:
                    yield _Component("two_five", 2, e, 5, 2 ** (e - 2))
            else:
                g = _primitive_root_mod_odd_power(p, e)
                yield _Component("odd", p, e, g, p ** (e - 1) * (p - 1))

    def _fill_dlogs(self):
        """Walk each generator; the units mod p^e are the products of the walks.

        The components of one prime power p^e multiply out to the grid of
        all units mod p^e, and the exponent grids say which power of each
        generator every unit is.
        """
        for pe in dict.fromkeys(c.prime_power for c in self.components):
            comps = [c for c in self.components if c.prime_power == pe]
            for comp in comps:
                walk, r = [], 1
                for _ in range(comp.order):
                    walk.append(r)
                    r = r * comp.generator % pe
                comp.walk = np.array(walk, dtype=np.int64)
            units = reduce(lambda x, y: np.multiply.outer(x, y) % pe, (c.walk for c in comps))
            for comp, exponents in zip(comps, np.indices(units.shape)):
                comp.dlog = np.zeros(pe, dtype=np.int64)
                comp.dlog[units] = exponents

    # ---- character enumeration -------------------------------------

    def characters(self) -> list[DirichletCharacter]:
        """All phi(q) characters, in the order of product() over the component
        exponents; the principal character comes first."""
        make = DirichletCharacter._reduced
        return [make(self, exps) for exps in product(*(range(c.order) for c in self.components))]

    def value_matrix(self, chars) -> np.ndarray:
        """Complex value table, one row per character, columns n = 0..q-1.

        Each row indexes the root table by its integer phases mod the group
        exponent.
        """
        L = self.exponent
        exps = np.array([ch.exponents for ch in chars], dtype=np.int64)
        exps = exps.reshape(len(chars), len(self.components))
        phases = np.zeros((len(chars), self.modulus), dtype=np.int64)
        for j, c in enumerate(self.components):
            phases += np.multiply.outer(exps[:, j] * (L // c.order), self.dlog_matrix[j])
        phases %= L
        values = self.root_table[phases]
        values[:, ~self.coprime_mask] = 0.0
        return values


@lru_cache(maxsize=None)
def group(modulus: int) -> CharacterGroup:
    return CharacterGroup(modulus)


class PrimitiveCharacters(Sequence):
    """primitive_characters(q), built on first read; len() builds nothing."""

    def __init__(self, modulus: int, length: int):
        self.modulus = modulus
        self._len = length
        self._chars = None

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if self._chars is None:
            self._chars = primitive_characters(self.modulus)
        return self._chars[i]


class DirichletCharacter:
    """A character mod q, identified by its exponent vector."""

    __slots__ = ("group", "exponents")

    def __init__(self, grp: CharacterGroup, exponents):
        exponents = tuple(int(a) % c.order for a, c in zip(exponents, grp.components))
        if len(exponents) != len(grp.components):
            raise ValueError("one exponent per group component required")
        self.group = grp
        self.exponents = exponents

    @classmethod
    def _reduced(cls, grp: CharacterGroup, exponents: tuple):
        """The character of exponents already reduced mod the orders; nothing is checked."""
        chi = cls.__new__(cls)
        chi.group, chi.exponents = grp, exponents
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
    def order(self) -> int:
        orders = [c.order // math.gcd(c.order, a)
                  for a, c in zip(self.exponents, self.group.components)]
        return math.lcm(*orders)

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


def conductor(chi: DirichletCharacter) -> int:
    """Smallest f | q such that chi factors through a character mod f."""
    return math.lcm(*(c.conductor(a) for a, c in zip(chi.exponents, chi.group.components)))


def is_primitive(chi: DirichletCharacter) -> bool:
    return conductor(chi) == chi.modulus


def primitive_characters(q: int) -> list[DirichletCharacter]:
    return [chi for chi in character_group(q) if is_primitive(chi)]


def real_primitive_characters(D: int) -> list[DirichletCharacter]:
    """Primitive characters of conductor D with chi^2 principal.

    Those have every exponent 0 or half its component's (even) order: at
    most 2^k candidates, built in the order of characters().
    """
    grp = group(D)
    chars = (DirichletCharacter._reduced(grp, exps)
             for exps in product(*((0, c.order // 2) for c in grp.components)))
    return [chi for chi in chars if is_primitive(chi)]


def chi4() -> DirichletCharacter:
    """The nonprincipal (conductor-4) character."""
    return character_group(4)[1]

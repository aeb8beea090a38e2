import math

import numpy as np
import pytest

from largesieve.arith import euler_phi, factorize, sieve_primes
from largesieve.characters import (DirichletCharacter, character_group, chi4,
                                   conductor, group, is_primitive, primitive_characters,
                                   real_primitive_characters)
from largesieve.errors import DomainError
from oracles import divisors_td, induce, mobius_td, primitive_core, principal_character


def test_group_sizes():
    assert len(character_group(1)) == 1
    assert len(character_group(5)) == 4
    for q in (2, 8, 12, 16, 24, 45, 97):
        assert len(character_group(q)) == euler_phi(q)


def test_modulus_one_character_is_identically_one():
    (chi,) = character_group(1)
    for n in range(-3, 10):
        assert chi(n) == 1


def test_value_examples():
    chi0 = principal_character(6)
    assert chi0(5) == 1
    assert chi4()(3) == -1
    for q in (4, 6, 9):
        for chi in character_group(q):
            assert chi(q) == 0
            assert chi(1) == 1


def test_values_are_roots_of_unity_or_zero():
    for q in (5, 8, 13, 36):
        for chi in character_group(q):
            for n in range(q):
                v = chi(n)
                if math.gcd(n, q) == 1:
                    assert abs(abs(v) - 1) < 1e-12
                    assert abs(v ** chi.order - 1) < 1e-9
                else:
                    assert v == 0


def brute_conductor(chi):
    """Oracle: minimal-period search over divisors of the modulus."""
    q = chi.modulus
    for f in sorted(divisors_td(q)):
        ok = True
        for n in range(1, q + 1):
            if math.gcd(n, q) != 1:
                continue
            for m in range(n % f, q + 1, f):
                if m and math.gcd(m, q) == 1 and abs(chi(n) - chi(m)) > 1e-9:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return f
    return q


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 18, 24, 36, 40, 45])
def test_conductor_against_brute_force(q):
    for chi in character_group(q):
        f = brute_conductor(chi)
        assert conductor(chi) == conductor(DirichletCharacter(chi.group, chi.exponents)) == f


def test_conductor_examples():
    assert conductor(principal_character(12)) == 1
    assert conductor(induce(chi4(), 12)) == 4
    for p in (5, 7, 11):
        for chi in character_group(p):
            if any(chi.exponents):
                assert conductor(chi) == p


def test_stored_conductors_match_the_scalar_conductor():
    for q in range(1, 301):
        g = group(q)
        for chi in g.characters():
            assert chi._conductor == conductor(DirichletCharacter(g, chi.exponents)), chi


def test_is_primitive():
    assert is_primitive(character_group(1)[0])
    for q in (2, 3, 8, 12):
        assert not is_primitive(principal_character(q))
    assert len(primitive_characters(9)) == 4


def test_primitive_counts():
    assert primitive_characters(2) == []
    assert len(primitive_characters(8)) == 2
    # primitive-count identity, cross-checked against conductor computation
    for q in range(1, 501):
        expect = sum(mobius_td(q // d) * euler_phi(d) for d in divisors_td(q))
        assert len(primitive_characters(q)) == max(expect, 0), q


def test_no_primitive_characters_mod_2_mod_4():
    for q in range(2, 200, 4):
        if q % 4 == 2:
            assert primitive_characters(q) == []


def test_induce():
    assert induce(character_group(1)[0], 6) == principal_character(6)
    ind = induce(chi4(), 12)
    assert ind(7) == chi4()(7) == -1
    assert ind(3) == 0
    assert conductor(ind) == 4
    with pytest.raises(DomainError):
        induce(chi4(), 6)  # 4 does not divide 6


def test_every_character_is_induced_from_its_core():
    for q in range(1, 101):
        for chi in character_group(q):
            core = primitive_core(chi)
            assert conductor(chi) == core.modulus
            assert induce(core, q) == chi


def test_real_primitive_characters():
    (c4,) = real_primitive_characters(4)
    assert c4 == chi4()
    (c5,) = real_primitive_characters(5)
    # Legendre symbol mod 5: residues {1, 4}, non-residues {2, 3}
    assert c5(1) == c5(4) == 1
    assert c5(2) == c5(3) == -1
    assert real_primitive_characters(6) == []
    assert len(real_primitive_characters(8)) == 2


def test_value_matrix_equals_the_pointwise_definition():
    # every component kind, and products of three and four prime powers
    for q in [*range(1, 65), 120, 315, 840]:
        g = group(q)
        chars = g.characters()
        pointwise = np.array([[chi(n) for n in range(q)] for chi in chars])
        assert np.array_equal(g.value_matrix(chars), pointwise), q


def odd_prime_powers(limit):
    for p in sieve_primes(limit).tolist()[1:]:
        m = p
        while m <= limit:
            yield m
            m *= p


def test_walk_inverts_the_discrete_log():
    for m in [*odd_prime_powers(800), 7919, 3**8]:
        (comp,) = group(m).components
        assert np.array_equal(comp.dlog[comp.walk], np.arange(comp.order)), m
        units = [n for n in range(1, m) if math.gcd(n, m) == 1]
        assert sorted(comp.walk.tolist()) == units, m


def test_walks_and_dlogs_follow_pow():
    """walk[t] = g^t and n = prod_j g_j^dlog_j(n) (mod p^e), with the powers
    taken by pow, for every unit n mod every prime power p^e of m."""
    powers = {}  # (g, p^e) -> pow(g, t, p^e) for t < order
    for m in [*range(1, 2**12 + 1), 3**7, 5**5, 2**14, 8 * 3**5]:
        comps = group(m).components
        for p, e in factorize(m).factors:
            pe = p**e
            units = np.arange(pe)
            units = units[units % p != 0]
            value = np.ones_like(units)
            for c in (c for c in comps if c.prime_power == pe):
                key = (c.generator, pe)
                if key not in powers:
                    powers[key] = np.array([pow(c.generator, t, pe) for t in range(c.order)])
                assert np.array_equal(c.walk, powers[key]), (m, c.kind)
                exponents = c.dlog[units]
                assert np.all((exponents >= 0) & (exponents < c.order)), (m, c.kind)
                value = value * powers[key][exponents] % pe
            assert np.array_equal(value, units), (m, pe)


@pytest.mark.parametrize("q, exponent", [(2, 1), (3, 2), (5, 4), (7, 6), (13, 12), (25, 20)])
def test_root_table_is_exact_at_quarter_turns(q, exponent):
    g = group(q)
    assert g.exponent == exponent
    for j, value in enumerate((1.0, 1j, -1.0, -1j)):
        if j * exponent % 4 == 0:
            assert g.root_table[j * exponent // 4] == value
    expected = np.exp(2j * np.pi * np.arange(exponent) / exponent)
    assert np.allclose(g.root_table, expected, rtol=0.0, atol=1e-15)


def test_orthogonality_rows():
    for q in range(1, 101):
        g = group(q)
        chars = g.characters()
        V = g.value_matrix(chars)
        gram = V @ V.conj().T
        expect = euler_phi(q) * np.eye(len(chars))
        assert np.max(np.abs(gram - expect)) <= 1e-9 * euler_phi(q), q


def test_orthogonality_columns():
    for q in range(1, 51):
        g = group(q)
        V = g.value_matrix(g.characters())
        gram = V.conj().T @ V
        n = np.arange(q if q > 1 else 1)
        cop = np.gcd(n, q) == 1 if q > 1 else np.array([True])
        for a in n[cop]:
            for b in n[cop]:
                expect = euler_phi(q) if a == b else 0.0
                assert abs(gram[a, b] - expect) <= 1e-9 * euler_phi(q)


def test_complete_multiplicativity():
    rng = np.random.default_rng(7)
    for q in (7, 12, 16, 45):
        for chi in character_group(q):
            for _ in range(50):
                m, n = rng.integers(0, 10**6, size=2)
                lhs = chi(int(m) * int(n))
                rhs = chi(int(m)) * chi(int(n))
                assert abs(lhs - rhs) < 1e-9


def test_phase_is_exact():
    from fractions import Fraction
    c5 = real_primitive_characters(5)[0]
    assert c5.phase(2) == Fraction(1, 2)
    assert c5.phase(5) is None
    chi = character_group(5)[1]
    assert chi.phase(2) in {Fraction(1, 4), Fraction(3, 4)}

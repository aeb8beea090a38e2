import cmath
import math

import numpy as np

from largesieve.arith import euler_phi
from largesieve.characters import character_group, chi4, conductor, is_primitive
from largesieve.expsums import ramanujan_table
from oracles import (e, gauss_sum, mobius_td, principal_character, ramanujan_sum_divisor,
                     ramanujan_sum_exp)


def test_e_basic():
    assert e(0) == 1
    assert abs(e(0.25) - 1j) < 1e-15
    assert abs(e(123456789.5) + 1) < 1e-9  # argument reduction keeps precision


def test_gauss_sum_examples():
    assert gauss_sum(character_group(1)[0]) == 1
    assert abs(gauss_sum(chi4()) - 2j) < 1e-12
    for chi in character_group(7):
        if is_primitive(chi):
            assert abs(abs(gauss_sum(chi)) ** 2 - 7) < 1e-9


def test_gauss_sum_direct_summation_oracle():
    # independent evaluation with scalar chi calls and cmath
    for q in (5, 8, 12):
        for chi in character_group(q):
            oracle = sum(chi(u) * cmath.exp(2j * cmath.pi * u / q) for u in range(q))
            assert abs(gauss_sum(chi) - oracle) < 1e-9


def test_gauss_modulus_law():
    for q in range(1, 101):
        for chi in character_group(q):
            if is_primitive(chi):
                assert abs(abs(gauss_sum(chi)) ** 2 - q) <= 1e-6 * q


def test_gauss_modulus_closed_form():
    # chi mod q induced from conductor f: |tau(chi)|^2 = f mu^2(q/f) if (f, q/f) = 1,
    # else 0 (Montgomery-Vaughan, ch. 9).  On rough support this gives lsi_eq14's
    # weights q mu^2(r) / phi(qr) from the character sum that lsi_thm12 computes.
    checked = 0
    for q in range(1, 301):
        for chi in character_group(q):
            f = conductor(chi)
            closed = f * mobius_td(q // f) ** 2 if math.gcd(f, q // f) == 1 else 0
            assert abs(abs(gauss_sum(chi)) ** 2 - closed) <= 1e-12 * q, (q, chi.exponents)
            checked += 1
    assert checked == sum(euler_phi(q) for q in range(1, 301))


def test_gauss_sum_principal_equals_mobius():
    # tau(chi_0 mod q) = c_q(1) = mu(q)
    for q in range(1, 201):
        assert abs(gauss_sum(principal_character(q)) - mobius_td(q)) < 1e-6


def test_ramanujan_examples():
    assert ramanujan_sum_exp(1, 17) == 1
    assert abs(ramanujan_sum_exp(4, 2) - (-2)) < 1e-12
    assert ramanujan_table(4)[2] == ramanujan_sum_divisor(4, 2) == -2
    assert ramanujan_table(3)[4 % 3] == -1  # = mu(3), since gcd(4, 3) = 1
    assert ramanujan_table(6)[0] == euler_phi(6) == 2
    assert ramanujan_table(1).tolist() == [1]
    for r in range(1, 201):
        assert ramanujan_table(r)[0] == euler_phi(r)


def test_ramanujan_agreement():
    for r in range(1, 51):
        table = ramanujan_table(r)
        for n in range(0, 51):
            exp_form = ramanujan_sum_exp(r, n)
            assert abs(exp_form.imag) <= 1e-9
            assert abs(exp_form - table[n % r]) <= 1e-9 * euler_phi(r)


def test_ramanujan_mu_on_coprime():
    for r in range(1, 201):
        table = ramanujan_table(r)
        for n in range(1, r + 1):
            if math.gcd(n, r) == 1:
                assert table[n % r] == mobius_td(r), (r, n)


def test_ramanujan_multiplicative_in_r():
    for r1 in range(1, 31):
        for r2 in range(1, 31):
            if math.gcd(r1, r2) != 1 or r1 * r2 > 300:
                continue
            n = np.arange(r1 * r2)
            assert np.array_equal(ramanujan_table(r1 * r2),
                                  ramanujan_table(r1)[n % r1] * ramanujan_table(r2)[n % r2])


def test_ramanujan_table():
    for r in list(range(1, 121)) + [210, 360, 2310]:
        table = ramanujan_table(r)
        assert table.dtype == np.int64 and table.shape == (r,)
        assert table.tolist() == [ramanujan_sum_divisor(r, n) for n in range(r)], r


def test_unit_circle_bound():
    # |c_r(n)| is at most the number of unit terms phi(r)
    for r in range(1, 40):
        for n in range(40):
            assert abs(ramanujan_sum_exp(r, n)) <= euler_phi(r) + 1e-9

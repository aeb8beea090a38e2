import math

import numpy as np
import pytest

from largesieve import asymptotics as asy
from largesieve.arith import euler_phi, q3_radical
from largesieve.errors import DomainError
from oracles import T_q, convolution_identity_check, count_nu_tau, divisor_count, nu_td


def S_brute(q, x):
    """Oracle: direct scan over every integer up to x."""
    total = 0.0
    for n in range(1, math.floor(x) + 1):
        if math.gcd(n, q) == 1 and nu_td(n):
            total += divisor_count(n) / n
    return total


def test_S_q_examples():
    assert asy.S_q(1, 1) == 1.0
    assert asy.S_q(3, 10) == pytest.approx(1 + 2 / 7, rel=1e-15)
    assert asy.S_q(1, 10) == pytest.approx(1 + 2 / 3 + 2 / 7, rel=1e-15)


@pytest.mark.parametrize("q", [1, 2, 3, 21, 100])
def test_S_q_against_brute_force(q):
    for x in (1, 50, 500):
        assert asy.S_q(q, x) == pytest.approx(S_brute(q, x), rel=1e-12)


def test_T_q_examples():
    assert T_q(1, 1) == 1.0
    assert T_q(1, 10) == pytest.approx(1 + 1 / 3 + 1 / 7, rel=1e-15)


def test_count_nu_tau():
    assert count_nu_tau(1) == 1
    assert count_nu_tau(10) == 5  # n = 1, 3, 7
    brute = sum(nu_td(n) * divisor_count(n) for n in range(1, 1001))
    assert count_nu_tau(1000) == brute


def test_T_squared_dominates_S():
    for q in (1, 3, 7, 21, 105, 3 * 7 * 11 * 19):
        for x in (10**2, 10**4, 10**6):
            assert T_q(q, x) ** 2 >= asy.S_q(q, x)


def test_constant_c_single_factor():
    c = asy.constant_c(3)
    assert c.value == pytest.approx(2 / math.pi * (1 - 2 / 12), rel=1e-15)
    assert c.tail_bound == pytest.approx(2 / 3)


def test_constant_c_range_and_consistency():
    c5 = asy.constant_c(10**5)
    c6 = asy.constant_c(10**6)
    assert 0 < c6.value < 2 / math.pi
    assert abs(c5.value - c6.value) <= c5.tail_bound
    assert c6.tail_bound < c5.tail_bound


def test_constant_c_matches_mean_of_nu_tau():
    # the empirical mean of nu tau pins the residue (and its 2/pi prefactor)
    c = asy.constant_c(10**6).value
    mean = count_nu_tau(10**6) / 10**6
    assert abs(mean - c) / c < 0.01


def test_main_term():
    c = asy.constant_c(asy.CONSTANT_C_CUTOFF).value
    assert asy.lemma21_main_term(1, 100) == pytest.approx(c * math.log(100))
    assert asy.lemma21_main_term(2, 100) == asy.lemma21_main_term(1, 100)
    expect = c / (1 + 2 / 3) / (1 + 2 / 7) * math.log(100)
    assert asy.lemma21_main_term(21, 100) == pytest.approx(expect, rel=1e-12)


def test_error_bounds():
    eb = asy.lemma21_error(1, 10)
    assert eb.structured == 1.0
    eb = asy.lemma21_error(21, 10)
    expect = (1 + math.log(3) / 3 + math.log(7) / 7) * (5 / 3) * (9 / 7)
    assert eb.structured == pytest.approx(expect, rel=1e-12)
    assert asy.lemma21_error(3, 10).structured <= asy.lemma21_error(21, 10).structured
    assert asy.lemma21_error(21, 10).simplified == pytest.approx(
        math.log(math.log(63)) ** 3)


def test_lemma21_fitted_constant():
    rows, C = asy.lemma21_scan([1, 3, 7, 21, 105], [10**2, 10**4, 10**6])
    assert len(rows) == 15
    assert 0 < C <= 10.0


def test_S_slope_matches_constant():
    # S(x) = c log x + O(1): the O(1) cancels in decade differences
    c = asy.constant_c(10**6).value
    slope = (asy.S_q(1, 10**6) - asy.S_q(1, 10**5)) / math.log(10)
    assert abs(slope - c) / c < 0.02


def test_count_converges_with_x():
    c = asy.constant_c(10**6).value
    dev5 = abs(count_nu_tau(10**5) / 10**5 - c)
    dev7 = abs(count_nu_tau(10**7) / 10**7 - c)
    assert dev7 < dev5


def test_z_series_check():
    z = asy.z_series_check(2.0, 10**5)
    assert z.passed
    assert z.two_factor_paper == pytest.approx(15 / 16)
    assert z.two_factor == pytest.approx(3 / 4)
    # the printed variant overshoots by exactly (1 + 2^-s)
    assert z.factored_paper_variant == pytest.approx(z.factored * (1 + 2.0**-2),
                                                     rel=1e-12)
    z = asy.z_series_check(40.0, 10**3)
    for v in (z.direct, z.euler_product, z.factored):
        assert v == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DomainError):
        asy.z_series_check(0.99, 10**4)
    with pytest.raises(DomainError):
        asy.z_series_check(2.0, 100)


def test_convolution_identity():
    rep = convolution_identity_check(1, 50)
    assert rep.lhs == rep.rhs  # f = delta_1
    rep = convolution_identity_check(3, 100)
    assert rep.rel_discrepancy <= 1e-12
    rep = convolution_identity_check(21, 10**4)
    assert rep.passed
    rep = convolution_identity_check(9, 500)  # q3 = 3, exponents matter
    assert rep.passed


def test_convolution_identity_holds_for_the_sequence_form():
    qs = [9, 21, 105]
    for x in (500, 10**4):
        sums = asy.S_q(qs, x)
        for q, s in zip(qs, sums):
            rep = convolution_identity_check(q, x)
            assert s == rep.lhs
            assert rep.passed


def test_T_lower_bound_shape():
    # T_q(x) * prod(1 + 1/p) / sqrt(log x) stays in a narrow positive band
    kappas = []
    for q in (1, 3, 7, 21, 105, 3 * 7 * 11 * 19):
        corr = 1.0
        for p in q3_radical(q).prime_factors:
            corr *= 1 + 1 / p
        for x in (10**2, 10**4, 10**6):
            kappas.append(T_q(q, x) * corr / math.sqrt(math.log(x)))
    assert min(kappas) > 0.5
    assert max(kappas) / min(kappas) < 1.5


def test_script_L_sqrt_log_shape():
    from largesieve.lsi import script_L
    kappas = {}
    for R in (100, 1000):
        w = np.array([1 / euler_phi(r) if r and nu_td(r) else 0.0 for r in range(R + 1)])
        for Q in (5, 20):
            kappas[(Q, R)] = script_L(Q, w) / math.sqrt(math.log(R))
    assert all(k > 0.5 for k in kappas.values())


def test_resource_guard():
    from largesieve.errors import ResourceLimitError
    with pytest.raises(ResourceLimitError):
        asy.S_q(1, 10**9)

import math
import tracemalloc

import numpy as np
import pytest

from largesieve import cli
from largesieve import exceptional as ex
from largesieve.arith import SIEVE_LIMIT_BUDGET, primes_upto
from largesieve.characters import chi4, real_primitive_characters
from largesieve.errors import DomainError, ResourceLimitError
from largesieve.lsi import CoefficientSequence, primitive_char_sums, random_sequence
from oracles import (L1_closed_form, divisors_td, eq37_check, lambda_conv, lambda_partial_sum,
                     log_weighted_lhs, mobius_td, one_plus_chi, table_function, von_mangoldt)


def test_test_functions():
    ind = ex.indicator_function()
    assert ind.A1 == ind.A2 == 1.0
    assert list(ind(np.array([-0.1, 0.0, 0.5, 1.0, 1.1]))) == [0, 1, 1, 1, 0]
    bump = ex.smooth_bump_function()
    u = np.linspace(0, 1, 101)
    fu = bump(u)
    assert np.all(fu >= 0) and np.all(fu <= 1)
    assert bump(np.array([0.5]))[0] == pytest.approx(1.0)
    assert bump.A2 < bump.A1 < 1.0
    # moments against a dense Riemann sum
    uu = np.linspace(0, 1, 200001)
    assert bump.A1 == pytest.approx(np.trapezoid(bump(uu), uu), abs=1e-8)
    assert bump.A2 == pytest.approx(np.trapezoid(bump(uu) ** 2, uu), abs=1e-8)


def test_table_function():
    f = table_function([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    assert f.A1 == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(DomainError):
        table_function([0.0, 1.0], [0.0, 2.0])


def test_coeffs_lambda_f():
    a = ex.coeffs_lambda_f(10, ex.indicator_function())
    for n in range(1, 11):
        assert a.values[n - 1].real == pytest.approx(von_mangoldt(n), abs=1e-12)
    assert a.values[0] == 0.0  # Lambda(1) = 0
    assert a.values.dtype == np.float64
    # Chebyshev psi at 1e5 sits within 1% of N
    a = ex.coeffs_lambda_f(10**5, ex.indicator_function())
    assert abs(a.total().real - 10**5) / 10**5 < 0.01


def test_psi_moment_deviations_shrink():
    # sum a_n / N -> 1 and sum a_n^2 / (N log N) -> 1, monotone in N
    dev1, dev2 = [], []
    for N in (10**4, 10**5, 10**6):
        a = ex.coeffs_lambda_f(N, ex.indicator_function())
        dev1.append(abs(a.total().real / N - 1))
        dev2.append(abs(a.norm_sq / (N * math.log(N)) - 1))
    assert dev1[0] > dev1[1] > dev1[2]
    assert dev2[0] > dev2[1] > dev2[2]


def test_one_plus_chi():
    c5 = real_primitive_characters(5)[0]
    assert one_plus_chi(2, c5) == 0.0   # chi(2) = -1
    assert one_plus_chi(5, c5) == 1.0   # gcd > 1
    assert one_plus_chi(1, c5) == 2.0


def test_lambda_conv():
    c5 = real_primitive_characters(5)[0]
    assert lambda_conv(1, c5) == 1.0
    for p in (2, 3, 7, 11, 13):
        assert lambda_conv(p, c5) == 1.0 + c5(p).real


@pytest.mark.parametrize("D", [4, 5, 8, 12])
def test_mobius_inversion(D):
    for chi in real_primitive_characters(D):
        for n in range(1, 501):
            back = sum(mobius_td(n // d) * lambda_conv(d, chi) for d in divisors_td(n))
            assert back == pytest.approx(chi(n).real, abs=1e-9)


def test_lambda_partial_sum_matches_brute():
    c5 = real_primitive_characters(5)[0]
    brute = sum(lambda_conv(n, c5) for n in range(1, 201))
    assert lambda_partial_sum(200, c5) == pytest.approx(brute, abs=1e-9)


def test_lambda_partial_sum_error_shape():
    # |sum lambda(n) - L(1,chi_D) N| <= kappa sqrt(N) D^(1/4) log N
    for D in (4, 5, 8):
        for chi in real_primitive_characters(D):
            L1 = ex.L1_chiD(chi).value
            for N in (10**4, 10**6):
                err = abs(lambda_partial_sum(N, chi) - L1 * N)
                assert err <= 2.0 * math.sqrt(N) * D**0.25 * math.log(N)


def test_L1_chi4_leibniz():
    L = ex.L1_chiD(chi4(), 10**6)
    assert abs(L.value - math.pi / 4) <= 4e-6
    assert L.tail_bound == pytest.approx(4e-6)


def test_L1_closed_form_anchors():
    even8 = [chi for chi in real_primitive_characters(8) if chi.values().real[7] > 0]
    for chi, want in [(chi4(), math.pi / 4),
                      (real_primitive_characters(3)[0], math.pi / (3 * math.sqrt(3))),
                      (real_primitive_characters(5)[0],
                       2 * math.log((1 + math.sqrt(5)) / 2) / math.sqrt(5)),
                      (even8[0], math.log(1 + math.sqrt(2)) / math.sqrt(2))]:
        assert L1_closed_form(chi.values().real) == pytest.approx(want, rel=1e-13)


def test_L1_chiD_matches_the_closed_form():
    # every real primitive character of conductor 3 <= D < 1000, within the tail bound
    for D in range(3, 1000):
        for chi in real_primitive_characters(D):
            T = max(D * D, 10**4)
            assert abs(ex.L1_chiD(chi, T).value - L1_closed_form(chi.values().real)) <= D / T


def test_L1_stability_and_tail():
    c5 = real_primitive_characters(5)[0]
    L1 = ex.L1_chiD(c5, 10**6)
    L2 = ex.L1_chiD(c5, 2 * 10**6)
    assert L1.value > 0
    assert abs(L1.value - L2.value) <= 5 / 10**6
    assert L2.tail_bound == pytest.approx(L1.tail_bound / 2)
    with pytest.raises(DomainError):
        ex.L1_chiD(c5, 20)  # below D^2


def test_L1_truncation_over_budget_is_refused(capsys):
    with pytest.raises(ResourceLimitError):
        ex.L1_chiD(chi4(), SIEVE_LIMIT_BUDGET + 1)
    with pytest.raises(ResourceLimitError):
        ex.L1_chiD(real_primitive_characters(10**4 + 7)[0])  # default T = D^2 > 10^8
    assert cli.main(["constants", "--cutoff", "1e3", "--T", "1e30"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource guard: ")


def test_eq37():
    c5 = real_primitive_characters(5)[0]
    rep = eq37_check(CoefficientSequence.zeros(10), c5)
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0
    a = ex.coeffs_lambda_f(10**4, ex.indicator_function())
    assert eq37_check(a, c5).passed
    # support where chi_D = -1: rho-sum vanishes and equality holds
    vals = np.zeros(20, dtype=np.complex128)
    for n in range(1, 21):
        if c5(n).real == -1.0:
            vals[n - 1] = 1.0
    rep = eq37_check(CoefficientSequence(0, vals), c5)
    assert rep.extras["rho_sum"] == pytest.approx(0.0, abs=1e-12)
    assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)
    with pytest.raises(DomainError):
        eq37_check(CoefficientSequence(0, np.array([1j])), c5)


def one_setup(D, N, f=None, index=0):
    """The setup of the index-th real primitive character of conductor D alone."""
    return ex.make_setups(real_primitive_characters(D)[index:index + 1], [N], f)[0]


def test_make_setup_validation():
    with pytest.raises(DomainError):
        one_setup(12, 10**4)  # 12 > sqrt(N)/log N ~ 10.9
    setup = one_setup(5, 10**4)
    assert setup.Q == 10 and setup.chi_D.modulus == 5


def test_lemma31_and_prop31():
    setup = one_setup(5, 10**4)
    rep = ex.lemma31_report(setup)
    assert rep.passed
    assert rep.extras["A1"] == rep.extras["A2"] == 1.0
    assert abs(rep.extras["fitted_kappa"]) < 50
    bump_setup = one_setup(5, 10**4, ex.smooth_bump_function())
    bump_rep = ex.lemma31_report(bump_setup)
    assert bump_rep.extras["A2"] < bump_rep.extras["A1"]
    assert bump_rep.extras["main_term_1"] < rep.extras["main_term_1"]
    prop = ex.prop31_report(setup)
    assert prop.passed and prop.lhs >= 0
    with pytest.raises(DomainError):
        ex.prop31_report(bump_setup)  # indicator weight required


def test_prop31_checks_the_fitted_constant_against_its_limit(monkeypatch):
    setup = one_setup(5, 10**4)
    rep = ex.prop31_report(setup)
    N, L1 = setup.N, rep.extras["L1"]
    assert rep.extras["C0_limit"] == ex.CONSTANT_LIMIT
    assert rep.rhs == pytest.approx(
        N * N * (math.log(5) + L1 * math.log(N) ** 2 + ex.CONSTANT_LIMIT), rel=1e-15)
    assert rep.passed and rep.extras["C0"] <= ex.CONSTANT_LIMIT
    # the right side no longer follows the left side: twice the stated rhs fails
    true_lhs = ex._log_weighted_lhs
    scale = 2 * rep.rhs / rep.lhs
    monkeypatch.setattr(ex, "_log_weighted_lhs", lambda *args: scale * true_lhs(*args))
    inflated = ex.prop31_report(one_setup(5, 10**4))
    assert inflated.rhs == rep.rhs and not inflated.passed


def test_prop31_excluding_chi_D_decreases_lhs():
    setup = one_setup(5, 10**4)
    a = ex.coeffs_lambda_f(setup.N, setup.f)
    Q = setup.Q_real
    weights = ex.log_weights(Q)
    weights[1] = 0.0
    full = ex.ordered_sum(ex.energies(a, setup.Q) * weights)
    assert setup.lhs == ex._log_weighted_lhs(a, Q, setup.chi_D) <= full


@pytest.mark.parametrize("D", [3, 4, 5, 8])
def test_log_weighted_lhs_against_scalar_oracle(D):
    a = random_sequence(90, M=7, seed=4, trial=0)
    Q = 9.5
    for chi_D in real_primitive_characters(D):
        oracle = log_weighted_lhs(a, Q, chi_D)
        assert ex._log_weighted_lhs(a, Q, chi_D) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("D", [3, 4, 5, 8, 12])
def test_lemma31_prop31_and_eq31_left_sides_against_their_sum(D):
    """The chi_D-free log-weighted sieve on each report's own coefficients."""
    Q = 12.0
    for chi_D in real_primitive_characters(D):
        for f in (ex.indicator_function(), ex.smooth_bump_function()):
            a = ex.coeffs_lambda_f(300, f)
            assert ex._log_weighted_lhs(a, Q, chi_D) == pytest.approx(
                log_weighted_lhs(a, Q, chi_D), rel=1e-12, abs=0.0), (chi_D, f.kind)
        a = ex.prime_indicator(40, 300)
        assert ex.eq31_check(a, Q, chi_D).lhs == pytest.approx(
            log_weighted_lhs(a, Q, chi_D), rel=1e-12, abs=0.0), chi_D
    if D <= 5:  # Q_real = sqrt(N)/log N is 5.88 at N = 2000
        setup = one_setup(D, 2000)
        want = log_weighted_lhs(ex.coeffs_lambda_f(2000, setup.f), setup.Q_real, setup.chi_D)
        for report in (ex.lemma31_report, ex.prop31_report):
            assert report(setup).lhs == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("N", [10**4, 10**5])
def test_log_weighted_lhs_leaves_out_the_chi_D_sum(N):
    # for D = 3 and 4, chi_D is the one primitive character mod D, so the
    # subtraction has to cancel the whole energy E(D) down to rounding
    a = ex.coeffs_lambda_f(N, ex.indicator_function())
    Q = 30.5
    tables = {q: primitive_char_sums(a, q) for q in range(2, 31)}
    for D in (3, 4, 5, 8, 12, 24):
        for chi_D in real_primitive_characters(D):
            expected = 0.0
            for q, (chars, sums) in tables.items():
                sq = np.abs(sums) ** 2
                sq[[chi == chi_D for chi in chars]] = 0.0
                expected += math.log(Q / q) * float(np.sum(sq))
            got = ex._log_weighted_lhs(a, Q, chi_D)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (D, chi_D)


def test_scan_exceptional_evaluates_each_setup_once(monkeypatch, capsys):
    # --D 5,8 gives three setups (one character of conductor 5, two of 8),
    # each reported by lemma31 and prop31
    calls = {"energies": 0, "L1_chiD": 0}

    def counted(name):
        fn = getattr(ex, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(ex, name, counted(name))
    assert cli.main(["scan", "exceptional", "--D", "5,8", "--N", "1e4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert calls == {"energies": 1, "L1_chiD": 3}


def test_make_setups_agrees_with_one_setup_at_a_time():
    f = ex.indicator_function()
    pairs = [(D, idx) for D in (5, 8) for idx in range(len(real_primitive_characters(D)))]
    chars = [real_primitive_characters(D)[idx] for D, idx in pairs]
    Ns = [10**4, 2 * 10**4]
    assert ex.make_setups(chars, Ns, f) == [one_setup(D, N, f, index=idx)
                                            for D, idx in pairs for N in Ns]
    with pytest.raises(DomainError):
        ex.make_setups(chars, [10**4, 10**3])  # D = 8 > sqrt(N)/log N at N = 10^3


def test_prop32_guard_paths():
    with pytest.raises(DomainError):
        ex.prop32_check(5, 0.9, 100, 10)  # outside the window
    rep = ex.prop32_check(5, 0.9, 8, 10)
    assert rep["hypothesis_status"] == "not satisfied"
    assert not rep["conclusion_tested"]
    assert rep["L1_logD"] == pytest.approx(
        ex.L1_chiD(real_primitive_characters(5)[0]).value * math.log(5), rel=1e-9)
    assert rep["threshold"] == pytest.approx(0.9**5)
    with pytest.raises(DomainError):
        ex.prop32_check(5, 1.2, 8, 10)


def test_prime_indicator_and_eq31():
    a = ex.prime_indicator(10, 20)  # primes in (10, 30]
    n = np.arange(a.M + 1, a.M + a.N + 1)
    assert list(n[np.abs(a.dense()) > 0]) == [11, 13, 17, 19, 23, 29]
    c5 = real_primitive_characters(5)[0]
    Q = math.sqrt(10**4) / math.log(10**4)
    rep = ex.eq31_check(ex.prime_indicator(1000, 10**4), Q, c5)
    assert rep.passed
    assert rep.extras["prime_count"] == 1167  # pi(11000) - pi(1000)
    dense = CoefficientSequence(1000, ex.prime_indicator(1000, 10**4).dense())
    assert ex.eq31_check(dense, Q, c5) == rep  # the same coefficients, held densely


def test_eq31_lambda_sum_matches_the_pointwise_sum():
    Q = math.sqrt(10**4) / math.log(10**4)
    for M in (1000, 10**8 - 10**4):  # the second window ends at the sieve budget
        a = ex.prime_indicator(M, 10**4)
        for D in (4, 5, 8):
            for chi in real_primitive_characters(D):
                want = sum(1.0 + chi(int(p)).real for p in a.index)
                assert ex.eq31_check(a, Q, chi).extras["lambda_sum"] == want, (M, D)


def test_eq31_empty_interval():
    c4 = chi4()
    a = ex.prime_indicator(114, 12)  # (114, 126] holds no prime
    rep = ex.eq31_check(a, 4.0, c4)
    assert rep.lhs == rep.rhs == 0.0 and rep.passed


def test_eq31_lambda_term_vanishes():
    # primes 2, 3 are both non-residues mod 5
    c5 = real_primitive_characters(5)[0]
    a = ex.prime_indicator(1, 3)  # primes in (1, 4] = {2, 3}
    rep = ex.eq31_check(a, 5.0, c5)
    assert rep.extras["lambda_sum"] == 0.0
    assert rep.passed


def test_eq31_validation():
    c5 = real_primitive_characters(5)[0]
    with pytest.raises(DomainError):
        ex.eq31_check(CoefficientSequence.ones(10), 6.0, c5)  # not an indicator
    a = ex.prime_indicator(0, 30).dense()
    a[0] = 1.0  # n = 1 is not prime
    with pytest.raises(DomainError):
        ex.eq31_check(CoefficientSequence(0, a), 6.0, c5)
    b = ex.prime_indicator(0, 30).dense()
    b[1] = 0.0  # drops the prime 2
    with pytest.raises(DomainError):
        ex.eq31_check(CoefficientSequence(0, b), 6.0, c5)
    c = ex.prime_indicator(0, 30).dense()
    c[2] = 2.0  # a_3 = 2 on the right support
    with pytest.raises(DomainError):
        ex.eq31_check(CoefficientSequence(0, c), 6.0, c5)
    with pytest.raises(DomainError):
        ex.eq31_check(ex.prime_indicator(0, 30), 3.0, c5)  # D > Q


def test_thm21_coefficients():
    N = 1000
    a = ex.thm21_coefficients(N)
    n = np.arange(1, N + 1)
    want = np.array([von_mangoldt(int(k)) for k in n]) / np.sqrt(n) / math.log(N)
    assert (a.M, a.N) == (0, N)
    assert np.allclose(a.values, want, rtol=1e-14, atol=0)
    assert a.values.dtype == np.float64


def test_thm21_coefficients_allocate_only_the_lambda_table():
    N = 2**20  # the table is 8 MiB of float64; n, sqrt(n) or a quotient of length N add 8 MiB each
    primes_upto(N)  # the shared prime table outlives the call, so it is built first
    tracemalloc.start()
    try:
        ex.thm21_coefficients(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * N + (1 << 20), peak

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  Criterion 6 carries one strict-xfail sub-check whose literal
form is unattainable at desk scale; the substance is covered by the slope
check next to it (details in the test docstring).
"""

import math
import time

import numpy as np
import pytest

from largesieve import asymptotics as asy
from largesieve import exceptional as ex
from largesieve import lsi
from largesieve.arith import euler_phi, von_mangoldt_table
from largesieve.characters import (character_group, group, is_primitive,
                                   real_primitive_characters, chi4)
from largesieve.cli import main as cli_main, report_row
from largesieve.expsums import ramanujan_table
from largesieve.lsi import CoefficientSequence, SupportRestriction, random_sequence
from oracles import T_q, eq37_check, gauss_sum, mobius_td, von_mangoldt_k

GRID_N = [50, 200, 1000]
GRID_Q = [2, 5, 10, 30]
SEED = 20260808


def _grid():
    return [(N, Q, M) for N in GRID_N for Q in GRID_Q for M in (0, N, 10 * N)]


def _suite1_instances(name, trials=200):
    """Yield (sequence, evaluate) pairs for one inequality of criterion 1."""
    combos = _grid()
    P = frozenset({2, 3, 5})
    R = 5

    def build(N, Q, M, trial, ones=False):
        if name in ("eq14", "eq16"):
            restriction = SupportRestriction.rough(Q)
        elif name == "thm12":
            restriction = SupportRestriction.prime_free(P)
        elif name == "prop21":
            restriction = SupportRestriction.rough(R)
        else:
            restriction = None
        if ones:
            seq = CoefficientSequence.ones(N, M)
            if restriction is not None:
                restriction.zero_forbidden(seq.values, seq.M)
        else:
            seq = random_sequence(N, M, seed=SEED, trial=trial, restriction=restriction)
        return seq

    def evaluate(seq, Q):
        if name == "mvs":
            return lsi.lsi_mvs(seq, Q)
        if name == "bd":
            return lsi.lsi_bd(seq, Q)
        if name == "thm12":
            moduli = [q for q in range(1, Q + 1) if all(q % p for p in P)]
            return lsi.lsi_thm12(seq, moduli, P)
        if name == "eq14":
            return lsi.lsi_eq14(seq, Q)
        if name == "eq16":
            return lsi.lsi_eq16(seq, Q)
        if name == "thm13":
            return lsi.lsi_thm13(seq, Q)
        if name == "prop21":
            return lsi.lsi_prop21(seq, Q, R)
        raise AssertionError(name)

    for trial in range(trials):
        N, Q, M = combos[trial % len(combos)]
        yield evaluate(build(N, Q, M, trial), Q)
    # deterministic all-ones anchors, one per (N, Q) at M = 0
    for N in GRID_N:
        for Q in GRID_Q:
            yield evaluate(build(N, Q, 0, 0, ones=True), Q)


SUITE1 = {"mvs": "Eq 1.1", "bd": "Eq 1.2", "thm12": "Eq 1.3", "eq14": "Eq 1.4",
          "eq16": "Eq 1.6", "thm13": "Eq 1.7", "prop21": "Eq 2.3"}


def test_criterion_01_inequality_suite():
    start = time.time()
    total = 0
    worst = (0.0, None)
    for name in SUITE1:
        for rep in _suite1_instances(name):
            assert rep.passed, (name, rep.parameters, rep.ratio)
            total += 1
            if rep.ratio > worst[0]:
                worst = (rep.ratio, (name, rep.parameters))
    elapsed = time.time() - start
    assert elapsed < 300, f"suite took {elapsed:.0f}s, budget 300s"
    print(f"\nACCEPTANCE 1 inequality suite: PASS — {total} reports "
          f"({len(SUITE1)} inequalities x 212 instances), worst ratio "
          f"{worst[0]:.4f}, {elapsed:.0f}s")


def test_criterion_02_gauss_sum_law():
    checked = 0
    worst = 0.0
    for q in range(1, 501):
        for chi in character_group(q):
            if is_primitive(chi):
                err = abs(abs(gauss_sum(chi)) ** 2 - q)
                assert err <= 1e-6 * q, (q, chi.exponents, err)
                worst = max(worst, err / q)
                checked += 1
    assert checked > 40000
    print(f"\nACCEPTANCE 2 Gauss-sum law: PASS — {checked} primitive characters, "
          f"max |tau^2 - q|/q = {worst:.2e}")


def test_criterion_03_ramanujan_agreement():
    worst = 0.0
    for r in range(1, 201):
        u = np.arange(r)
        u = u[np.gcd(u, r) == 1] if r > 1 else u
        table = ramanujan_table(r)
        n = np.arange(0, 201)
        exp_vals = np.exp(2j * np.pi * np.outer(u, n) / r).sum(axis=0)
        div_vals = table[n % r]
        err = np.max(np.abs(exp_vals - div_vals))
        assert err <= 1e-9 * euler_phi(r), r
        worst = max(worst, err)
        mu_r = mobius_td(r)
        for m in range(1, 201):
            if math.gcd(m, r) == 1:
                assert int(table[m % r]) == mu_r, (r, m)
    print(f"\nACCEPTANCE 3 Ramanujan agreement: PASS — r, n <= 200, "
          f"max |exp - divisor| = {worst:.2e}; c_r(n) = mu(r) exact on coprime pairs")


def test_criterion_04_orthogonality():
    worst = 0.0
    for q in range(1, 101):
        g = group(q)
        V = g.value_matrix(g.characters())
        phi = euler_phi(q)
        row_gram = V @ V.conj().T
        err = np.max(np.abs(row_gram - phi * np.eye(len(V))))
        assert err <= 1e-9 * phi, q
        worst = max(worst, err / phi)
        col_gram = V.conj().T @ V
        n = np.arange(max(q, 1))
        cop = np.gcd(n, q) == 1 if q > 1 else np.array([True])
        expect = phi * np.equal.outer(n[cop], n[cop])
        err = np.max(np.abs(col_gram[np.ix_(cop, cop)] - expect))
        assert err <= 1e-9 * phi, q
        worst = max(worst, err / phi)
    print(f"\nACCEPTANCE 4 orthogonality: PASS — both relations, q <= 100, "
          f"max error {worst:.2e} phi(q)")


def test_criterion_05_euler_product_constant():
    c6 = asy.constant_c(10**6)
    c7 = asy.constant_c(10**7)
    assert abs(c6.value - c7.value) <= c6.tail_bound
    L = ex.L1_chiD(chi4(), 10**6)
    assert abs(L.value - math.pi / 4) <= 4e-6
    print(f"\nACCEPTANCE 5 Euler-product constant: PASS — c = {c7.value:.9f}, "
          f"|c(1e6) - c(1e7)| = {abs(c6.value - c7.value):.2e} <= {c6.tail_bound:.0e}; "
          f"|L(1,chi4) - pi/4| = {abs(L.value - math.pi / 4):.2e}")


QS_LEMMA21 = [1, 3, 7, 21, 105]
XS_LEMMA21 = [10**2, 10**4, 10**6]


def test_criterion_06a_lemma21_fitted_constant():
    rows, C = asy.lemma21_scan(QS_LEMMA21, XS_LEMMA21)
    assert C <= 10.0
    print(f"\nACCEPTANCE 6a Lemma 2.1 fitted constant: PASS — C = {C:.3f} <= 10 "
          f"over {len(rows)} grid points")


def test_criterion_06b_T_squared_dominates():
    for q in QS_LEMMA21:
        for x in XS_LEMMA21:
            assert T_q(q, x) ** 2 >= asy.S_q(q, x), (q, x)
    print("\nACCEPTANCE 6b T_q(x)^2 >= S_q(x): PASS — exact on the full grid")


@pytest.mark.xfail(
    strict=True,
    reason="S(x) = c log x + B with B ~ 0.859 measured, so S(1e7)/log(1e7) "
           "sits 10.7% above c; the 5% window needs x ~ 1e15, beyond any desk "
           "scale.  The criterion as stated cannot pass for a correct "
           "implementation; the decade-slope check alongside verifies the "
           "asymptotic at 0.1%.  See the decisions ledger.")
def test_criterion_06c_S_over_log_literal():
    """Literal form: S(1e7)/log(1e7) within 5% of c."""
    c = asy.constant_c(10**6).value
    ratio = asy.S_q(1, 10**7) / math.log(10**7)
    assert abs(ratio - c) <= 0.05 * c


def test_criterion_06d_S_slope_within_5_percent():
    c = asy.constant_c(10**6).value
    s7 = asy.S_q(1, 10**7)
    s6 = asy.S_q(1, 10**6)
    slope = (s7 - s6) / math.log(10)
    literal = s7 / math.log(10**7)
    assert abs(slope - c) <= 0.05 * c
    print(f"\nACCEPTANCE 6c/6d S ~ c log x: slope (S(1e7)-S(1e6))/log 10 = "
          f"{slope:.6f} vs c = {c:.6f} (PASS at 5%); literal S(1e7)/log(1e7) = "
          f"{literal:.6f} is {abs(literal - c) / c:.1%} high — expected fail, "
          f"see ledger")


def test_criterion_07_brun_titchmarsh():
    ratios = []
    for N in (10**4, 10**5, 10**6):
        bt = lsi.brun_titchmarsh(N, N)
        assert bt.prime_count <= bt.bound
        assert bt.passed
        ratios.append(bt.ratio_to_asymptote)
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    print(f"\nACCEPTANCE 7 Brun-Titchmarsh: PASS — bound/(2N/log N) = "
          f"{', '.join(f'{r:.4f}' for r in ratios)} decreasing toward 1")


def test_criterion_08_theorem21():
    """Eq 2.20 holds for the normalized von Mangoldt coefficients up to the
    geometric-series constant (worst ratio -> p/(p-1) = 2 at p = 2, measured
    1.99997); the strict constant-1 form fails at p = 2, matching the paper's
    'up to a constant' usage.  Eq 2.21 then passes with its stated constant."""
    N, Q = 10**5, 20
    n = np.arange(1, N + 1)
    vals = von_mangoldt_table(N)[1:] / np.sqrt(n) / math.log(N)
    a = CoefficientSequence(0, vals.astype(np.complex128))
    chk = lsi.thm21_conditions(a)
    assert chk.norm_sq <= 1.0
    assert not chk.ok and chk.witness == 2  # honest literal outcome
    assert chk.worst_ratio <= 2.0 + 1e-6    # fitted condition constant
    rep = lsi.lsi_thm21(a, Q, condition_slack=2.0001)
    assert rep.passed  # constant 24
    emp = rep.extras["empirical_constant"]
    assert emp <= 24
    print(f"\nACCEPTANCE 8 Theorem 2.1: PASS — conditions hold with fitted "
          f"slack {chk.worst_ratio:.5f} (literal form fails at p=2, see ledger); "
          f"Eq 2.21 passes with constant 24; empirical constant {emp:.4f} <= 24")


def test_criterion_09_section3_suite():
    N = 10**4
    lam = ex.coeffs_lambda_f(N, ex.indicator_function())
    Q = math.sqrt(N) / math.log(N)
    count = 0
    for D in (4, 5, 8):
        for chi in real_primitive_characters(D):
            assert eq37_check(lam, chi).passed, D
            assert ex.eq31_check(ex.prime_indicator(1000, N), Q, chi).passed, D
            count += 1
    C0s = []
    for NN in (10**4, 3 * 10**4, 10**5):
        rep = ex.prop31_report(ex.make_setup(5, NN))
        assert rep.passed
        C0s.append(rep.extras["C0"])
    assert all(c < 0 for c in C0s) or all(c > 0 for c in C0s)
    spread = max(abs(c) for c in C0s) / min(abs(c) for c in C0s)
    assert spread < 3.0
    from oracles import vm_k_recurrence_tables
    tables = vm_k_recurrence_tables(10**4, 3)
    for k in (1, 2, 3):
        direct = np.array([0.0] + [von_mangoldt_k(m, k) for m in range(1, 10**4 + 1)])
        assert np.max(np.abs(direct - tables[k])) <= 1e-8
    print(f"\nACCEPTANCE 9 Section 3 suite: PASS — Eq 3.7/3.1 verified for "
          f"{count} characters (D in {{4,5,8}}); prop31 C0 spread factor "
          f"{spread:.3f} < 3 across N; Lambda_k recurrence exact to 1e-8")


def test_criterion_10_sensitivity():
    rep = lsi.lsi_mvs(CoefficientSequence.ones(1000), 30)
    assert rep.passed
    row = report_row(rep, sabotage=True)
    assert row["pass"] is False
    code = cli_main(["--out", "/dev/null", "verify", "--ineq", "mvs", "--N",
                     "1000", "--Q", "30", "--ones", "--sabotage"])
    assert code == 1
    code = cli_main(["--out", "/dev/null", "verify", "--ineq", "mvs", "--N",
                     "1000", "--Q", "30", "--ones"])
    assert code == 0
    print("\nACCEPTANCE 10 sensitivity: PASS — RHS x 0.5 sabotage flips the "
          "all-ones anchor to FAIL (exit code 1); honest run passes")

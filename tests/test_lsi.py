import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from largesieve import arith, lsi
from largesieve.arith import euler_phi, factorize, primes_upto
from largesieve.characters import (CharacterGroup, character_group, chi4, group,
                                   is_primitive, primitive_characters)
from largesieve.errors import DomainError, SupportError
from largesieve.lsi import (CoefficientSequence, SupportRestriction, brun_titchmarsh,
                            char_sum, check_eq15, lsi_bd, lsi_eq14, lsi_eq16,
                            lsi_mvs, lsi_prop21, lsi_prop22, lsi_thm12, lsi_thm13,
                            lsi_thm21, make_report, random_sequence, script_L,
                            thm21_conditions)
from oracles import nu_td, ramanujan_sum_divisor


def vm_sqrt_coeffs(N):
    """a_n = Lambda(n) / (sqrt(n) log N) on (0, N]."""
    from largesieve.arith import von_mangoldt_table
    n = np.arange(1, N + 1)
    vals = von_mangoldt_table(N)[1:] / np.sqrt(n) / math.log(N)
    return CoefficientSequence(0, vals.astype(np.complex128))


# ---------------------------------------------------------------------
# sequences, reports, support


def test_sequence_basics():
    a = CoefficientSequence(10, np.arange(1, 6))
    assert a.N == 5
    assert list(a.nonzero[0]) == [11, 12, 13, 14, 15]
    assert a.norm_sq == sum(k * k for k in range(1, 6))


def test_random_sequence_reproducible():
    a = random_sequence(100, M=7, seed=3, trial=5)
    b = random_sequence(100, M=7, seed=3, trial=5)
    c = random_sequence(100, M=7, seed=3, trial=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_support_restriction_masks():
    n = np.arange(1, 31)
    rough = SupportRestriction.rough(5)
    allowed = n[rough.allowed_mask(n)]
    assert list(allowed) == [1, 7, 11, 13, 17, 19, 23, 29]
    cop = SupportRestriction.prime_free([2, 3])
    assert list(n[cop.allowed_mask(n)]) == [k for k in range(1, 31)
                                            if math.gcd(k, 4) == 1 and math.gcd(k, 9) == 1]
    n = np.arange(1, 10**4 + 1)
    for R in ([1], [4, 9], [12], [30, 49], range(1, 8)):
        by_gcd = np.ones(n.size, dtype=bool)
        for r in R:
            by_gcd &= np.gcd(n, r) == 1
        primes = {p for r in R for p in factorize(r).prime_factors}
        assert np.array_equal(SupportRestriction.prime_free(primes).allowed_mask(n), by_gcd)
    for R in range(1, 31):  # prop21's support: coprime to every r <= R
        by_gcd = np.gcd(n, math.lcm(*range(1, R + 1))) == 1
        assert np.array_equal(SupportRestriction.rough(R).allowed_mask(n), by_gcd)
    assert SupportRestriction().allowed_mask(n).all()


def test_residues_equal_the_remainder():
    rng = np.random.default_rng(7)
    wide = np.concatenate([rng.integers(-2**62, 2**62, 2000), [0, 1, 2**62, -2**62]])
    narrow = np.concatenate([rng.integers(-2**31, 2**31, 2000), [0, 1, 2**31 - 1, -2**31]])
    for n in (wide, narrow.astype(np.int32), np.arange(1, 100, dtype=np.int32)):
        top = np.iinfo(n.dtype).max
        for q in (1, 2, 86, 7310, 2**31 - 1, 2**40, int(np.abs(n).max()) + 1):
            if q > top:
                continue
            out = np.empty_like(n)
            assert lsi._residues(n, q, out) is out
            assert np.array_equal(out, n % q), (n.dtype, q)
    for dtype in (np.int64, np.int32):
        empty = np.zeros(0, dtype=dtype)
        assert lsi._residues(empty, 7, np.empty_like(empty)).shape == (0,)


def mask_by_gcd(n, primes):
    mask = np.ones(n.size, dtype=bool)
    for p in primes:
        mask &= np.gcd(n, p) == 1
    return mask


def test_allowed_mask_matches_the_gcd_oracle():
    rough = SupportRestriction.rough(86)
    primes = lsi.prime_indicator(1_029_919, 1_500_000).index  # the sparse_bt window of seed 3
    assert np.array_equal(rough.allowed_mask(primes), np.ones(primes.size, dtype=bool))
    m = 83 * 13_331  # 1,106,473, free of every prime below 83
    planted = np.insert(primes, np.searchsorted(primes, m), m)
    mask = rough.allowed_mask(planted)
    assert np.array_equal(mask, mask_by_gcd(planted, primes_upto(86)))
    assert list(planted[~mask]) == [m]
    a = CoefficientSequence(1_029_919, np.ones(planted.size), N=1_500_000, index=planted)
    with pytest.raises(SupportError, match=r"eq16: 1 coefficients .*\(first at n=1106473\)"):
        rough.validate(a, "eq16")
    wide = np.sort(np.random.default_rng(3).integers(1, 10**12, 20000))  # span above 2^31
    assert wide[-1] - wide[0] >= 2**31
    listed = [3, 7, 101, 2**31 + 11]
    for restriction, primes in ((rough, primes_upto(86)),
                                (SupportRestriction.prime_free(listed), listed)):
        assert np.array_equal(restriction.allowed_mask(wide), mask_by_gcd(wide, primes))


@pytest.mark.parametrize("M, N, R", [
    (0, 2000, 1), (0, 2000, 7), (0, 2000, 44), (0, 2000, 45), (0, 2000, 500),
    (0, 2000, 2000), (0, 2000, 10**7), (0, 2209, 47), (0, 2209, 100),  # 2209 = 47^2
    (997, 3000, 30), (997, 3000, 62), (997, 3000, 2500),
    (10**6, 500, 1000), (10**6, 500, 1100), (10**6, 0, 50)])
def test_rough_support_is_no_prime_up_to_R_by_trial_division(M, N, R):
    """R below and above sqrt(M + N), M = 0 (n = 1 allowed), R >= M + N, no n."""
    from oracles import factorize_td
    n = np.arange(M + 1, M + N + 1)
    want = np.array([all(p > R for p, _ in factorize_td(int(k))) for k in n],
                    dtype=bool)
    rough = SupportRestriction.rough(R)
    assert np.array_equal(rough.allowed_mask(n), want)
    sparse = np.sort(np.random.default_rng(R).choice(n, size=N // 7, replace=False))
    assert np.array_equal(rough.allowed_mask(sparse), want[sparse - (M + 1)])
    values = np.ones(N)
    rough.zero_forbidden(values, M)
    assert np.array_equal(values != 0, want)


def test_a_rough_check_sieves_only_to_the_square_root(monkeypatch):
    asked = []

    def spy(x):
        asked.append(x)
        return primes_upto(x)

    monkeypatch.setattr(lsi, "primes_upto", spy)
    rough = SupportRestriction.rough(10**8)
    assert not rough.allowed_mask(np.arange(1001, 10**4 + 1)).any()  # each n <= R
    with pytest.raises(SupportError, match=r"prop21: 9000 coefficients .*\(first at n=1001\)"):
        rough.validate(CoefficientSequence.ones(9000, 1000), "prop21")
    values = np.ones(9000)
    rough.zero_forbidden(values, 1000)
    assert not values.any()
    assert asked and max(asked) <= 100


def test_support_check_and_sparse_reads_hold_little_memory():
    a = lsi.prime_indicator(1_029_919, 1_500_000)  # 104,419 primes, 0.8 MB of int64
    rough = SupportRestriction.rough(86)
    qs = [q for q in range(1, 87) if q % 4 != 2]  # the moduli of eq16 at Q = 86
    peaks = []
    for run in (lambda: rough.validate(a, "eq16"),
                lambda: [None for _ in lsi.residue_folds(a, qs)]):
        run()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.2e6 and peaks[1] < 1.5e6, peaks


def test_support_validation_raises():
    a = CoefficientSequence.ones(10)
    with pytest.raises(SupportError):
        SupportRestriction.rough(3).validate(a, "test")


def test_support_validation_reads_only_nonzero_entries():
    rough = SupportRestriction.rough(3)  # forbids multiples of 2 and 3
    vals = np.zeros(20, dtype=np.complex128)
    vals[[0, 6, 12]] = 2.0 - 1.0j  # n = 1, 7, 13; zeros at every forbidden n
    rough.validate(CoefficientSequence(0, vals), "test")
    vals[9] = 1e-300  # n = 10
    with pytest.raises(SupportError, match=r"1 coefficients .*\(first at n=10\)"):
        rough.validate(CoefficientSequence(0, vals), "test")
    vals = np.zeros(20, dtype=np.complex128)
    vals[[0, 4, 6]] = 1.0  # n = 6, 10, 12 with M = 5
    with pytest.raises(SupportError, match=r"test: 3 coefficients .*\(first at n=6\)"):
        rough.validate(CoefficientSequence(5, vals), "test")


def test_support_validation_catches_nan_at_a_forbidden_n():
    vals = np.zeros(20, dtype=np.complex128)
    vals[[0, 6]] = 1.0  # n = 1, 7
    vals[1] = np.nan  # n = 2
    with pytest.raises(SupportError, match=r"thm12: 1 coefficients .*\(first at n=2\)"):
        SupportRestriction.prime_free([2]).validate(CoefficientSequence(0, vals), "thm12")


def test_report_edge_rules():
    rep = make_report("x", {}, 0.0, 0.0)
    assert rep.passed and rep.ratio == 0.0
    rep = make_report("x", {}, 1.0, 0.0)
    assert not rep.passed and rep.ratio == math.inf


# ---------------------------------------------------------------------
# residue sums


def residue_oracle(a, q):
    b = np.zeros(q, dtype=np.complex128)
    for n, an in zip(range(a.M + 1, a.M + a.N + 1), a.dense()):
        b[n % q] += an
    return b


def integer_coeffs(N, M):
    rng = np.random.default_rng([N, M])
    return CoefficientSequence(M, rng.integers(-9, 10, N) + 1j * rng.integers(-9, 10, N))


@pytest.mark.parametrize("q", [1, 2, 5, 7])
def test_residue_sums_fold_matches_loop(q):
    for M in range(q + 1):  # every start residue, and one full period beyond
        for N in sorted({0, 1, q - 1, q, q + 1, 3 * q + 2}):
            a = integer_coeffs(N, M)
            b = lsi.residue_sums(a, q)
            assert b.shape == (q,) and b.dtype == np.complex128
            assert np.array_equal(b, residue_oracle(a, q)), (q, M, N)


def test_residue_sums_modulus_above_length():
    for q, M, N in ((11, 0, 4), (11, 8, 4), (50, 123, 7), (1000, 999, 1)):
        a = integer_coeffs(N, M)
        assert np.array_equal(lsi.residue_sums(a, q), residue_oracle(a, q))


def test_residue_sums_random_complex():
    a = random_sequence(5003, M=17, seed=4, trial=0)
    for q in (1, 3, 64, 97, 5003, 6000):
        got = lsi.residue_sums(a, q)
        ref = residue_oracle(a, q)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


@pytest.fixture
def sparse_residue_sums(monkeypatch):
    """residue_sums through the sparse read, whatever the density of a."""
    monkeypatch.setattr(lsi, "_SPARSE_BELOW", 2.0)

    def read(a, q):
        terms = lsi.sparse_terms(a)
        assert terms is not None or a.N == 0
        return lsi.residue_sums(a, q, terms)

    return read


# The sparse read reduces int64 n; these shifts put n above 2^31 and near 2^62.
SHIFTS = (0, 2**31 + 7, 3 * 10**18)


@pytest.mark.parametrize("q", [1, 2, 5, 7])
def test_sparse_read_matches_loop(q, sparse_residue_sums):
    for shift in SHIFTS:
        for M in range(shift, shift + q + 1):
            for N in sorted({0, 1, q - 1, q, q + 1, 3 * q + 2}):
                a = integer_coeffs(N, M)
                b = sparse_residue_sums(a, q)
                assert b.shape == (q,) and b.dtype == np.complex128
                assert np.array_equal(b, residue_oracle(a, q)), (q, M, N)


def test_sparse_read_random_complex(sparse_residue_sums):
    for shift in SHIFTS:
        a = random_sequence(5003, M=shift + 17, seed=4, trial=1)
        a.values[::3] = 0.0
        for q in (1, 3, 64, 97, 5003, 6000):
            got = sparse_residue_sums(a, q)
            ref = residue_oracle(a, q)
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def test_sparse_read_edge_cases(sparse_residue_sums):
    for shift in SHIFTS:
        zero = CoefficientSequence.zeros(50, M=shift + 3)
        n, re, im = lsi.sparse_terms(zero)
        assert n.size == re.size == 0 and im is None
        assert np.array_equal(sparse_residue_sums(zero, 7), np.zeros(7, dtype=np.complex128))
        short = integer_coeffs(4, shift + 8)  # N < q
        assert np.array_equal(sparse_residue_sums(short, 11), residue_oracle(short, 11))
        real = CoefficientSequence(shift + 5, np.array([0, 3, 0, -2, 0, 0, 7, 1], dtype=float))
        assert lsi.sparse_terms(real)[2] is None
        assert np.array_equal(sparse_residue_sums(real, 3), residue_oracle(real, 3))
        imag = CoefficientSequence(shift + 5, np.array([0, 3j, 0, -2j, 0, 0, 7j, 1j]))
        assert np.array_equal(sparse_residue_sums(imag, 3), residue_oracle(imag, 3))
        assert np.array_equal(sparse_residue_sums(imag, 3).real, np.zeros(3))


def test_fold_from_a_multiple_equals_the_direct_fold():
    a = integer_coeffs(1001, 13)
    r = random_sequence(1001, M=13, seed=5, trial=0)
    for m in (1, 12, 30, 97, 120):
        bi, br = lsi.residue_sums(a, m), lsi.residue_sums(r, m)
        for d in (d for d in range(1, m + 1) if m % d == 0):
            assert np.array_equal(lsi.fold(bi, d), lsi.residue_sums(a, d)), (m, d)
            ref = lsi.residue_sums(r, d)
            assert np.allclose(lsi.fold(br, d), ref, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(ref))), (m, d)


def test_residue_folds_yields_each_modulus_once():
    a = integer_coeffs(500, 2)
    qs = [9, 1, 20, 9, 14, 7, 11]
    got = dict(lsi.residue_folds(a, qs))
    assert sorted(got) == sorted(set(qs))
    for q, b in got.items():
        assert np.array_equal(b, residue_oracle(a, q)), q
    assert list(lsi.residue_folds(a, [])) == []


def read_moduli(monkeypatch):
    """Record the modulus of every call of lsi.residue_sums."""
    seen = []
    original = lsi.residue_sums

    def spy(a, q, terms=None):
        seen.append(q)
        return original(a, q, terms)

    monkeypatch.setattr(lsi, "residue_sums", spy)
    return seen


def group_tops(qs):
    top = max(qs)
    return sorted({q * (top // q) for q in qs})


def expected_reads(tops, entries):
    """The moduli residue_folds reads: consecutive tops paired while 4 lcm <= entries."""
    out = []
    while tops:
        L = math.lcm(*tops[:2])
        k = 2 if len(tops) > 1 and 4 * L <= entries else 1
        out.append(L if k == 2 else tops[0])
        tops = tops[k:]
    return out


PAIRED_SHAPES = [
    pytest.param(range(1, 13), id="even-tops"),
    pytest.param(range(1, 14), id="odd-tops"),
    pytest.param([6, 3, 2, 1, 3], id="single-top"),
    pytest.param([9, 1, 20, 9, 14, 7, 11, 14], id="duplicates"),
    pytest.param(range(2, 31, 2), id="even-moduli"),
]


@pytest.mark.parametrize("qs", PAIRED_SHAPES)
@pytest.mark.parametrize("M, N", [(0, 2000), (13, 2001), (997, 3163)])
def test_paired_reads_match_the_loop_on_integers(qs, M, N, monkeypatch):
    seen = read_moduli(monkeypatch)
    tops = group_tops(qs)
    for a in (integer_coeffs(N, M), lsi.prime_indicator(M, 5 * N)):
        seen.clear()
        got = dict(lsi.residue_folds(a, qs))
        assert sorted(got) == sorted(set(qs))
        for q, b in got.items():
            assert np.array_equal(b, residue_oracle(a, q)), (q, M, a.index is None)
        entries = a.N if a.index is None else a.index.size
        assert seen == expected_reads(tops, entries)
        assert len(seen) == 1 or len(seen) < len(tops)  # a pair was read together


@pytest.mark.parametrize("qs", PAIRED_SHAPES)
def test_paired_reads_match_the_loop_on_random_data(qs):
    for M, N in ((0, 2000), (13, 2001), (997, 3163)):
        a = random_sequence(N, M=M, seed=7, trial=M)
        for q, b in lsi.residue_folds(a, qs):
            ref = residue_oracle(a, q)
            assert np.allclose(b, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref))), (q, M)


def test_pairs_form_when_q_squared_is_small_against_n(monkeypatch):
    a = random_sequence(20_000, M=5, seed=3, trial=0)
    seen = read_moduli(monkeypatch)
    list(lsi.residue_folds(a, range(1, 31)))
    tops = list(range(16, 31))
    assert seen == [math.lcm(m, m + 1) for m in tops[:-1:2]] + [30]
    assert len(seen) == math.ceil(len(tops) / 2)
    seen.clear()
    list(lsi.residue_folds(a, range(2, 31, 2)))  # even tops: lcm(16, 18) = 144, not 288
    assert seen == [144, 220, 312, 420] == expected_reads(group_tops(range(2, 31, 2)), a.N)


def test_no_pairs_when_q_squared_exceeds_n(monkeypatch):
    a = random_sequence(40_000, seed=3, trial=0)
    seen = read_moduli(monkeypatch)
    assert lsi_mvs(a, 800).lhs > 0
    assert seen == group_tops([q for q in range(1, 801) if q % 4 != 2])


def test_a_sparse_read_pairs_by_its_nonzero_count(monkeypatch):
    a = sequence_at_density(20_000, 0.02, seed=4)
    nnz = np.count_nonzero(a.values)
    assert nnz < 4 * 16 * 17 and 4 * 29 * 30 <= a.N
    seen = read_moduli(monkeypatch)
    got = dict(lsi.residue_folds(a, range(1, 31)))
    assert seen == list(range(16, 31))
    for q, b in got.items():
        assert np.allclose(b, residue_oracle(a, q), rtol=1e-12, atol=1e-12), q
    seen.clear()
    p = lsi.prime_indicator(0, 20_000)  # 2262 primes, stored by index
    list(lsi.residue_folds(p, range(1, 31)))
    assert seen == expected_reads(list(range(16, 31)), p.index.size)
    assert 2 < len(seen) < 15  # some tops paired, some read alone


def test_paired_reads_hold_one_residue_vector_at_a_time():
    a = random_sequence(10**6, seed=0, trial=0)
    tracemalloc.start()
    try:
        for _ in lsi.residue_folds(a, range(1, 151)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def sequence_at_density(N, density, seed):
    """Random complex coefficients on (7, 7 + N], each nonzero with probability density."""
    a = random_sequence(N, M=7, seed=seed, trial=0)
    a.values[np.random.default_rng(seed).random(N) >= density] = 0.0
    return a


def reads(monkeypatch):
    """Record, per call of lsi.residue_sums, whether it read a sparsely."""
    seen = []
    original = lsi.residue_sums

    def spy(a, q, terms=None):
        seen.append(terms is not None)
        return original(a, q, terms)

    monkeypatch.setattr(lsi, "residue_sums", spy)
    return seen


DENSITIES = (lsi._SPARSE_BELOW / 3, min(1.0, 3 * lsi._SPARSE_BELOW))


@pytest.mark.parametrize("density", DENSITIES)
def test_sieve_lhs_matches_the_per_modulus_path(density, monkeypatch):
    a = sequence_at_density(3000, density, seed=21)
    qs = range(1, 41)
    weight = lambda q: q / euler_phi(q)  # noqa: E731
    old = 0.0
    for q in qs:
        old += weight(q) * float(np.sum(np.abs(lsi.primitive_char_sums(a, q)[1]) ** 2))
    seen = reads(monkeypatch)
    assert lsi.ordered_sum(lsi.energies(a, 40) * lsi.phi_weights(40)) == pytest.approx(
        old, rel=1e-12)
    assert seen and all(s == (density < lsi._SPARSE_BELOW) for s in seen)
    assert len(seen) < 20  # only moduli in (20, 40] read a


@pytest.mark.parametrize("density, P, moduli", [
    *[pytest.param(d, (2, 3), [1, 5, 7, 11, 25, 35], id=str(d)) for d in DENSITIES],
    # even moduli: 2-power conductors, q = 2 (mod 4), and q/f not squarefree
    *[pytest.param(d, (3,), [1, 2, 4, 8, 10, 16, 20, 25, 40, 49], id=f"P=3-{d}")
      for d in DENSITIES],
])
def test_thm12_matches_the_per_modulus_path(density, P, moduli, monkeypatch):
    from oracles import gauss_sum
    # only the share prod (1 - 1/p) of the n avoids P, so draw at the inverse density
    a = sequence_at_density(2000, min(1.0, density * math.prod(p / (p - 1) for p in P)),
                            seed=22)
    n = np.arange(a.M + 1, a.M + a.N + 1)
    a.values[np.any([n % p == 0 for p in P], axis=0)] = 0.0
    old = 0.0
    for q in moduli:
        chars = character_group(q)
        taus = np.array([gauss_sum(chi) for chi in chars])
        sums = np.array([char_sum(chi, a) for chi in chars])
        old += float(np.sum(np.abs(taus) ** 2 * np.abs(sums) ** 2)) / euler_phi(q)
    seen = reads(monkeypatch)
    assert lsi_thm12(a, moduli, P).lhs == pytest.approx(old, rel=1e-12)
    assert seen and all(seen) == (density < lsi._SPARSE_BELOW)


def test_thm12_and_eq14_read_no_character_sum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a character sum or eq14 weight was computed")

    for name in ("primitive_energy", "primitive_char_sums", "_coprime_total"):
        monkeypatch.setattr(lsi, name, refuse)
    a = random_sequence(3000, seed=25, restriction=SupportRestriction.rough(30))
    assert lsi_eq14(a, 30).passed
    a = random_sequence(3000, seed=25, restriction=SupportRestriction.prime_free({3}))
    assert lsi_thm12(a, [q for q in range(1, 61) if q % 3], {3}).passed


@pytest.mark.parametrize("density", DENSITIES)
def test_thm13_matches_the_per_modulus_path(density, monkeypatch):
    a = sequence_at_density(2000, density, seed=23)
    Q = 14
    old = 0.0
    for q in range(1, Q + 1):
        prim = primitive_characters(q)
        for r in range(1, Q // q + 1):
            if not prim or math.gcd(q, r) != 1:
                continue
            m = q * r
            u = np.arange(m)
            c_r = np.array([ramanujan_sum_divisor(r, n) for n in range(r)])
            V = group(q).value_matrix(prim)[:, u % q] * c_r[u % r]
            old += q / euler_phi(m) * float(np.sum(np.abs(V @ residue_oracle(a, m)) ** 2))
    seen = reads(monkeypatch)
    assert lsi_thm13(a, Q).lhs == pytest.approx(old, rel=1e-12)
    assert seen and all(seen) == (density < lsi._SPARSE_BELOW)


def test_thm13_builds_each_ramanujan_table_once(monkeypatch):
    from largesieve import expsums
    calls = []

    def spy(r, original=expsums.ramanujan_table):
        calls.append(r)
        return original(r)

    monkeypatch.setattr(expsums, "ramanujan_table", spy)
    lsi_thm13(random_sequence(500), 20)
    assert sorted(calls) == list(range(1, 21))


def test_thm13_sums_no_character_at_q_2_mod_4(monkeypatch):
    seen = []

    def spy(a, q, b, original=lsi.primitive_char_sums):
        seen.append(q)
        return original(a, q, b)

    monkeypatch.setattr(lsi, "primitive_char_sums", spy)
    lsi_thm13(random_sequence(500), 30)
    # every odd q and every q = 0 (mod 4) up to Q = 30 enters, no q = 2 (mod 4)
    assert set(seen) == {q for q in range(1, 31) if q % 4 != 2}


# ---------------------------------------------------------------------
# char_sum


def test_char_sum_examples():
    assert char_sum(character_group(1)[0], CoefficientSequence.ones(5)) == 5
    assert char_sum(chi4(), CoefficientSequence.zeros(8)) == 0
    assert char_sum(chi4(), CoefficientSequence.ones(4)) == 0  # chi4(1) + chi4(3)


def test_char_sum_is_linear():
    a = random_sequence(50, seed=1, trial=0)
    b = random_sequence(50, seed=1, trial=1)
    chi = character_group(7)[3]
    lhs = char_sum(chi, CoefficientSequence(0, a.values + 2j * b.values))
    assert abs(lhs - (char_sum(chi, a) + 2j * char_sum(chi, b))) < 1e-9


def test_modulus_one_and_primitive_energy_edge_cases():
    a = random_sequence(60, M=3, seed=5, trial=0)
    b = lsi.residue_sums(a, 1)
    assert lsi.primitive_char_sums(a, 1, b)[1].tolist() == [b[0]]
    assert char_sum(character_group(1)[0], a) == b[0]
    for q in (2, 6, 10, 30):
        assert lsi.primitive_energy(a, q, lsi.residue_sums(a, q)) == 0.0
    q = 15
    b = lsi.residue_sums(a, q)
    sums = lsi.primitive_char_sums(a, q, b)[1]
    assert lsi.primitive_energy(a, q, b) == float(np.sum(np.abs(sums) ** 2))


def test_energies_is_primitive_energy_of_each_fold():
    """E[q] is primitive_energy of a mod q, bit for bit, and 0.0 at q = 0 and q = 2 (mod 4)."""
    Q = 60
    qs = [q for q in range(1, Q + 1) if q % 4 != 2]
    for a in (integer_coeffs(3000, 9), lsi.prime_indicator(10**4, 5000)):
        want = [lsi.primitive_energy(a, q, lsi.residue_sums(a, q)) if q in qs else 0.0
                for q in range(Q + 1)]  # integer residue sums are exact in any order
        assert lsi.energies(a, Q).tolist() == want
    a = random_sequence(3000, M=11, seed=8)
    folds = dict(lsi.residue_folds(a, qs))
    E = lsi.energies(a, Q)
    assert E.dtype == np.float64 and E.shape == (Q + 1,)
    assert E.tolist() == [lsi.primitive_energy(a, q, folds[q]) if q in qs else 0.0
                          for q in range(Q + 1)]
    with pytest.raises(DomainError):
        lsi.energies(a, 0)


def below_additive_energy(energy, a, q):
    """Assert energy <= A(q) of oracles.additive_energy, and return A(q).

    The slack is 1e-12 of q ||a mod q||^2, the sum of |S(x/q)|^2 over every x
    mod q (Parseval) and the scale of the rounding in both sides: on ones with
    q | N both are 0 and come out as noise near 1e-26.
    """
    from oracles import additive_energy
    A = additive_energy(a, q)
    scale = q * float(np.sum(np.abs(lsi.residue_sums(a, q)) ** 2))
    assert energy <= A + 1e-12 * scale, (q, energy, A)
    return A


def sandwich_sequence(kind, N, M, seed):
    if kind == "random":
        return random_sequence(N, M, seed=seed)
    return CoefficientSequence.ones(N, M) if kind == "ones" else lsi.prime_indicator(M, N)


@given(st.sampled_from(["random", "ones", "primes"]), st.integers(1, 2000),
       st.integers(0, 10**6), st.integers(1, 200), st.integers(0, 2**16))
@example("ones", 1, 6, 30, 0)  # one a_n at a unit of each q: (q/phi(q)) E = A only at q = 1
@example("ones", 415, 0, 83, 0)  # 83 | N: E(83) = A(83) = 0, both computed as rounding noise
@settings(max_examples=25, deadline=None)
def test_each_energy_sits_below_its_additive_sieve(kind, N, M, Q, seed):
    """(q/phi(q)) E(q) <= A(q) for each q, and sum A(q) <= (N - 1 + Q^2) ||a||^2.

    A(q) is the additive sieve at the reduced fractions x/q (oracles.additive_energy).
    For primitive chi, tau(chi-bar) S(chi) = sum over x of chi-bar(x) S(x/q) and
    |tau|^2 = q; summing over every chi mod q gives phi(q) A(q).  The total is the
    additive large sieve at spacing 1/Q^2 (Montgomery-Vaughan 1973).
    """
    a = sandwich_sequence(kind, N, M, seed)
    E = lsi.energies(a, Q) * lsi.phi_weights(Q)
    A = [below_additive_energy(E[q], a, q) for q in range(1, Q + 1)]
    assert math.fsum(A) <= (a.N - 1 + Q * Q) * a.norm_sq * (1 + 1e-12)


def test_twisted_energies_sit_below_their_additive_sieve():
    """thm13's Ramanujan-twisted folds b mod q obey the same per-modulus bound."""
    from largesieve.expsums import ramanujan_table
    a = random_sequence(2000, M=3, seed=9)
    Q = 30
    for q in range(1, Q + 1):
        for r in range(2, Q // q + 1):
            if q % 4 != 2 and math.gcd(q, r) == 1:
                b = lsi.fold(lsi.residue_sums(a, q * r) * np.tile(ramanujan_table(r), q), q)
                twisted = CoefficientSequence(0, np.roll(b, -1))  # a_n = b_(n mod q), n = 1..q
                below_additive_energy(q / euler_phi(q) * lsi.primitive_energy(a, q, b),
                                      twisted, q)


def direct_primitive_sums(q, b):
    """The primitive characters mod q in group order, and value_matrix(prim) @ b.

    The product is taken 256 characters at a time, so a large q needs no
    table of phi(q) rows.
    """
    g = group(q)
    prim = [chi for chi in g.characters() if is_primitive(chi)]
    direct = [g.value_matrix(prim[i:i + 256]) @ b for i in range(0, len(prim), 256)]
    return prim, np.concatenate(direct or [np.zeros(0)])


def assert_matches_the_direct_path(q, b):
    chars, sums = lsi.primitive_char_sums(None, q, b)
    prim, direct = direct_primitive_sums(q, b)
    assert [chi.exponents for chi in chars] == [chi.exponents for chi in prim], q
    assert all(chi.group is group(q) and chi._conductor == q for chi in chars), q
    assert sums.shape == direct.shape, q
    assert np.all(np.abs(sums - direct) <= 1e-12 * np.max(np.abs(direct), initial=0.0)), q
    return chars


def test_primitive_char_sums_match_the_direct_path():
    rng = np.random.default_rng(31)
    for q in range(1, 401):
        assert_matches_the_direct_path(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))


@pytest.mark.parametrize("q, count", [
    (1, 1),
    (6, 0), (30, 0), (210, 0),  # q = 2 (mod 4): no primitive character
    (24, 2), (120, 6), (840, 30),  # 8 | q: the components of -1 and 5 mod 8
    (12, 1), (60, 3), (420, 15),  # 4 || q
    (1155, 135),  # 3 * 5 * 7 * 11
])
def test_primitive_char_sums_crt_cases(q, count):
    b = random_sequence(q, seed=q).values
    assert len(assert_matches_the_direct_path(q, b)) == count


@pytest.mark.parametrize("q", [
    *(3**e for e in range(1, 7)), *(5**e for e in range(1, 5)), 7**3, 11**2, 797, 7919,
    4 * 27, 8 * 125, 16 * 9 * 7, 2**9,  # with a 2-adic factor
])
def test_fft_sums_match_the_direct_path(q):
    rng = np.random.default_rng(q)
    assert_matches_the_direct_path(q, rng.standard_normal(q) + 1j * rng.standard_normal(q))


@pytest.mark.parametrize("q", [797, 3**6, 8 * 125])
def test_fft_sums_of_a_prime_indicator_match_the_direct_path(q):
    assert_matches_the_direct_path(q, lsi.residue_sums(lsi.prime_indicator(10**5, 4 * 10**4), q))


def test_fft_sums_build_no_value_table():
    # the value table mod 797 has 796 x 797 complex entries, about 10 MB
    q = 797
    group(q)
    lsi.primitive_char_sums(None, 7, np.ones(7))  # numpy loads np.fft on first use
    b = random_sequence(q, seed=3).values
    tracemalloc.start()
    try:
        lsi.primitive_char_sums(None, q, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_only_the_two_adic_factor_uses_a_value_table(monkeypatch):
    moduli = []
    value_matrix = CharacterGroup.value_matrix

    def spy(self, chars):
        moduli.append(self.modulus)
        return value_matrix(self, chars)

    monkeypatch.setattr(CharacterGroup, "value_matrix", spy)
    lsi_mvs(random_sequence(500), 60)
    assert moduli and all(m & (m - 1) == 0 for m in moduli), sorted(set(moduli))


def test_odd_prime_power_rows_follow_the_conductor_formula():
    """The oracle of the rows primitive_char_sums keeps after its FFT mod p^e,
    the k with p not dividing k: they are the k of conductor p^e by the
    component's conductor formula and by the is_primitive filter, and for
    e = 1 they are every k != 0.  Each group is built outside the group()
    memo."""
    for m in range(3, 5001, 2):
        factors = factorize(m).factors
        if len(factors) != 1:
            continue
        ((p, e),) = factors
        g = CharacterGroup(m)
        (component,) = g.components
        k = np.arange(component.order)
        rows = np.flatnonzero(component.conductors(k) == m).tolist()
        assert rows == [chi.exponents[0] for chi in g.characters() if is_primitive(chi)], m
        assert rows == np.flatnonzero(k % p != 0 if e > 1 else k != 0).tolist(), m
        assert rows == np.flatnonzero(k % p).tolist(), m  # one rule for every e


def test_lazy_labels_are_the_primitive_characters():
    rng = np.random.default_rng(32)
    for q in range(1, 301):
        chars, sums = lsi.primitive_char_sums(None, q, rng.standard_normal(q))
        assert len(chars) == sums.size, q
        prim = primitive_characters(q)
        assert list(chars) == prim and chars[-1:] == prim[-1:], q


def spy_on_group(monkeypatch, *modules):
    """Record the modulus of every group() call made through each module."""
    seen = []
    for module in modules:
        def spy(q, original=module.group):
            seen.append(q)
            return original(q)
        monkeypatch.setattr(module, "group", spy)
    return seen


def is_prime_power(q):
    return len(factorize(q).factors) == 1


def test_label_length_builds_no_composite_group(monkeypatch):
    from largesieve import characters
    q = 4 * 9 * 5 * 7
    seen = spy_on_group(monkeypatch, lsi, characters)
    chars, sums = lsi.primitive_char_sums(None, q, random_sequence(q, seed=4).values)
    assert len(chars) == sums.size == 1 * 4 * 3 * 5
    assert seen and all(is_prime_power(m) for m in seen), seen
    assert chars[0].group is group(q) and seen[-1] == q


def test_left_sides_build_only_prime_power_groups(monkeypatch):
    seen = spy_on_group(monkeypatch, lsi)
    lsi_mvs(random_sequence(3000), 120)
    assert seen and all(is_prime_power(m) for m in seen), sorted(set(seen))


def test_primitive_energy_on_primes_matches_the_direct_path():
    # the primes in (M, M+N] are nearly equidistributed mod q, so each S(chi)
    # is a small remainder of sums of size about N / (phi(q) log N)
    a = lsi.prime_indicator(10**5, 4 * 10**4)
    for q in range(1, 401):
        b = lsi.residue_sums(a, q)
        direct = float(np.sum(np.abs(direct_primitive_sums(q, b)[1]) ** 2))
        assert lsi.primitive_energy(a, q, b) == pytest.approx(direct, rel=1e-12, abs=0.0), q


def test_char_sum_against_scalar_oracle():
    a = random_sequence(80, M=13, seed=2, trial=0)
    ns = np.arange(a.M + 1, a.M + a.N + 1)
    for q in (3, 8, 12):
        for chi in character_group(q):
            oracle = sum(av * chi(int(n)) for n, av in zip(ns, a.values))
            assert abs(char_sum(chi, a) - oracle) < 1e-9


def test_sieve_lhs_against_scalar_oracle():
    a = random_sequence(90, M=7, seed=4, trial=0)
    ns = np.arange(a.M + 1, a.M + a.N + 1)
    qs = [9, 1, 8, 5, 6, 12]  # unsorted, with a q that has no primitive character
    oracle = 0.0
    for q in qs:
        energy = sum(abs(sum(av * chi(int(n)) for n, av in zip(ns, a.values))) ** 2
                     for chi in character_group(q) if is_primitive(chi))
        oracle += (q + 0.5) * energy
    weights = np.zeros(13)
    weights[qs] = [q + 0.5 for q in qs]
    got = lsi.ordered_sum(lsi.energies(a, 12) * weights)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert lsi.ordered_sum(np.zeros(0)) == 0.0


def test_prime_indicator_short_ranges():
    assert list(lsi.prime_indicator(0, 1).dense()) == [0]
    assert list(lsi.prime_indicator(0, 3).dense()) == [0, 1, 1]
    assert list(lsi.prime_indicator(7, 4).dense()) == [0, 0, 0, 1]  # (7, 11]


def prime_count(lo, hi):
    """The number of primes in (lo, hi], by trial division."""
    return sum(1 for n in range(max(lo + 1, 2), hi + 1)
               if all(n % d for d in range(2, math.isqrt(n) + 1)))


@pytest.mark.parametrize("M, N", [(0, 1), (0, 3), (7, 4), (114, 12), (50, 0),
                                  (10**4, 3000)])
def test_prime_indicator_stores_only_its_primes(M, N):
    a = lsi.prime_indicator(M, N)
    assert (a.M, a.N) == (M, N)
    assert a.index.size == a.values.size == prime_count(M, M + N)
    assert a.values.dtype == np.float64 and np.all(a.values == 1.0)
    assert all(M < n <= M + N and prime_count(n - 1, n) == 1 for n in a.index)


def test_prime_indicator_matches_the_full_table_on_random_windows():
    ps = primes_upto(3 * 10**5)
    rng = np.random.default_rng(15)
    for M, N in zip(rng.integers(0, 2 * 10**5, 100).tolist(),
                    rng.integers(0, 10**5, 100).tolist()):
        want = ps[np.searchsorted(ps, M, side="right"):np.searchsorted(ps, M + N, side="right")]
        assert np.array_equal(lsi.prime_indicator(M, N).index, want), (M, N)


def test_prime_indicator_sieves_only_its_window():
    # the full sieve of [2, M + N] held a 10 MB mask and 5.3 MB of primes
    tracemalloc.start()
    try:
        a = lsi.prime_indicator(10**7, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.index.size == 6_241  # pi(10^7 + 10^5) - pi(10^7)
    assert peak < 1 << 20


def index_storage(a):
    """The coefficients of a dense sequence, held by index."""
    i = np.flatnonzero(a.values)
    return CoefficientSequence(a.M, a.values[i], N=a.N, index=i + a.M + 1)


def with_zeros(a, seed):
    a.values[np.random.default_rng(seed).random(a.N) < 0.6] = 0
    return a


def test_index_storage_matches_dense_on_integer_data():
    real = CoefficientSequence(9, np.random.default_rng(1).integers(-9, 10, 3000))
    primes = lsi.prime_indicator(10**4, 5000)
    for a, b in [(d, index_storage(d)) for d in (with_zeros(integer_coeffs(3000, 9), 2),
                                                 with_zeros(real, 3))] + [
            (CoefficientSequence(primes.M, primes.dense()), primes)]:
        assert b.values.size == np.count_nonzero(a.values) < a.N
        assert np.array_equal(b.dense(), a.values)
        for q in (1, 2, 7, 30, 97, 4000):
            assert np.array_equal(lsi.residue_sums(a, q), lsi.residue_sums(b, q)), q
            assert np.array_equal(lsi.residue_sums(b, q), residue_oracle(a, q)), q
        weights = lsi.phi_weights(40)
        assert (lsi.ordered_sum(lsi.energies(a, 40) * weights)
                == lsi.ordered_sum(lsi.energies(b, 40) * weights))
        assert a.norm_sq == b.norm_sq and a.total() == b.total()


def test_index_storage_matches_dense_on_random_data():
    a = with_zeros(random_sequence(4000, M=5, seed=6, trial=0), 4)
    b = index_storage(a)
    for q in (1, 3, 64, 97, 4000):
        ref = lsi.residue_sums(a, q)
        assert np.allclose(lsi.residue_sums(b, q), ref, rtol=1e-12,
                           atol=1e-12 * np.max(np.abs(ref)))
    weights = lsi.phi_weights(40)
    assert lsi.ordered_sum(lsi.energies(b, 40) * weights) == pytest.approx(
        lsi.ordered_sum(lsi.energies(a, 40) * weights), rel=1e-12)
    assert b.norm_sq == pytest.approx(a.norm_sq, rel=1e-12)


def test_index_storage_raises_the_same_support_error():
    vals = np.zeros(60)
    vals[[1, 6, 9, 12, 21]] = [1.0, 2.0, -1.0, 3.0, 5.0]  # n = 7, 12, 15, 18, 27 with M = 5
    dense = CoefficientSequence(5, vals)
    messages = []
    for a in (dense, index_storage(dense)):
        with pytest.raises(SupportError, match=r"eq16: 4 coefficients .*\(first at n=12\)") as e:
            lsi_eq16(a, 3)
        messages.append(str(e.value))
    assert messages[0] == messages[1]


def test_storage_dtypes():
    assert CoefficientSequence(0, np.arange(5)).values.dtype == np.float64
    assert CoefficientSequence.ones(4).values.dtype == np.float64
    assert CoefficientSequence.zeros(4).values.dtype == np.float64
    z = np.array([1.5 - 0.0j, -0.0 + 2j, complex(np.nan, 1), 3 + 0j, 0j])
    for a in (CoefficientSequence(3, z), CoefficientSequence(3, z[:4], N=9,
                                                             index=[4, 6, 7, 12])):
        assert a.values.dtype == np.complex128
        assert np.array_equal(a.values.view(np.uint64), z[:a.values.size].view(np.uint64))
    assert lsi.random_sequence(10, seed=1).values.dtype == np.complex128


def test_index_storage_checks_its_index():
    a = CoefficientSequence(10, [2.0, 3.0, -1.0], N=5, index=[11, 12, 15])
    assert list(a.dense()) == [2.0, 3.0, 0.0, 0.0, -1.0]
    assert [list(x) for x in a.nonzero] == [[11, 12, 15], [2.0, 3.0, -1.0]]
    for kw in ({"index": [11, 12, 15]}, {"N": 5, "index": [12, 11, 15]},
               {"N": 5, "index": [11, 12, 12]}, {"N": 5, "index": [10, 12, 15]},
               {"N": 5, "index": [11, 12, 16]}, {"N": 5, "index": [11, 12]},
               {"N": 4}):
        with pytest.raises(ValueError):
            CoefficientSequence(10, [2.0, 3.0, -1.0], **kw)
    with pytest.raises(ValueError):
        CoefficientSequence(10, [2.0, 0.0, -1.0], N=5, index=[11, 12, 15])
    with pytest.raises(ValueError):
        CoefficientSequence(10, [], N=-1, index=[])


@pytest.mark.parametrize("N, M, seed, trial, restriction", [
    (0, 0, 0, 0, None), (1, 3, 1, 0, None), (1000, 0, 7, 2, None),
    (5003, 17, 4, 1, SupportRestriction.rough(10)),
    (2000, 123, 5, 3, SupportRestriction.prime_free([3, 7, 101]))])
def test_random_sequence_matches_the_two_draw_expression(N, M, seed, trial, restriction):
    rng = np.random.default_rng([seed, trial, N, M])
    want = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
    if restriction is not None:
        want[~restriction.allowed_mask(np.arange(M + 1, M + N + 1))] = 0.0
    got = random_sequence(N, M, seed=seed, trial=trial, restriction=restriction)
    assert np.array_equal(got.values, want)
    assert np.array_equal(got.values.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------
# the main inequalities


def test_mvs_examples():
    rep = lsi_mvs(CoefficientSequence.ones(5), 2)
    assert rep.lhs == pytest.approx(25.0, abs=1e-9)
    assert rep.rhs == pytest.approx(45.0)
    assert rep.passed
    rep = lsi_mvs(CoefficientSequence.zeros(6), 3)
    assert rep.lhs == rep.rhs == 0.0 and rep.passed


def test_bd_examples():
    rep = lsi_bd(CoefficientSequence.ones(5), 2)
    assert rep.rhs == pytest.approx((math.sqrt(5) + 2) ** 2 * 5)
    assert rep.passed
    a = CoefficientSequence(0, np.array([2.0 - 1j]))
    rep = lsi_bd(a, 1)
    assert rep.lhs == pytest.approx(5.0) and rep.rhs == pytest.approx(20.0)


@pytest.mark.parametrize("fn,Q,N", [(lsi_mvs, 10, 200), (lsi_mvs, 30, 100),
                                    (lsi_bd, 30, 100), (lsi_thm13, 15, 300)])
def test_random_property_runs(fn, Q, N):
    for trial in range(30):
        rep = fn(random_sequence(N, M=0, seed=11, trial=trial), Q)
        assert rep.passed, (fn.__name__, trial, rep.ratio)


def test_thm12_single_modulus_reduces_to_plain_square():
    a = random_sequence(60, seed=4, trial=0)
    rep = lsi_thm12(a, [1], [])
    assert rep.lhs == pytest.approx(abs(a.total()) ** 2, rel=1e-12)


def test_thm12_property_run():
    P = {2}
    mods = [1, 3, 5]
    restriction = SupportRestriction.prime_free(P)
    for trial in range(20):
        a = random_sequence(50, seed=5, trial=trial, restriction=restriction)
        assert lsi_thm12(a, mods, P).passed


def test_thm12_validation():
    P = {2}
    with pytest.raises(DomainError):
        lsi_thm12(CoefficientSequence.zeros(4), [2], P)  # modulus not P-free
    with pytest.raises(SupportError):
        lsi_thm12(CoefficientSequence.ones(4), [1, 3], P)  # support hits 2, 4


def test_eq14_reduction_at_Q1():
    a = random_sequence(40, seed=6, trial=0)
    rep = lsi_eq14(a, 1)
    assert rep.lhs == pytest.approx(abs(a.total()) ** 2, rel=1e-12)
    assert rep.rhs == pytest.approx((math.sqrt(40) + 1) ** 2 * a.norm_sq)


def test_eq14_support_enforced():
    with pytest.raises(SupportError):
        lsi_eq14(CoefficientSequence.ones(100), 5)


def test_eq14_prime_support():
    ps = primes_upto(1000)
    ps = ps[ps > 25]
    vals = np.zeros(975, dtype=np.complex128)
    vals[ps - 26] = 1.0
    rep = lsi_eq14(CoefficientSequence(25, vals), 5)
    assert rep.passed


@pytest.mark.parametrize("Q", [12, 30])
def test_eq14_matches_its_double_sum(Q):
    from oracles import eq14_lhs
    restriction = SupportRestriction.rough(Q)
    cases = [random_sequence(300, M=M, seed=24, trial=t, restriction=restriction)
             for t, M in enumerate([0, 97, 1000])]
    ones = CoefficientSequence.ones(300, 40)
    restriction.zero_forbidden(ones.values, ones.M)
    for a in [*cases, ones]:
        assert lsi_eq14(a, Q).lhs == pytest.approx(eq14_lhs(a, Q), rel=1e-12, abs=0.0)


def test_eq15_examples():
    rep = check_eq15(1, 1)
    assert rep.lhs == 1.0 and rep.rhs == 0.0 and rep.passed
    assert check_eq15(6, 100).passed
    assert check_eq15(2, 10**4).passed


@pytest.mark.parametrize("X", [1, 2, 97, 123.9, 500])
def test_eq15_matches_its_sum(X):
    from oracles import squarefree_inverse_phi_sum
    for q in range(1, 31):
        assert check_eq15(q, X).lhs == squarefree_inverse_phi_sum(range(1, math.floor(X) + 1), q)


def test_eq16():
    # at Q = 1 the one weight log(Q/1) is 0: the left side is 0 for any data, and checks nothing
    with pytest.raises(DomainError, match="eq16 requires Q >= 2"):
        lsi_eq16(random_sequence(30, seed=8, trial=0, restriction=SupportRestriction.rough(1)), 1)
    restriction = SupportRestriction.rough(10)
    for trial in range(20):
        a = random_sequence(1000, seed=9, trial=trial, restriction=restriction)
        assert lsi_eq16(a, 10).passed


@pytest.mark.parametrize("Q", [7, 12])
def test_eq16_matches_its_sum(Q):
    from oracles import eq16_lhs
    restriction = SupportRestriction.rough(Q)
    cases = [random_sequence(300, M=M, seed=26, trial=t, restriction=restriction)
             for t, M in enumerate([0, 97, 1000])]
    ones = CoefficientSequence.ones(300, 40)
    restriction.zero_forbidden(ones.values, ones.M)
    for a in [*cases, ones, lsi.prime_indicator(100, 300)]:
        assert lsi_eq16(a, Q).lhs == pytest.approx(eq16_lhs(a, Q), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("Q", [1, 7, 12])
def test_prop21_matches_its_sum(Q):
    from oracles import unit_weight_lhs
    for R in (1, 5):
        restriction = SupportRestriction.rough(R)
        cases = [random_sequence(300, M=M, seed=27, trial=t, restriction=restriction)
                 for t, M in enumerate([0, 97, 10**4])]
        ones = CoefficientSequence.ones(300, 40)
        restriction.zero_forbidden(ones.values, ones.M)
        for a in [*cases, ones]:
            want = unit_weight_lhs(a, Q)
            assert lsi_prop21(a, Q, R).lhs == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("Q", [1, 7, 12])
def test_prop22_matches_its_sum(Q):
    """The sieve of r(n) a_n, r(n) by enumerating the coprime x^2 + y^2 = n."""
    from oracles import prop22_lhs
    cases = [random_sequence(300, M=M, seed=28, trial=t) for t, M in enumerate([0, 97, 10**4])]
    for a in [*cases, CoefficientSequence.ones(300, 40)]:
        want = prop22_lhs(a, Q)
        assert lsi_prop22(a, Q, alpha=0.5).lhs == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("Q", [1, 4, 6])
def test_thm21_matches_its_sum(Q):
    """8 Q^2 <= N = 300 holds up to Q = 6."""
    from largesieve.exceptional import thm21_coefficients
    from oracles import unit_weight_lhs
    cases = [(thm21_coefficients(300), 2.0001)]
    cases += [(random_sequence(300, M=M, seed=29, trial=t), 1e9)
              for t, M in enumerate([0, 97, 10**4])]
    for a, slack in cases:
        want = unit_weight_lhs(a, Q)
        got = lsi_thm21(a, Q, condition_slack=slack).lhs
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_eq16_lhs_below_eq14_lhs():
    restriction = SupportRestriction.rough(12)
    for trial in range(10):
        a = random_sequence(500, seed=10, trial=trial, restriction=restriction)
        assert lsi_eq16(a, 12).lhs <= lsi_eq14(a, 12).lhs * (1 + 1e-12)


def thm13_brute(a, Q):
    """Oracle: direct triple loop with scalar character and c_r evaluations."""
    ns = np.arange(a.M + 1, a.M + a.N + 1)
    total = 0.0
    for q in range(1, Q + 1):
        for r in range(1, Q // q + 1):
            if math.gcd(q, r) != 1:
                continue
            for chi in primitive_characters(q):
                s = sum(av * chi(int(n)) * ramanujan_sum_divisor(r, int(n))
                        for n, av in zip(ns, a.values))
                total += q / euler_phi(q * r) * abs(s) ** 2
    return total


def test_thm13_against_brute_force():
    a = CoefficientSequence.ones(12)
    rep = lsi_thm13(a, 4)
    assert rep.lhs == pytest.approx(thm13_brute(a, 4), rel=1e-10)
    assert rep.passed
    b = random_sequence(25, M=5, seed=12, trial=0)
    rep = lsi_thm13(b, 6)
    assert rep.lhs == pytest.approx(thm13_brute(b, 6), rel=1e-10)


def test_thm13_Q1():
    a = random_sequence(40, seed=13, trial=0)
    rep = lsi_thm13(a, 1)
    assert rep.lhs == pytest.approx(abs(a.total()) ** 2, rel=1e-12)
    assert rep.rhs == pytest.approx((40 + 1) * a.norm_sq)


# ---------------------------------------------------------------------
# script L and the restricted-support propositions


def test_script_L_values():
    one = np.array([0.0, 1.0])  # the set {1}
    assert script_L(1, one) == 1.0
    assert script_L(6, one) == 1.0
    # every q <= 6 against Eq 1.5's lower bound, with the set all r <= R
    for R in (10, 100):
        assert script_L(6, arith.squarefree_inverse_phi(R)) >= math.log(R) - 1e-12
    assert script_L(10, arith.squarefree_inverse_phi(100)) >= math.log(100) - 1e-12


def test_script_L_min_attained():
    from oracles import squarefree_inverse_phi_sum
    R_set = [2, 3, 5, 7]
    w = np.zeros(8)
    w[R_set] = [1 / euler_phi(r) for r in R_set]
    vals = [q / euler_phi(q) * squarefree_inverse_phi_sum(R_set, q) for q in range(1, 11)]
    assert script_L(10, w) == min(vals)


@pytest.mark.parametrize("R", [1, 2, 30, 500])
def test_script_L_matches_its_sum(R, monkeypatch):
    """script_L over {1..R} and over the nu set, against the sum added r by r.

    Also in chunks of 7, which at R = 500 cross 71 chunk boundaries; w is left as it was.
    """
    from oracles import euler_phi_td, script_L_sum
    nu_set = [r for r in range(1, R + 1) if nu_td(r)]
    w_nu = np.zeros(R + 1)
    w_nu[nu_set] = [1.0 / euler_phi_td(r) for r in nu_set]
    w_all, before = arith.squarefree_inverse_phi(R), w_nu.copy()
    for chunk in (lsi._CHUNK, 7):
        monkeypatch.setattr(lsi, "_CHUNK", chunk)
        for Q in (1, 2, 6, 30):
            assert script_L(Q, w_all) == script_L_sum(Q, range(1, R + 1))
            assert script_L(Q, w_nu) == script_L_sum(Q, nu_set)
    assert np.array_equal(w_nu, before)


def test_prop21():
    # R = 1 admits every sequence
    a = random_sequence(60, seed=14, trial=0)
    rep = lsi_prop21(a, 4, 1)
    assert rep.passed
    assert rep.extras["script_L"] == 1.0  # minimum at q = 1
    assert rep.parameters["R_set_size"] == 1
    restriction = SupportRestriction.rough(5)
    for trial in range(10):
        a = random_sequence(300, seed=15, trial=trial, restriction=restriction)
        assert lsi_prop21(a, 8, 5).passed
    rep = lsi_prop21(CoefficientSequence.zeros(10), 3, 2)
    assert rep.lhs == 0.0 and rep.passed


def test_prop21_validation():
    with pytest.raises(DomainError):
        lsi_prop21(CoefficientSequence.zeros(5), 2, 0)  # the set {1, ..., R} is empty
    with pytest.raises(SupportError):
        lsi_prop21(CoefficientSequence.ones(10), 2, 2)


def test_prop22():
    rep = lsi_prop22(CoefficientSequence.zeros(100), 2)
    assert rep.lhs == rep.rhs == 0.0 and rep.passed
    with pytest.raises(DomainError):
        lsi_prop22(CoefficientSequence.ones(26), 5)  # below the alpha threshold
    for trial in range(5):
        a = random_sequence(2000, seed=16, trial=trial)
        rep = lsi_prop22(a, 3)
        assert rep.passed
        assert rep.extras["R"] == pytest.approx(math.sqrt(2000) / 3)
        # R = 14.9: the nu-supported r are 1, 3, 7 and 11
        assert rep.extras["R_set_size"] == 4


@pytest.mark.parametrize("Q, N", [(1, 250_000), (2, 40_000), (5, 62_500), (30, 1_440_000)])
def test_prop22_script_L_runs_over_the_nu_set(Q, N):
    from oracles import script_L_sum
    rep = lsi_prop22(CoefficientSequence.zeros(N), Q)
    nu_set = [r for r in range(1, math.floor(math.sqrt(N) / Q) + 1) if nu_td(r)]
    assert rep.extras["R_set_size"] == len(nu_set)
    assert rep.extras["script_L"] == script_L_sum(Q, nu_set)


def test_prop22_q1_term_below_total():
    a = random_sequence(500, seed=17, trial=0)
    rep = lsi_prop22(a, 3)
    from largesieve.arith import r2_coprime_table
    r = r2_coprime_table(500)[1:501]
    q1_term = abs(np.sum(r * a.values)) ** 2
    assert q1_term <= rep.lhs + 1e-9


# ---------------------------------------------------------------------
# Theorem 2.1


def test_thm21_conditions_zero_and_violation():
    chk = thm21_conditions(CoefficientSequence.zeros(50))
    assert chk.ok and chk.witness is None
    vals = np.zeros(100, dtype=np.complex128)
    vals[1] = 1.0  # a_2 = 1
    chk = thm21_conditions(CoefficientSequence(0, vals))
    assert not chk.ok and chk.witness == 2


def test_thm21_conditions_vm_coefficients_literal():
    """The strict bound fails at p = 2 by the higher-prime-power geometric
    series: the divisible mass at p is (log p / log N)^2 sum 1/p^k, which
    exceeds the single-term bound (1/p)(log p / log N)^2 by a factor
    approaching p/(p-1).  The sequence satisfies the conditions up to that
    constant (slack 2 suffices)."""
    a = vm_sqrt_coeffs(10**4)
    chk = thm21_conditions(a)
    assert chk.norm_sq <= 1.0
    assert not chk.ok
    assert chk.witness == 2
    assert 1.9 <= chk.worst_ratio <= 2.0 + 1e-6
    assert thm21_conditions(a, slack=2.0001).ok


def test_thm21_conditions_vm_k_fitted_constant():
    # a_n = Lambda_k(n) / (sqrt(n) (log N)^k) meets both conditions up to a
    # single fitted constant for k <= 3 (worst ratios ~2.0, 2.9, 4.7 at p=2)
    from oracles import von_mangoldt_k
    N = 10**4
    n = np.arange(1, N + 1)
    for k in (1, 2, 3):
        vals = np.array([von_mangoldt_k(int(m), k) for m in range(1, N + 1)])
        a = CoefficientSequence(0, (vals / np.sqrt(n) / math.log(N) ** k
                                    ).astype(np.complex128))
        chk = thm21_conditions(a)
        assert chk.norm_sq <= 1.0
        assert chk.worst_ratio <= 5.0
        assert thm21_conditions(a, slack=5.0).ok


def test_thm21_guard_and_pass():
    with pytest.raises(DomainError):
        lsi_thm21(CoefficientSequence.zeros(100), 10)  # 8 Q^2 > N
    rep = lsi_thm21(CoefficientSequence.zeros(1000), 10)
    assert rep.passed and rep.lhs == 0.0
    a = vm_sqrt_coeffs(10**4)
    with pytest.raises(DomainError):
        lsi_thm21(a, 20)  # literal conditions fail at p = 2
    rep = lsi_thm21(a, 20, condition_slack=2.0001)
    assert rep.passed
    assert rep.extras["empirical_constant"] <= 24
    assert rep.extras["split_R"] == pytest.approx((10**4 / 400) ** (1 / 3))


# ---------------------------------------------------------------------
# Brun-Titchmarsh


def test_brun_titchmarsh():
    bt = brun_titchmarsh(1000, 10**4)
    assert bt["prime_count"] <= bt["bound"]
    assert bt["pass"]
    bt = brun_titchmarsh(11, 100)
    assert bt["pass"]
    with pytest.raises(DomainError):
        brun_titchmarsh(10, 100)  # M <= sqrt(N)
    with pytest.raises(DomainError):
        brun_titchmarsh(50, 99)


def test_brun_titchmarsh_counts_exactly():
    bt = brun_titchmarsh(1000, 2000)
    ps = primes_upto(3000)
    expect = int(np.sum((ps > 1000) & (ps <= 3000)))
    assert bt["prime_count"] == expect


# ---------------------------------------------------------------------
# structural properties


@pytest.mark.parametrize("c", [2.0, 1j, -3.0])
def test_scaling_covariance(c):
    a = random_sequence(120, seed=18, trial=0)
    scaled = CoefficientSequence(0, c * a.values)
    for fn in (lsi_mvs, lsi_bd, lsi_thm13):
        r1, r2 = fn(a, 8), fn(scaled, 8)
        s = abs(c) ** 2
        assert r2.lhs == pytest.approx(s * r1.lhs, rel=1e-12)
        assert r2.rhs == pytest.approx(s * r1.rhs, rel=1e-12)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-12)
        assert r1.passed == r2.passed


def test_lhs_monotone_in_Q():
    a = random_sequence(150, seed=19, trial=0)
    prev = 0.0
    for Q in (1, 2, 5, 10, 20):
        cur = lsi_mvs(a, Q).lhs
        assert cur >= prev - 1e-12
        prev = cur


def test_rhs_comparison_bd_vs_mvs():
    # (sqrt(N) + Q)^2 <= 2 (N + Q^2) whenever Q <= sqrt(N)
    for N in (50, 200, 1000):
        for Q in (2, 5, 10, 30):
            if Q <= math.sqrt(N):
                assert (math.sqrt(N) + Q) ** 2 <= 2 * (N + Q * Q)


def test_single_support_closed_form():
    # one coefficient at n0 coprime to everything: each primitive character
    # contributes |a|^2 exactly
    n0 = 97 * 89
    vals = np.zeros(100, dtype=np.complex128)
    vals[0] = 1.5 - 0.5j
    a = CoefficientSequence(n0 - 1, vals)
    Q = 10
    rep = lsi_mvs(a, Q)
    expect = sum(q / euler_phi(q) * len(primitive_characters(q)) * abs(vals[0]) ** 2
                 for q in range(1, Q + 1))
    assert rep.lhs == pytest.approx(expect, rel=1e-12)


def test_corrupted_rhs_fails():
    rep = lsi_mvs(CoefficientSequence.ones(1000), 30)
    assert rep.passed
    assert rep.lhs > 0.5 * rep.rhs  # so halving the RHS must flip it

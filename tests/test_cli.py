import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import largesieve
from largesieve import arith, cli, exceptional, lsi
from largesieve.characters import primitive_characters
from largesieve.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_bd_rows(capsys):
    code, out = run_cli(capsys, "verify", "--ineq", "bd", "--N", "200",
                        "--Q", "10", "--trials", "50", "--seed", "7")
    lines = out.strip().split("\n")
    assert code == 0
    assert lines[0] == "inequality,M,N,Q,extra_params,seed,lhs,rhs,ratio,pass"
    assert len(lines) == 51
    assert all(line.endswith("True") for line in lines[1:])


def test_verify_thm21_guard_is_usage_error(capsys):
    code, _ = run_cli(capsys, "verify", "--ineq", "thm21", "--N", "100", "--Q", "10")
    assert code == 2


def test_verify_thm21_passes_with_slack(capsys):
    code, out = run_cli(capsys, "verify", "--ineq", "thm21", "--N", "10000",
                        "--Q", "20", "--slack", "2.0001")
    assert code == 0
    assert "empirical_constant" in out


def test_verify_eq15_single_row(capsys):
    code, out = run_cli(capsys, "verify", "--ineq", "eq15", "--q", "6", "--X", "100")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_byte_identical_reruns(capsys):
    args = ["verify", "--ineq", "mvs", "--N", "100", "--Q", "5",
            "--trials", "10", "--seed", "42"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_json_format(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "--ineq", "bd",
                        "--N", "50", "--Q", "2", "--trials", "3", "--seed", "1")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"inequality", "M", "N", "Q", "extra_params",
                            "seed", "lhs", "rhs", "ratio", "pass"}


def test_sabotage_flips_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--ineq", "mvs", "--N", "1000",
                        "--Q", "30", "--ones")
    assert code == 0
    code, out = run_cli(capsys, "verify", "--ineq", "mvs", "--N", "1000",
                        "--Q", "30", "--ones", "--sabotage")
    assert code == 1
    assert "False" in out


def test_unknown_inequality_usage_error(capsys):
    code = main(["verify", "--ineq", "nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("usage error: argument --ineq: invalid choice: 'nope'")


def test_constants(capsys):
    code, out = run_cli(capsys, "constants", "--cutoff", "1e6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "item,value,reference,discrepancy,tolerance,pass"
    byname = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert float(byname["constant_c"][4]) <= 2e-6
    assert byname["L1_chi4_vs_pi_over_4"][5] == "True"
    assert byname["z_series_consistency"][5] == "True"
    _, out2 = run_cli(capsys, "constants", "--cutoff", "1e6")
    assert out == out2


def test_scan_bt(capsys):
    code, out = run_cli(capsys, "scan", "bt", "--N", "1e4,1e5")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    idx = lines[0].split(",").index("ratio_to_asymptote")
    r1, r2 = (float(line.split(",")[idx]) for line in lines[1:])
    assert r1 > r2 > 1.0


def test_scan_lemma21(capsys):
    code, out = run_cli(capsys, "scan", "lemma21", "--q", "1,3,21",
                        "--x", "1e2,1e4", "--cutoff", "1e5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("fitted_C") or "fitted_C" in lines[-1]
    assert lines[-1].endswith("True")


def test_scan_exceptional(capsys):
    code, out = run_cli(capsys, "scan", "exceptional", "--D", "5", "--N", "1e4")
    assert code == 0
    assert "lemma31" in out and "prop31" in out


def test_scan_prop32(capsys):
    """At desk scale the hypothesis fails, so nothing is tested: exit 2."""
    code = main(["scan", "prop32", "--D", "5", "--eps", "0.9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize("sum_over_bound", [None, 10.0])
def test_scan_prop32_tested_row_sets_the_exit_code(capsys, monkeypatch, sum_over_bound):
    """With L(1, chi_5) taken as 0 the hypothesis holds at N = 16 and q = 2 is
    scanned; the second case adds a character sum of 10 times the bound."""
    monkeypatch.setattr(exceptional, "L1_chiD",
                        lambda chi: exceptional.LTruncation(0.0, 10**6, 1e-6))
    if sum_over_bound is not None:
        scan = exceptional.primitive_char_sums
        chi = primitive_characters(3)[0]

        def with_large_sum(a, q):
            chars, sums = scan(a, q)
            return list(chars) + [chi], list(sums) + [sum_over_bound * 3 * 0.8 * a.N]

        monkeypatch.setattr(exceptional, "primitive_char_sums", with_large_sum)
    code, out = run_cli(capsys, "scan", "prop32", "--D", "5", "--eps", "0.8")
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["N"] == "16" and row["conclusion_tested"] == "True"
    holds = float(row["max_abs_sum"]) <= float(row["bound"])
    assert holds is (sum_over_bound is None)
    assert row["pass"] == str(holds)
    assert code == (0 if holds else 1)


def test_scan_prop32_reads_every_listed_N(capsys, monkeypatch):
    """The window of D = 5, eps = 0.8 is (12.4, 23.2): 1000 is outside it,
    and 17 and 20 each get a row."""
    monkeypatch.setattr(exceptional, "L1_chiD",
                        lambda chi: exceptional.LTruncation(0.0, 10**6, 1e-6))
    code = main(["scan", "prop32", "--D", "5", "--eps", "0.8", "--N", "1000,17"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "window" in captured.err and "N = 1000" in captured.err
    code, out = run_cli(capsys, "scan", "prop32", "--D", "5", "--eps", "0.8", "--N", "17,20")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert code == 0 and [row["N"] for row in rows] == ["17", "20"]
    assert all(row["conclusion_tested"] == "True" for row in rows)


def test_resource_guard_exit_code(capsys):
    code, _ = run_cli(capsys, "scan", "bt", "--N", "1e9")
    assert code == 3


def test_a_window_past_the_sieve_budget_exits_3(capsys):
    # only N = 100 odd n are sieved, but M + N = 10^8 + 1 is over the budget
    code, _ = run_cli(capsys, "scan", "bt", "--N", "1e2", "--M", "99999901")
    assert code == 3


def test_verify_past_the_sieve_budget_exits_3_before_drawing(capsys, monkeypatch):
    """N = 1e9 complex coefficients would take 14.9 GiB; nothing is drawn."""
    def refuse(*args, **kwargs):
        raise AssertionError("a coefficient sequence was built")

    monkeypatch.setattr(lsi, "random_sequence", refuse)
    code = main(["verify", "--ineq", "bd", "--N", "1e9"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("resource guard: ")


def test_prop22_past_the_r2_table_budget_exits_3_before_drawing(capsys, monkeypatch):
    """prop22 tabulates r(n) for n <= M + N; N = 1e8, M = 2e8 drew 1.6 GB first."""
    def refuse(*args, **kwargs):
        raise AssertionError("a coefficient sequence was built")

    monkeypatch.setattr(lsi, "random_sequence", refuse)
    code = main(["verify", "--ineq", "prop22", "--N", "1000", "--M", "2e8", "--trials", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("resource guard: prop22 tabulates r(n)")


@pytest.mark.parametrize("argv", [
    ["verify", "--ineq", "eq15", "--X", "1e12"],  # a table of 1/phi(r) for r <= X
    ["verify", "--ineq", "prop21", "--R", "1000000000"],  # the same table up to R
    ["verify", "--ineq", "mvs", "--N", "10", "--Q", "1e9"],  # residue vectors of ~Q^2/2 entries
    ["verify", "--ineq", "eq15", "--X", "2e7"],  # over the table's own budget of 1.25e7
    ["verify", "--ineq", "prop21", "--R", "2e7"],
])
def test_ranges_past_the_budget_exit_3_before_any_work(argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify work started")

    monkeypatch.setattr(cli, "cmd_verify", refuse)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("resource guard: ")


@pytest.mark.parametrize("ineq, option, values", [
    ("prop21", "--R", ["1e9", "1000000000"]),
    ("eq15", "--q", ["1e30", str(10**30)]),
])
def test_one_value_in_either_spelling_gets_one_exit_code(ineq, option, values, capsys):
    """--R and --q read 1e9 as --N does; argparse's int() refused it with exit 2."""
    for value in values:
        code = main(["verify", "--ineq", ineq, option, value])
        captured = capsys.readouterr()
        assert code == 3, value
        assert captured.out == ""
        assert captured.err.startswith("resource guard: "), value


def test_integer_text_is_read_exactly():
    assert cli._integer(str(2**53 + 1)) == 2**53 + 1
    assert cli._integer("1e6") == 10**6


@pytest.mark.parametrize("text, value", [
    ("2.0", 2), ("-3e0", -3), ("1.5e6", 1_500_000), ("1e30", 10**30),
    (f"{2**53 + 1}.0", 2**53 + 1), ("12345678901234567891e1", 123456789012345678910),
])
def test_integral_float_notation_is_read_exactly(text, value):
    assert cli._integer(text) == value
    assert cli._int_list(f"{text},{2**53 + 1},7") == [value, 2**53 + 1, 7]


@pytest.mark.parametrize("argv", [
    ["verify", "--ineq", "bd", "--Q", "10.7"],
    ["verify", "--ineq", "bd", "--N", "200.5"],
    ["verify", "--ineq", "bd", "--M", "1e-3"],
    ["verify", "--ineq", "bd", "--trials", "1.5"],
    ["verify", "--ineq", "bd", "--seed", "0.5"],
    ["verify", "--ineq", "bd", "--Q", "10.0000000000000001"],
    ["verify", "--ineq", "bd", "--Q", "ten"],
    ["scan", "prop32", "--qmax", "2.5"],
    ["constants", "--cutoff", "1000.5"],
])
def test_non_integral_integer_option_is_usage_error(capsys, argv):
    """--Q 10.7 was truncated to 10 and the run went ahead (exit 0)."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == f"usage error: argument {argv[-2]}: not an integer: {argv[-1]!r}\n"


@pytest.mark.parametrize("argv, value", [
    (["scan", "lemma21", "--q", "10.7", "--x", "1e3"], "10.7"),
    (["scan", "exceptional", "--D", "5.9"], "5.9"),
    (["scan", "bt", "--N", "1e4,1.5e4,20000.5"], "20000.5"),
    (["scan", "prop32", "--D", "5", "--N", "17.5"], "17.5"),
    (["verify", "--ineq", "thm12", "--P", "2.5,3"], "2.5"),
])
def test_non_integral_integer_list_is_usage_error(capsys, argv, value):
    """--q 10.7 ran at q = 10, --P 2.5,3 at P = {2, 3} and --D 5.9 at D = 5."""
    option = next(arg for arg, nxt in zip(argv, argv[1:]) if value in nxt)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"usage error: argument {option}: not an integer: {value!r}\n"


@pytest.mark.parametrize("Q, code", [(10**4, 0), (10**4 + 1, 3)])
def test_Q_budget_is_the_square_root_of_the_sieve_budget(Q, code, capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_verify", lambda args: [{"pass": True}])
    assert main(["verify", "--ineq", "bd", "--Q", str(Q)]) == code
    assert capsys.readouterr().err.startswith("resource guard: ") == (code == 3)


def test_negative_seed_is_usage_error(capsys):
    code = main(["verify", "--ineq", "mvs", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "usage error: argument --seed: must be >= 0: '-1'\n"


def test_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out = run_cli(capsys, "--out", str(path), "verify", "--ineq", "bd",
                        "--N", "50", "--Q", "2", "--trials", "2", "--seed", "1")
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("inequality,")


@pytest.mark.parametrize("argv", [
    ["verify", "--ineq", "eq15", "--q", "0"],
    ["scan", "lemma21", "--q", "0"],
    ["verify", "--ineq", "mvs", "--M", "-5"],
    ["verify", "--ineq", "mvs", "--N", "0"],
    ["verify", "--ineq", "bd", "--trials", "0"],
    ["verify", "--ineq", "thm12", "--P", "4"],
    ["verify", "--ineq", "prop21", "--R", "0", "--trials", "1"],
])
def test_bad_input_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_json_is_strict_and_prop21_checks_something(capsys):
    code, out = run_cli(capsys, "--format", "json", "verify", "--ineq", "prop21",
                        "--R", "1", "--trials", "1", "--N", "100", "--Q", "5")
    assert code == 0
    (row,) = json.loads(out, parse_constant=_reject_constant)
    assert math.isfinite(row["rhs"]) and row["pass"] is True


def test_prop21_builds_its_one_over_phi_table_once_per_run(capsys, monkeypatch):
    calls = []
    table = arith.squarefree_inverse_phi

    def counted(n):
        calls.append(n)
        return table(n)

    monkeypatch.setattr(arith, "squarefree_inverse_phi", counted)
    lsi._rough_script_L.cache_clear()
    code, out = run_cli(capsys, "verify", "--ineq", "prop21", "--N", "300", "--Q", "6",
                        "--R", "17", "--trials", "3")
    assert code == 0 and len(out.splitlines()) == 1 + 3
    assert calls == [17]


@pytest.mark.parametrize("out", [
    "missing/x.csv", "",
    pytest.param("/dev/full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                                       reason="no /dev/full")),
])
def test_out_path_that_cannot_be_written_is_usage_error(tmp_path, capsys, out):
    """emit ran outside main's try: FileNotFoundError, IsADirectoryError for a
    directory or ENOSPC on the write escaped as a traceback with exit 1, the code
    of a failed inequality."""
    path = str(tmp_path / out)
    code = main(["--out", path, "verify", "--ineq", "bd", "--N", "50", "--Q", "3",
                 "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: cannot write --out {path!r}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("argv", [
    ["verify", "--ineq", "eq15", "--X"],
    ["verify", "--ineq", "prop22", "--alpha"],
    ["verify", "--ineq", "thm21", "--N", "2000", "--Q", "3", "--slack"],
    ["constants", "--s"],
])
def test_non_finite_float_option_is_usage_error(capsys, argv, value):
    """constants --s nan printed a nan row and exited 1; prop22 --alpha nan
    skipped its N >= Q^2 exp((alpha log log Q)^3) guard, which compared against nan."""
    code = main(argv[:-1] + [f"{argv[-1]}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"usage error: argument {argv[-1]}: "
                            f"not a finite number: {value!r}\n")


@pytest.mark.parametrize("argv", [["verify", "--ineq", "prop22", "--alpha", "one"],
                                  ["constants", "--s", "2,3"]])
def test_float_option_that_is_no_number_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: argument {argv[-2]}: not a number: {argv[-1]!r}\n"


@pytest.mark.parametrize("alpha, code", [("1e300", 2), ("40", 2), ("-1e300", 0)])
def test_prop22_guard_at_an_alpha_that_overflows(capsys, alpha, code):
    """(alpha log log Q)^3 or its exp overflowed a float: OverflowError, a traceback
    with exit 1.  The threshold is inf (usage error) or, for alpha < 0, 0."""
    assert main(["verify", "--ineq", "prop22", "--N", "3000", "--Q", "5", "--trials", "1",
                 "--alpha", alpha]) == code
    assert capsys.readouterr().err.startswith("usage error: prop22 requires N >= ") == (code == 2)


@pytest.mark.parametrize("X, code", [("12500000.5", 0), ("12500000.999", 0), ("12500001", 3)])
def test_eq15_budget_is_checked_against_the_floor_of_X(X, code, capsys, monkeypatch):
    """eq15 tabulates 1/phi(r) for r <= floor(X); --X 12500000.5 exited 3 although
    floor(X) is the budget itself.  No table is built: cmd_verify is replaced."""
    monkeypatch.setattr(cli, "cmd_verify", lambda args: [{"pass": True}])
    assert cli.INVERSE_PHI_BUDGET == 12_500_000
    assert main(["verify", "--ineq", "eq15", "--q", "6", "--X", X]) == code
    assert capsys.readouterr().err.startswith("resource guard: ") == (code == 3)


def test_json_encodes_non_finite_as_csv_text(capsys):
    from types import SimpleNamespace

    from largesieve.cli import emit
    row = {"lhs": math.inf, "rhs": -math.inf, "ratio": math.nan, "pass": False}
    emit([row], list(row), SimpleNamespace(out=None, format="json"))
    rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rows == [{"lhs": "inf", "rhs": "-inf", "ratio": "nan", "pass": False}]
    emit([row], list(row), SimpleNamespace(out=None, format="csv"))
    assert capsys.readouterr().out.split("\n")[1] == "inf,-inf,nan,False"


@pytest.mark.parametrize("argv", [
    ["scan", "bt", "--N", ","],
    ["scan", "prop32", "--D", ","],
    ["scan", "prop32", "--eps", ","],
    ["scan", "exceptional", "--D", ","],
    ["scan", "exceptional", "--D", "2"],  # no real primitive character mod 2
    ["scan", "lemma21", "--q", ","],
    ["scan", "lemma21", "--x", ","],
    ["verify", "--ineq", "thm12", "--Q", "0"],
    ["verify", "--ineq", "thm21", "--N", "2", "--Q", "1"],
    ["verify", "--ineq", "thm21", "--N", "10000", "--Q", "0", "--slack", "2.0001"],
    ["scan", "prop32", "--eps", "0"],
    ["scan", "prop32", "--eps", "0.01"],  # D^(1/eps^3) overflows a float
    ["scan", "exceptional", "--D", "0"],
    ["scan", "exceptional", "--N", "1"],
    ["scan", "bt", "--N", "1e4,x"],
    ["verify", "--ineq", "eq15", "--X", "inf"],
])
def test_nothing_to_check_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400", "nan"])
@pytest.mark.parametrize("argv", [
    ["verify", "--ineq", "bd", "--N"],
    ["verify", "--ineq", "bd", "--M"],
    ["verify", "--ineq", "bd", "--Q"],
    ["verify", "--ineq", "prop21", "--R"],
    ["verify", "--ineq", "eq15", "--q"],
    ["constants", "--cutoff"],
    ["constants", "--T"],
    ["scan", "bt", "--M"],
    ["scan", "lemma21", "--cutoff"],
])
def test_non_finite_integer_option_is_usage_error(capsys, argv, value):
    code = main(argv[:-1] + [f"{argv[-1]}={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == (f"usage error: argument {argv[-1]}: "
                            f"not a finite number: {value!r}\n")


@pytest.mark.parametrize("argv, fault", [
    (["verify", "--ineq", "mvs", "--M", "-1e3"],
     "usage error: argument --M: must be >= 0: '-1e3'"),
    (["verify", "--ineq", "bd", "--N", "-2.5E1"],
     "usage error: argument --N: must be >= 1: '-2.5E1'"),
    (["scan", "bt", "--M", "-1e3"], "usage error: requires M > sqrt(N)"),
])
def test_negative_float_as_its_own_word_reaches_validation(capsys, argv, fault):
    """argparse took -1e3 for an option flag ("expected one argument")."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(fault)


@pytest.mark.parametrize("argv", [
    ["scan", "bt", "--M", "-inf"],
    ["verify", "--ineq", "mvs", "--M", "-inf"],
    ["constants", "--T", "-NaN"],
])
def test_negative_non_finite_as_its_own_word_is_usage_error(capsys, argv):
    """argparse took -inf for an option flag ("expected one argument")."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err == (f"usage error: argument {argv[-2]}: "
                            f"not a finite number: {argv[-1]!r}\n")


def test_prop32_default_truncation_covers_large_conductors(capsys):
    """L1_chiD's default truncation meets T >= D^2 for D = 1009 > 10^3."""
    lo, hi = exceptional.prop32_window(1009, 0.9)
    rep = exceptional.prop32_check(1009, 0.9, int(math.sqrt(lo * hi)), 10)
    assert rep["D"] == 1009 and math.isfinite(rep["L1_logD"])
    assert not rep["conclusion_tested"]
    assert main(["scan", "prop32", "--D", "1009"]) == 2


def _mostly(valid, invalid):
    """valid, with about one draw in ten from invalid."""
    return st.integers(0, 9).flatmap(lambda k: invalid if k == 4 else valid)


def _ints(lo, hi):
    """Integers in [lo, hi], or now and then a value below lo."""
    return _mostly(st.integers(lo, hi), st.integers(lo - 3, lo - 1))


_comma_list = _mostly(
    st.lists(st.one_of(_ints(1, 40), st.sampled_from(["2.5", "1e3", "2.5e3"])),
             min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.just(","))


def _option(name, values, optional=True):
    """["--name=value"], or [] (the default) when optional.  Options whose
    default would make a run slow are never left out."""
    given_ = values.map(lambda v: [f"--{name}={v}"])
    return st.one_of(st.just([]), given_) if optional else given_


_VERIFY = st.tuples(
    st.sampled_from(["mvs", "bd", "thm12", "eq14", "eq15", "eq16", "thm13",
                     "prop21", "prop22", "thm21"]).map(lambda i: ["verify", f"--ineq={i}"]),
    _option("N", _ints(1, 300), optional=False),
    _option("M", _mostly(_ints(0, 40), st.just("1e19"))),  # M + N past int64
    _option("Q", _ints(1, 6), optional=False),
    _option("trials", _ints(1, 2), optional=False),
    _option("q", _ints(1, 12)), _option("X", _ints(1, 100)),
    _option("P", _comma_list), _option("R", _ints(1, 4)),
    _option("slack", st.sampled_from(["1", "2.0001"])),
    st.sampled_from([[], ["--ones"], ["--sabotage"]]))
_SCAN = st.tuples(
    st.sampled_from(["bt", "lemma21", "exceptional", "prop32"]).map(lambda s: ["scan", s]),
    _option("N", st.one_of(_comma_list, st.sampled_from(["100", "3000", "1e4"]))),
    _option("M", _ints(0, 5000)), _option("q", _comma_list),
    _option("x", _comma_list, optional=False),
    _option("cutoff", st.sampled_from(["-1", "10", "1e3", "inf"]), optional=False),
    _option("D", _mostly(_comma_list, st.just("1000003"))),  # past every D range and budget
    _option("eps", st.sampled_from(["0", "0.6", "0.9", "1", ","])),
    _option("qmax", _ints(0, 6)), st.sampled_from([[], ["--f=bump"]]))
_CONSTANTS = st.tuples(
    st.just(["constants"]),
    _option("cutoff", st.sampled_from(["0", "1e3", "5e3", "inf"]), optional=False),
    _option("T", st.sampled_from(["0", "15", "1e4", "inf", "1e30"]), optional=False),
    _option("s", st.sampled_from(["0.5", "1", "2"])))


@given(st.sampled_from([[], ["--format=json"]]),
       st.one_of(_VERIFY, _SCAN, _CONSTANTS))
@settings(max_examples=200, deadline=None)
def test_random_argv_never_raises(fmt, parts):
    argv = fmt + [arg for part in parts for arg in part]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv


@pytest.mark.parametrize("qmax", ["1", "0", "-3"])
def test_prop32_qmax_below_two_is_usage_error(capsys, qmax):
    code = main(["scan", "prop32", "--qmax", qmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")


def test_help_is_the_one_argument_that_exits(capsys):
    """Every bad argument is a usage error that main returns; --help still exits 0."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: largesieve verify")


def _refuse(*args, **kwargs):
    raise AssertionError("work started")


@pytest.mark.parametrize("ones", [[], ["--ones"]])
@pytest.mark.parametrize("ineq", ["eq14", "eq16", "prop21", "thm12"])
def test_M_plus_N_past_int64_is_usage_error_before_any_draw(ineq, ones, capsys, monkeypatch):
    """Their support checks hold n as int64: eq14 at M + N = 2^63 - 1 + 100 wrapped n and
    reported 32 false violations, and eq16 at M = 1e19 ended in an OverflowError traceback."""
    M = 2**63 - 1 - 100
    code, out = run_cli(capsys, "verify", "--ineq", ineq, "--M", str(M), "--N", "100",
                        "--Q", "3", "--trials", "1", *ones)
    (row,) = csv.DictReader(io.StringIO(out))
    assert code == 0 and row["M"] == str(M) and row["pass"] == "True"
    monkeypatch.setattr(cli, "cmd_verify", _refuse)
    for argv_M, N in [(str(M), "101"), ("1e19", "100")]:
        code = main(["verify", "--ineq", ineq, "--M", argv_M, "--N", N, "--Q", "3",
                     "--trials", "1", *ones])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"usage error: {ineq} requires M + N <= 2^63 - 1, ")


def test_eq16_at_Q_1_is_usage_error(capsys):
    """Its one weight log(Q/1) is 0: the left side was 0 and the run passed for any data."""
    code = main(["verify", "--ineq", "eq16", "--Q", "1", "--N", "100", "--ones"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "usage error: eq16 requires Q >= 2; got Q = 1\n"
    assert main(["verify", "--ineq", "eq16", "--Q", "2", "--N", "100", "--ones"]) == 0


@pytest.mark.parametrize("argv, code", [
    (["scan", "exceptional", "--D", "1000003", "--N", "1e4"], 2),  # D > sqrt(N)/log N
    (["scan", "exceptional", "--D", "5,1000003", "--N", "1e4"], 2),
    (["scan", "prop32", "--D", "1000003"], 3),  # L(1, chi_D) needs T >= D^2 > 10^8
])
def test_a_conductor_out_of_range_exits_before_any_character_is_built(argv, code, capsys,
                                                                     monkeypatch):
    """Both scans built every character mod D first: 3.5 s and 270 MB at D = 1000003."""
    monkeypatch.setattr(cli, "real_primitive_characters", _refuse)
    monkeypatch.setattr(exceptional, "real_primitive_characters", _refuse)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith({2: "usage error: ", 3: "resource guard: "}[code])


def _fresh_env(**settings):
    """os.environ without OPENBLAS_NUM_THREADS, with settings added and the package on the path.

    This process imported the package, which set the variable, and numpy, which
    read it; only a new process shows what the package chooses at import.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(pathlib.Path(largesieve.__file__).parents[1])
    return env | settings


@pytest.mark.parametrize("preset, chosen", [(None, "1"), ("", "1"), ("2", "2")])
def test_the_cli_runs_one_blas_thread_unless_told_otherwise(preset, chosen):
    env = _fresh_env() if preset is None else _fresh_env(OPENBLAS_NUM_THREADS=preset)
    code = ("import os, largesieve.cli; print(os.environ['OPENBLAS_NUM_THREADS']); "
            "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '')")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split("\n")
    assert out[0] == chosen
    if chosen == "1" and out[1]:  # no /proc/self/task: the thread count cannot be read
        assert int(out[1]) == 1


@pytest.mark.parametrize("argv", [
    ["--ineq", "bd", "--N", "3000", "--Q", "12"],  # q = 4, 8, 12 through np.matmul
    ["--ineq", "mvs", "--N", "500", "--Q", "20"],
    ["--ineq", "thm12", "--N", "3000", "--Q", "20"],  # reduced_fraction_lhs's np.vdot
])
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    outs = [subprocess.run([sys.executable, "-m", "largesieve.cli", "verify", *argv,
                            "--trials", "3"], env=_fresh_env(OPENBLAS_NUM_THREADS=n),
                           capture_output=True, check=True).stdout for n in ("1", "2")]
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv, code", [
    ["--ineq bd --N 50 --Q 3 --trials 200", 0],
    ["--ineq mvs --N 1000 --Q 30 --ones --sabotage", 1],
])
def test_a_closed_stdout_ends_the_output_without_a_traceback(argv, code):
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "largesieve.cli", "verify", *argv.split()],
                              env=_fresh_env(), stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, b"")

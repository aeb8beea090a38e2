import contextlib
import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from largesieve import cli, exceptional, lsi
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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--ineq", "nope"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("argv", [
    ["verify", "--ineq", "eq15", "--X", "1e12"],  # a table of 1/phi(r) for r <= X
    ["verify", "--ineq", "prop21", "--R", "1000000000"],  # the same table up to R
    ["verify", "--ineq", "mvs", "--N", "10", "--Q", "1e9"],  # residue vectors of ~Q^2/2 entries
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
    assert captured.err == "usage error: seed must be >= 0\n"


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
    with pytest.raises(SystemExit) as exc:
        main(argv[:-1] + [f"{argv[-1]}={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err and "not a finite number" in captured.err


@pytest.mark.parametrize("argv, fault", [
    (["verify", "--ineq", "mvs", "--M", "-1e3"], "usage error: M must be >= 0"),
    (["verify", "--ineq", "bd", "--N", "-2.5E1"], "usage error: N must be >= 1"),
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
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert f"argument {argv[-2]}: not a finite number" in captured.err


def test_prop32_default_truncation_covers_large_conductors(capsys):
    """L1_chiD's default truncation meets T >= D^2 for D = 1009 > 10^3."""
    lo, hi = exceptional.prop32_window(1009, 0.9)
    rep = exceptional.prop32_check(1009, 0.9, int(math.sqrt(lo * hi)), 10)
    assert rep.D == 1009 and math.isfinite(rep.L1_logD)
    assert not rep.conclusion_tested
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
    _option("N", _ints(1, 300), optional=False), _option("M", _ints(0, 40)),
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
    _option("D", _comma_list), _option("eps", st.sampled_from(["0", "0.6", "0.9", "1", ","])),
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
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the option
            code = exc.code
    assert code in (0, 1, 2, 3), argv


@pytest.mark.parametrize("qmax", ["1", "0", "-3"])
def test_prop32_qmax_below_two_is_usage_error(capsys, qmax):
    code = main(["scan", "prop32", "--qmax", qmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")

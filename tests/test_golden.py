"""Golden corpus: fixed CLI invocations against recorded output.

Each file tests/golden/<name>.txt holds ``exit <code>`` on its first line and
the recorded stdout after it.  Headers and row counts must match exactly;
every other cell matches as text or, where both sides are numbers, within
relative GOLDEN_REL_TOL.  Cells such as ``extra_params`` that pack
``key=value`` pairs are compared pair by pair.

Re-record (only for an intended change of output) with
    PYTHONPATH=src python tests/test_golden.py [NAME...]
which rewrites the files of the named cases, or of every case when no name
is given.  An unknown name rewrites nothing and exits nonzero.
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from largesieve.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_REL_TOL = 1e-12

CASES = {
    "verify_mvs": "verify --ineq mvs --N 300 --Q 8 --trials 2 --seed 3",
    "verify_bd": "verify --ineq bd --N 300 --M 17 --Q 8 --trials 2 --seed 1",
    "verify_thm12": "verify --ineq thm12 --N 200 --Q 10 --P 2,3 --trials 2",
    # moduli 2^k, q = 2 (mod 4), 25 and 49
    "verify_thm12_even": "verify --ineq thm12 --N 2e4 --Q 60 --P 3 --trials 1",
    "verify_eq14": "verify --ineq eq14 --N 300 --Q 6 --trials 2",
    # Q >= 12, so eq14's weight sees (r, q) = 1 at pairs with E(q) != 0
    "verify_eq14_Q30": "verify --ineq eq14 --N 3000 --Q 30 --trials 1",
    "verify_eq15": "verify --ineq eq15 --q 6 --X 100",
    "verify_eq16": "verify --ineq eq16 --N 300 --Q 6 --trials 2",
    "verify_thm13": "verify --ineq thm13 --N 200 --Q 6 --trials 2",
    # r with three primes (30, 42) and with square factors; Q = 2 (mod 4)
    "verify_thm13_Q62": "verify --ineq thm13 --N 2000 --Q 62 --trials 2",
    "verify_prop21": "verify --ineq prop21 --N 200 --Q 5 --R 3 --trials 2",
    "verify_prop22": "verify --ineq prop22 --N 2000 --Q 4 --trials 2",
    "verify_thm21": "verify --ineq thm21 --N 2000 --Q 3 --slack 2",
    "verify_bd_ones": "verify --ineq bd --ones --N 400 --Q 10",
    "verify_eq16_ones": "verify --ineq eq16 --ones --N 400 --M 100 --Q 7",
    "verify_mvs_many_factors": "verify --ineq mvs --N 4e4 --Q 1200 --trials 1 --seed 3",
    "verify_mvs_sabotage": "verify --ineq mvs --ones --N 300 --Q 8 --sabotage",
    "verify_eq15_sabotage": "verify --ineq eq15 --q 12 --X 50 --sabotage",
    "verify_bd_json": "--format json verify --ineq bd --N 100 --Q 4 --trials 2",
    "scan_bt": "scan bt --N 1e4,2e4",
    "scan_exceptional": "scan exceptional --D 5,8 --N 1e4",
    "scan_exceptional_bump": "scan exceptional --D 5 --N 1e4 --f bump",
    "scan_prop32": "scan prop32 --D 5,8 --eps 0.9,0.8 --qmax 5",
    "scan_lemma21": "scan lemma21 --q 1,3 --x 1e4 --cutoff 1e4",
    "constants": "constants --cutoff 1e4 --T 1e5",
    # L(1, chi_4) over 57 full chunks of 2^20 terms and a partial one
    "constants_T6e7": "constants --cutoff 1e4 --T 6e7",
}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _same_atom(got: str, want: str) -> bool:
    g, w = _number(got), _number(want)
    if g is None or w is None or not (math.isfinite(g) and math.isfinite(w)):
        return got == want
    return abs(g - w) <= GOLDEN_REL_TOL * abs(w)


def _same_cell(got: str, want: str) -> bool:
    gs, ws = re.split(r"([;=])", got), re.split(r"([;=])", want)
    return len(gs) == len(ws) and all(map(_same_atom, gs, ws))


def _same_json(got, want) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and list(got) == list(want)
                and all(_same_json(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_same_json, got, want)))
    if isinstance(want, str):
        return isinstance(got, str) and _same_cell(got, want)
    if isinstance(want, bool) or want is None:
        return got is want
    return _same_atom(repr(got), repr(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, capsys):
    head, _, want = (GOLDEN_DIR / f"{name}.txt").read_text().partition("\n")
    code = main(CASES[name].split())
    got = capsys.readouterr().out
    assert f"exit {code}" == head
    if want.startswith("["):
        assert _same_json(json.loads(got), json.loads(want))
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[:1] == want_lines[:1]
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines[1:], want_lines[1:]):
        gc, wc = g.split(","), w.split(",")
        assert len(gc) == len(wc), (g, w)
        assert all(map(_same_cell, gc, wc)), (g, w)


def record(names) -> None:
    """Rewrite the golden files of the named cases, all of them when names is empty."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden case: {', '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names or CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(CASES[name].split())
        (GOLDEN_DIR / f"{name}.txt").write_text(f"exit {code}\n{buf.getvalue()}")


if __name__ == "__main__":
    record(sys.argv[1:])

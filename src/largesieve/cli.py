"""Command-line front end: verification suites, scans, constant computations.

Reports stream as CSV (default) or JSON; identical configurations produce
byte-identical output.  Exit codes: 0 all tested rows pass, 1 at least one
inequality failure, 2 usage error or nothing tested, 3 resource guard.
"""

from __future__ import annotations

import argparse
import contextlib
import decimal
import json
import math
import os
import re
import sys

from largesieve import asymptotics, exceptional, lsi
from largesieve.arith import INVERSE_PHI_BUDGET, SIEVE_LIMIT_BUDGET, factorize
from largesieve.characters import chi4, real_primitive_characters
from largesieve.errors import DomainError, ResourceLimitError

INEQUALITIES = ["mvs", "bd", "thm12", "eq14", "eq15", "eq16", "thm13",
                "prop21", "prop22", "thm21"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _fold_extras(d: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in d.items())


def report_row(rep: lsi.InequalityReport, sabotage: bool = False) -> dict:
    if sabotage:
        rep = lsi.make_report(rep.inequality_id, rep.parameters, rep.lhs, rep.rhs * 0.5,
                              rep.direction, rep.extras)
    params = dict(rep.parameters)
    extra = {k: v for k, v in params.items()
             if k not in ("M", "N", "Q", "seed")}
    extra.update(rep.extras)
    return {
        "inequality": rep.inequality_id,
        "M": params.get("M", ""),
        "N": params.get("N", ""),
        "Q": params.get("Q", ""),
        "extra_params": _fold_extras(extra),
        "seed": params.get("seed", ""),
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "ratio": rep.ratio,
        "pass": rep.passed,
    }


def _json_value(x):
    """Non-finite floats as the text CSV prints, so the output stays valid JSON."""
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


def emit(rows: list[dict], columns: list[str], args) -> None:
    """Write the rows to --out or stdout; an --out that cannot be written is a usage error.

    A reader that closes stdout early (`| head -1`) ends the output, not the
    run: the rest is dropped and the exit code is still the inequality's.
    """
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as out:
            if args.format == "json":
                rows = [{k: _json_value(v) for k, v in row.items()} for row in rows]
                out.write(json.dumps(rows, default=str, indent=2, allow_nan=False))
                out.write("\n")
            else:
                out.write(",".join(columns) + "\n")
                for row in rows:
                    out.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")
            out.flush()
    except OSError as exc:
        if args.out:
            raise DomainError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
        if not isinstance(exc, BrokenPipeError):
            raise
        # Python's recipe: fd 1 goes to os.devnull, so that the flush of what is
        # left in sys.stdout's buffer at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _finite(text: str, wanted: str = "a number") -> float:
    """text read as a finite float: a float option or list entry."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not {wanted}: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _integer(text: str) -> int:
    """text read exactly as an integer: integer text, or float notation such
    as 1e6 or 2.0 whose value is finite and integral."""
    try:
        return int(text)
    except ValueError:
        _finite(text, "an integer")
    value = decimal.Decimal(text)
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(value)


def _at_least(lo: int):
    """The argparse type of an integer option whose values are >= lo."""
    def read(text: str) -> int:
        value = _integer(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}: {text!r}")
        return value
    return read


def _comma_list(read):
    """The argparse type of a comma list, each entry read by read; empty entries are skipped."""
    def read_list(text: str) -> list:
        values = [read(part) for part in text.split(",") if part]
        if not values:
            raise argparse.ArgumentTypeError("must list at least one value")
        return values
    return read_list


_int_list = _comma_list(_integer)


def validate_args(args) -> None:
    """Refuse, before any work, a verify run that the parser's bounds let through.

    N above SIEVE_LIMIT_BUDGET, eq15's X or prop21's R above INVERSE_PHI_BUDGET,
    Q above the square root of SIEVE_LIMIT_BUDGET (the residue vectors of the
    moduli q <= Q hold about Q^2/2 entries), or for prop22, which tabulates
    r(n) for n <= M + N, M + N above SIEVE_LIMIT_BUDGET, is a
    ResourceLimitError (exit 3).
    """
    if args.command != "verify":
        return
    budget = {"N": SIEVE_LIMIT_BUDGET, "X": INVERSE_PHI_BUDGET, "R": INVERSE_PHI_BUDGET,
              "Q": math.isqrt(SIEVE_LIMIT_BUDGET)}
    for name in {"eq15": ("X",), "prop21": ("N", "R", "Q")}.get(args.ineq, ("N", "Q")):
        if math.floor(getattr(args, name)) > budget[name]:  # eq15 tabulates floor(X)
            raise ResourceLimitError(
                f"{name} = {getattr(args, name)} exceeds budget {budget[name]}")
    if args.ineq == "prop22" and args.M + args.N > SIEVE_LIMIT_BUDGET:
        raise ResourceLimitError(f"prop22 tabulates r(n) for n <= M + N = {args.M + args.N}, "
                                 f"which exceeds budget {SIEVE_LIMIT_BUDGET}")
    if args.ineq in ("eq14", "eq16", "prop21", "thm12") and args.M + args.N > 2**63 - 1:
        raise DomainError(f"{args.ineq} requires M + N <= 2^63 - 1, as its support check "
                          f"holds n as int64; got M + N = {args.M + args.N}")
    if args.ineq == "thm21":
        lsi.check_thm21_range(args.N, args.Q)
    if args.ineq == "thm12":
        for p in args.P:
            if p < 2 or factorize(p).factors != ((p, 1),):
                raise DomainError(f"P must list primes; got {p}")


# ---------------------------------------------------------------------
# verify


def _verify_sequences(args, restriction=None):
    """Yield one coefficient sequence per trial (or the all-ones anchor)."""
    if args.ones:
        seq = lsi.CoefficientSequence.ones(args.N, args.M)
        if restriction is not None:
            restriction.zero_forbidden(seq.values, seq.M)
        yield seq
        return
    for trial in range(args.trials):
        yield lsi.random_sequence(args.N, args.M, seed=args.seed, trial=trial,
                                  restriction=restriction)


def cmd_verify(args) -> list[dict]:
    Q, rough = args.Q, lsi.SupportRestriction.rough
    if args.ineq == "eq15":
        reports = [lsi.check_eq15(args.q, args.X)]
    elif args.ineq == "thm21":
        reports = [lsi.lsi_thm21(exceptional.thm21_coefficients(args.N), Q,
                                 condition_slack=args.slack)]
    else:
        P = frozenset(args.P)
        report, support = {  # inequality -> (report on a sequence and Q, support restriction)
            "mvs": (lsi.lsi_mvs, None), "bd": (lsi.lsi_bd, None), "thm13": (lsi.lsi_thm13, None),
            "prop22": (lambda a, Q: lsi.lsi_prop22(a, Q, alpha=args.alpha), None),
            "eq14": (lsi.lsi_eq14, rough(Q)), "eq16": (lsi.lsi_eq16, rough(Q)),
            "prop21": (lambda a, Q: lsi.lsi_prop21(a, Q, args.R), rough(args.R)),
            "thm12": (lambda a, Q: lsi.lsi_thm12(
                a, [q for q in range(1, Q + 1) if all(q % p for p in P)], P),
                lsi.SupportRestriction.prime_free(P)),
        }[args.ineq]
        reports = [report(seq, Q) for seq in _verify_sequences(args, support)]
    return [report_row(rep, sabotage=args.sabotage) for rep in reports]


# ---------------------------------------------------------------------
# constants


def cmd_constants(args) -> list[dict]:
    L = exceptional.L1_chiD(chi4(), args.T)  # first: it refuses an over-budget T at once
    rows = []
    c = asymptotics.constant_c(args.cutoff)
    rows.append({"item": "constant_c", "value": c.value, "reference": "",
                 "discrepancy": "", "tolerance": c.tail_bound, "pass": True})
    disc = abs(L.value - math.pi / 4)
    rows.append({"item": "L1_chi4_vs_pi_over_4", "value": L.value,
                 "reference": math.pi / 4, "discrepancy": disc,
                 "tolerance": L.tail_bound, "pass": disc <= L.tail_bound})
    z = asymptotics.z_series_check(args.s, min(args.cutoff, 10**6))
    rows.append({"item": "z_series_consistency", "value": z.direct,
                 "reference": z.factored, "discrepancy": z.max_discrepancy,
                 "tolerance": z.tolerance, "pass": z.passed})
    return rows


# ---------------------------------------------------------------------
# scans


def scan_bt(args) -> list[dict]:
    return [lsi.brun_titchmarsh(N if args.M is None else args.M, N) for N in args.N or [10**4]]


def scan_lemma21(args) -> list[dict]:
    points, fitted = asymptotics.lemma21_scan(args.q, args.x, cutoff=args.cutoff)
    rows = [{"kind": "point", **p, "pass": True} for p in points]
    rows.append({"kind": "fitted_C", "q": "", "x": "", "S_q": "", "main_term": "",
                 "deviation": "", "structured_error": "", "ratio": fitted,
                 "pass": fitted <= 10.0})
    return rows


def scan_exceptional(args) -> list[dict]:
    f = exceptional.smooth_bump_function() if args.f == "bump" \
        else exceptional.indicator_function()
    Ns = args.N or [10**4]
    exceptional.sieve_ranges(args.D, Ns)  # before any character group is built
    chars = [(D, idx, chi) for D in args.D
             for idx, chi in enumerate(real_primitive_characters(D))]
    setups = exceptional.make_setups([chi for _, _, chi in chars], Ns, f)
    rows = []
    for (D, idx, _), setup in zip([c for c in chars for _ in Ns], setups):
        reports = [(exceptional.lemma31_report(setup), "fitted_kappa")]
        if f.kind == "indicator":
            reports.append((exceptional.prop31_report(setup), "C0"))
        for rep, constant in reports:
            rows.append({"report": rep.inequality_id, "D": D, "char_index": idx,
                         "N": setup.N, "Q": setup.Q_real, "f": f.kind, "lhs": rep.lhs,
                         "fitted_constant": rep.extras[constant],
                         "L1": rep.extras["L1"], "pass": rep.passed})
    return rows


def scan_prop32(args) -> list[dict]:
    rows = []
    for D in args.D:
        for eps in args.eps:
            lo, hi = exceptional.prop32_window(D, eps)
            for N in args.N or [int(math.sqrt(lo * hi))]:  # by default the window's geometric mean
                rows.append(exceptional.prop32_check(D, eps, N, args.qmax))
    if not any(row["conclusion_tested"] for row in rows):
        raise DomainError("no row meets the hypothesis with a modulus q >= 2 to scan")
    return rows


# ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise DomainError, which main returns as a
    usage error (exit 2), and that reads a word such as -1e3 or -inf as a value.

    argparse takes a word that starts with "-" for an option flag unless its
    negative-number pattern matches it.  That pattern misses -inf and -nan,
    and before Python 3.13 also -1e3, so "--M -1e3" would fail with
    "expected one argument" instead of reaching the check that M >= 0.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="largesieve",
        description="Verify large sieve inequalities and related asymptotics.")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    v = sub.add_parser("verify", help="run one inequality over a trial grid")
    v.add_argument("--ineq", required=True, choices=INEQUALITIES)
    v.add_argument("--N", type=_at_least(1), default=200)
    v.add_argument("--M", type=_at_least(0), default=0)
    v.add_argument("--Q", type=_at_least(1), default=10)
    v.add_argument("--trials", type=_at_least(1), default=20)
    v.add_argument("--seed", type=_at_least(0), default=0)
    v.add_argument("--q", type=_at_least(1), default=1, help="modulus for eq15")
    v.add_argument("--X", type=_finite, default=100.0, help="range for eq15")
    v.add_argument("--P", type=_int_list, default=[2, 3], help="excluded primes for thm12")
    v.add_argument("--R", type=_at_least(1), default=5, help="coprimality range for prop21")
    v.add_argument("--alpha", type=_finite, default=1.0, help="prop22 threshold constant")
    v.add_argument("--slack", type=_finite, default=1.0,
                   help="thm21 coefficient-condition slack factor")
    v.add_argument("--ones", action="store_true",
                   help="use the all-ones sequence instead of random trials")
    v.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)

    c = sub.add_parser("constants", help="Euler-product constant and L-value checks")
    c.add_argument("--cutoff", type=_at_least(10**3), default=10**6)
    c.add_argument("--T", type=_integer, default=10**6,
                   help="truncation for L(1, chi_4)")
    c.add_argument("--s", type=_finite, default=2.0, help="series comparison point")

    s = sub.add_parser("scan", help="grid scans with fitted constants")
    s.add_argument("name", choices=["bt", "lemma21", "exceptional", "prop32"])
    s.add_argument("--N", type=_int_list, default=None, help="comma list")
    s.add_argument("--M", type=_integer, default=None)
    s.add_argument("--q", type=_comma_list(_at_least(1)), default=[1, 3, 21, 105],
                   help="comma list (lemma21)")
    s.add_argument("--x", type=_comma_list(_finite), default=[1e4, 1e6],
                   help="comma list (lemma21)")
    s.add_argument("--cutoff", type=_integer, default=10**6)
    s.add_argument("--D", type=_comma_list(_at_least(1)), default=[5],
                   help="comma list of conductors")
    s.add_argument("--f", choices=["indicator", "bump"], default="indicator")
    s.add_argument("--eps", type=_comma_list(_finite), default=[0.9], help="comma list (prop32)")
    s.add_argument("--qmax", type=_at_least(2), default=10)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        validate_args(args)
        handler = {"verify": cmd_verify, "constants": cmd_constants, "bt": scan_bt,
                   "lemma21": scan_lemma21, "exceptional": scan_exceptional,
                   "prop32": scan_prop32}[getattr(args, "name", args.command)]  # scan <name>
        rows = handler(args)
        if not rows:
            raise DomainError("the arguments select nothing to check")
        emit(rows, list(rows[0]), args)
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for row in rows if row.get("pass") is False)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

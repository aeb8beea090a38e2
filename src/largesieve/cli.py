"""Command-line front end: verification suites, scans, constant computations.

Reports stream as CSV (default) or JSON; identical configurations produce
byte-identical output.  Exit codes: 0 all tested rows pass, 1 at least one
inequality failure, 2 usage error or nothing tested, 3 resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from largesieve import asymptotics, exceptional, lsi
from largesieve.arith import SIEVE_LIMIT_BUDGET, factorize
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
    parts = []
    for k in d:
        v = d[k]
        if isinstance(v, (list, tuple)):
            parts.append(f"{k}_size={len(v)}")
        elif isinstance(v, dict):
            continue
        else:
            parts.append(f"{k}={_fmt(v)}")
    return ";".join(parts)


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
    out = sys.stdout
    close = False
    if args.out:
        out = open(args.out, "w")
        close = True
    try:
        if args.format == "json":
            rows = [{k: _json_value(v) for k, v in row.items()} for row in rows]
            out.write(json.dumps(rows, default=str, indent=2, allow_nan=False))
            out.write("\n")
        else:
            out.write(",".join(columns) + "\n")
            for row in rows:
                out.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")
    finally:
        if close:
            out.close()


def _float_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError:
        values = [math.nan]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"not a comma list of finite numbers: {text!r}")
    return values


def _int_list(text: str) -> list[int]:
    return [int(x) for x in _float_list(text)]


def _integer(text: str) -> int:
    """An integer option, read exactly, or as a finite float such as 1e6."""
    try:
        return int(text)
    except ValueError:
        value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return int(value)


def validate_args(args) -> None:
    """Reject inputs that admit no verdict, as a usage error (exit 2).

    A verify run whose N, eq15 range X or prop21 range R exceeds
    SIEVE_LIMIT_BUDGET, or whose Q exceeds its square root (the residue vectors
    of the moduli q <= Q hold about Q^2/2 entries), raises ResourceLimitError
    (exit 3) here, before any work.
    """
    if args.command == "verify":
        if args.N < 1:
            raise DomainError("N must be >= 1")
        budget = {"N": SIEVE_LIMIT_BUDGET, "X": SIEVE_LIMIT_BUDGET, "R": SIEVE_LIMIT_BUDGET,
                  "Q": math.isqrt(SIEVE_LIMIT_BUDGET)}
        for name in {"eq15": ("X",), "prop21": ("N", "R", "Q")}.get(args.ineq, ("N", "Q")):
            if math.inf > getattr(args, name) > budget[name]:
                raise ResourceLimitError(
                    f"{name} = {getattr(args, name)} exceeds budget {budget[name]}")
        if args.seed < 0:
            raise DomainError("seed must be >= 0")
        if args.M < 0:
            raise DomainError("M must be >= 0")
        if args.trials < 1:
            raise DomainError("trials must be >= 1")
        if args.ineq == "eq15" and args.q < 1:
            raise DomainError("q must be >= 1")
        if args.ineq != "eq15" and args.Q < 1:
            raise DomainError("Q must be >= 1")
        if args.ineq == "thm21":
            lsi.check_thm21_range(args.N, args.Q)
        if args.ineq == "thm12":
            for p in _int_list(args.P):
                if p < 2 or factorize(p).factors != ((p, 1),):
                    raise DomainError(f"P must list primes; got {p}")
        if args.ineq == "prop21" and args.R < 1:
            raise DomainError("R must be >= 1")
    elif args.command == "scan":
        for name in ("N", "q", "x", "D", "eps"):
            text = getattr(args, name)
            if text is not None and not _float_list(text):
                raise DomainError(f"--{name} must list at least one value")
        for name in ("q", "D"):
            if any(v < 1 for v in _int_list(getattr(args, name))):
                raise DomainError(f"every {name} must be >= 1")
        if args.name == "prop32" and args.qmax < 2:
            raise DomainError("qmax must be >= 2: no modulus below 2 is scanned")


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
    ineq = args.ineq
    reports: list[lsi.InequalityReport] = []
    if ineq == "eq15":
        reports.append(lsi.check_eq15(args.q, args.X))
    elif ineq == "thm21":
        reports.append(lsi.lsi_thm21(exceptional.thm21_coefficients(args.N), args.Q,
                                     condition_slack=args.slack))
    elif ineq in ("mvs", "bd", "thm13"):
        fn = {"mvs": lsi.lsi_mvs, "bd": lsi.lsi_bd, "thm13": lsi.lsi_thm13}[ineq]
        for seq in _verify_sequences(args):
            reports.append(fn(seq, args.Q))
    elif ineq in ("eq14", "eq16"):
        fn = lsi.lsi_eq14 if ineq == "eq14" else lsi.lsi_eq16
        restriction = lsi.SupportRestriction.rough(args.Q)
        for seq in _verify_sequences(args, restriction):
            reports.append(fn(seq, args.Q))
    elif ineq == "thm12":
        P = frozenset(_int_list(args.P))
        moduli = [q for q in range(1, args.Q + 1) if all(q % p for p in P)]
        restriction = lsi.SupportRestriction.prime_free(P)
        for seq in _verify_sequences(args, restriction):
            reports.append(lsi.lsi_thm12(seq, moduli, P))
    elif ineq == "prop21":
        restriction = lsi.SupportRestriction.rough(args.R)
        for seq in _verify_sequences(args, restriction):
            reports.append(lsi.lsi_prop21(seq, args.Q, args.R))
    elif ineq == "prop22":
        for seq in _verify_sequences(args):
            reports.append(lsi.lsi_prop22(seq, args.Q, alpha=args.alpha))
    return [report_row(rep, sabotage=args.sabotage) for rep in reports]


# ---------------------------------------------------------------------
# constants


def cmd_constants(args) -> list[dict]:
    if args.cutoff < 10**3:
        raise DomainError("cutoff must be >= 10^3")
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
    rows = []
    for N in _int_list(args.N or "1e4"):
        M = args.M if args.M is not None else N
        bt = lsi.brun_titchmarsh(M, N)
        rows.append({"M": bt.M, "N": bt.N, "Q": bt.Q, "Q_real": bt.Q_real,
                     "prime_count": bt.prime_count, "bound": bt.bound,
                     "asymptote": bt.asymptote,
                     "ratio_to_asymptote": bt.ratio_to_asymptote,
                     "pass": bt.passed})
    return rows


def scan_lemma21(args) -> list[dict]:
    qs = _int_list(args.q)
    xs = _float_list(args.x)
    points, fitted = asymptotics.lemma21_scan(qs, xs, cutoff=args.cutoff)
    rows = [{"kind": "point", **p, "pass": True} for p in points]
    rows.append({"kind": "fitted_C", "q": "", "x": "", "S_q": "", "main_term": "",
                 "deviation": "", "structured_error": "", "ratio": fitted,
                 "pass": fitted <= 10.0})
    return rows


def scan_exceptional(args) -> list[dict]:
    f = exceptional.smooth_bump_function() if args.f == "bump" \
        else exceptional.indicator_function()
    chars = [(D, idx, chi) for D in _int_list(args.D)
             for idx, chi in enumerate(real_primitive_characters(D))]
    Ns = _int_list(args.N or "1e4")
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
    for D in _int_list(args.D):
        for eps in _float_list(args.eps):
            lo, hi = exceptional.prop32_window(D, eps)
            N = _int_list(args.N)[0] if args.N else int(math.sqrt(lo * hi))
            if not lo < N < hi:
                N = max(int(lo) + 1, min(int(hi) - 1, N))
            rep = exceptional.prop32_check(D, eps, N, args.qmax)
            rows.append({"D": rep.D, "eps": rep.eps, "N": rep.N,
                         "effective_q_max": rep.effective_q_max,
                         "window_lo": rep.window[0], "window_hi": rep.window[1],
                         "L1_logD": rep.L1_logD, "threshold": rep.threshold,
                         "hypothesis_status": ("satisfied" if rep.hypothesis_satisfied
                                               else "not satisfied"),
                         "max_abs_sum": rep.max_abs_sum, "bound": rep.bound,
                         "conclusion_tested": rep.conclusion_tested,
                         "pass": rep.conclusion_holds if rep.conclusion_tested else ""})
    if not any(row["conclusion_tested"] for row in rows):
        raise DomainError("no row meets the hypothesis with a modulus q >= 2 to scan")
    return rows


# ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a word such as -1e3 or -inf as a value.

    argparse takes a word that starts with "-" for an option flag unless its
    negative-number pattern matches it.  That pattern misses -inf and -nan,
    and before Python 3.13 also -1e3, so "--M -1e3" would fail with
    "expected one argument" instead of reaching the check that M >= 0.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="largesieve",
        description="Verify large sieve inequalities and related asymptotics.")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    v = sub.add_parser("verify", help="run one inequality over a trial grid")
    v.add_argument("--ineq", required=True, choices=INEQUALITIES)
    v.add_argument("--N", type=_integer, default=200)
    v.add_argument("--M", type=_integer, default=0)
    v.add_argument("--Q", type=_integer, default=10)
    v.add_argument("--trials", type=int, default=20)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--q", type=_integer, default=1, help="modulus for eq15")
    v.add_argument("--X", type=float, default=100.0, help="range for eq15")
    v.add_argument("--P", default="2,3", help="excluded primes for thm12")
    v.add_argument("--R", type=_integer, default=5, help="coprimality range for prop21")
    v.add_argument("--alpha", type=float, default=1.0, help="prop22 threshold constant")
    v.add_argument("--slack", type=float, default=1.0,
                   help="thm21 coefficient-condition slack factor")
    v.add_argument("--ones", action="store_true",
                   help="use the all-ones sequence instead of random trials")
    v.add_argument("--sabotage", action="store_true", help=argparse.SUPPRESS)

    c = sub.add_parser("constants", help="Euler-product constant and L-value checks")
    c.add_argument("--cutoff", type=_integer, default=10**6)
    c.add_argument("--T", type=_integer, default=10**6,
                   help="truncation for L(1, chi_4)")
    c.add_argument("--s", type=float, default=2.0, help="series comparison point")

    s = sub.add_parser("scan", help="grid scans with fitted constants")
    s.add_argument("name", choices=["bt", "lemma21", "exceptional", "prop32"])
    s.add_argument("--N", default=None, help="comma list")
    s.add_argument("--M", type=_integer, default=None)
    s.add_argument("--q", default="1,3,21,105", help="comma list (lemma21)")
    s.add_argument("--x", default="1e4,1e6", help="comma list (lemma21)")
    s.add_argument("--cutoff", type=_integer, default=10**6)
    s.add_argument("--D", default="5", help="comma list of conductors")
    s.add_argument("--f", choices=["indicator", "bump"], default="indicator")
    s.add_argument("--eps", default="0.9", help="comma list (prop32)")
    s.add_argument("--qmax", type=int, default=10)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        validate_args(args)
        if args.command == "verify":
            rows = cmd_verify(args)
        elif args.command == "constants":
            rows = cmd_constants(args)
        else:
            handler = {"bt": scan_bt, "lemma21": scan_lemma21,
                       "exceptional": scan_exceptional,
                       "prop32": scan_prop32}[args.name]
            rows = handler(args)
        if not rows:
            raise DomainError("the arguments select nothing to check")
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    emit(rows, list(rows[0]), args)
    failed = sum(1 for row in rows if row.get("pass") is False)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

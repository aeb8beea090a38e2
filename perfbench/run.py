#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the largesieve command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each workload runs as fresh ``largesieve`` processes (through child.py), one
after another, for about S seconds and at least three times, so every run
pays the interpreter, numpy and package imports, the group() memo and the
shared prime table, as a user of the CLI does.  Nothing is warmed across
runs and no thread count is overridden: the program gets its default thread
use, BLAS threads included.

The seed picks one of INPUT_SETS recorded input sets (seed mod INPUT_SETS);
the program sees only the generated argv.  Every process is checked: exit
code 0, no traceback, valid CSV with the reference's header and row count,
every ``pass`` True, every number within relative REL_TOL of the reference
output recorded for that input set (reference.json), and stdout identical
byte for byte across the runs of one seed.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported: medians
over the runs of wall_s (from ``import largesieve.cli`` returning to output
flushed and exit code known, summed over a workload's processes), cpu_s and
peak_rss_mb (from os.wait4 on each process), setup_s (process start to
``import largesieve.cli`` returned, per process), and error_rate.  With
--trace 1 each run is made untraced and then traced (tracer.py), and the
per-layer metrics of BENCHMARK.json are reported as medians over the traced
runs, with the tracing overhead.  The last line of stdout is one JSON object.
Every run also writes its samples and provenance to perfbench/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

INPUT_SETS = 16
REL_TOL = 1e-12
MIN_RUNS = 3
MAX_RUN_SECONDS = 120.0  # stop starting runs after this, whatever --seconds says
PROCESS_TIMEOUT_S = 150.0

# Primes = 3 (mod 4) above 1000: excluding one of them from S_q removes a
# share of about 2/p of the enumerated products, so every input set of the
# series workload costs the same while its outputs differ.
SERIES_PRIMES = [p for p in range(1003, 2000, 4)
                 if all(p % d for d in range(3, int(p**0.5) + 1, 2))]


def workload_argvs(name: str, seed: int) -> list[list[str]]:
    """The CLI invocations of one run of a workload, for a seed."""
    k = seed % INPUT_SETS
    if name == "dense_bd":
        return [["verify", "--ineq", "bd", "--N", "1e6", "--Q", "150",
                 "--trials", "1", "--seed", str(k)]]
    if name == "sparse_bt":
        return [["scan", "bt", "--N", "1.5e6", "--M", str(1_000_000 + 9_973 * k)]]
    if name == "many_moduli":
        return [["verify", "--ineq", "mvs", "--N", "4e4", "--Q", "800",
                 "--trials", "1", "--seed", str(k)]]
    if name == "series":
        qs = [base * p for base, p in zip((1, 3, 21, 105), SERIES_PRIMES[4 * k: 4 * k + 4])]
        return [["scan", "lemma21", "--q", ",".join(map(str, qs)), "--x", "3e6"],
                ["constants", "--cutoff", "3e6", "--T", "6e7"]]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense_bd", "sparse_bt", "many_moduli", "series")

# Layers each workload must call, checked on every traced run.
_CHARACTER_LAYERS = ["characters.group", "characters.CharacterGroup.characters",
                     "characters.is_primitive", "characters.CharacterGroup.value_matrix"]
_COMMON_LAYERS = ["arith.sieve_primes", "_kernels.prime_mask", "arith.factorize",
                  "cli.main", "cli.emit"]
EXERCISED = {
    "dense_bd": ["lsi.lsi_bd", "lsi.primitive_char_sums", "lsi.residue_sums",
                 *_CHARACTER_LAYERS, *_COMMON_LAYERS],
    "sparse_bt": ["lsi.brun_titchmarsh", "lsi.lsi_eq16", "lsi.primitive_char_sums",
                  "lsi.residue_sums", *_CHARACTER_LAYERS, *_COMMON_LAYERS],
    "many_moduli": ["lsi.lsi_mvs", "lsi.primitive_char_sums", "lsi.residue_sums",
                    *_CHARACTER_LAYERS, *_COMMON_LAYERS],
    "series": ["asymptotics.lemma21_scan", "asymptotics.S_q", "asymptotics.constant_c",
               "asymptotics.z_series_check", "_kernels.nu_dfs", "exceptional.L1_chiD",
               *_COMMON_LAYERS],
}

WAIT_NOTE = ("no per-layer wait time is reported: the program has no queues or "
             "threads of its own, so no layer waits for another")

PROVENANCE_CODE = """
import json, platform, numpy, largesieve, largesieve.cli
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (AttributeError, KeyError, TypeError):
    blas = "unknown"
print(json.dumps({"largesieve": largesieve.__version__, "backend": largesieve.BACKEND,
                  "python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": blas, "module": largesieve.cli.__file__}))
"""


# ---------------------------------------------------------------------
# correctness


def cells_match(got: str, want: str) -> bool:
    """Equal text, or numbers within relative REL_TOL of the reference."""
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= REL_TOL * abs(w)


def output_problems(rc, stdout: bytes, stderr: bytes, reference: str) -> list[str]:
    """Why one process's result fails the correctness gate (empty: it passes)."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}, expected 0")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    try:
        rows = list(csv.reader(io.StringIO(stdout.decode())))
    except (UnicodeDecodeError, csv.Error) as exc:
        return problems + [f"invalid CSV: {exc}"]
    ref = list(csv.reader(io.StringIO(reference)))
    if not rows or rows[0] != ref[0]:
        return problems + ["CSV header differs from the reference"]
    if any(len(row) != len(rows[0]) for row in rows):
        problems.append("invalid CSV: rows of unequal length")
    elif len(rows) != len(ref):
        problems.append(f"{len(rows) - 1} rows, reference has {len(ref) - 1}")
    else:
        col = rows[0].index("pass")
        failed = sum(1 for row in rows[1:] if row[col] != "True")
        if failed:
            problems.append(f"{failed} rows with pass != True")
        bad = [(i, name) for i, (row, ref_row) in enumerate(zip(rows[1:], ref[1:]), 1)
               for name, got, want in zip(rows[0], row, ref_row)
               if not cells_match(got, want)]
        if bad:
            problems.append(f"{len(bad)} values differ from the reference, "
                            f"first at row {bad[0][0]} column {bad[0][1]}")
    return problems


def error_rate(runs: list[dict]) -> float:
    """Share of attempted runs that failed the correctness gate."""
    return sum(1 for run in runs if run["problems"]) / len(runs)


# ---------------------------------------------------------------------
# processes


def child_env() -> dict:
    """The caller's environment with only src/ on the import path.

    LARGESIEVE_* settings are dropped so that the program sees nothing but
    the generated argv; thread-count settings are left as they are.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("LARGESIEVE_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], trace: bool, env: dict) -> dict:
    """Run one CLI invocation in a fresh process and collect what it did."""
    read_fd, write_fd = os.pipe()
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(write_fd), str(int(trace)), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(write_fd,),
        env=env, cwd=ROOT)
    os.close(write_fd)
    streams = {}
    readers = [threading.Thread(target=lambda k=k, f=f: streams.__setitem__(k, f.read()))
               for k, f in (("stdout", proc.stdout), ("stderr", proc.stderr),
                            ("record", os.fdopen(read_fd, "rb")))]
    for reader in readers:
        reader.start()
    killer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    proc.stdout.close()
    proc.stderr.close()
    try:
        record = json.loads(streams["record"])
    except ValueError:
        record = None
    out = {"rc": proc.returncode, "stdout": streams["stdout"],
           "stderr": streams["stderr"], "record": record,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}
    if record is not None:
        out["setup_s"] = record["imported"] - started
        out["wall_s"] = record["done"] - record["imported"]
    return out


def run_once(name: str, argvs, references, trace: bool, env: dict, digests: dict) -> dict:
    """One run of a workload: its processes untraced, then traced if asked."""
    problems = []

    def invoke(traced: bool) -> list[dict]:
        procs = []
        for i, (argv, ref) in enumerate(zip(argvs, references)):
            proc = spawn(argv, traced, env)
            where = f"{'traced ' if traced else ''}largesieve {' '.join(argv)}"
            problems.extend(f"{where}: {p}" for p in
                            output_problems(proc["rc"], proc["stdout"], proc["stderr"], ref))
            if proc["record"] is None:
                problems.append(f"{where}: no timing record")
            digest = hashlib.sha256(proc["stdout"]).hexdigest()
            if digests.setdefault(i, digest) != digest:
                problems.append(f"{where}: stdout differs from an earlier run of this seed")
            procs.append(proc)
        return procs

    procs = invoke(False)
    run = {"problems": problems, "timed": all(p["record"] for p in procs)}
    if run["timed"]:
        run.update(wall_s=sum(p["wall_s"] for p in procs),
                   cpu_s=sum(p["cpu_s"] for p in procs),
                   peak_rss_mb=max(p["peak_rss_mb"] for p in procs),
                   setup_s=[p["setup_s"] for p in procs])
    if trace:
        traced = invoke(True)
        raw: dict[str, float] = {}
        for proc in traced:
            for key, value in ((proc["record"] or {}).get("layers") or {}).items():
                raw[key] = raw.get(key, 0) + value
        missing = [layer for layer in EXERCISED[name] if not raw.get(layer + ".calls")]
        if missing:
            problems.append(f"traced run made no calls into {', '.join(missing)}")
        run["layers"] = tracer.derive(raw)
        run["unlisted_layers"] = sorted(
            key[: -len(".calls")] for key, value in raw.items()
            if key.endswith(".calls") and value and key[: -len(".calls")] not in EXERCISED[name])
        run["timed"] = run["timed"] and all(p["record"] for p in traced)
        if run["timed"]:
            run["layers"]["trace.overhead_s"] = (
                sum(p["wall_s"] for p in traced) - run["wall_s"])
    return run


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 env: dict, reference: dict) -> dict:
    """Runs of one workload for about `seconds`, and their metrics."""
    argvs = workload_argvs(name, seed)
    recorded = reference[name][str(seed % INPUT_SETS)]
    if [r["argv"] for r in recorded] != argvs:
        raise SystemExit(f"error: reference.json does not hold the inputs of {name}")
    references = [r["stdout"] for r in recorded]
    runs, digests = [], {}
    start = time.monotonic()
    while True:
        runs.append(run_once(name, argvs, references, trace, env, digests))
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and (elapsed * (1 + 1 / len(runs)) > seconds
                                      or elapsed > MAX_RUN_SECONDS):
            break
    timed = [r for r in runs if r["timed"]]
    if not timed:
        raise SystemExit(f"error: no run of {name} finished: {runs[0]['problems']}")
    return {"workload": name, "argv": argvs, "runs": runs, "timed": timed,
            "seconds": time.monotonic() - start}


def end_to_end_metrics(timed: list[dict]) -> dict[str, float]:
    out = {key: statistics.median(r[key] for r in timed)
           for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    out["setup_s"] = statistics.median(s for r in timed for s in r["setup_s"])
    return out


def per_layer_metrics(timed: list[dict], names) -> dict[str, float]:
    return {name: statistics.median(r["layers"].get(name, 0) for r in timed)
            for name in names}


# ---------------------------------------------------------------------
# provenance and output


def provenance(env: dict) -> dict:
    """Which code and machine produced the numbers; exits if src/ is absent."""
    proc = subprocess.run([sys.executable, "-c", PROVENANCE_CODE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: cannot import largesieve from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout)
    if not Path(info["module"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: largesieve imported from {info['module']}, not {SRC}")
    digest = hashlib.sha256()
    for path in sorted((SRC / "largesieve").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=60)
        commit = git.stdout.strip() or None
    info.update(git_commit=commit, source_sha256=digest.hexdigest(),
                nproc=len(os.sched_getaffinity(0)))
    return info


def summary(result: dict, trace: bool, spec: dict) -> tuple[dict, list[str]]:
    """Metrics by name with units, and the lines that print them."""
    runs, timed = result["runs"], result["timed"]
    n = len(timed)
    lines = [f"workload {result['workload']}: "
             + " ; ".join("largesieve " + " ".join(a) for a in result["argv"])]
    if trace:
        values = per_layer_metrics(timed, [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        lines.append(f"per-layer metrics, median of {n} traced runs:")
        unlisted = sorted({layer for r in runs for layer in r["unlisted_layers"]})
        if unlisted:
            lines.append("note: also called, outside the workload's layer list: "
                         + ", ".join(unlisted))
        lines.append("note: " + WAIT_NOTE)
    else:
        values = end_to_end_metrics(timed)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        lines.append(f"end-to-end metrics, median of {n} runs "
                     f"(setup_s: of {sum(len(r['setup_s']) for r in timed)} processes):")
    for name, value in values.items():
        lines.append(f"  {name:48s} {value:14.6g} {units[name]}")
    failed = sum(1 for r in runs if r["problems"])
    lines.append(f"  {'error_rate':48s} {error_rate(runs):14.6g} fraction "
                 f"({failed} of {len(runs)} runs failed the correctness gate)")
    for r in runs:
        lines.extend("  FAILED: " + p for p in r["problems"])
    return {name: {"value": value, "unit": units[name]} for name, value in values.items()}, lines


def write_result(result: dict, metrics: dict, args, info: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{result['workload']}_seed{args.seed}_trace{args.trace}.json"
    samples = [{k: v for k, v in r.items() if k != "timed"} for r in result["runs"]]
    path.write_text(json.dumps({
        "provenance": info, "seed": args.seed, "input_set": args.seed % INPUT_SETS,
        "seconds": args.seconds, "trace": args.trace, "workload": result["workload"],
        "argv": [["largesieve", *a] for a in result["argv"]],
        "measured_seconds": result["seconds"], "metrics": metrics,
        "error_rate": error_rate(result["runs"]), "runs": samples,
        "notes": [WAIT_NOTE]}, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "largesieve" / "cli.py").is_file():
        print(f"error: no largesieve source under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    info = provenance(env)
    reference = json.loads(REFERENCE.read_text())
    print("provenance: " + json.dumps(info, sort_keys=True))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), env, reference)
        found, lines = summary(result, bool(args.trace), spec)
        path = write_result(result, found, args, info)
        print("\n".join(lines))
        print(f"  samples and provenance: {path.relative_to(ROOT)}")
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
        attempted += len(result["runs"])
        failed += sum(1 for r in result["runs"] if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark harness's own arithmetic and plumbing.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer


# ---------------------------------------------------------------------
# self time


def test_self_time_subtracts_children():
    assert tracer.self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)


def test_self_time_counts_overlapping_children_once():
    children = [(1.0, 4.0), (2.0, 5.0), (4.5, 6.0), (8.0, 9.0)]
    assert tracer.self_time(0.0, 10.0, children) == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_clips_children_to_the_span():
    assert tracer.self_time(2.0, 4.0, [(1.0, 3.0), (3.5, 9.0)]) == pytest.approx(0.5)
    assert tracer.self_time(2.0, 4.0, [(5.0, 6.0)]) == pytest.approx(2.0)


def test_raw_counters_nest_spans():
    t = tracer.Tracer()
    clock = iter([0.0, 1.0, 3.0, 3.0, 3.0, 10.0, 10.0, 10.0])
    t.clock = lambda: next(clock)
    inner = t.spanned("b", lambda: None)
    outer = t.spanned("a", inner)
    outer()
    raw = t.raw_counters()
    assert raw["a.self_s"] == pytest.approx(8.0)  # 10 minus the child's 2
    assert raw["b.self_s"] == pytest.approx(2.0)
    assert raw["a.calls"] == raw["b.calls"] == 1


def test_errors_are_counted_per_module():
    t = tracer.Tracer()

    def boom():
        raise ValueError

    with pytest.raises(ValueError):
        t.spanned("lsi.residue_sums", boom)()
    with pytest.raises(ValueError):
        t.counted("characters.is_primitive", boom)()
    raw = t.raw_counters()
    assert raw["lsi.errors"] == raw["characters.errors"] == 1
    assert "lsi.residue_sums.calls" not in raw


# ---------------------------------------------------------------------
# correctness gate

REFERENCE = "item,value,pass\nx,1000000000000,True\n"


def test_reference_comparison_at_the_tolerance():
    assert run.cells_match("1000000000001", "1e12")  # relative 1e-12
    assert not run.cells_match("1000000000010", "1e12")  # relative 1e-11
    assert run.cells_match("True", "True")
    assert not run.cells_match("False", "True")
    assert not run.output_problems(0, b"item,value,pass\nx,1000000000001,True\n", b"",
                                   REFERENCE)
    assert run.output_problems(0, b"item,value,pass\nx,1000000000010,True\n", b"",
                               REFERENCE)


def test_error_rate_counts_exit_codes_and_failed_rows():
    ok = b"item,value,pass\nx,1000000000000,True\n"
    failed_row = b"item,value,pass\nx,1000000000000,False\n"
    runs = [{"problems": run.output_problems(0, ok, b"", REFERENCE)},
            {"problems": run.output_problems(1, ok, b"", REFERENCE)},
            {"problems": run.output_problems(0, failed_row, b"", REFERENCE)},
            {"problems": run.output_problems(0, ok, b"Traceback (most recent call last)",
                                             REFERENCE)}]
    assert run.error_rate(runs) == pytest.approx(3 / 4)


def test_gate_rejects_wrong_shape():
    assert run.output_problems(0, b"", b"", REFERENCE)
    assert run.output_problems(0, b"item,value,pass\n", b"", REFERENCE)
    assert run.output_problems(0, b"item,value,pass\nx,1,True,extra\n", b"", REFERENCE)


def test_reference_holds_every_input_set():
    reference = json.loads(run.REFERENCE.read_text())
    for name in run.WORKLOADS:
        for k in range(run.INPUT_SETS):
            recorded = reference[name][str(k)]
            assert [r["argv"] for r in recorded] == run.workload_argvs(name, k)
            assert run.workload_argvs(name, k + run.INPUT_SETS) == run.workload_argvs(name, k)


# ---------------------------------------------------------------------
# traced processes

needs_program = pytest.mark.skipif(not (run.SRC / "largesieve").is_dir(),
                                   reason="largesieve source not present")

SMALL = [["verify", "--ineq", "bd", "--N", "3000", "--Q", "12", "--trials", "1"],
         ["verify", "--ineq", "mvs", "--N", "500", "--Q", "20", "--trials", "1"],
         ["scan", "bt", "--N", "1e4", "--M", "1000"],
         ["scan", "lemma21", "--q", "1,3", "--x", "1e4"],
         ["constants", "--cutoff", "1e3", "--T", "1e5"]]


@needs_program
def test_every_binding_is_traced():
    script = """
import largesieve.cli, largesieve.lsi as lsi, largesieve.exceptional as exc
import largesieve.expsums as expsums, largesieve.characters as ch
from tracer import Tracer
Tracer().install()
wrapped = [lsi.group, lsi.is_primitive, expsums.group, exc.group, exc.is_primitive,
           exc.residue_sums, exc.primitive_char_sums, ch.group, ch.is_primitive,
           ch.CharacterGroup.characters, ch.CharacterGroup.value_matrix]
assert all(hasattr(f, "__wrapped__") for f in wrapped), wrapped
assert lsi.group is ch.group is expsums.group is exc.group
assert exc.residue_sums is lsi.residue_sums
"""
    env = dict(run.child_env(), PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.HERE)]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@needs_program
def test_traced_stream_is_identical_and_covers_every_per_layer_metric():
    env = run.child_env()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seen = set()
    for argv in SMALL:
        plain, traced = run.spawn(argv, False, env), run.spawn(argv, True, env)
        assert plain["rc"] == traced["rc"] == 0, traced["stderr"]
        assert plain["stdout"] == traced["stdout"]
        seen |= set(tracer.derive(traced["record"]["layers"]))
    missing = {m["name"] for m in spec["per_layer"]} - seen - {"trace.overhead_s"}
    assert not missing

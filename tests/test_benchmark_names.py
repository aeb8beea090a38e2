"""The names the benchmark harness in perfbench/ binds, by name, at run time.

perfbench/tracer.py rebinds largesieve._backend.prime_mask and nu_dfs to time
them, perfbench/run.py requires calls into them and reads largesieve.BACKEND
for its provenance record.  A rename here would break the benchmark without
failing any other test.

The same holds for lsi.residue_sums and lsi.primitive_char_sums: the tracer
wraps both and reads their first two arguments (a, q), and run.py's traced
mode fails a workload (bd, mvs, Brun-Titchmarsh) that makes no call into
either.
"""

import pytest

import largesieve
from largesieve import _backend, lsi


def test_names_the_benchmark_binds_exist():
    assert largesieve.BACKEND == "python"
    for name in ("prime_mask", "nu_dfs", "r2_counts"):
        assert callable(getattr(_backend, name))


@pytest.mark.parametrize("run", [
    lambda: lsi.lsi_bd(lsi.random_sequence(3000, seed=1), 12),
    lambda: lsi.lsi_mvs(lsi.random_sequence(500, seed=2), 20),
    lambda: lsi.brun_titchmarsh(1000, 10_000),
], ids=["lsi_bd", "lsi_mvs", "brun_titchmarsh"])
def test_workloads_call_the_traced_residue_layers(run, monkeypatch):
    calls = {}
    for name in ("residue_sums", "primitive_char_sums"):
        original = getattr(lsi, name)

        def counting(a, q, *rest, name=name, original=original):
            assert isinstance(a, lsi.CoefficientSequence) and isinstance(q, int)
            calls[name] = calls.get(name, 0) + 1
            return original(a, q, *rest)

        monkeypatch.setattr(lsi, name, counting)
    run()
    assert calls.get("residue_sums", 0) > 0
    assert calls.get("primitive_char_sums", 0) > 0

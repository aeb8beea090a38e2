"""The names the benchmark harness in perfbench/ binds, by name, at run time.

perfbench/tracer.py rebinds largesieve._backend.prime_mask and nu_dfs to time
them, perfbench/run.py requires calls into them and reads largesieve.BACKEND
for its provenance record.  A rename here would break the benchmark without
failing any other test.

The same holds for the residue and character layers.  The tracer wraps
lsi.residue_sums and lsi.primitive_char_sums and reads their first two
arguments (a, q); it wraps CharacterGroup.characters, CharacterGroup.value_matrix
and every module binding of is_primitive.  run.py's traced mode fails a
workload (bd, mvs, Brun-Titchmarsh) that makes no call into any one of these,
so a refactor that stops calling one fails here first.  primitive_char_sums
transforms each odd prime-power factor p^e by FFT and keeps the rows k with p
not dividing k, the primitive ones, with no character object, and builds no
group of a composite modulus.  So its characters(), is_primitive and
value_matrix calls all come from the 2-adic factor (4 or 2^e) alone; each of
these workloads has moduli divisible by 4.

On every residue_sums call the tracer also reads a.N and
np.count_nonzero(a.values) of the coefficient sequence, for its entries and
nonzero-fraction counters.  Both must stay N and the number of nonzero
coefficients, whether the sequence is stored densely or by index.  Tier-1
does not run perfbench's own tests, so these tests are where such a change
shows.
"""

import numpy as np
import pytest

import largesieve
from largesieve import _backend, lsi
from largesieve.characters import CharacterGroup


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

    def counting(owner, name, check=None):
        original = getattr(owner, name)

        def wrapper(*args):
            if check is not None:
                check(*args)
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    def residue_args(a, q, *rest):
        assert isinstance(a, lsi.CoefficientSequence) and isinstance(q, int)

    counting(lsi, "residue_sums", residue_args)
    counting(lsi, "primitive_char_sums", residue_args)
    counting(lsi, "is_primitive")
    counting(CharacterGroup, "characters")
    counting(CharacterGroup, "value_matrix")
    run()
    for name in ("residue_sums", "primitive_char_sums", "is_primitive", "characters",
                 "value_matrix"):
        assert calls.get(name, 0) > 0, name


@pytest.mark.parametrize("make, N, nonzero", [
    (lambda: lsi.prime_indicator(1000, 10_000), 10_000, 1167),  # pi(11000) - pi(1000)
    (lambda: lsi.random_sequence(3000, seed=1), 3000, 3000),
], ids=["prime_indicator", "random_sequence"])
def test_the_sequence_fields_the_tracer_reads(make, N, nonzero):
    a = make()
    assert a.N == N
    assert np.count_nonzero(a.values) == nonzero

"""The names the benchmark harness in perfbench/ binds, by name, at run time.

perfbench/tracer.py rebinds largesieve._backend.prime_mask and nu_dfs to time
them, perfbench/run.py requires calls into them and reads largesieve.BACKEND
for its provenance record.  A rename here would break the benchmark without
failing any other test.
"""

import largesieve
from largesieve import _backend


def test_names_the_benchmark_binds_exist():
    assert largesieve.BACKEND == "python"
    for name in ("prime_mask", "nu_dfs", "r2_counts"):
        assert callable(getattr(_backend, name))

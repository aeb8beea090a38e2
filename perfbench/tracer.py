"""Per-layer tracing of the largesieve CLI from outside the package.

Tracer.install() replaces public functions of the package with wrappers that
record a span (name, start, end, parent) per call, plus counters of the work
each call did.  Spans stay in memory; raw_counters() turns them into call
counts and self times when the process is done, and derive() turns summed
counters into the ratios the benchmark reports.

Several modules bind imported names locally (``from largesieve.characters
import group``), so every module attribute that holds the original function
is rebound, not only the one in the defining module.  The hottest tiny
functions (is_primitive, about 10^5 calls a run) are counted, not timed: a
span per call would cost more than the call itself and move that cost into
the caller's self time.
"""

from __future__ import annotations

import importlib
import io
import sys
import time

import numpy as np

MODULES = ("lsi", "characters", "arith", "_kernels", "asymptotics",
           "exceptional", "cli")

# Bookkeeping spans (counter arithmetic after a call) carry this name.  They
# are subtracted from their parent's self time and reported nowhere.
_BOOKKEEPING = ""


def self_time(start: float, end: float, children) -> float:
    """end - start minus the part of [start, end] covered by any child.

    children is an iterable of (start, end) intervals.  They are clipped to
    the parent and merged first, so overlapping children count once.
    """
    covered = 0.0
    lo_run = hi_run = None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in children):
        if hi <= lo:
            continue
        if hi_run is None or lo > hi_run:
            if hi_run is not None:
                covered += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if hi_run is not None:
        covered += hi_run - lo_run
    return (end - start) - covered


def _residue_work(args, result, seconds):
    a, q = args[0], args[1]
    n = a.N
    # computed bytes: the complex coefficients and their int64 n values are
    # read once, q complex sums are written
    return {"entries": n, "bytes_computed": n * (16 + 8) + q * 16,
            "nonzero": int(np.count_nonzero(a.values))}


def _primitive_sums_work(args, result, seconds):
    chars, sums = result
    q = args[1]
    return {"chars": len(chars), "macs": len(chars) * q if q > 1 else 0}


def _nu_dfs_work(args, result, seconds):
    return {"products": int(result[0])}


# (module, attribute, layer name, work counter) for each timed function.  A
# work counter maps (args, result, seconds) to counter increments; "group"
# stands for the one that reads the lru_cache of the original group().
# cli.emit is timed too, through _capture_stdout.
SPANNED = [
    ("largesieve.lsi", "residue_sums", "lsi.residue_sums", _residue_work),
    ("largesieve.lsi", "primitive_char_sums", "lsi.primitive_char_sums",
     _primitive_sums_work),
    ("largesieve.lsi", "lsi_bd", "lsi.lsi_bd", None),
    ("largesieve.lsi", "lsi_mvs", "lsi.lsi_mvs", None),
    ("largesieve.lsi", "lsi_eq16", "lsi.lsi_eq16", None),
    ("largesieve.lsi", "brun_titchmarsh", "lsi.brun_titchmarsh", None),
    ("largesieve.characters", "group", "characters.group", "group"),
    ("largesieve.characters", "CharacterGroup.characters",
     "characters.CharacterGroup.characters",
     lambda args, result, seconds: {"objects": len(result)}),
    ("largesieve.characters", "CharacterGroup.value_matrix",
     "characters.CharacterGroup.value_matrix",
     lambda args, result, seconds: {"cells": int(result.size)}),
    ("largesieve.arith", "sieve_primes", "arith.sieve_primes",
     lambda args, result, seconds: {"entries": int(args[0]) + 1}),
    ("largesieve.arith", "factorize", "arith.factorize", None),
    ("largesieve._backend", "prime_mask", "_kernels.prime_mask", None),
    ("largesieve._backend", "nu_dfs", "_kernels.nu_dfs", _nu_dfs_work),
    ("largesieve.asymptotics", "S_q", "asymptotics.S_q", None),
    ("largesieve.asymptotics", "lemma21_scan", "asymptotics.lemma21_scan", None),
    ("largesieve.asymptotics", "constant_c", "asymptotics.constant_c", None),
    ("largesieve.asymptotics", "z_series_check", "asymptotics.z_series_check", None),
    ("largesieve.exceptional", "L1_chiD", "exceptional.L1_chiD",
     lambda args, result, seconds: {"terms": int(result.truncation)}),
    ("largesieve.cli", "main", "cli.main", None),
]

# (module, attribute, layer name) for functions whose calls are only counted.
COUNTED = [
    ("largesieve.characters", "is_primitive", "characters.is_primitive"),
]


def _layer_module(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counters for one process; install() once, before main()."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None,
                           self.stack[-1] if self.stack else None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = self.clock()
        self.stack.pop()
        return span[2] - span[1]

    def spanned(self, name: str, fn, work=None):
        """fn wrapped in a span; work(args, result, seconds) adds counters."""
        errors_key = _layer_module(name) + ".errors"

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(errors_key)
                raise
            finally:
                seconds = self._close(idx)
            book = self._open(_BOOKKEEPING)
            self.count(name + ".calls")
            if work is not None:
                for key, n in work(args, result, seconds).items():
                    self.count(f"{name}.{key}", n)
            self._close(book)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        """fn wrapped so that calls, True results and raises are counted."""
        errors_key = _layer_module(name) + ".errors"

        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(errors_key)
                raise
            self.count(name + ".calls")
            if result is True:
                self.count(name + ".true")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Rebind every binding of each traced function in the package."""
        mods = {m: importlib.import_module(m)
                for m in {row[0] for row in SPANNED + COUNTED}}
        for module, attr, name, work in SPANNED:
            if work == "group":
                work = _group_work(getattr(mods[module], attr))
            self._rebind(mods[module], attr,
                         lambda fn, n=name, w=work: self.spanned(n, fn, w))
        for module, attr, name in COUNTED:
            self._rebind(mods[module], attr, lambda fn, n=name: self.counted(n, fn))
        cli = mods["largesieve.cli"]
        cli.emit = self.spanned("cli.emit", _capture_stdout(self, cli.emit),
                                lambda args, result, seconds: {"rows": len(args[0])})

    @staticmethod
    def _rebind(module, attr: str, make_wrapper) -> None:
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            setattr(owner, method, make_wrapper(getattr(owner, method)))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if name == "largesieve" or name.startswith("largesieve."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def raw_counters(self) -> dict[str, float]:
        """Counters plus per-name self times of all closed spans."""
        children: dict[int, list] = {}
        for span in self.spans:
            if span[3] is not None and span[2] is not None:
                children.setdefault(span[3], []).append((span[1], span[2]))
        out = dict(self.counters)
        for idx, (name, start, end, _) in enumerate(self.spans):
            if name != _BOOKKEEPING and end is not None:
                key = name + ".self_s"
                out[key] = out.get(key, 0.0) + self_time(start, end, children.get(idx, ()))
        return out


def _group_work(lru_group):
    """Work counter for group(): misses and build time from its lru_cache.

    The memo itself decides what counts as a build, so a call counts as one
    exactly when the original cache recorded a miss during it.
    """
    seen = [lru_group.cache_info().misses]

    def work(args, result, seconds):
        misses = lru_group.cache_info().misses
        new, seen[0] = misses - seen[0], misses
        return {"misses": new, "build_s": seconds if new else 0.0}

    return work


def _capture_stdout(tracer: Tracer, emit):
    """emit writing through a buffer, so the bytes it writes can be counted."""

    def capturing(rows, columns, args):
        real = sys.stdout
        sys.stdout = buf = io.StringIO()
        try:
            emit(rows, columns, args)
        finally:
            sys.stdout = real
        text = buf.getvalue()
        real.write(text)
        tracer.count("cli.emit.bytes_out", len(text.encode()))

    return capturing


def derive(raw: dict[str, float]) -> dict[str, float]:
    """Ratios from counters summed over one or more processes."""
    out = dict(raw)
    for module in MODULES:
        out.setdefault(module + ".errors", 0)
    entries = raw.get("lsi.residue_sums.entries", 0)
    out["lsi.residue_sums.nnz_frac"] = (
        raw.get("lsi.residue_sums.nonzero", 0) / entries if entries else 0.0)
    calls = raw.get("characters.is_primitive.calls", 0)
    out["characters.primitive_ratio"] = (
        raw.get("characters.is_primitive.true", 0) / calls if calls else 0.0)
    busy = raw.get("_kernels.nu_dfs.self_s", 0.0)
    out["_kernels.nu_dfs.products_per_s"] = (
        raw.get("_kernels.nu_dfs.products", 0) / busy if busy else 0.0)
    return out

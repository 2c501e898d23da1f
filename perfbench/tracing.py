"""Spans around the calls into the library's public functions.

While `instrumented(tracer)` is active, each function in TRACED is
replaced, in every loaded module of the package that holds a reference
to it (and on BinaryMatrix for the two methods), by a wrapper that
records a span. The library's files are not changed, and the original
objects are put back on exit. Spans are kept in memory; the benchmark
writes them out when it ends.

A span records its name, start and end (perf_counter_ns), its parent
span and the id of the workload call it belongs to, which is the id of
that call's root span. A span's self time is its duration minus the
durations of its direct children; calls run one at a time, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from typing import Iterator, Optional

# (module, function or Class.method) inside biplane_schemes
TRACED = (
    ("binmat", "parse_matrix"),
    ("binmat", "format_matrix"),
    ("binmat", "BinaryMatrix.to_numpy"),
    ("binmat", "BinaryMatrix.col_sums"),
    ("binmat", "is_perm_equivalent"),
    ("biplane", "verify_biplane"),
    ("pbibd", "concurrence"),
    ("pbibd", "classify"),
    ("pbibd", "verify_pbibd"),
    ("scheme", "from_relation_matrix"),
    ("scheme", "bose_mesner_check"),
    ("extract", "extract_design"),
    ("extract", "family_generate"),
    ("search", "search_symmetric_canonical"),
    ("fixtures", "write_fixtures"),
    ("cli", "main"),
)
PACKAGE = "biplane_schemes"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        parent: Optional[int] = self._open[-1] if self._open else None
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": parent,
            "call": sid if parent is None else self.spans[parent]["call"],
            **attrs,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> dict[int, int]:
        """Span id -> duration minus the durations of its direct children."""
        own = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return traced


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Record a span for every call into a TRACED function."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    saved: list[tuple[object, str, object]] = []
    try:
        for modname, attr in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            owner_name, _, fname = attr.rpartition(".")
            name = f"{modname}.{fname}"
            owner = getattr(mod, owner_name) if owner_name else None
            original = owner.__dict__.get(fname) if owner else getattr(mod, fname, None)
            if original is None:
                continue  # gone from the library: its layer metric reads 0 calls
            if owner:
                targets = [(owner, fname)]
            else:
                targets = [(m, key) for m in modules
                           for key, value in vars(m).items() if value is original]
            wrapper = _wrap(tracer, name, original)
            for obj, key in targets:
                saved.append((obj, key, original))
                setattr(obj, key, wrapper)
        yield
    finally:
        for obj, key, original in reversed(saved):
            setattr(obj, key, original)

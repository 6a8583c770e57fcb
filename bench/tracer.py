"""In-memory span recorder for the traced benchmark run.

A span is one call into an ``lfbp`` layer, timed from the benchmark side:
name, start, end (``perf_counter_ns``), parent span and run id.  A run is
one unit of work, such as one ``sim.run`` or one ``er_batch`` call.  Spans live
in flat arrays while the run is in progress and are written out once, when
it ends.  A span's self time is its duration minus the durations of its
direct children.
"""
from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    """Records nested spans; one tracer per traced benchmark run."""

    def __init__(self, label: str):
        self.label = label
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.run = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]

    def begin_run(self, run: str) -> None:
        """Tag the spans opened from now on with run id ``run``."""
        self.runs.append(run)

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.run.append(len(self.runs) - 1)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        idx = self._open(name)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name: str, fn):
        """A stand-in for ``fn`` that records a span per call."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _in(self, prefix: str):
        return [r.startswith(prefix) for r in self.runs]

    def self_times(self, run_prefix: str = "") -> dict[str, tuple[int, int]]:
        """Per span name, over runs whose id starts with ``run_prefix``:
        (number of spans, total self time in ns)."""
        child_ns = [0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        keep = self._in(run_prefix)
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for i, nid in enumerate(self.name):
            if keep[self.run[i]]:
                agg = out[self.names[nid]]
                agg[0] += 1
                agg[1] += self.end[i] - self.start[i] - child_ns[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def durations(self, name: str, run_prefix: str = "") -> list[int]:
        """Wall durations in ns of the spans called ``name`` in matching runs."""
        nid = self._ids.get(name)
        keep = self._in(run_prefix)
        return [
            self.end[i] - self.start[i]
            for i, n in enumerate(self.name)
            if n == nid and keep[self.run[i]]
        ]

    def write(self, path: Path) -> None:
        """Write the spans as ``<path>.json`` (run ids, names, layout) plus
        ``<path>.bin.gz``: five native-endian arrays of equal length, one after
        the other: run id index (int32), name index (int32), parent span
        index (int32, -1 for none), start ns and end ns (int64)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path.parent / (path.name + ".bin.gz"), "wb", compresslevel=1) as fh:
            for arr in (self.run, self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())
        header = {
            "label": self.label,
            "spans": len(self.name),
            "runs": self.runs,
            "names": self.names,
            "arrays": ["run:int32", "name:int32", "parent:int32", "start_ns:int64", "end_ns:int64"],
        }
        (path.parent / (path.name + ".json")).write_text(json.dumps(header, indent=1) + "\n")

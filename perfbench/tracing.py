"""Spans and counters for the traced replay, and how to read them back.

A span is one call into a layer: (span id, parent span id, name, start ns,
end ns), all spans of one replay sharing a run id.  Spans are kept in a
list and written once, when the replay ends.  Self time is a span's
duration minus the part covered by its children; the layer metrics are
sums of self time per span name.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

ROOT = "replay"


class Tracer:
    """Records one span per call; spans nest by call order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[tuple[int, str, int]] = []  # (span id, name, start ns), innermost last
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def begin(self, name: str) -> int:
        self._next_id += 1
        self._open.append((self._next_id, name, perf_counter_ns()))
        return self._next_id

    def end(self, sid: int) -> None:
        stop = perf_counter_ns()
        top, name, start = self._open.pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._open[-1][0] if self._open else 0
        self.spans.append((sid, parent, name, start, stop))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    def write(self, path: str) -> None:
        """One JSON header line, then one line per span in end order:
        [run id, span id, parent id (0 = none), name, start ns, end ns]."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"run_id": self.run_id, "counts": dict(self.counts)}) + "\n")
            run = json.dumps(self.run_id)
            for sid, parent, name, start, stop in self.spans:
                handle.write(f'[{run},{sid},{parent},"{name}",{start},{stop}]\n')


def read_trace(path: str):
    """(header, spans) of a trace file written by ``Tracer.write``."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        spans = [tuple(json.loads(line)[1:]) for line in handle]
    return header, spans


def self_times(spans, scale=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    ``scale(start_s, end_s)``, when given, multiplies each span's times
    (the speed factor of its interval, see probe.SpeedLog)."""
    covered: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, start, stop in spans:
        covered[parent] += stop - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
    for sid, _parent, name, start, stop in spans:
        factor = scale(start / 1e9, stop / 1e9) if scale else 1.0
        row = out[name]
        row["calls"] += 1
        row["inclusive_s"] += (stop - start) / 1e9 * factor
        row["self_s"] += (stop - start - covered[sid]) / 1e9 * factor
    return dict(out)

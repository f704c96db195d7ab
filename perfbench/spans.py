"""In-memory span recorder and the self-time arithmetic over its spans.

A span is (name, key, start, end, parent, trace id).  Spans are appended in
the order they begin, so a parent always has a smaller index than its
children and a parent's children appear in the order they started.  A span's
trace id is given explicitly (the trial seed of a verify trial, the
evaluation index of a scan) or inherited from its parent.
"""

from __future__ import annotations

import gzip
import time
from array import array


class SpanRecorder:
    """Records nested spans on one thread; columns are kept in compact arrays."""

    def __init__(self):
        self.labels: list = []  # (name, key) per label id
        self._label_ids: dict = {}
        self.label = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.trace_id = array("Q")
        self._stack: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _append(self, name: str, key, start: int, end: int, parent: int, trace_id: int) -> int:
        i = len(self.start)
        lid = self._label_ids.get((name, key))
        if lid is None:
            lid = self._label_ids[(name, key)] = len(self.labels)
            self.labels.append((name, key))
        self.label.append(lid)
        self.parent.append(parent)
        self.trace_id.append(trace_id & 0xFFFFFFFFFFFFFFFF)
        self.end.append(end)
        self.start.append(start)
        return i

    def begin(self, name: str, key=None, trace_id=None) -> int:
        """Open a span under the innermost open one; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        if trace_id is None:
            trace_id = self.trace_id[parent] if parent >= 0 else 0
        i = self._append(name, key, 0, 0, parent, trace_id)
        self._stack.append(i)
        self.start[i] = time.perf_counter_ns()
        return i

    def finish(self, i: int) -> None:
        """Close span i, which must be the innermost open span."""
        self.end[i] = time.perf_counter_ns()
        if self._stack.pop() != i:
            raise RuntimeError("spans must close innermost first")

    def add(self, name: str, start: int, end: int, parent: int = -1, key=None, trace_id: int = 0) -> int:
        """Append a finished span directly (for building traces by hand)."""
        return self._append(name, key, start, end, parent, trace_id)

    def name_of(self, i: int) -> str:
        return self.labels[self.label[i]][0]

    def key_of(self, i: int):
        return self.labels[self.label[i]][1]


def self_times(rec: SpanRecorder) -> array:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span.

    Children are visited in start order, so the union grows by the part of
    each child that lies past the furthest end covered so far.
    """
    n = len(rec)
    covered = array("q", bytes(8 * n))
    reach = array("q", rec.start)  # furthest end covered so far, per parent
    start, end, parent = rec.start, rec.end, rec.parent
    for c in range(n):
        p = parent[c]
        if p < 0:
            continue
        cs = max(start[c], reach[p])
        ce = min(end[c], end[p])
        if ce > cs:
            covered[p] += ce - cs
            reach[p] = ce
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def write(rec: SpanRecorder, path) -> None:
    """Write every span as one tab-separated line, gzip-compressed.

    The file opens with one ``# label <id> <name> <key>`` line per label.
    Then one line per span, in index order (the first is index 0): label id,
    start (ns after the first span began), duration (ns), parent index (-1
    for a root) and trace id.
    """
    t0 = rec.start[0] if len(rec) else 0
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for lid, (name, key) in enumerate(rec.labels):
            fh.write(f"# label {lid} {name} {'' if key is None else key}\n")
        fh.write("label\tstart_ns\tdur_ns\tparent\ttrace_id\n")
        for i in range(len(rec)):
            fh.write(
                f"{rec.label[i]}\t{rec.start[i] - t0}\t{rec.end[i] - rec.start[i]}\t"
                f"{rec.parent[i]}\t{rec.trace_id[i]}\n"
            )

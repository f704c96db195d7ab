"""Self-time arithmetic of the span recorder on hand-built traces."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from spans import SpanRecorder, self_times  # noqa: E402


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    rec = SpanRecorder()
    root = rec.add("root", 0, 100, trace_id=7)
    a = rec.add("a", 10, 40, root)
    rec.add("a.inner", 15, 25, a)
    rec.add("b", 50, 70, root)
    rec.add("d", 60, 80, root)  # overlaps b: the union [50, 80] counts once
    rec.add("e", 90, 120, root)  # runs past the parent: only [90, 100] counts
    assert list(self_times(rec)) == [100 - 30 - 30 - 10, 20, 10, 20, 20, 30]


def test_leaf_self_time_is_its_duration():
    rec = SpanRecorder()
    rec.add("leaf", 5, 9)
    assert list(self_times(rec)) == [4]


def test_begin_links_parents_and_inherits_the_trace_id():
    rec = SpanRecorder()
    outer = rec.begin("trial", trace_id=42)
    inner = rec.begin("generate", key="ginibre")
    rec.finish(inner)
    rec.finish(outer)
    other = rec.begin("trial", trace_id=43)
    rec.finish(other)
    assert list(rec.parent) == [-1, outer, -1]
    assert list(rec.trace_id) == [42, 42, 43]
    assert rec.key_of(inner) == "ginibre" and rec.key_of(outer) is None
    assert rec.start[outer] <= rec.start[inner] <= rec.end[inner] <= rec.end[outer]
    selfs = self_times(rec)
    assert selfs[outer] == (rec.end[outer] - rec.start[outer]) - (rec.end[inner] - rec.start[inner])

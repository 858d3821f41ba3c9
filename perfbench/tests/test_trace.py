"""Span self times on a hand-built span tree whose answer is known."""

from __future__ import annotations

import pytest

from perfbench.trace import Tracer, self_times, under


def span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "start": start,
            "end": end, "counts": {}}


def test_self_times_of_a_hand_built_tree():
    # commit [0,10]: read [1,3], normalize [3,7] with lww [4,5] and
    # part_ids [5,6.5]; flush [8,9.5]
    spans = [
        span(0, "commit", None, 0.0, 10.0),
        span(1, "read", 0, 1.0, 3.0),
        span(2, "normalize", 0, 3.0, 7.0),
        span(3, "lww_reduce", 2, 4.0, 5.0),
        span(4, "part_ids", 2, 5.0, 6.5),
        span(5, "flush", 0, 8.0, 9.5),
        span(6, "lww_reduce", 5, 8.5, 9.0),
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 2.5, 1: 2.0, 2: 1.5, 3: 1.0, 4: 1.5,
                                5: 1.0, 6: 0.5})
    assert sum(st.values()) == pytest.approx(10.0)
    assert [s["id"] for s in under(spans, "lww_reduce", "normalize")] == [3]


def test_overlapping_children_are_counted_once():
    spans = [span(0, "p", None, 0.0, 4.0), span(1, "a", 0, 1.0, 3.0),
             span(2, "b", 0, 2.0, 5.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_patches_reversibly():
    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    t = Tracer()
    with t.span("outer"):
        with t.patched([(Owner, "work", "inner")]):
            assert Owner.work(1) == 2
    assert Owner.work.__qualname__.endswith("Owner.work")
    assert [(s["name"], s["parent"]) for s in t.spans] == [("outer", None),
                                                         ("inner", 0)]
    assert all(s["end"] >= s["start"] for s in t.spans)

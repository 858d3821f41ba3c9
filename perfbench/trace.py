"""In-memory spans around calls into the engine, and their self times.

A span records its name, start, end, parent and the counts the caller
fills in.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of a run.  A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[tuple[object, str, str]]):
        """Replace ``owner.attr`` by a traced wrapper named ``name`` for
        each ``(owner, attr, name)``, restoring the originals on exit."""
        saved = [(owner, attr, getattr(owner, attr))
                 for owner, attr, _ in targets]
        try:
            for (owner, attr, name), (_, _, fn) in zip(targets, saved):
                setattr(owner, attr, self.wrap(name, fn))
            yield
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id → duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s["start"]
        for c in sorted(children[s["id"]], key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def under(spans: list[dict], name: str, parent_name: str) -> list[dict]:
    """Spans called ``name`` whose parent span is called ``parent_name``."""
    by_id = {s["id"]: s for s in spans}
    return [s for s in spans if s["name"] == name and s["parent"] is not None
            and by_id[s["parent"]]["name"] == parent_name]

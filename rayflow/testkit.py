"""Config-level unit tests — the ``benthos test`` analogue.

The reference ships a YAML test runner: a config file declares test
cases (input batch → expected output batch) against its own pipeline,
and ``benthos test`` executes them without any external I/O.  Same
shape here: a YAML document with a ``pipeline`` (inline dict or
``config: path``) and ``cases``, each case feeding literal rows through
the pipeline's steps and asserting on the result::

    pipeline:
      steps:
        - {op: filter, predicate: ["ge", ["col", "x"], ["lit", 3]]}
    cases:
      - name: drops small x
        input: [{x: 1}, {x: 5}, {x: 3}]
        expect:
          rows: [{x: 5}, {x: 3}]       # exact multiset by default
      - name: row count only
        input: [{x: 9}]
        expect: {count: 1}

Assertions: ``rows`` (order-insensitive multiset equality over the
union of columns, with ``approx: <tol>`` for float columns), ``count``
(row count), ``columns`` (exact schema name set).  Sinks are skipped —
tests exercise the transform plane, never write.
"""

from __future__ import annotations

import math
from typing import Any


def _load(doc_or_path: str | dict) -> dict:
    if isinstance(doc_or_path, dict):
        return doc_or_path
    import os

    import yaml

    if os.path.exists(doc_or_path):
        with open(doc_or_path) as f:
            return yaml.safe_load(f)
    return yaml.safe_load(doc_or_path)


def _rows_key(row: dict, cols: list[str], tol: float) -> tuple:
    out = []
    for c in cols:
        v = row.get(c)
        if isinstance(v, float):
            if math.isnan(v):
                out.append(("nan",))
            elif tol > 0:
                out.append(round(v / tol) * tol)
            else:
                out.append(v)
        else:
            out.append(v)
    return tuple(out)


def run_case(steps, case: dict) -> dict:
    """Run one case: literal input rows → pipeline steps → assertion.
    Returns {name, ok, detail}."""
    import pyarrow as pa
    import ray.data as rd

    name = case.get("name", "<unnamed>")
    rows_in = case.get("input", [])
    expect = case.get("expect", {})
    try:
        ds = rd.from_arrow(pa.Table.from_pylist(rows_in)) if rows_in \
            else rd.from_arrow(pa.table({}))
        for step in steps:
            ds = step(ds)
        ds = ds.materialize()
        got = ds.to_pandas().to_dict("records")
        # the schema names the columns even when no row came out
        schema = ds.schema()
        got_cols = sorted(schema.names) if schema is not None else None
    except Exception as exc:  # the case may assert on the error
        if "error" in expect:
            ok = str(expect["error"]) in f"{type(exc).__name__}: {exc}"
            return {"name": name, "ok": ok,
                    "detail": None if ok else
                    f"expected error {expect['error']!r}, got {exc!r}"}
        return {"name": name, "ok": False, "detail": f"raised {exc!r}"}

    if "error" in expect:
        return {"name": name, "ok": False,
                "detail": f"expected error {expect['error']!r}, "
                          f"pipeline returned {len(got)} rows"}
    if "count" in expect and len(got) != int(expect["count"]):
        return {"name": name, "ok": False,
                "detail": f"count {len(got)} != {expect['count']}"}
    if "columns" in expect:
        want_cols = sorted(expect["columns"])
        if got_cols is None:
            # Ray drops the schema of an all-empty result whose last
            # batch function never ran: unknown, so not a pass
            return {"name": name, "ok": False,
                    "detail": "columns unknown: no rows and no schema"}
        if want_cols != got_cols:
            return {"name": name, "ok": False,
                    "detail": f"columns {got_cols} != {want_cols}"}
    if "rows" in expect:
        want = expect["rows"]
        tol = float(expect.get("approx", 0.0))
        cols = sorted({c for r in list(want) + got for c in r})
        a = sorted(_rows_key(r, cols, tol) for r in got)
        b = sorted(_rows_key(r, cols, tol) for r in want)
        if a != b:
            return {"name": name, "ok": False,
                    "detail": f"rows mismatch: got {a[:5]}... "
                              f"want {b[:5]}..."}
    return {"name": name, "ok": True, "detail": None}


def run_config_tests(doc_or_path: str | dict) -> list[dict]:
    """Load a test document and run every case.  The pipeline's steps
    are built once (config errors fail every case loudly); ``input`` /
    ``output`` sections of the pipeline are ignored — cases inject
    literal rows and assert on the transform result, like the
    reference's processor-targeted tests."""
    from rayflow.ops import build_op

    doc = _load(doc_or_path)
    pconf = doc.get("pipeline", {})
    if isinstance(pconf, str) or "config" in pconf:
        inner = _load(pconf if isinstance(pconf, str) else pconf["config"])
        steps_conf = inner.get("steps", [])
    else:
        steps_conf = pconf.get("steps", [])
    steps = [build_op(s) for s in steps_conf]
    return [run_case(steps, c) for c in doc.get("cases", [])]

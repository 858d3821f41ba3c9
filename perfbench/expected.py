"""Expected outputs, computed apart from the engine, and the comparisons.

The change-log expectation is a last-writer-wins over the generated
event arrays themselves (integer keys, numpy), never over the engine's
files or code.  Query expectations come from each query's DuckDB SQL
run on the same Parquet files, or, for ``dup_span_remove_docs``, from a
plain-Python rebuild of its documented semantics.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench.gen import DELETE, Events, change_rows

KEYS = ["conv_id", "turn_idx"]
#: lake columns in the types they are compared in (turn_idx widened)
LAKE_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int64()), ("role", pa.string()),
    ("text", pa.string()), ("tool", pa.string()), ("ts", pa.timestamp("us")),
    ("meta_model", pa.string()), ("_lsn", pa.int64()),
])


# -- change logs ----------------------------------------------------------------


def lww_survivors(ev: Events, upto_lsn: int) -> np.ndarray:
    """LSNs of the rows alive after applying events ``0..upto_lsn``:
    per key the highest-LSN event, dropped when it is a delete."""
    n = upto_lsn + 1
    key = ev.conv[:n] * (1 << 24) + ev.turn[:n]
    _, first_in_reversed = np.unique(key[::-1], return_index=True)
    last = n - 1 - first_in_reversed
    return np.sort(last[ev.op[last] != DELETE])


def expected_lake(ev: Events, upto_lsn: int,
                  conv: int | None = None) -> pa.Table:
    """The lake as of ``upto_lsn`` (optionally one conversation only)."""
    idx = lww_survivors(ev, upto_lsn)
    if conv is not None:
        idx = idx[ev.conv[idx] == conv]
    sub = Events(*(a[idx] for a in ev.arrays()))
    rows = change_rows(sub, idx.astype(np.int64)).drop_columns(["op", "src_ts"])
    return normalize(rows.rename_columns(
        ["_lsn" if c == "lsn" else c for c in rows.column_names]))


def normalize(t: pa.Table) -> pa.Table:
    """Cast to :data:`LAKE_SCHEMA`; a missing ``meta_model`` (a lake that
    never saw the evolved schema) reads as nulls.  Other missing or extra
    columns raise."""
    extra = set(t.column_names) - set(LAKE_SCHEMA.names)
    missing = set(LAKE_SCHEMA.names) - set(t.column_names) - {"meta_model"}
    if extra or missing:
        raise ValueError(f"lake columns differ: extra {sorted(extra)}, "
                         f"missing {sorted(missing)}")
    cols = [t.column(f.name).cast(f.type) if f.name in t.column_names
            else pa.nulls(t.num_rows, f.type) for f in LAKE_SCHEMA]
    return pa.Table.from_arrays(cols, schema=LAKE_SCHEMA)


def read_lake(lake_dir: str) -> tuple[pa.Table, int]:
    """The live rows named by the lake's manifest, read with pyarrow, and
    the sum of the manifest's per-partition row counts."""
    with open(os.path.join(lake_dir, "manifest.json")) as f:
        parts = json.load(f)["partitions"].values()
    tables = [normalize(pq.read_table(os.path.join(lake_dir, p["file"])))
              for p in parts]
    table = pa.concat_tables(tables) if tables else LAKE_SCHEMA.empty_table()
    return table, sum(int(p["rows"]) for p in parts)


def _sorted(t: pa.Table, keys: list[str]) -> pa.Table:
    return t.take(pc.sort_indices(t, [(k, "ascending") for k in keys]))


def compare_lake(actual: pa.Table, expected: pa.Table) -> str | None:
    """``None`` when equal row for row and column for column (any row
    order, ``_lsn`` included); otherwise what differs."""
    try:
        actual = normalize(actual)
    except ValueError as e:
        return str(e)
    n_keys = pc.count_distinct(pc.binary_join_element_wise(
        actual["conv_id"], pc.cast(actual["turn_idx"], pa.string()),
        "\x00")).as_py() if actual.num_rows else 0
    if n_keys != actual.num_rows:
        return f"{actual.num_rows - n_keys} duplicate keys"
    if actual.num_rows != expected.num_rows:
        return f"{actual.num_rows} rows, expected {expected.num_rows}"
    a, e = _sorted(actual, KEYS), _sorted(expected, KEYS)
    for name in LAKE_SCHEMA.names:
        x, y = a[name].combine_chunks(), e[name].combine_chunks()
        if not x.equals(y):
            diff = pc.invert(pc.fill_null(pc.equal(x, y), False))
            row = int(np.flatnonzero(diff.to_numpy(zero_copy_only=False))[0])
            return (f"column {name} differs at key "
                    f"{e['conv_id'][row]}/{e['turn_idx'][row]}: "
                    f"{x[row]} != {y[row]}")
    return None


def check_lake(lake_dir: str, expected: pa.Table) -> str | None:
    """Compare a lake on disk with ``expected`` and check that the
    manifest's row counts sum to the rows of its live files."""
    table, manifest_rows = read_lake(lake_dir)
    if manifest_rows != table.num_rows:
        return (f"manifest counts {manifest_rows} rows, live files hold "
                f"{table.num_rows}")
    return compare_lake(table, expected)


# -- operators --------------------------------------------------------------------


def duckdb_result(sql: str, tables: dict[str, str]) -> pa.Table:
    import duckdb

    con = duckdb.connect()
    try:
        for name, path in tables.items():
            con.sql(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')")
        return con.sql(sql).arrow()
    finally:
        con.close()


def _canonical_rows(t: pa.Table) -> list[tuple]:
    cols = sorted(t.column_names)
    values = []
    for c in cols:
        col = t.column(c)
        if pa.types.is_timestamp(col.type):
            col = pc.cast(col.cast(pa.timestamp("us")), pa.int64())
        vals = col.to_pylist()
        if pa.types.is_floating(col.type):
            vals = [None if v is None else round(v, 6) for v in vals]
        values.append(vals)
    return sorted(zip(*values), key=repr)


def compare_query(actual: pa.Table, expected: pa.Table) -> str | None:
    """Order-insensitive equality of two query results (floats to six
    decimals, integers of any width, timestamps of any unit)."""
    if sorted(actual.column_names) != sorted(expected.column_names):
        return (f"columns {sorted(actual.column_names)} != "
                f"{sorted(expected.column_names)}")
    if actual.num_rows != expected.num_rows:
        return f"{actual.num_rows} rows, expected {expected.num_rows}"
    a, e = _canonical_rows(actual), _canonical_rows(expected)
    for i, (x, y) in enumerate(zip(a, e)):
        if x != y:
            return f"row {i} differs: {x} != {y}"
    return None


def dup_span_remove(doc_ids: list[int], texts: list[str],
                    k: int) -> pa.Table:
    """Every k-token window seen more than once keeps only its first
    occurrence, by (doc_id, position); the tokens under every other
    occurrence are cut.  Docs with cuts are re-joined with single
    spaces, the rest pass through verbatim."""
    first: dict[tuple, tuple[int, int]] = {}
    cuts: dict[int, list[int]] = {}
    toks = {d: (t or "").split() for d, t in zip(doc_ids, texts)}
    for d in sorted(toks):
        words = toks[d]
        for p in range(len(words) - k + 1):
            w = tuple(words[p:p + k])
            if w in first:
                cuts.setdefault(d, []).append(p)
            else:
                first[w] = (d, p)
    out_text, removed = [], []
    for d, t in zip(doc_ids, texts):
        if d not in cuts:
            out_text.append(t)
            removed.append(0)
            continue
        keep = np.ones(len(toks[d]), bool)
        for p in cuts[d]:
            keep[p:p + k] = False
        out_text.append(" ".join(w for w, m in zip(toks[d], keep) if m))
        removed.append(int((~keep).sum()))
    return pa.table({"doc_id": pa.array(doc_ids, pa.int64()),
                     "text": pa.array(out_text, pa.string()),
                     "n_tokens_removed": pa.array(removed, pa.int64())})

"""Named query/pipeline registry — the driver-contract surface.

Each entry pairs a Ray-Data pipeline (built from :mod:`rayflow.ops`
operators, exercising the component surface of SURVEY.md §2) with an
equivalent DuckDB SQL oracle over the same parquet tables.  Aggregate /
computed column names MATCH between both sides (driver hashes values
under sorted column names).

Conventions:
- every callable takes ``sf_dir`` and returns a ``ray.data.Dataset``
  (small results — the driver materializes);
- SQL avoids DuckDB extensions (offline container): JSON extraction via
  ``regexp_extract``, no ``json_*`` functions;
- int sums are cast to BIGINT in SQL (DuckDB's HUGEINT would drift the
  schema/hashes).
"""

from __future__ import annotations

import os
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow import expr as E
from rayflow.ops import build_op

QUERIES: dict[str, Callable[[str], Any]] = {}
ORACLE_SQL: dict[str, str] = {}


def query(name: str, sql: str | None = None):
    def deco(fn):
        if name in QUERIES:
            raise ValueError(f"duplicate query name {name!r} — the "
                             "second registration would silently "
                             "shadow the first")
        QUERIES[name] = fn
        if sql is not None:
            ORACLE_SQL[name] = sql
        return fn

    return deco


def _rd():
    import ray.data as rd

    return rd


def _t(sf_dir: str, table: str) -> str:
    return os.path.join(sf_dir, f"{table}.parquet")


def _round_cols(ds, cols: list[str], ndigits: int = 4):
    """Round float aggregate columns (both the engine and the SQL oracle
    round identically): multi-row float sums differ in the last ulps
    between engines purely from summation order, which an exact value
    hash would flag as a mismatch."""
    return build_op({
        "op": "mapping",
        "cols": {c: E.F("round", E.col(c), ndigits) for c in cols},
    })(ds)


# --------------------------------------------------------------------------
# relational core: filter / project / mapping
# --------------------------------------------------------------------------


@query(
    "filter_project_revenue",
    """
    SELECT l_orderkey, l_linenumber, l_quantity,
           l_extendedprice * (1 - l_discount) AS revenue
    FROM lineitem
    WHERE l_shipdate < TIMESTAMP '1997-01-01' AND l_quantity > 45
    """,
)
def filter_project_revenue(sf_dir: str):
    """Stateless transform chain: pruned read → vectorized filter →
    computed column → projection (``mapping`` + ``bounds_check``)."""
    import datetime

    ds = _rd().read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )
    ds = build_op({
        "op": "filter",
        "predicate": (E.col("l_shipdate") < E.lit(datetime.datetime(1997, 1, 1)))
        & (E.col("l_quantity") > 45.0),
    })(ds)
    ds = build_op({
        "op": "mapping",
        "cols": {"revenue": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_orderkey", "l_linenumber", "l_quantity", "revenue"],
    })(ds)
    return ds


@query(
    "groupby_agg_q1",
    """
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 4)                         AS sum_qty,
           round(sum(l_extendedprice), 4)                    AS sum_base_price,
           round(sum(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
           round(avg(l_quantity), 4)                         AS avg_qty,
           round(avg(l_extendedprice), 4)                    AS avg_price,
           CAST(count(*) AS BIGINT)                AS count_order
    FROM lineitem
    WHERE l_shipdate <= TIMESTAMP '1998-09-02'
    GROUP BY l_returnflag, l_linestatus
    """,
)
def groupby_agg_q1(sf_dir: str):
    """TPC-H Q1 shape: the grouped-aggregate archetype (``group_by_value``
    + Bloblang fold).  Ray Data pre-combines per block before the
    shuffle, so the exchange carries one partial row per (key, block)."""
    import datetime

    ds = _rd().read_parquet(
        _t(sf_dir, "lineitem"),
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )
    ds = build_op({
        "op": "filter",
        "predicate": E.col("l_shipdate") <= E.lit(datetime.datetime(1998, 9, 2)),
    })(ds)
    ds = build_op({
        "op": "mapping",
        "cols": {"disc_price": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount"))},
    })(ds)
    ds = build_op({
        "op": "group_agg",
        "keys": ["l_returnflag", "l_linestatus"],
        "aggs": [
            ("sum", "l_quantity", "sum_qty"),
            ("sum", "l_extendedprice", "sum_base_price"),
            ("sum", "disc_price", "sum_disc_price"),
            ("mean", "l_quantity", "avg_qty"),
            ("mean", "l_extendedprice", "avg_price"),
            ("count", None, "count_order"),
        ],
    })(ds)
    return _round_cols(ds, ["sum_qty", "sum_base_price", "sum_disc_price",
                            "avg_qty", "avg_price"])


@query(
    "sort_topk_orders",
    """
    SELECT o_orderkey, o_custkey, o_totalprice
    FROM orders
    ORDER BY o_totalprice DESC, o_orderkey
    LIMIT 10
    """,
)
def sort_topk_orders(sf_dir: str):
    """Distributed sort + limit (top-k)."""
    ds = _rd().read_parquet(
        _t(sf_dir, "orders"), columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    ds = build_op({"op": "sort", "keys": ["o_totalprice", "o_orderkey"],
                   "descending": [True, False]})(ds)
    return build_op({"op": "limit", "n": 10})(ds)


# --------------------------------------------------------------------------
# joins
# --------------------------------------------------------------------------


@query(
    "broadcast_join_region",
    """
    SELECT r_name,
           CAST(count(*) AS BIGINT) AS n_cust,
           round(sum(c_acctbal), 4) AS total_bal
    FROM customer
    JOIN nation ON c_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    GROUP BY r_name
    """,
)
def broadcast_join_region(sf_dir: str):
    """Enrichment lookup join (``branch`` + ``cache`` get): the dim side
    (nation⋈region, tiny) is broadcast via ``ray.put`` once; the fact
    side streams.  No shuffle until the final small aggregate."""
    import pyarrow.parquet as pq

    nation = pq.read_table(_t(sf_dir, "nation")).to_pandas()
    region = pq.read_table(_t(sf_dir, "region")).to_pandas()
    dim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")[
        ["n_nationkey", "r_name"]
    ]
    ds = _rd().read_parquet(
        _t(sf_dir, "customer"), columns=["c_nationkey", "c_acctbal"]
    )
    ds = build_op({
        "op": "broadcast_join", "small": dim,
        "on": ["c_nationkey"], "right_on": ["n_nationkey"], "how": "inner",
    })(ds)
    ds = build_op({
        "op": "group_agg", "keys": ["r_name"],
        "aggs": [("count", None, "n_cust"), ("sum", "c_acctbal", "total_bal")],
    })(ds)
    return _round_cols(ds, ["total_bal"])


@query(
    "sharded_join_mktsegment",
    """
    SELECT c_mktsegment,
           CAST(count(*) AS BIGINT) AS n_orders,
           round(sum(o_totalprice), 4) AS total_price
    FROM orders
    JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment
    """,
)
def sharded_join_mktsegment(sf_dir: str):
    """Large-large hash join (``sequence`` input ``sharded_join``):
    both sides shuffled on the key."""
    orders = _rd().read_parquet(_t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    customer = _rd().read_parquet(_t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    # shard count at THIS scale: fixed per-shard exchange overhead
    # dominates (interleaved sweep: 4 beats 8 by ~0.3s, 16/32 worse);
    # at real scale size shards by build-side bytes / worker heap
    ds = build_op({
        "op": "sharded_join", "right": customer,
        "on": ["o_custkey"], "right_on": ["c_custkey"],
        "how": "inner", "num_partitions": 4,
    })(orders)
    ds = build_op({
        "op": "group_agg", "keys": ["c_mktsegment"],
        "aggs": [("count", None, "n_orders"), ("sum", "o_totalprice", "total_price")],
    })(ds)
    return _round_cols(ds, ["total_price"])


@query(
    "semi_join_expensive_orders",
    """
    SELECT o_orderstatus, CAST(count(*) AS BIGINT) AS n
    FROM orders
    WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
    GROUP BY o_orderstatus
    """,
)
def semi_join_expensive_orders(sf_dir: str):
    """Semi join via broadcast key set + vectorized membership filter."""
    import pyarrow.parquet as pq

    keys = pq.read_table(
        _t(sf_dir, "customer"), columns=["c_custkey", "c_acctbal"]
    )
    keys = keys.filter(pc.greater(keys["c_acctbal"], 5000.0))["c_custkey"].to_pylist()
    ds = _rd().read_parquet(_t(sf_dir, "orders"), columns=["o_custkey", "o_orderstatus"])
    ds = build_op({"op": "broadcast_semi", "keys_ref": keys, "on": "o_custkey"})(ds)
    return build_op({
        "op": "group_agg", "keys": ["o_orderstatus"], "aggs": [("count", None, "n")],
    })(ds)


# --------------------------------------------------------------------------
# JSON / routing / dedupe / union (the message-processor surface)
# --------------------------------------------------------------------------


@query(
    "json_extract_props",
    """
    SELECT event_type,
           CAST(sum(CAST(regexp_extract(props, '"k": (-?\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,
           CAST(count(*) AS BIGINT) AS n
    FROM events
    GROUP BY event_type
    """,
)
def json_extract_props(sf_dir: str):
    """JSON payload extraction (``jq``/Bloblang ``json(path)``) over the
    dynamic ``props`` column, then aggregate."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["event_type", "props"])
    ds = build_op({
        "op": "mapping",
        "cols": {"k": E.F("json_get_int", E.col("props"), "k")},
        "drop": ["props"],
    })(ds)
    return build_op({
        "op": "group_agg", "keys": ["event_type"],
        "aggs": [("sum", "k", "sum_k"), ("count", None, "n")],
    })(ds)


@query(
    "dedupe_latest_event",
    """
    SELECT user_id, event_type, event_id, value, ts
    FROM (
      SELECT user_id, event_type, event_id, value, ts,
             row_number() OVER (PARTITION BY user_id, event_type
                                ORDER BY event_id DESC) AS rn
      FROM events
    ) WHERE rn = 1
    """,
)
def dedupe_latest_event(sf_dir: str):
    """Exact keyed dedupe keeping the latest row (``dedupe`` processor;
    two-phase block-partial + shuffle reduce)."""
    ds = _rd().read_parquet(
        _t(sf_dir, "events"),
        columns=["user_id", "event_type", "event_id", "value", "ts"],
    )
    return build_op({
        "op": "dedupe", "keys": ["user_id", "event_type"],
        "order_col": "event_id", "keep": "max",
    })(ds)


@query(
    "switch_route_counts",
    """
    SELECT CASE WHEN value < 10 THEN 'low'
                WHEN value < 100 THEN 'mid'
                ELSE 'high' END AS route,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 4)     AS sum_value
    FROM events
    GROUP BY 1
    """,
)
def switch_route_counts(sf_dir: str):
    """Conditional routing (``switch``): first-match route column."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["value"])
    ds = build_op({
        "op": "switch",
        "cases": [
            (E.col("value") < 10.0, "low"),
            (E.col("value") < 100.0, "mid"),
        ],
        "default": "high",
    })(ds)
    ds = build_op({
        "op": "group_agg", "keys": ["route"],
        "aggs": [("count", None, "n"), ("sum", "value", "sum_value")],
    })(ds)
    return _round_cols(ds, ["sum_value"])


@query(
    "union_fanin",
    """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n
    FROM (
      SELECT event_type FROM events WHERE value < 50
      UNION ALL
      SELECT event_type FROM events WHERE event_type = 'purchase'
    )
    GROUP BY event_type
    """,
)
def union_fanin(sf_dir: str):
    """Fan-in of two branches (``broker`` input)."""
    rd = _rd()
    a = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type", "value"])
    a = build_op({"op": "filter", "predicate": E.col("value") < 50.0})(a)
    a = a.select_columns(["event_type"])
    b = rd.read_parquet(_t(sf_dir, "events"), columns=["event_type"])
    b = build_op({"op": "filter", "predicate": E.col("event_type") == "purchase"})(b)
    ds = a.union(b)
    return build_op({
        "op": "group_agg", "keys": ["event_type"], "aggs": [("count", None, "n")],
    })(ds)


# --------------------------------------------------------------------------
# windows
# --------------------------------------------------------------------------


@query(
    "window_tumbling_hour",
    """
    SELECT time_bucket(INTERVAL 3600 SECONDS, ts) AS window_start,
           event_type,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 4)     AS sum_value
    FROM events
    GROUP BY 1, 2
    """,
)
def window_tumbling_hour(sf_dir: str):
    """Tumbling event-time window (``system_window`` analogue)."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["ts", "event_type", "value"])
    ds = build_op({
        "op": "window_tumbling", "ts_col": "ts", "size_s": 3600,
        "keys": ["event_type"],
        "aggs": [("count", None, "n"), ("sum", "value", "sum_value")],
    })(ds)
    return _round_cols(ds, ["sum_value"])


@query(
    "window_sliding_2h",
    """
    WITH b AS (
      SELECT time_bucket(INTERVAL 3600 SECONDS, ts) AS tb, value FROM events
    ), u AS (
      SELECT tb AS window_start, value FROM b
      UNION ALL
      SELECT tb - INTERVAL 3600 SECONDS AS window_start, value FROM b
    )
    SELECT window_start, CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 4) AS sum_value
    FROM u GROUP BY window_start
    """,
)
def window_sliding_2h(sf_dir: str):
    """Sliding window size=2h slide=1h: vectorized row replication into
    every containing window, then the same keyed aggregate."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["ts", "value"])
    ds = build_op({
        "op": "window_sliding", "ts_col": "ts", "size_s": 7200, "slide_s": 3600,
        "keys": [], "aggs": [("count", None, "n"), ("sum", "value", "sum_value")],
    })(ds)
    return _round_cols(ds, ["sum_value"])


# --------------------------------------------------------------------------
# string / document ops
# --------------------------------------------------------------------------


@query(
    "string_ops_lang",
    """
    SELECT upper(lang) AS lang_up,
           CAST(count(*) AS BIGINT)      AS n_docs,
           CAST(sum(length(text)) AS BIGINT) AS total_chars,
           round(avg(length(text)), 4)   AS avg_chars
    FROM documents
    GROUP BY upper(lang)
    """,
)
def string_ops_lang(sf_dir: str):
    """Scalar string functions (Bloblang string methods → Arrow kernels)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["lang", "text"])
    ds = build_op({
        "op": "mapping",
        "cols": {
            "lang_up": E.F("uppercase", E.col("lang")),
            "text_len": E.F("length", E.col("text")),
        },
        "select": ["lang_up", "text_len"],
    })(ds)
    ds = build_op({
        "op": "group_agg", "keys": ["lang_up"],
        "aggs": [("count", None, "n_docs"), ("sum", "text_len", "total_chars"),
                 ("mean", "text_len", "avg_chars")],
    })(ds)
    return _round_cols(ds, ["avg_chars"])


@query(
    "explode_token_topk",
    """
    SELECT token, CAST(count(*) AS BIGINT) AS n
    FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
    GROUP BY token
    ORDER BY n DESC, token
    LIMIT 20
    """,
)
def explode_token_topk(sf_dir: str):
    """Tokenize + explode (``unarchive``/``flat_map``) + top-k."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["text"])
    ds = build_op({"op": "split_text", "column": "text", "out": "token",
                   "pattern": " ", "regex": False})(ds)
    ds = ds.select_columns(["token"])
    ds = build_op({
        "op": "group_agg", "keys": ["token"], "aggs": [("count", None, "n")],
    })(ds)
    ds = build_op({"op": "sort", "keys": ["n", "token"],
                   "descending": [True, False]})(ds)
    return build_op({"op": "limit", "n": 20})(ds)


# --------------------------------------------------------------------------
# flagship: CDC upsert through the real merge machinery
# --------------------------------------------------------------------------


@query(
    "cdc_upsert_events",
    """
    WITH changes AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             CAST(CASE event_type WHEN 'click' THEN 0 WHEN 'error' THEN 1
                  WHEN 'purchase' THEN 2 WHEN 'signup' THEN 3
                  ELSE 4 END AS INTEGER)     AS turn_idx,
             event_type                      AS role,
             props                           AS text,
             ''                              AS tool,
             ts,
             event_id                        AS lsn,
             CASE WHEN value < 10 THEN 'delete' ELSE 'update' END AS op
      FROM events
    ), ranked AS (
      SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                   ORDER BY lsn DESC) AS rn
      FROM changes
    )
    SELECT conv_id, turn_idx, role, text, tool, ts, lsn AS _lsn
    FROM ranked WHERE rn = 1 AND op <> 'delete'
    """,
)
def cdc_upsert_events(sf_dir: str):
    """The flagship pipeline run against driver data: the ``events``
    table dressed as a CDC change stream (event_id ≙ lsn, (user_id,
    event_type) ≙ key, value<10 ≙ delete) and replayed through the REAL
    engine — NormalizeChanges → salted partitioning → LWW merge
    → exactly-once lake → read back (FIXTURES.md §3)."""
    import tempfile

    from rayflow.cdc.replay import CdcEngine

    changes = _events_as_changes(sf_dir)

    # distributed one-band change log on disk (each block lands as its
    # own part file — nothing materializes on the driver) → full engine
    # path (source → merge → sink)
    from rayflow.cdc.changelog import write_changelog_dataset

    work = tempfile.mkdtemp(prefix="rayflow-cdcq-")
    log_dir = os.path.join(work, "log")
    write_changelog_dataset(changes, log_dir)

    engine = CdcEngine(os.path.join(work, "lake"), num_partitions=8, auto_salt=False)
    engine.replay(log_dir)
    return engine.final_dataset(include_meta=True)


@query(
    "cdc_repartition_midstream",
    """
    WITH changes AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             CAST(CASE event_type WHEN 'click' THEN 0 WHEN 'error' THEN 1
                  WHEN 'purchase' THEN 2 WHEN 'signup' THEN 3
                  ELSE 4 END AS INTEGER)     AS turn_idx,
             event_type                      AS role,
             props                           AS text,
             ''                              AS tool,
             ts,
             event_id                        AS lsn,
             CASE WHEN value < 10 THEN 'delete' ELSE 'update' END AS op
      FROM events
    ), ranked AS (
      SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                   ORDER BY lsn DESC) AS rn
      FROM changes
    )
    SELECT conv_id, turn_idx, role, text, tool, ts, lsn AS _lsn
    FROM ranked WHERE rn = 1 AND op <> 'delete'
    """,
)
def cdc_repartition_midstream(sf_dir: str):
    """PARTITION EVOLUTION mid-stream: the events change log is written
    as three lsn bands; band 1 replays into a P=8 lake, the lake is then
    repartitioned to P=3 with a fresh salt plan (atomic manifest flip,
    every key re-bucketed — ``CdcEngine.repartition``), and bands 2-3
    replay under the NEW placement law.  The oracle is the plain LWW
    final state over the whole log: evolution must be invisible to the
    result."""
    import tempfile

    from rayflow.cdc.changelog import write_changelog_dataset
    from rayflow.cdc.replay import CdcEngine

    changes = _events_as_changes(sf_dir)
    work = tempfile.mkdtemp(prefix="rayflow-repartq-")
    log_dir = os.path.join(work, "log")
    write_changelog_dataset(changes, log_dir, n_bands=3)

    lake = os.path.join(work, "lake")
    e1 = CdcEngine(lake, num_partitions=8, auto_salt=False)
    e1.replay(log_dir, max_bands=1)
    e1.repartition(3)
    e2 = CdcEngine(lake, num_partitions=3)  # fresh engine, post-evolution law
    e2.replay(log_dir)
    return e2.final_dataset(include_meta=True)


@query(
    "incremental_window_view",
    """
    WITH changes AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             CAST(CASE event_type WHEN 'click' THEN 0 WHEN 'error' THEN 1
                  WHEN 'purchase' THEN 2 WHEN 'signup' THEN 3
                  ELSE 4 END AS INTEGER)     AS turn_idx,
             event_type                      AS role,
             ts,
             event_id                        AS lsn,
             CASE WHEN value < 10 THEN 'delete' ELSE 'update' END AS op
      FROM events
    ), ranked AS (
      SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                   ORDER BY lsn DESC) AS rn
      FROM changes
    ), final AS (
      SELECT * FROM ranked WHERE rn = 1 AND op <> 'delete'
    )
    SELECT make_timestamp(CAST(floor(epoch_us(ts) / 3600000000.0) AS BIGINT)
                          * 3600000000) AS window_start,
           role,
           CAST(COUNT(*) AS BIGINT)      AS n,
           CAST(SUM(turn_idx) AS DOUBLE) AS s,
           AVG(CAST(turn_idx AS DOUBLE)) AS m
    FROM final
    WHERE ts IS NOT NULL
    GROUP BY 1, 2
    """,
)
def incremental_window_view(sf_dir: str):
    """Maintained windowed aggregate over the CDC stream: the events
    change log is written as THREE lsn bands, replayed band-by-band,
    and a :class:`TumblingWindowView` (hourly, keyed by role) is
    refreshed at each commit by delta/retraction folding — the result
    returned is the incrementally-maintained state, which the oracle
    checks against a from-scratch windowed aggregate of the LWW-final
    rows."""
    import tempfile

    from rayflow.cdc.changelog import write_changelog_dataset
    from rayflow.cdc.replay import CdcEngine
    from rayflow.cdc.views import TumblingWindowView

    changes = _events_as_changes(sf_dir)
    work = tempfile.mkdtemp(prefix="rayflow-viewq-")
    log_dir = os.path.join(work, "log")
    write_changelog_dataset(changes, log_dir, n_bands=3)
    eng = CdcEngine(os.path.join(work, "lake"), num_partitions=8,
                    auto_salt=False)
    view = TumblingWindowView(
        eng, log_dir, ts_col="ts", size_s=3600.0, keys=["role"],
        aggs=[("count", None, "n"), ("sum", "turn_idx", "s"),
              ("mean", "turn_idx", "m")])
    while eng.replay(log_dir, max_bands=1).bands_applied:
        view.refresh()
    return view.result()


def _events_as_changes(sf_dir: str):
    """The ``events`` table dressed as a CDC change stream (event_id ≙
    lsn, (user_id, event_type) ≙ key, value<10 ≙ delete) — shared by
    the CDC-over-driver-data queries."""
    from rayflow.schema import CHANGE_SCHEMA

    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"))

    _ETYPES = pa.array(["click", "error", "purchase", "signup"])

    def to_changes(t: pa.Table) -> pa.Table:
        # turn_idx: index_in against the ordered type list IS the
        # mapping (null → 4) — no per-row dict lookup
        turn = pc.cast(pc.fill_null(pc.index_in(t["event_type"], value_set=_ETYPES), 4),
                       pa.int32())
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        op = pc.if_else(pc.less(t["value"], 10.0),
                        pa.scalar("delete"), pa.scalar("update"))
        out = pa.table({
            "lsn": t["event_id"],
            "op": op,
            "src_ts": t["ts"].cast(pa.timestamp("us")),
            "conv_id": conv,
            "turn_idx": turn,
            "role": t["event_type"],
            "text": t["props"],
            "tool": pa.array(np.full(t.num_rows, ""), type=pa.string()),
            "ts": t["ts"].cast(pa.timestamp("us")),
        })
        return out.cast(CHANGE_SCHEMA)

    return ds.map_batches(to_changes, batch_format="pyarrow",
                          zero_copy_batch=True)


# --------------------------------------------------------------------------
# training-data ops: text analysis / dedup / similarity search
# --------------------------------------------------------------------------


@query(
    "token_count_docs",
    """
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
    FROM documents
    """,
)
def token_count_docs(sf_dir: str):
    """Token counting (whitespace regex, vectorized)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "token_count"})(ds)
    return ds.select_columns(["doc_id", "n_tokens"])


@query(
    "bpe_token_count_docs",
    r"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text,
             $$'[sdmt]|'ll|'ve|'re| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+$$
           )) AS BIGINT) AS n_bpe_tokens
    FROM documents
    """,
)
def bpe_token_count_docs(sf_dir: str):
    """GPT-2-style pre-token counting (`token_count preset="bpe"`):
    the training-cost estimator — BPE merges only split within these
    pre-tokens, so the count upper-bounds tokenizer spend per doc.
    Same RE2 pattern on both sides (Arrow and DuckDB), exact."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "token_count", "preset": "bpe",
                   "out": "n_bpe_tokens"})(ds)
    return ds.select_columns(["doc_id", "n_bpe_tokens"])


@query(
    "extract_long_words",
    """
    SELECT doc_id,
           COALESCE(array_to_string(regexp_extract_all(text, '[a-z]{8,}'),
                                    ' '), '') AS long_words,
           CAST(len(regexp_extract_all(text, '[a-z]{8,}')) AS BIGINT)
               AS n_long
    FROM documents
    """,
)
def extract_long_words(sf_dir: str):
    """The vectorized ``re_find_all`` kernel over the corpus (both
    engines are RE2, so semantics line up exactly)."""
    from rayflow.expr import _REGISTRY as FN

    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        words = FN["re_find_all"](t["text"], pa.scalar("[a-z]{8,}"))
        return pa.table({
            "doc_id": t["doc_id"],
            "long_words": FN["list_join"](words, pa.scalar(" ")),
            "n_long": pc.cast(pc.list_value_length(words), pa.int64()),
        })

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


@query(
    "quality_metrics_docs",
    """
    SELECT doc_id,
           CAST(length(text) AS BIGINT) AS n_chars_q,
           CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
           CAST(length(text) - length(regexp_replace(text, '[.,;:!?]', '', 'g')) AS BIGINT) AS n_punct,
           CAST(length(text) - length(regexp_replace(text, '[0-9]', '', 'g')) AS BIGINT) AS n_digits
    FROM documents
    """,
)
def quality_metrics_docs(sf_dir: str):
    """Quality-scoring metrics (char/token/punct/digit counts)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "quality_score"})(ds)
    return ds.select_columns(["doc_id", "n_chars_q", "n_tokens", "n_punct", "n_digits"])


@query(
    "doc_fingerprint",
    """
    SELECT doc_id, md5(text) AS fp_md5 FROM documents
    """,
)
def doc_fingerprint(sf_dir: str):
    """Content fingerprinting (md5 + rolling-hash min; md5 oracle-checked)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "fingerprint"})(ds)
    return ds.select_columns(["doc_id", "fp_md5"])


@query(
    "dedup_exact_text",
    """
    SELECT text,
           CAST(min(doc_id) AS BIGINT) AS first_doc,
           CAST(count(*) AS BIGINT)    AS n_copies
    FROM documents GROUP BY text
    """,
)
def dedup_exact_text(sf_dir: str):
    """Exact text dedup: keep-first per content group (hash-partitioned)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return build_op({
        "op": "group_agg", "keys": ["text"],
        "aggs": [("min", "doc_id", "first_doc"), ("count", None, "n_copies")],
    })(ds)


@query(
    "knn_bruteforce_cos",
    """
    WITH q AS (
      SELECT vec_id AS query_id, embedding AS qv FROM embeddings WHERE vec_id < 5
    ), sims AS (
      SELECT q.query_id, e.vec_id,
             list_cosine_similarity(q.qv, e.embedding) AS cos
      FROM q CROSS JOIN embeddings e
      WHERE e.vec_id <> q.query_id
    ), ranked AS (
      SELECT query_id, vec_id,
             row_number() OVER (PARTITION BY query_id
                                ORDER BY cos DESC, vec_id) AS rank
      FROM sims
    )
    SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank
    FROM ranked WHERE rank <= 10
    """,
)
def knn_bruteforce_cos(sf_dir: str):
    """Brute-force cosine top-k: broadcast query matrix, per-batch numpy
    matmul partials, tiny per-query final reduce."""
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    mask = pc.less(emb["vec_id"], 5)
    qt = emb.filter(mask)
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    ds = _rd().read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return build_op({
        "op": "knn_bruteforce", "queries": queries, "query_ids": qids, "k": 10,
    })(ds)


@query(
    "minhash_near_dup",
    r"""
    WITH t AS (
      SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS toks
      FROM documents
    ), sh AS (
      SELECT doc_id,
        CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
             WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
             ELSE list_distinct(list_transform(range(1, len(toks) - 1),
                  i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
        END AS s
      FROM t
    ), p AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             len(list_intersect(a.s, b.s)) AS inter,
             len(a.s) AS la, len(b.s) AS lb
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    ), j AS (
      SELECT doc_a, doc_b,
             CASE WHEN la + lb = 0 THEN 1.0
                  ELSE CAST(inter AS DOUBLE) / (la + lb - inter) END AS jaccard
      FROM p
    )
    SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.5
    """,
)
def minhash_near_dup(sf_dir: str):
    """MinHash+LSH near-duplicate pairs (Jaccard-verified); also
    cross-checked against blocked brute force in
    tests/test_training_ops.py.

    The SQL oracle is the exact brute force (string 3-gram shingle sets,
    all pairs): valid because (a) the verify stage reports the raw
    double ``|A∩B|/|A∪B|`` which is bit-identical to the SQL ratio,
    and (b) with the fixed seed the banding detects every fixture pair
    with J ≥ 0.5 (the fixtures' near-dups sit at J ≳ 0.85 where the
    16-band/4-row miss probability is < 1e-5, verified empirically at
    sf0.001/0.01/0.1)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return build_op({
        "op": "minhash_lsh_dedup", "threshold": 0.5, "num_perm": 64,
        "num_bands": 16, "shingle_k": 3,
    })(ds)


@query(
    "dup_span_pairs_docs",
    r"""
    WITH toks AS (
      SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS tk
      FROM documents
    ), w AS (
      SELECT doc_id, array_to_string(tk[i:i+19], ' ') AS span
      FROM toks, (SELECT unnest(range(1, 5000)) AS i) r
      WHERE i + 19 <= len(tk)
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(count(DISTINCT a.span) AS BIGINT) AS n_shared
    FROM w a JOIN w b ON a.span = b.span AND a.doc_id < b.doc_id
    GROUP BY 1, 2
    """,
)
def dup_span_pairs_docs(sf_dir: str):
    """Exact duplicated-span detection (`dup_span_pairs`, k=20): pairs
    of documents sharing at least one 20-token window — the
    substring-duplication signal whole-document Jaccard misses (Lee et
    al. dedup, hashed windows instead of a suffix array)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return build_op({"op": "dup_span_pairs", "k_tokens": 20})(ds)


@query(
    "profile_documents",
    """
    WITH one AS (
      SELECT 'doc_id' AS "column",
             CAST(count(*) AS BIGINT) AS n_rows,
             CAST(count(*) - count(doc_id) AS BIGINT) AS n_nulls,
             CAST(count(DISTINCT doc_id) AS BIGINT) AS n_distinct,
             CAST(min(doc_id) AS VARCHAR) AS min_str,
             CAST(max(doc_id) AS VARCHAR) AS max_str
      FROM documents
      UNION ALL
      SELECT 'lang', CAST(count(*) AS BIGINT),
             CAST(count(*) - count(lang) AS BIGINT),
             CAST(count(DISTINCT lang) AS BIGINT),
             min(lang), max(lang) FROM documents
      UNION ALL
      SELECT 'n_chars', CAST(count(*) AS BIGINT),
             CAST(count(*) - count(n_chars) AS BIGINT),
             CAST(count(DISTINCT n_chars) AS BIGINT),
             CAST(min(n_chars) AS VARCHAR), CAST(max(n_chars) AS VARCHAR)
      FROM documents
      UNION ALL
      SELECT 'source', CAST(count(*) AS BIGINT),
             CAST(count(*) - count(source) AS BIGINT),
             CAST(count(DISTINCT source) AS BIGINT),
             min(source), max(source) FROM documents
    )
    SELECT * FROM one
    """,
)
def profile_documents(sf_dir: str):
    """Dataset profile (`profile_columns`, exact mode): one cheap pass
    for rows/nulls/min/max partials plus one keyed exchange bounded by
    per-column cardinality for exact distinct counts.  The approx mode
    (HLL partials, cardinality-independent exchange) is the 100 TB
    path, covered by its own sketch tests."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "lang", "n_chars", "source"])
    return build_op({
        "op": "profile_columns",
        "columns": ["doc_id", "lang", "n_chars", "source"],
    })(ds)


@query(
    "sharded_anti_quiet_customers",
    """
    SELECT c_custkey, round(c_acctbal, 4) AS acctbal
    FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey
                        AND o.o_totalprice > 300000)
    """,
)
def sharded_anti_quiet_customers(sf_dir: str):
    """Anti join with NO size assumption (`sharded_semi` anti=True):
    customers with no order above the price cut, via distinct-key
    reduce + left-outer
    hash join + null-marker filter — the 100 TB path where the key set
    cannot be broadcast."""
    rd = _rd()
    cust = rd.read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_acctbal"])
    cust = build_op({
        "op": "mapping",
        "cols": {"acctbal": E.F("round", E.col("c_acctbal"), 4)},
        "select": ["c_custkey", "acctbal"],
    })(cust)
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_totalprice"])
    orders = build_op({
        "op": "filter", "predicate": E.col("o_totalprice") > 300000.0,
    })(orders)
    return build_op({
        "op": "sharded_semi", "right": orders,
        "on": "c_custkey", "right_on": "o_custkey",
        "anti": True, "num_partitions": 4,
    })(cust)


@query(
    "full_outer_cust_activity",
    """
    WITH oc AS (
      SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders
      FROM orders GROUP BY o_custkey
    ), cc AS (
      SELECT c_custkey, round(c_acctbal, 4) AS acctbal
      FROM customer WHERE c_acctbal > 5000
    )
    SELECT coalesce(oc.o_custkey, cc.c_custkey) AS custkey,
           oc.n_orders, cc.acctbal
    FROM oc FULL OUTER JOIN cc ON oc.o_custkey = cc.c_custkey
    """,
)
def full_outer_cust_activity(sf_dir: str):
    """FULL OUTER sharded join: rich customers with no orders keep a
    row (null n_orders), ordering customers below the balance cut keep
    a row (null acctbal).  The order side is pre-aggregated to
    (custkey, count) so the exchange is bounded by customer
    cardinality; Ray's full_outer coalesces the key columns."""
    rd = _rd()
    oc = build_op({
        "op": "group_agg", "keys": ["o_custkey"],
        "aggs": [("count", None, "n_orders")],
    })(rd.read_parquet(_t(sf_dir, "orders"), columns=["o_custkey"]))
    cc = rd.read_parquet(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_acctbal"])
    cc = build_op({
        "op": "filter", "predicate": E.col("c_acctbal") > 5000.0,
    })(cc)
    cc = build_op({
        "op": "mapping",
        "cols": {"acctbal": E.F("round", E.col("c_acctbal"), 4)},
        "select": ["c_custkey", "acctbal"],
    })(cc)
    joined = build_op({
        "op": "sharded_join", "right": cc,
        "on": ["o_custkey"], "right_on": ["c_custkey"],
        "how": "full_outer", "num_partitions": 4,
    })(oc)
    return build_op({
        "op": "mapping",
        "cols": {"custkey": E.col("o_custkey")},
        "select": ["custkey", "n_orders", "acctbal"],
    })(joined)


@query(
    "sql_batch_transform",
    """
    SELECT o_orderkey, o_custkey,
           round(o_totalprice * 0.9, 4) AS discounted,
           CASE WHEN o_orderpriority LIKE '1%' OR o_orderpriority LIKE '2%'
                THEN 'urgent' ELSE 'normal' END AS urgency
    FROM orders
    WHERE o_orderstatus = 'O' AND o_totalprice > 100000
    """,
)
def sql_batch_transform(sf_dir: str):
    """Per-batch DuckDB SQL processor (`sql_batch`): row-level SQL
    (filter, CASE, arithmetic) is batch-local-safe, so the global SQL
    oracle is the op's own query text over view `batch` — the point of
    the processor-level SQL escape hatch."""
    ds = _rd().read_parquet(
        _t(sf_dir, "orders"),
        columns=["o_orderkey", "o_custkey", "o_totalprice",
                 "o_orderstatus", "o_orderpriority"],
    )
    return build_op({"op": "sql_batch", "sql": """
        SELECT o_orderkey, o_custkey,
               round(o_totalprice * 0.9, 4) AS discounted,
               CASE WHEN o_orderpriority LIKE '1%' OR o_orderpriority LIKE '2%'
                    THEN 'urgent' ELSE 'normal' END AS urgency
        FROM batch
        WHERE o_orderstatus = 'O' AND o_totalprice > 100000
    """})(ds)


@query(
    "lm_score_docs",
    r"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(string_split(lower(coalesce(text, '')), ' '),
                         x -> x <> '') AS tk
      FROM documents
    ), flat AS (
      SELECT doc_id, unnest(tk) AS tok, generate_subscripts(tk, 1) AS i
      FROM toks
    ), bg AS (
      SELECT a.doc_id, a.tok AS w1, a.tok || ' ' || b.tok AS bgk
      FROM flat a JOIN flat b ON a.doc_id = b.doc_id AND b.i = a.i + 1
    ), ucnt AS (
      SELECT tok, count(*) AS cu FROM flat GROUP BY tok
    ), bcnt AS (
      SELECT bgk, count(*) AS cb FROM bg GROUP BY bgk
    ), vv AS (
      SELECT count(*) AS v FROM ucnt
    ), scored AS (
      SELECT bg.doc_id,
             ln((bcnt.cb + 1.0) / (ucnt.cu + 1.0 * vv.v)) AS lp
      FROM bg
      JOIN bcnt USING (bgk)
      JOIN ucnt ON ucnt.tok = bg.w1
      CROSS JOIN vv
    )
    SELECT d.doc_id, round(avg(s.lp), 4) AS lm_logprob
    FROM documents d LEFT JOIN scored s ON d.doc_id = s.doc_id
    GROUP BY d.doc_id
    """,
)
def lm_score_docs(sf_dir: str):
    """Corpus-trained add-1 bigram LM average log-probability per doc
    (CCNet-style LM quality filtering with an in-pipeline model): two
    corpus passes, one vocabulary-sized exchange, broadcast model,
    ``pc.index_in`` lookups.  With min_count=1 every document bigram is
    in the model, so the SQL inner joins see exactly the engine's
    counts; both sides round to 4 digits (summation-order ulps)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    scored = build_op({"op": "ngram_lm_score"})(ds)
    return _round_cols(scored, ["lm_logprob"])


@query(
    "ngram_jaccard_near_dup",
    r"""
    WITH t AS (
      SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS toks
      FROM documents
    ), sh AS (
      SELECT doc_id,
        CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
             WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
             ELSE list_distinct(list_transform(range(1, len(toks) - 1),
                  i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
        END AS s
      FROM t
    ), p AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
             len(list_intersect(a.s, b.s)) AS inter,
             len(a.s) AS la, len(b.s) AS lb
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
    ), j AS (
      SELECT doc_a, doc_b,
             CASE WHEN la + lb = 0 THEN 1.0
                  ELSE CAST(inter AS DOUBLE) / (la + lb - inter) END AS jaccard
      FROM p
    )
    SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.4
    """,
)
def ngram_jaccard_near_dup(sf_dir: str):
    """EXACT n-gram Jaccard near-dup pairs (prefix-filtered AllPairs,
    no sketch): unlike `minhash_near_dup` the oracle here is the op's
    literal definition — every pair with shingle Jaccard >= 0.4 must
    appear, including pairs just above the threshold where LSH banding
    recall decays.  Threshold 0.4 deliberately sits below the MinHash
    query's 0.5 so the two entries exercise different recall regimes."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return build_op({
        "op": "ngram_jaccard_dedup", "threshold": 0.4, "shingle_k": 3,
    })(ds)


@query(
    "simhash_fingerprints",
    r"""
    WITH t AS (
      SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS toks
      FROM documents
    ), tok AS (
      SELECT doc_id, len(toks) AS n, unnest(toks) AS tk FROM t
    ), h AS (
      SELECT doc_id, n,
             CAST('0x' || substring(md5(tk), 1, 16) AS UBIGINT) AS hv
      FROM tok
    ), bits AS (
      SELECT doc_id, n, i,
             CASE WHEN (hv >> i) & 1 = 1 THEN 1 ELSE 0 END AS b
      FROM h CROSS JOIN (SELECT unnest(range(63)) AS i)
    ), mj AS (
      SELECT doc_id, i,
             CASE WHEN 2 * sum(b) > any_value(n)
                  THEN (1::UBIGINT << i) ELSE 0::UBIGINT END AS v
      FROM bits GROUP BY doc_id, i
    ), s AS (
      SELECT doc_id, CAST(sum(v) AS BIGINT) AS simhash FROM mj GROUP BY doc_id
    )
    SELECT d.doc_id, COALESCE(s.simhash, 0) AS simhash
    FROM documents d LEFT JOIN s ON d.doc_id = s.doc_id
    """,
)
def simhash_fingerprints(sf_dir: str):
    """Charikar simhash fingerprints.  Token hash = first 8 bytes of
    md5 (big-endian), 63 bits — chosen so DuckDB reproduces the exact
    value (``CAST('0x'||substring(md5(t),1,16) AS UBIGINT)``), making
    the sketch itself oracle-checkable, not just its collision
    behavior."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return build_op({"op": "simhash"})(ds)


@query(
    "lang_id_docs",
    """
    WITH t AS (
      SELECT doc_id, text,
             list_transform(
               regexp_extract_all(coalesce(text, ''), '[a-zA-Zäöüéèàç]+'),
               x -> lower(x)) AS toks
      FROM documents
    ), s AS (
      SELECT doc_id, text, len(toks) AS n,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('the','and','of','to','a','in','is','that','it','for'))) AS DOUBLE) / len(toks) END AS s_en,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('der','die','und','das','ist','von','mit','den','nicht','ein'))) AS DOUBLE) / len(toks) END AS s_de,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('le','la','et','les','des','est','un','une','dans','que'))) AS DOUBLE) / len(toks) END AS s_fr,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('el','la','de','que','y','los','en','un','una','es'))) AS DOUBLE) / len(toks) END AS s_es
      FROM t
    )
    SELECT doc_id,
      CASE WHEN text IS NULL THEN NULL
           WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
           WHEN n = 0 THEN 'unknown'
           WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'unknown'
           WHEN s_fr >= s_en AND s_fr >= s_de AND s_fr >= s_es THEN 'fr'
           WHEN s_es >= s_en AND s_es >= s_de THEN 'es'
           WHEN s_en >= s_de THEN 'en'
           ELSE 'de' END AS lang_pred,
      CASE WHEN text IS NULL THEN NULL
           WHEN regexp_matches(text, '[一-鿿]') THEN 1.0
           WHEN n = 0 THEN 0.0
           ELSE greatest(s_en, s_de, s_fr, s_es) END AS lang_conf
    FROM s
    """,
)
def lang_id_docs(sf_dir: str):
    """Language ID (stopword-ratio heuristic).  Deterministic pure
    function of the text, so the whole scorer — CJK short-circuit, token
    regex, per-language stopword ratios, (score, lang-name) argmax
    tie-break — is reproduced in SQL.  ``lang_conf`` is the raw double
    ratio in both engines (bit-identical IEEE division)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "lang_id"})(ds)
    return ds.select_columns(["doc_id", "lang_pred", "lang_conf"])


@query("ann_lsh_topk")  # approximate; recall vs brute force tested in pytest
def ann_lsh_topk(sf_dir: str):
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qt = emb.filter(pc.less(emb["vec_id"], 5))
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    ds = _rd().read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return build_op({
        "op": "ann_lsh", "queries": queries, "query_ids": qids, "k": 10,
        "dim": queries.shape[1], "n_planes": 8,
    })(ds)


def _ann_planted(sf_dir: str, op: str):
    """Shared body for the planted-neighbor ANN oracles: augment the
    corpus with exact copies of the query vectors (ids +1_000_000); the
    copy provably lands in the query's own LSH bucket / IVF list
    (identical vector ⇒ identical plane signs / nearest centroid) and
    cosine 1.0 beats every non-copy (max natural cosine ≈0.6), so
    rank 1 is deterministic — an exact oracle for an approximate
    index."""
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qt = emb.filter(pc.less(emb["vec_id"], 5))
    queries_m = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    planted = qt.set_column(0, "vec_id", pc.add(qt["vec_id"], 1_000_000))
    ds = _rd().from_arrow(pa.concat_tables([emb, planted]))
    if op == "ann_lsh":
        spec = {"op": "ann_lsh", "queries": queries_m, "query_ids": qids,
                "k": 10, "dim": queries_m.shape[1], "n_planes": 8}
    else:
        sample = np.asarray(
            emb.take(pa.array(range(0, emb.num_rows, max(1, emb.num_rows // 500))))
            ["embedding"].to_pylist(), dtype=np.float64)
        if op == "ann_pq":
            spec = {"op": "ann_pq", "queries": queries_m, "query_ids": qids,
                    "k": 10, "m_sub": 8, "k_sub": 64, "rerank": 4,
                    "train_sample": sample}
        else:
            spec = {"op": "ann_ivf", "queries": queries_m, "query_ids": qids,
                    "k": 10, "n_clusters": 16, "nprobe": 4,
                    "train_sample": sample}
    out = build_op(spec)(ds)
    return build_op({"op": "filter", "predicate": E.col("rank") == 1})(out)


_ANN_PLANTED_SQL = """
    SELECT vec_id AS query_id,
           CAST(vec_id + 1000000 AS BIGINT) AS vec_id,
           CAST(1 AS BIGINT) AS rank
    FROM embeddings WHERE vec_id < 5
    """


@query("ann_lsh_planted", _ANN_PLANTED_SQL)
def ann_lsh_planted(sf_dir: str):
    return _ann_planted(sf_dir, "ann_lsh")


@query("ann_ivf_planted", _ANN_PLANTED_SQL)
def ann_ivf_planted(sf_dir: str):
    return _ann_planted(sf_dir, "ann_ivf")


@query(
    "grok_extract_props",
    """
    SELECT regexp_extract(props, '"k": (-?\\d+)', 1) AS kstr,
           CAST(count(*) AS BIGINT) AS n
    FROM events
    GROUP BY 1
    ORDER BY n DESC, kstr
    LIMIT 15
    """,
)
def grok_extract_props(sf_dir: str):
    """Regex field extraction (``grok``) + aggregate over the captured
    group."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["props"])
    ds = build_op({"op": "grok", "column": "props",
                   "pattern": '"k": (?P<kstr>-?\\d+)'})(ds)
    ds = build_op({"op": "catch"})(ds)
    ds = build_op({
        "op": "group_agg", "keys": ["kstr"], "aggs": [("count", None, "n")],
    })(ds)
    ds = build_op({"op": "sort", "keys": ["n", "kstr"],
                   "descending": [True, False]})(ds)
    return build_op({"op": "limit", "n": 15})(ds)


@query(
    "generate_synthetic",
    """
    SELECT CAST(i AS BIGINT) AS id,
           CAST(i * 7 % 100 AS BIGINT) AS bucket,
           CAST(sum(i) OVER () AS BIGINT) AS total
    FROM (SELECT unnest(range(1000)) AS i)
    """,
)
def generate_synthetic(sf_dir: str):
    """Synthetic deterministic input (the ``generate`` input): row index
    is the only seed.  Exercises the generate source + mapping through
    the declarative pipeline builder."""
    from rayflow.pipeline import Pipeline

    p = Pipeline.from_dict({
        "input": {
            "op": "generate", "count": 1000,
            "mapping": {"bucket": ["mod", ["col", "id"], ["lit", 100]]},
        },
    })
    ds = p.run()
    # bucket = id*7 % 100 to make the mapping non-trivial
    ds = build_op({
        "op": "mapping",
        "cols": {"bucket": E.F("int64", (E.col("id") * 7) % 100)},
    })(ds)
    total = 1000 * 999 // 2
    ds = build_op({"op": "mapping", "cols": {"total": E.lit(total)}})(ds)
    return ds.select_columns(["id", "bucket", "total"])


@query(
    "anti_join_idle_customers",
    """
    SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n
    FROM customer
    WHERE c_custkey NOT IN (SELECT o_custkey FROM orders
                            WHERE o_totalprice > 300000)
    GROUP BY c_mktsegment
    """,
)
def anti_join_idle_customers(sf_dir: str):
    """Anti join via broadcast key set (customers with no expensive
    order)."""
    import pyarrow.parquet as pq

    keys = pq.read_table(_t(sf_dir, "orders"), columns=["o_custkey", "o_totalprice"])
    keys = keys.filter(pc.greater(keys["o_totalprice"], 300000.0))["o_custkey"].to_pylist()
    ds = _rd().read_parquet(_t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    ds = build_op({"op": "broadcast_semi", "keys_ref": keys, "on": "c_custkey",
                   "anti": True})(ds)
    return build_op({
        "op": "group_agg", "keys": ["c_mktsegment"], "aggs": [("count", None, "n")],
    })(ds)


@query(
    "late_filter_recent_events",
    """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n
    FROM events
    WHERE ts >= (SELECT max(ts) FROM events) - INTERVAL 7 DAYS
    GROUP BY event_type
    """,
)
def late_filter_recent_events(sf_dir: str):
    """Allowed-lateness watermark filter (``system_window`` lateness)."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["event_type", "ts"])
    ds = build_op({"op": "late_filter", "ts_col": "ts",
                   "allowed_lateness_s": 7 * 86400.0})(ds)
    return build_op({
        "op": "group_agg", "keys": ["event_type"], "aggs": [("count", None, "n")],
    })(ds)


@query(
    "group_topk_events",
    """
    SELECT event_type, event_id, value
    FROM (
      SELECT event_type, event_id, value,
             row_number() OVER (PARTITION BY event_type
                                ORDER BY value DESC, event_id) AS rn
      FROM events
    ) WHERE rn <= 3
    """,
)
def group_topk_events(sf_dir: str):
    """Per-group top-k (top-3 events by value per type)."""
    ds = _rd().read_parquet(
        _t(sf_dir, "events"), columns=["event_type", "event_id", "value"]
    )
    return build_op({
        "op": "group_topk", "keys": ["event_type"], "order_col": "value",
        "k": 3, "descending": True, "tiebreak": "event_id",
    })(ds)


@query(
    "count_distinct_users",
    """
    SELECT event_type, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
    FROM events
    GROUP BY event_type
    """,
)
def count_distinct_users(sf_dir: str):
    """Distinct count: two-stage (distinct pairs, then count) — the
    pre-aggregated pattern that avoids shipping raw rows twice."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["event_type", "user_id"])
    # stage 1: distinct (event_type, user_id) pairs
    ds = build_op({
        "op": "group_agg", "keys": ["event_type", "user_id"],
        "aggs": [("count", None, "_c")],
    })(ds)
    # stage 2: count pairs per type
    return build_op({
        "op": "group_agg", "keys": ["event_type"], "aggs": [("count", None, "n_users")],
    })(ds).select_columns(["event_type", "n_users"])


@query(
    "window_session_user",
    """
    WITH s AS (
      SELECT user_id, ts, value,
             CASE WHEN lag(ts) OVER w IS NULL
                  OR ts - lag(ts) OVER w > INTERVAL 2 DAYS
                  THEN 1 ELSE 0 END AS new_s
      FROM events
      WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    ), s2 AS (
      SELECT user_id, ts, value,
             sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                              ROWS UNBOUNDED PRECEDING) AS sid
      FROM s
    )
    SELECT user_id, min(ts) AS session_start,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 4)     AS sum_value
    FROM s2 GROUP BY user_id, sid
    """,
)
def window_session_user(sf_dir: str):
    """Gap-based session windows per user (2-day inactivity gap)."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["user_id", "ts", "value"])
    ds = build_op({
        "op": "window_session", "keys": ["user_id"], "ts_col": "ts",
        "gap_s": 2 * 86400.0,
        "aggs": [("count", None, "n"), ("sum", "value", "sum_value")],
    })(ds)
    ds = _round_cols(ds, ["sum_value"])
    return ds.select_columns(["user_id", "session_start", "n", "sum_value"])


@query(
    "sql_source_priority",
    """
    SELECT o_orderpriority,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(o_totalprice), 4) AS total
    FROM orders WHERE o_totalprice > 200000
    GROUP BY o_orderpriority
    """,
)
def sql_source_priority(sf_dir: str):
    """SQL input (``sql_select``): DuckDB bootstrap query feeding a
    rayflow aggregate."""
    from rayflow.pipeline import Pipeline

    p = Pipeline.from_dict({
        "input": {
            "op": "sql_query",
            "sql": "SELECT o_orderpriority, o_totalprice FROM orders "
                   "WHERE o_totalprice > 200000",
            "tables": {"orders": _t(sf_dir, "orders")},
        },
        "steps": [
            {"op": "group_agg", "keys": ["o_orderpriority"],
             "aggs": [["count", None, "n"], ["sum", "o_totalprice", "total"]]},
        ],
    })
    return _round_cols(p.run(), ["total"])


@query(
    "embedding_near_dup_pairs",
    """
    WITH aug AS (
      SELECT vec_id, embedding FROM embeddings
      UNION ALL
      SELECT vec_id + 1000000 AS vec_id, embedding FROM embeddings
      WHERE vec_id < 50
    ), p AS (
      SELECT a.vec_id AS id_a, b.vec_id AS id_b,
             list_cosine_similarity(a.embedding, b.embedding) AS cos
      FROM aug a JOIN aug b ON a.vec_id < b.vec_id
    )
    SELECT id_a, id_b, round(cos, 6) AS cos FROM p WHERE cos >= 0.98
    """,
)
def embedding_near_dup_pairs(sf_dir: str):
    """Embedding-cosine near-dup detection.  Driver embeddings are
    random (no true near-dups; max natural pairwise cosine ≈0.6 across
    all sf tiers), so the corpus is augmented with exact copies of the
    first 50 vectors (ids +1_000_000) — every planted pair must be
    found, deterministically, and the SQL cross-join oracle enumerates
    exactly the same set (identical plane signs ⇒ LSH recall 1 on
    exact copies)."""
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    planted = emb.slice(0, 50).set_column(
        0, "vec_id", pc.add(emb.slice(0, 50)["vec_id"], 1_000_000)
    )
    ds = _rd().from_arrow(pa.concat_tables([emb, planted]))
    return build_op({
        "op": "embedding_near_dup", "threshold": 0.98, "dim": 64, "n_planes": 8,
    })(ds)


@query(
    "multi_join_q3",
    """
    SELECT l_orderkey,
           round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue,
           o_orderdate
    FROM customer
    JOIN orders   ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    WHERE c_mktsegment = 'BUILDING'
      AND o_orderdate < TIMESTAMP '1998-03-15'
      AND l_shipdate  > TIMESTAMP '1995-03-15'
    GROUP BY l_orderkey, o_orderdate
    ORDER BY revenue DESC, l_orderkey
    LIMIT 10
    """,
)
def multi_join_q3(sf_dir: str):
    """TPC-H Q3 shape: three-way join plan mixing both join strategies —
    the filtered customer side broadcasts (small after the segment
    filter), orders⋈lineitem shuffles on the order key — then a grouped
    aggregate and top-k."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    cust = pq.read_table(_t(sf_dir, "customer"), columns=["c_custkey", "c_mktsegment"])
    cust_keys = cust.filter(
        pc.equal(cust["c_mktsegment"], "BUILDING")
    )["c_custkey"].to_pylist()

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = build_op({
        "op": "filter",
        "predicate": E.col("o_orderdate") < E.lit(datetime.datetime(1998, 3, 15)),
    })(orders)
    orders = build_op({"op": "broadcast_semi", "keys_ref": cust_keys,
                       "on": "o_custkey"})(orders)

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])
    li = build_op({
        "op": "filter",
        "predicate": E.col("l_shipdate") > E.lit(datetime.datetime(1995, 3, 15)),
    })(li)
    li = build_op({
        "op": "mapping",
        "cols": {"rev": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_orderkey", "rev"],
    })(li)

    # the semi-filtered orders side is small at bench scale —
    # strategy="auto" sizes it and broadcasts (the planner decision);
    # past 64 MB it falls back to the keyed shuffle unchanged
    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 8, "strategy": "auto",
    })(li)
    agg = build_op({
        "op": "group_agg", "keys": ["l_orderkey", "o_orderdate"],
        "aggs": [("sum", "rev", "revenue")],
    })(joined)
    agg = _round_cols(agg, ["revenue"])
    agg = build_op({"op": "sort", "keys": ["revenue", "l_orderkey"],
                    "descending": [True, False]})(agg)
    agg = build_op({"op": "limit", "n": 10})(agg)
    return agg.select_columns(["l_orderkey", "revenue", "o_orderdate"])


@query("ann_lsh_pruned", _ANN_PLANTED_SQL)
def ann_lsh_pruned(sf_dir: str):
    """LSH search through the ON-DISK bucket-partitioned index — the
    probe reads only the query buckets' partitions (bytes-pruning
    asserted in pytest).  Planted-copy oracle as for the other ANN
    entries."""
    import os

    import pyarrow.parquet as pq

    from rayflow.ops.ann import LshIndex

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qt = emb.filter(pc.less(emb["vec_id"], 5))
    queries_m = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    planted = qt.set_column(0, "vec_id", pc.add(qt["vec_id"], 1_000_000))

    tag = os.path.basename(os.path.normpath(sf_dir))
    mtime = int(os.path.getmtime(_t(sf_dir, "embeddings")))
    path = f"/tmp/rayflow-ann-cache/{tag}-lsh8-{mtime}"
    if not os.path.exists(os.path.join(path, "meta.json")):
        ds = _rd().from_arrow(pa.concat_tables([emb, planted]))
        LshIndex.build(ds, path, dim=queries_m.shape[1], n_planes=8, seed=42)
    idx = LshIndex(path)
    out = idx.probe(queries_m, qids, k=10)
    return build_op({"op": "filter", "predicate": E.col("rank") == 1})(out)


@query("ann_ivf_pruned", _ANN_PLANTED_SQL)
def ann_ivf_pruned(sf_dir: str):
    """IVF search through the ON-DISK partition-pruned index: the
    corpus (plus planted copies of the query vectors) is written once
    as list-partitioned Parquet (``IvfIndex.build``) and the probe
    reads only its ``nprobe`` partitions — bytes read drop by
    ~n_clusters/nprobe vs streaming the corpus (asserted in pytest).
    Cached under /tmp keyed by sf dir; content is deterministic
    (seeded k-means)."""
    import os

    import pyarrow.parquet as pq

    from rayflow.ops.ann import IvfIndex

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qt = emb.filter(pc.less(emb["vec_id"], 5))
    queries_m = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    planted = qt.set_column(0, "vec_id", pc.add(qt["vec_id"], 1_000_000))
    sample = np.asarray(
        emb.take(pa.array(range(0, emb.num_rows, max(1, emb.num_rows // 500))))
        ["embedding"].to_pylist(), dtype=np.float64)

    tag = os.path.basename(os.path.normpath(sf_dir))
    mtime = int(os.path.getmtime(_t(sf_dir, "embeddings")))
    path = f"/tmp/rayflow-ann-cache/{tag}-ivf16-{mtime}"
    if not os.path.exists(os.path.join(path, "meta.json")):
        ds = _rd().from_arrow(pa.concat_tables([emb, planted]))
        IvfIndex.build(ds, path, train_sample=sample, n_clusters=16, seed=42)
    idx = IvfIndex(path)
    out = idx.probe(queries_m, qids, k=10, nprobe=4)
    return build_op({"op": "filter", "predicate": E.col("rank") == 1})(out)


@query("ann_ivf_topk")  # approximate; recall vs brute force in pytest
def ann_ivf_topk(sf_dir: str):
    """IVF similarity search over the embeddings table (k-means coarse
    quantizer trained on a seeded corpus sample, multi-probe)."""
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qt = emb.filter(pc.less(emb["vec_id"], 5))
    queries_m = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    sample = np.asarray(
        emb.take(pa.array(range(0, emb.num_rows, max(1, emb.num_rows // 500))))
        ["embedding"].to_pylist(), dtype=np.float64)
    ds = _rd().read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    return build_op({
        "op": "ann_ivf", "queries": queries_m, "query_ids": qids, "k": 10,
        "n_clusters": 16, "nprobe": 4, "train_sample": sample,
    })(ds)


# --------------------------------------------------------------------------
# corpus curation (rayflow/ops/curation.py): PII redaction, repetition
# quality, decontamination, n-gram stats, k-means assignment
# --------------------------------------------------------------------------


@query(
    "pii_redact_docs",
    r"""
    WITH p AS (
      SELECT doc_id,
             'contact u' || CAST(doc_id AS VARCHAR) ||
             '@mail.example.com from 10.' || CAST(doc_id % 256 AS VARCHAR) ||
             '.0.1 tel +1202555' || CAST(1000 + doc_id % 9000 AS VARCHAR) ||
             ' -- ' || text AS raw
      FROM documents)
    SELECT doc_id,
           regexp_replace(regexp_replace(regexp_replace(raw,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
             '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
             '\+\d{7,15}', '<PHONE>', 'g') AS redacted
    FROM p
    """,
)
def pii_redact_docs(sf_dir: str):
    """PII redaction (emails/IPs/phones → typed placeholders).  The
    fixture text carries no PII, so the pipeline first PLANTS
    deterministic PII derived from doc_id — both sides construct the
    identical string, then redact with the identical RE2 patterns
    (pyarrow and DuckDB share the regex engine)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({
        "op": "mapping",
        "cols": {"raw": E.F(
            "concat",
            E.lit("contact u"), E.F("string", E.col("doc_id")),
            E.lit("@mail.example.com from 10."),
            E.F("string", E.col("doc_id") % 256),
            E.lit(".0.1 tel +1202555"),
            E.F("string", (E.col("doc_id") % 9000) + 1000),
            E.lit(" -- "), E.col("text"),
        )},
    })(ds)
    ds = build_op({"op": "pii_redact", "column": "raw", "out": "redacted"})(ds)
    return ds.select_columns(["doc_id", "redacted"])


@query(
    "gopher_quality_docs",
    """
    WITH w AS (
      SELECT doc_id,
             unnest(list_filter(string_split(lower(text), ' '),
                                x -> x <> '')) AS w
      FROM documents
    ), cnt AS (
      SELECT doc_id, w, CAST(count(*) AS BIGINT) AS c
      FROM w GROUP BY doc_id, w
    ), agg AS (
      SELECT doc_id,
             CAST(sum(c) AS BIGINT)   AS n_words,
             CAST(count(*) AS BIGINT) AS n_unique_words,
             CAST(max(c) AS BIGINT)   AS max_c,
             CAST(coalesce(sum(c) FILTER (WHERE w IN
               ('the','and','of','to','a','in','is','that','it','for')), 0)
               AS BIGINT) AS stop_c
      FROM cnt GROUP BY doc_id)
    SELECT doc_id, n_words, n_unique_words,
           1.0 - CAST(n_unique_words AS DOUBLE) / CAST(n_words AS DOUBLE)
             AS dup_word_frac,
           CAST(max_c AS DOUBLE) / CAST(n_words AS DOUBLE) AS top_word_frac,
           CAST(stop_c AS DOUBLE) / CAST(n_words AS DOUBLE) AS stopword_frac
    FROM agg
    """,
)
def gopher_quality_docs(sf_dir: str):
    """Gopher-style repetition/quality metrics (duplicate-word fraction,
    top-word fraction, stopword fraction) — the published pre-training
    quality filters, one dictionary-encoded flat pass per batch.
    Ratios are raw IEEE doubles; the SQL mirrors each division."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "gopher_quality"})(ds)
    ds = build_op({"op": "filter", "predicate": E.col("n_words") > 0})(ds)
    return ds.select_columns([
        "doc_id", "n_words", "n_unique_words",
        "dup_word_frac", "top_word_frac", "stopword_frac"])


@query(
    "decontaminate_docs",
    """
    WITH bench AS (
      SELECT DISTINCT substr(text, 1, 40) AS snip FROM documents
      WHERE doc_id % 97 = 0 AND length(text) >= 40)
    SELECT d.doc_id,
           EXISTS (SELECT 1 FROM bench b WHERE contains(d.text, b.snip))
             AS contaminated
    FROM documents d
    """,
)
def decontaminate_docs(sf_dir: str):
    """Benchmark decontamination: flag corpus docs that contain any
    benchmark snippet verbatim.  The benchmark set (every 97th doc's
    40-char prefix — tiny, as real eval sets are) is broadcast once;
    each batch is checked with vectorized substring matches."""
    import pyarrow.parquet as pq

    dt = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ids = dt["doc_id"].to_numpy()
    bench = dt.filter(pa.array(ids % 97 == 0))["text"].to_pylist()
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({
        "op": "decontaminate", "bench": bench, "mode": "substring",
        "snip_len": 40,
    })(ds)
    return ds.select_columns(["doc_id", "contaminated"])


@query(
    "bigram_topk_docs",
    """
    WITH toks AS (
      SELECT doc_id,
             list_filter(string_split(lower(text), ' '), x -> x <> '') AS l
      FROM documents
    ), bg AS (
      SELECT l[i] || ' ' || l[i+1] AS ngram
      FROM toks, LATERAL (SELECT unnest(range(1, len(l))) AS i) r
      WHERE len(l) >= 2
    ), c AS (
      SELECT ngram, CAST(count(*) AS BIGINT) AS n_occurrences
      FROM bg GROUP BY ngram
    )
    SELECT ngram, n_occurrences FROM c
    ORDER BY n_occurrences DESC, ngram LIMIT 20
    """,
)
def bigram_topk_docs(sf_dir: str):
    """Corpus-wide top-20 word bigrams: per-batch partial counts over
    dictionary codes, one keyed combine of (ngram, count) rows, top-k.
    The token stream never crosses the exchange."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    return build_op({"op": "ngram_topk", "n": 2, "k": 20})(ds)


@query(
    "kmeans_assign_seeded",
    """
    WITH c AS (
      SELECT vec_id AS cid, embedding AS cv FROM embeddings WHERE vec_id < 8
    ), sims AS (
      SELECT e.vec_id, c.cid,
             list_cosine_similarity(e.embedding, c.cv) AS cos
      FROM embeddings e CROSS JOIN c
    ), best AS (
      SELECT vec_id, cid,
             row_number() OVER (PARTITION BY vec_id
                                ORDER BY cos DESC, cid) AS rn
      FROM sims)
    SELECT vec_id, CAST(cid AS BIGINT) AS cluster FROM best WHERE rn = 1
    """,
)
def kmeans_assign_seeded(sf_dir: str):
    """k-means cluster assignment with pinned initial centroids
    (vec_id < 8, zero Lloyd's iterations) — the deterministic,
    SQL-provable slice of the distributed k-means op.  The iterative
    fit path (streaming partial-sum passes) is pytest-covered on
    planted blobs."""
    ds = _rd().read_parquet(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    ds = build_op({
        "op": "kmeans", "n_clusters": 8, "n_iter": 0,
        "init_ids": list(range(8)),
    })(ds)
    return ds.select_columns(["vec_id", "cluster"])


@query(
    "regional_revenue_q5",
    """
    SELECT n.n_name,
           round(sum(l.l_extendedprice * (1 - l.l_discount)), 4) AS revenue
    FROM region r
    JOIN nation n   ON n.n_regionkey = r.r_regionkey
    JOIN customer c ON c.c_nationkey = n.n_nationkey
    JOIN orders o   ON o.o_custkey = c.c_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
                   AND s.s_nationkey = c.c_nationkey
    WHERE r.r_name = 'ASIA'
      AND o.o_orderdate >= TIMESTAMP '1996-01-01'
      AND o.o_orderdate <  TIMESTAMP '1998-01-01'
    GROUP BY n.n_name
    """,
)
def regional_revenue_q5(sf_dir: str):
    """TPC-H Q5 shape: a five-table join plan exercising the dim-chain
    pattern — every dimension (region→nation→customer, supplier)
    broadcasts; the ONLY exchange is the large-large
    lineitem⋈orders sharded join.  At 100 TB customer would also
    shard (strategy="auto" makes that call per-run); the local/remote
    nation-match filter (s_nationkey == c_nationkey) runs vectorized
    after the supplier broadcast lookup."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    # dim chain, resolved driver-side (a few KB): region → nation keys
    reg = pq.read_table(_t(sf_dir, "region"))
    asia = reg.filter(pc.equal(reg["r_name"], "ASIA"))["r_regionkey"]
    nat = pq.read_table(_t(sf_dir, "nation"))
    nat = nat.filter(pc.is_in(nat["n_regionkey"], value_set=asia))
    nat_keys = nat["n_nationkey"].to_pylist()
    cust = pq.read_table(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_nationkey"])
    cust = cust.filter(pc.is_in(cust["c_nationkey"],
                                value_set=pa.array(nat_keys)))
    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = build_op({
        "op": "filter",
        "predicate":
            (E.col("o_orderdate") >= E.lit(datetime.datetime(1996, 1, 1)))
            & (E.col("o_orderdate") < E.lit(datetime.datetime(1998, 1, 1))),
    })(orders)
    orders = build_op({"op": "broadcast_join", "small": cust, "how": "inner",
                       "on": ["o_custkey"], "right_on": ["c_custkey"]})(orders)
    orders = build_op({"op": "select", "columns":
                       ["o_orderkey", "c_nationkey"]})(orders)

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])
    li = build_op({
        "op": "mapping",
        "cols": {"rev": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_orderkey", "l_suppkey", "rev"],
    })(li)
    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 8,
    })(li)
    joined = build_op({"op": "broadcast_join", "small": supp, "how": "inner",
                       "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(joined)
    joined = build_op({
        "op": "filter",
        "predicate": E.col("s_nationkey") == E.col("c_nationkey"),
    })(joined)
    names = nat.select(["n_nationkey", "n_name"])
    joined = build_op({"op": "broadcast_join", "small": names, "how": "inner",
                       "on": ["c_nationkey"], "right_on": ["n_nationkey"]})(joined)
    agg = build_op({
        "op": "group_agg", "keys": ["n_name"],
        "aggs": [("sum", "rev", "revenue")],
    })(joined)
    agg = _round_cols(agg, ["revenue"])
    return agg.select_columns(["n_name", "revenue"])


@query(
    "stratified_sample_docs",
    """
    WITH r AS (
      SELECT doc_id, source,
             row_number() OVER (PARTITION BY source
                                ORDER BY md5(CAST(doc_id AS VARCHAR)),
                                         doc_id) AS rn
      FROM documents)
    SELECT doc_id, source FROM r WHERE rn <= 20
    """,
)
def stratified_sample_docs(sf_dir: str):
    """Deterministic per-source subsampling quota (20 docs per source,
    ranked by md5 of the id) — reproducible across engines, unlike
    random sampling; per-batch top-n partials keep the exchange tiny."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "source"])
    ds = build_op({
        "op": "stratified_sample", "keys": ["source"], "n": 20,
        "id_col": "doc_id",
    })(ds)
    return ds.select_columns(["doc_id", "source"])


@query(
    "pack_chunks_docs",
    """
    SELECT doc_id,
           CAST((sum(n_chars) OVER (ORDER BY doc_id
                                    ROWS UNBOUNDED PRECEDING) - n_chars)
                // 10000 AS BIGINT) AS chunk_id
    FROM documents
    """,
)
def pack_chunks_docs(sf_dir: str):
    """Sequence packing (concat-and-chunk at 10k chars): distributed
    prefix-sum via bucketed partials + co-located intra-bucket cumsum —
    the window cumulative Ray Data has no primitive for."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "n_chars"])
    ds = build_op({
        "op": "pack_chunks", "size_col": "n_chars", "capacity": 10_000,
        "order_col": "doc_id", "bucket_rows": 256,
    })(ds)
    return ds.select_columns(["doc_id", "chunk_id"])


@query(
    "percentile_nchars_by_source",
    """
    WITH o AS (
      SELECT source, n_chars,
             row_number() OVER (PARTITION BY source ORDER BY n_chars) AS rn,
             count(*) OVER (PARTITION BY source) AS cnt
      FROM documents)
    SELECT source,
      CAST(max(CASE WHEN rn = greatest(1,
            CAST(ceil(CAST(0.5 AS DOUBLE) * cnt) AS BIGINT))
        THEN n_chars END) AS BIGINT) AS p50,
      CAST(max(CASE WHEN rn = greatest(1,
            CAST(ceil(CAST(0.9 AS DOUBLE) * cnt) AS BIGINT))
        THEN n_chars END) AS BIGINT) AS p90
    FROM o GROUP BY source
    """,
)
def percentile_nchars_by_source(sf_dir: str):
    """Exact per-source p50/p90 of document length via the histogram
    combiner (only (source, n_chars, count) rows shuffle).  Rank =
    ceil(q·n) computed in IEEE doubles on BOTH sides (the SQL casts the
    quantile literal to DOUBLE; DuckDB's DECIMAL arithmetic would
    otherwise round differently at exact integer boundaries)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["source", "n_chars"])
    ds = build_op({
        "op": "group_percentile", "keys": ["source"], "value_col": "n_chars",
        "quantiles": [0.5, 0.9],
    })(ds)
    return ds.select_columns(["source", "p50", "p90"])


@query(
    "curate_corpus_docs",
    """
    WITH g AS (
      SELECT doc_id,
             CAST(len(list_filter(string_split(lower(text), ' '),
                                  x -> x <> '')) AS BIGINT) AS n_words,
             CAST(len(list_distinct(list_filter(string_split(lower(text), ' '),
                                  x -> x <> ''))) AS BIGINT) AS n_unique
      FROM documents
    ), ltoks AS (
      SELECT doc_id, text,
             list_transform(
               regexp_extract_all(coalesce(text, ''), '[a-zA-Zäöüéèàç]+'),
               x -> lower(x)) AS toks
      FROM documents
    ), l AS (
      SELECT doc_id, text, len(toks) AS n,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('the','and','of','to','a','in','is','that','it','for'))) AS DOUBLE) / len(toks) END AS s_en,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('der','die','und','das','ist','von','mit','den','nicht','ein'))) AS DOUBLE) / len(toks) END AS s_de,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('le','la','et','les','des','est','un','une','dans','que'))) AS DOUBLE) / len(toks) END AS s_fr,
        CASE WHEN len(toks) = 0 THEN 0.0 ELSE
          CAST(len(list_filter(toks, x -> x IN
            ('el','la','de','que','y','los','en','un','una','es'))) AS DOUBLE) / len(toks) END AS s_es
      FROM ltoks
    ), lp AS (
      SELECT doc_id,
        CASE WHEN text IS NULL THEN NULL
             WHEN regexp_matches(text, '[一-鿿]') THEN 'zh'
             WHEN n = 0 THEN 'unknown'
             WHEN greatest(s_en, s_de, s_fr, s_es) = 0 THEN 'unknown'
             WHEN s_fr >= s_en AND s_fr >= s_de AND s_fr >= s_es THEN 'fr'
             WHEN s_es >= s_en AND s_es >= s_de THEN 'es'
             WHEN s_en >= s_de THEN 'en'
             ELSE 'de' END AS lang_pred
      FROM l
    ), filtered AS (
      SELECT d.doc_id, d.text
      FROM documents d
      JOIN g  ON g.doc_id = d.doc_id
      JOIN lp ON lp.doc_id = d.doc_id
      WHERE g.n_words >= 10
        AND (1.0 - CAST(g.n_unique AS DOUBLE) / CAST(g.n_words AS DOUBLE))
            <= 0.6
        AND lp.lang_pred = 'en'
    ), dd AS (
      SELECT text, CAST(min(doc_id) AS BIGINT) AS doc_id
      FROM filtered GROUP BY text
    ), bench AS (
      SELECT DISTINCT substr(text, 1, 40) AS snip FROM documents
      WHERE doc_id % 97 = 0 AND length(text) >= 40
    ), survivors AS (
      SELECT doc_id, text FROM dd
      WHERE NOT EXISTS (SELECT 1 FROM bench b WHERE contains(dd.text, b.snip))
    )
    SELECT doc_id,
           md5(regexp_replace(regexp_replace(regexp_replace(text,
             '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
             '\\b\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\.\\d{1,3}\\b', '<IP>', 'g'),
             '\\+\\d{7,15}', '<PHONE>', 'g')) AS fp
    FROM survivors
    """,
)
def curate_corpus_docs(sf_dir: str):
    """FLAGSHIP corpus-curation pipeline — the full pre-training chain
    composed from the individual (each independently oracle-checked)
    stages, end-to-end in ONE streaming Dataset plan:

      quality filter (Gopher repetition + length) → language filter
      (lang_id == 'en') → exact dedup (keep first per text) →
      benchmark decontamination → PII redaction → content fingerprint.

    One keyed exchange total (the dedup reduce); everything else is
    map-side.  The SQL oracle reproduces the entire chain."""
    import pyarrow.parquet as pq

    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({"op": "gopher_quality"})(ds)
    ds = build_op({
        "op": "filter",
        "predicate": (E.col("n_words") >= 10)
        & (E.col("dup_word_frac") <= 0.6),
    })(ds)
    ds = build_op({"op": "lang_id"})(ds)
    ds = build_op({
        "op": "filter", "predicate": E.col("lang_pred") == E.lit("en"),
    })(ds)
    ds = build_op({"op": "select", "columns": ["doc_id", "text"]})(ds)
    ds = build_op({
        "op": "dedupe", "keys": ["text"], "order_col": "doc_id", "keep": "min",
    })(ds)
    dt = pq.read_table(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ids = dt["doc_id"].to_numpy()
    bench = dt.filter(pa.array(ids % 97 == 0))["text"].to_pylist()
    ds = build_op({
        "op": "decontaminate", "bench": bench, "mode": "substring",
        "snip_len": 40,
    })(ds)
    ds = build_op({
        "op": "filter", "predicate": E.col("contaminated") == E.lit(False),
    })(ds)
    ds = build_op({"op": "pii_redact"})(ds)
    ds = build_op({
        "op": "mapping", "cols": {"fp": E.F("hash_md5", E.col("text"))},
        "select": ["doc_id", "fp"],
    })(ds)
    return ds


@query(
    "asof_latest_click_value",
    """
    WITH p AS (
      SELECT event_id, user_id, ts, value FROM events
      WHERE event_type = 'purchase'
    ), c AS (
      SELECT user_id, ts, max(value) AS click_value
      FROM events WHERE event_type = 'click'
      GROUP BY user_id, ts
    )
    SELECT p.event_id, p.user_id, p.value, c.click_value
    FROM p ASOF LEFT JOIN c
      ON p.user_id = c.user_id AND p.ts >= c.ts
    """,
)
def asof_latest_click_value(sf_dir: str):
    """As-of join: every purchase event enriched with the value of the
    user's latest click at or before the purchase time — the
    state-at-event-time lookup (DuckDB ``ASOF JOIN``).  The right side
    is pre-deduped on (user, ts) so tie resolution is engine-
    independent.  One keyed exchange co-locates each user's rows."""
    rd = _rd()
    ev_cols = ["event_id", "user_id", "ts", "event_type", "value"]
    purchases = rd.read_parquet(_t(sf_dir, "events"), columns=ev_cols)
    purchases = build_op({
        "op": "filter", "predicate": E.col("event_type") == E.lit("purchase"),
    })(purchases)
    purchases = build_op({"op": "select",
                          "columns": ["event_id", "user_id", "ts", "value"]})(purchases)
    clicks = rd.read_parquet(_t(sf_dir, "events"), columns=ev_cols)
    clicks = build_op({
        "op": "filter", "predicate": E.col("event_type") == E.lit("click"),
    })(clicks)
    clicks = build_op({
        "op": "group_agg", "keys": ["user_id", "ts"],
        "aggs": [("max", "value", "click_value")],
    })(clicks)
    out = build_op({
        "op": "asof_join", "right": clicks, "on": "user_id", "time_col": "ts",
    })(purchases)
    return out.select_columns(["event_id", "user_id", "value", "click_value"])


@query(
    "purchases_in_signup_window",
    """
    WITH s AS (
      SELECT event_id AS signup_id, user_id, ts AS start_ts,
             ts + INTERVAL 30 DAY AS end_ts
      FROM events WHERE event_type = 'signup'
    ), p AS (
      SELECT event_id, user_id, ts, value FROM events
      WHERE event_type = 'purchase'
    )
    SELECT p.event_id, CAST(s.signup_id AS BIGINT) AS signup_id, p.user_id
    FROM p JOIN s ON p.user_id = s.user_id
               AND p.ts >= s.start_ts AND p.ts <= s.end_ts
    """,
)
def purchases_in_signup_window(sf_dir: str):
    """Range (interval) join: every purchase matched to each signup
    whose 30-day window contains it, per user — the event-in-window
    enrichment as one keyed exchange + per-key binary-search sweep
    (never a cross product)."""
    rd = _rd()
    ev_cols = ["event_id", "user_id", "ts", "event_type", "value"]
    signups = rd.read_parquet(_t(sf_dir, "events"), columns=ev_cols)
    signups = build_op({
        "op": "filter", "predicate": E.col("event_type") == E.lit("signup"),
    })(signups)
    signups = build_op({
        "op": "mapping",
        "cols": {"start_ts": E.col("ts"),
                 "end_ts": E.F("ts_add", E.col("ts"), 30 * 86400),
                 "signup_id": E.col("event_id")},
        "select": ["signup_id", "user_id", "start_ts", "end_ts"],
    })(signups)
    purchases = rd.read_parquet(_t(sf_dir, "events"), columns=ev_cols)
    purchases = build_op({
        "op": "filter", "predicate": E.col("event_type") == E.lit("purchase"),
    })(purchases)
    purchases = build_op({
        "op": "select", "columns": ["event_id", "user_id", "ts"],
    })(purchases)
    out = build_op({
        "op": "interval_join", "right": signups, "on": "user_id",
        "time_col": "ts", "start_col": "start_ts", "end_col": "end_ts",
    })(purchases)
    return out.select_columns(["event_id", "signup_id", "user_id"])


@query(
    "unicode_normalize_docs",
    """
    SELECT doc_id, nfc_normalize(text || ' cafe' || chr(769)) AS norm
    FROM documents
    """,
)
def unicode_normalize_docs(sf_dir: str):
    """NFC unicode normalization (corpus text canonicalization): both
    sides append a decomposed 'e'+combining-acute and normalize — the
    composed form must match byte-for-byte (Python unicodedata vs
    DuckDB nfc_normalize)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ds = build_op({
        "op": "mapping",
        "cols": {"norm": E.F(
            "normalize_nfc",
            E.F("concat", E.col("text"), E.lit(" café")))},
        "select": ["doc_id", "norm"],
    })(ds)
    return ds


@query(
    "large_orders_q18",
    """
    WITH t AS (
      SELECT l_orderkey, round(sum(l_quantity), 4) AS total_qty
      FROM lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > 180
    )
    SELECT c.c_name, o.o_orderkey, t.total_qty
    FROM t
    JOIN orders o   ON o.o_orderkey = t.l_orderkey
    JOIN customer c ON c.c_custkey = o.o_custkey
    """,
)
def large_orders_q18(sf_dir: str):
    """TPC-H Q18 shape: grouped HAVING filter feeding a join back to
    the fact and dimension tables.  The heavy side collapses FIRST
    (two-phase sum per order key), the surviving key set is small, so
    every later join broadcasts — no second fact shuffle."""
    rd = _rd()
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_quantity"])
    totals = build_op({
        "op": "group_agg", "keys": ["l_orderkey"],
        "aggs": [("sum", "l_quantity", "total_qty")],
    })(li)
    totals = build_op({
        "op": "filter", "predicate": E.col("total_qty") > 180.0,
    })(totals)
    totals = _round_cols(totals, ["total_qty"])
    # surviving keys are few → materialize the small side driver-side
    # (tiny-result exception) and broadcast it through the join chain
    from rayflow.ops.kernels import collect_table

    tt = collect_table(totals.materialize())
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey"])
    orders = build_op({
        "op": "broadcast_join", "small": tt, "how": "inner",
        "on": ["o_orderkey"], "right_on": ["l_orderkey"],
    })(orders)
    import pyarrow.parquet as pq

    cust = pq.read_table(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_name"])
    orders = build_op({
        "op": "broadcast_join", "small": cust, "how": "inner",
        "on": ["o_custkey"], "right_on": ["c_custkey"],
    })(orders)
    return orders.select_columns(["c_name", "o_orderkey", "total_qty"])


@query(
    "near_dup_components",
    r"""
    WITH RECURSIVE t AS (
      SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS toks
      FROM documents
    ), sh AS (
      SELECT doc_id,
        CASE WHEN len(toks) = 0 THEN []::VARCHAR[]
             WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
             ELSE list_distinct(list_transform(range(1, len(toks) - 1),
                  i -> toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2]))
        END AS s
      FROM t
    ), e0 AS (
      SELECT a.doc_id AS da, b.doc_id AS db
      FROM sh a JOIN sh b ON a.doc_id < b.doc_id
      WHERE CASE WHEN len(a.s) + len(b.s) = 0 THEN 1.0
                 ELSE CAST(len(list_intersect(a.s, b.s)) AS DOUBLE)
                      / (len(a.s) + len(b.s) - len(list_intersect(a.s, b.s)))
            END >= 0.5
    ), e AS (
      SELECT da AS a, db AS b FROM e0
      UNION ALL SELECT db, da FROM e0
    ), reach(a, b) AS (
      SELECT a, b FROM e
      UNION
      SELECT r.a, e.b FROM reach r JOIN e ON r.b = e.a
    ), lbl AS (
      SELECT a AS node, least(a, min(b)) AS label FROM reach GROUP BY a
    )
    SELECT d.doc_id,
           CAST(coalesce(l.label, d.doc_id) AS BIGINT) AS keep_id
    FROM documents d LEFT JOIN lbl l ON l.node = d.doc_id
    """,
)
def near_dup_components(sf_dir: str):
    """The dedup ENDGAME: near-dup pairs → connected components →
    per-document canonical keep_id (component minimum; singletons keep
    themselves).  Engine: MinHash-LSH pairs (equal to the exact
    brute force on these fixtures — proven by `minhash_near_dup`) →
    union-find over the tiny edge list → broadcast lookup.  Oracle:
    recursive-CTE transitive closure over the exact-Jaccard pairs."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    edges = build_op({
        "op": "minhash_lsh_dedup", "threshold": 0.5, "num_perm": 64,
        "num_bands": 16, "shingle_k": 3,
    })(ds)
    out = build_op({
        "op": "connected_components", "edges": edges,
        "node_a": "doc_a", "node_b": "doc_b", "id_col": "doc_id",
    })(ds)
    return out.select_columns(["doc_id", "keep_id"])


@query(
    "histogram_nchars",
    """
    SELECT CAST(floor(n_chars / 50) AS BIGINT) AS bin,
           CAST(count(*) AS BIGINT) AS n
    FROM documents GROUP BY bin
    """,
)
def histogram_nchars(sf_dir: str):
    """Fixed-width histogram of document length — pure composition
    (vectorized binning expression + the two-phase grouped count), no
    dedicated operator needed; the dataset-profiling stat every corpus
    report opens with."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["n_chars"])
    ds = build_op({
        "op": "mapping",
        "cols": {"bin": E.F("int64", E.F("floor",
                 E.col("n_chars") / E.lit(50.0)))},
        "select": ["bin"],
    })(ds)
    return build_op({
        "op": "group_agg", "keys": ["bin"],
        "aggs": [("count", None, "n")],
    })(ds)


@query(
    "heavy_hitters_event_types",
    """
    SELECT event_type AS value, CAST(count(*) AS BIGINT) AS approx_count
    FROM events GROUP BY event_type
    ORDER BY approx_count DESC, value LIMIT 3
    """,
)
def heavy_hitters_event_types(sf_dir: str):
    """Heavy-hitters sketch over event types.  With cardinality below
    the per-batch partial budget the sketch degrades gracefully to the
    EXACT answer, so the SQL top-k is a valid oracle here; the bounded-
    exchange behavior at high cardinality is pytest-covered on zipf
    data."""
    ds = _rd().read_parquet(_t(sf_dir, "events"), columns=["event_type"])
    return build_op({"op": "heavy_hitters", "column": "event_type", "k": 3})(ds)


_SERDE_ORACLE = """
    SELECT event_type,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 4)     AS sum_value
    FROM events GROUP BY event_type
"""


def _serde_roundtrip(sf_dir: str, fmt_conf: dict, parse_conf: dict):
    """Shared body for the serde round-trip queries: events → encode to
    a binary payload column → DROP the originals → decode → aggregate.
    The aggregate matching the plain-SQL oracle proves the wire
    round-trip is lossless for ints, strings and doubles — the driver-
    checkable property of a binary codec."""
    ds = _rd().read_parquet(
        _t(sf_dir, "events"), columns=["event_id", "event_type", "value"])
    ds = build_op(fmt_conf)(ds).select_columns(["payload"])
    ds = build_op(parse_conf)(ds)
    ds = build_op({
        "op": "mapping",
        "cols": {"value": E.F("float64", E.col("value"))},
    })(ds)
    ds = build_op({
        "op": "group_agg", "keys": ["event_type"],
        "aggs": [("count", None, "n"), ("sum", "value", "sum_value")],
    })(ds)
    return _round_cols(ds, ["sum_value"])


@query("serde_msgpack_roundtrip", _SERDE_ORACLE)
def serde_msgpack_roundtrip(sf_dir: str):
    """MessagePack wire round-trip (`msgpack` processor pair): encode
    each event as a msgpack map, decode with the pure-spec codec, and
    aggregate — values must survive bit-exact for the oracle hash to
    match."""
    return _serde_roundtrip(
        sf_dir, {"op": "format_msgpack"}, {"op": "parse_msgpack"})


@query("serde_avro_roundtrip", _SERDE_ORACLE)
def serde_avro_roundtrip(sf_dir: str):
    """Avro object-container round-trip (`avro` processor pair) with the
    deflate codec — each row becomes a self-describing one-record
    container file, exercising header metadata, sync markers and zlib
    block compression alongside the binary datum encoding."""
    schema = {
        "type": "record", "name": "Event",
        "fields": [
            {"name": "event_id", "type": "long"},
            {"name": "event_type", "type": "string"},
            {"name": "value", "type": "double"},
        ],
    }
    return _serde_roundtrip(
        sf_dir,
        {"op": "format_avro", "schema": schema, "container": True,
         "codec": "deflate"},
        {"op": "parse_avro"})


@query("serde_protobuf_roundtrip", _SERDE_ORACLE)
def serde_protobuf_roundtrip(sf_dir: str):
    """Protobuf wire-format round-trip (`protobuf` processor pair): the
    field spec plays the compiled descriptor's role on both sides."""
    spec = {1: ("event_id", "uint64"), 2: ("event_type", "string"),
            3: ("value", "double")}
    return _serde_roundtrip(
        sf_dir,
        {"op": "format_protobuf", "spec": spec},
        {"op": "parse_protobuf", "spec": spec})


# --------------------------------------------------------------------------
# Round 3: wider TPC-H-shape plans — semi+agg (Q4), deep join top-k (Q10),
# conditional aggregation (Q12), LEFT OUTER join distribution (Q13),
# broadcast-dim ratio (Q14), anti join (Q22)
# --------------------------------------------------------------------------


@query(
    "order_priority_q4",
    """
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
    FROM orders
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate <  TIMESTAMP '1997-01-01'
      AND EXISTS (SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey AND l_discount > 0.05)
    GROUP BY o_orderpriority
    """,
)
def order_priority_q4(sf_dir: str):
    """TPC-H Q4 shape: EXISTS against the fact table.  The lineitem side
    is too big to broadcast, so the semi join is distributed: filter →
    distinct order keys (two-phase group_agg collapses duplicates
    before the exchange) → sharded inner join — never a driver-side
    key list."""
    import datetime

    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderpriority"])
    orders = build_op({
        "op": "filter",
        "predicate": (E.col("o_orderdate") >= E.lit(datetime.datetime(1996, 1, 1)))
        & (E.col("o_orderdate") < E.lit(datetime.datetime(1997, 1, 1))),
    })(orders)

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_discount"])
    li = build_op({"op": "filter",
                   "predicate": E.col("l_discount") > E.lit(0.05)})(li)
    li_keys = build_op({
        "op": "group_agg", "keys": ["l_orderkey"],
        "aggs": [("count", None, "_n")],
    })(li).select_columns(["l_orderkey"])

    joined = build_op({
        "op": "sharded_join", "right": li_keys,
        "on": ["o_orderkey"], "right_on": ["l_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(orders)
    return build_op({
        "op": "group_agg", "keys": ["o_orderpriority"],
        "aggs": [("count", None, "order_count")],
    })(joined)


@query(
    "returned_item_q10",
    """
    SELECT c_custkey, c_name, c_acctbal, n_name,
           round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
    FROM customer
    JOIN orders   ON c_custkey = o_custkey
    JOIN lineitem ON l_orderkey = o_orderkey
    JOIN nation   ON c_nationkey = n_nationkey
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate <  TIMESTAMP '1996-07-01'
      AND l_returnflag = 'R'
    GROUP BY c_custkey, c_name, c_acctbal, n_name
    ORDER BY revenue DESC, c_custkey
    LIMIT 20
    """,
)
def returned_item_q10(sf_dir: str):
    """TPC-H Q10 shape: ONE fact-fact exchange (lineitem⋈orders on the
    order key), aggregate down to per-customer revenue BEFORE touching
    the dimensions, then broadcast customer+nation onto the small
    aggregate — the dims never enter a shuffle."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = build_op({
        "op": "filter",
        "predicate": (E.col("o_orderdate") >= E.lit(datetime.datetime(1996, 1, 1)))
        & (E.col("o_orderdate") < E.lit(datetime.datetime(1996, 7, 1))),
    })(orders).select_columns(["o_orderkey", "o_custkey"])

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_returnflag"])
    li = build_op({"op": "filter",
                   "predicate": E.col("l_returnflag") == E.lit("R")})(li)
    li = build_op({
        "op": "mapping",
        "cols": {"rev": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_orderkey", "rev"],
    })(li)

    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    per_cust = build_op({
        "op": "group_agg", "keys": ["o_custkey"],
        "aggs": [("sum", "rev", "revenue")],
    })(joined)

    cust = pq.read_table(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_name", "c_acctbal",
                                  "c_nationkey"])
    nation = pq.read_table(_t(sf_dir, "nation"),
                           columns=["n_nationkey", "n_name"])
    cust = cust.join(nation, keys=["c_nationkey"],
                     right_keys=["n_nationkey"]) \
        .select(["c_custkey", "c_name", "c_acctbal", "n_name"])
    out = build_op({"op": "broadcast_join", "small": cust,
                    "on": ["o_custkey"], "right_on": ["c_custkey"]})(per_cust)
    out = build_op({
        "op": "mapping", "cols": {"c_custkey": E.col("o_custkey")},
        "select": ["c_custkey", "c_name", "c_acctbal", "n_name", "revenue"],
    })(out)
    out = _round_cols(out, ["revenue"])
    out = build_op({"op": "sort", "keys": ["revenue", "c_custkey"],
                    "descending": [True, False]})(out)
    out = build_op({"op": "limit", "n": 20})(out)
    return out.select_columns(["c_custkey", "c_name", "c_acctbal",
                               "n_name", "revenue"])


@query(
    "priority_linestatus_q12",
    """
    SELECT l_linestatus,
           CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                         THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= TIMESTAMP '1997-01-01'
      AND l_shipdate <  TIMESTAMP '1998-01-01'
    GROUP BY l_linestatus
    """,
)
def priority_linestatus_q12(sf_dir: str):
    """TPC-H Q12 shape: fact-fact join then CASE-conditional counts —
    the conditional is a vectorized if_else column computed inside
    map_batches, so the aggregate stays a plain two-phase sum."""
    import datetime

    rd = _rd()
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_linestatus", "l_shipdate"])
    li = build_op({
        "op": "filter",
        "predicate": (E.col("l_shipdate") >= E.lit(datetime.datetime(1997, 1, 1)))
        & (E.col("l_shipdate") < E.lit(datetime.datetime(1998, 1, 1))),
    })(li).select_columns(["l_orderkey", "l_linestatus"])
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderpriority"])
    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    flagged = build_op({
        "op": "mapping",
        "cols": {"is_high": E.F(
            "if_else",
            (E.col("o_orderpriority") == E.lit("1-URGENT"))
            | (E.col("o_orderpriority") == E.lit("2-HIGH")),
            E.lit(1), E.lit(0))},
    })(joined)
    flagged = build_op({
        "op": "mapping",
        "cols": {"is_low": E.lit(1) - E.col("is_high")},
        "select": ["l_linestatus", "is_high", "is_low"],
    })(flagged)
    return build_op({
        "op": "group_agg", "keys": ["l_linestatus"],
        "aggs": [("sum", "is_high", "high_line_count"),
                 ("sum", "is_low", "low_line_count")],
    })(flagged)


@query(
    "cust_order_dist_q13",
    """
    SELECT c_count, CAST(count(*) AS BIGINT) AS custdist
    FROM (SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS c_count
          FROM customer
          LEFT JOIN orders ON c_custkey = o_custkey
                          AND o_orderstatus <> 'F'
          GROUP BY c_custkey) counted
    GROUP BY c_count
    """,
)
def cust_order_dist_q13(sf_dir: str):
    """TPC-H Q13 shape: LEFT OUTER join so zero-order customers keep a
    row.  Orders are pre-aggregated to (custkey, count) partials before
    the join, so the outer side joins against a table bounded by
    customer cardinality; nulls become the 0 bucket."""
    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_orderstatus"])
    orders = build_op({
        "op": "filter",
        "predicate": E.col("o_orderstatus") != E.lit("F"),
    })(orders)
    counts = build_op({
        "op": "group_agg", "keys": ["o_custkey"],
        "aggs": [("count", None, "n_orders")],
    })(orders)

    cust = rd.read_parquet(_t(sf_dir, "customer"), columns=["c_custkey"])
    joined = build_op({
        "op": "sharded_join", "right": counts,
        "on": ["c_custkey"], "right_on": ["o_custkey"],
        "how": "left", "num_partitions": 4, "strategy": "auto",
    })(cust)
    filled = build_op({
        "op": "mapping",
        "cols": {"c_count": E.F("int64",
                                E.F("fill_null", E.col("n_orders"), 0))},
        "select": ["c_count"],
    })(joined)
    return build_op({
        "op": "group_agg", "keys": ["c_count"],
        "aggs": [("count", None, "custdist")],
    })(filled)


@query(
    "promo_revenue_q14",
    """
    SELECT round(100.0 * sum(CASE WHEN p_type = 'PROMO'
                                  THEN l_extendedprice * (1 - l_discount)
                                  ELSE 0 END)
                 / sum(l_extendedprice * (1 - l_discount)), 6) AS promo_revenue
    FROM lineitem
    JOIN part ON l_partkey = p_partkey
    WHERE l_shipdate >= TIMESTAMP '1997-09-01'
      AND l_shipdate <  TIMESTAMP '1997-10-01'
    """,
)
def promo_revenue_q14(sf_dir: str):
    """TPC-H Q14 shape: broadcast the part dimension onto the pruned
    lineitem scan, conditional revenue via if_else, then a single
    global two-phase sum — no shuffle anywhere."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_type"])
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])
    li = build_op({
        "op": "filter",
        "predicate": (E.col("l_shipdate") >= E.lit(datetime.datetime(1997, 9, 1)))
        & (E.col("l_shipdate") < E.lit(datetime.datetime(1997, 10, 1))),
    })(li)
    li = build_op({"op": "broadcast_join", "small": part,
                   "on": ["l_partkey"], "right_on": ["p_partkey"]})(li)
    li = build_op({
        "op": "mapping",
        "cols": {
            "rev": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount")),
            "_g": E.lit(1),
        },
    })(li)
    li = build_op({
        "op": "mapping",
        "cols": {"promo_rev": E.F(
            "if_else", E.col("p_type") == E.lit("PROMO"),
            E.col("rev"), E.lit(0.0))},
        "select": ["_g", "rev", "promo_rev"],
    })(li)
    agg = build_op({
        "op": "group_agg", "keys": ["_g"],
        "aggs": [("sum", "promo_rev", "s_promo"), ("sum", "rev", "s_all")],
    })(li)
    out = build_op({
        "op": "mapping",
        "cols": {"promo_revenue":
                 E.lit(100.0) * E.col("s_promo") / E.col("s_all")},
        "select": ["promo_revenue"],
    })(agg)
    return _round_cols(out, ["promo_revenue"], ndigits=6)


@query(
    "quiet_rich_customers_q22",
    """
    SELECT c_nationkey, CAST(count(*) AS BIGINT) AS numcust,
           round(sum(c_acctbal), 4) AS totacctbal
    FROM customer
    WHERE c_acctbal > (SELECT avg(c_acctbal) FROM customer
                       WHERE c_acctbal > 0)
      AND NOT EXISTS (SELECT 1 FROM orders
                      WHERE o_custkey = c_custkey
                        AND o_orderpriority = '1-URGENT')
    GROUP BY c_nationkey
    """,
)
def quiet_rich_customers_q22(sf_dir: str):
    """TPC-H Q22 shape: scalar subquery (global average, a tiny
    driver-side reduce) + ANTI join.  The anti key set is distinct
    customer keys from the filtered fact table — bounded by customer
    cardinality by construction, so it broadcasts."""
    rd = _rd()
    urgent = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_orderpriority"])
    urgent = build_op({
        "op": "filter",
        "predicate": E.col("o_orderpriority") == E.lit("1-URGENT"),
    })(urgent)
    urgent_keys = build_op({
        "op": "group_agg", "keys": ["o_custkey"],
        "aggs": [("count", None, "_n")],
    })(urgent)
    keys = [r["o_custkey"] for r in urgent_keys.take_all()]

    cust = rd.read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_nationkey", "c_acctbal"])
    pos = build_op({"op": "filter",
                    "predicate": E.col("c_acctbal") > E.lit(0.0)})(cust)
    stats = build_op({
        "op": "mapping", "cols": {"_g": E.lit(1)},
        "select": ["_g", "c_acctbal"],
    })(pos)
    stats = build_op({
        "op": "group_agg", "keys": ["_g"],
        "aggs": [("mean", "c_acctbal", "avg_bal")],
    })(stats)
    avg_bal = stats.take_all()[0]["avg_bal"]

    rich = build_op({"op": "filter",
                     "predicate": E.col("c_acctbal") > E.lit(avg_bal)})(cust)
    quiet = build_op({"op": "broadcast_semi", "keys_ref": keys,
                      "on": "c_custkey", "anti": True})(rich)
    out = build_op({
        "op": "group_agg", "keys": ["c_nationkey"],
        "aggs": [("count", None, "numcust"),
                 ("sum", "c_acctbal", "totacctbal")],
    })(quiet)
    return _round_cols(out, ["totacctbal"])


@query("serde_parquet_roundtrip", _SERDE_ORACLE)
def serde_parquet_roundtrip(sf_dir: str):
    """Parquet payload round-trip (`parquet_encode`/`parquet_decode`
    processor pair): each batch becomes ONE in-memory Parquet file
    payload, then explodes back to typed rows — Arrow-native on both
    sides, so the aggregate must hash-match the plain scan."""
    return _serde_roundtrip(
        sf_dir, {"op": "format_parquet"}, {"op": "parse_parquet"})


@query(
    "volume_shipping_q7",
    """
    SELECT supp_nation, cust_nation, l_year, round(sum(volume), 4) AS revenue
    FROM (
      SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
             CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
             l_extendedprice * (1 - l_discount) AS volume
      FROM supplier
      JOIN lineitem ON s_suppkey = l_suppkey
      JOIN orders   ON o_orderkey = l_orderkey
      JOIN customer ON c_custkey = o_custkey
      JOIN nation n1 ON s_nationkey = n1.n_nationkey
      JOIN nation n2 ON c_nationkey = n2.n_nationkey
      WHERE ((n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
          OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1'))
        AND l_shipdate >= TIMESTAMP '1996-01-01'
        AND l_shipdate <  TIMESTAMP '1998-01-01'
    )
    GROUP BY supp_nation, cust_nation, l_year
    """,
)
def volume_shipping_q7(sf_dir: str):
    """TPC-H Q7 shape (volume shipping between two nations): both
    nation filters broadcast onto their fact side BEFORE the one
    fact-fact exchange, so only the two nations' rows (a tiny fraction)
    enter the lineitem⋈orders join; the pair predicate + year extract
    are vectorized columns; finish with a 3-key two-phase aggregate."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    pair = ("NATION_1", "NATION_2")
    nation = pq.read_table(_t(sf_dir, "nation"),
                           columns=["n_nationkey", "n_name"])
    nation = nation.filter(pc.is_in(nation["n_name"], pa.array(pair)))

    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])
    supp = supp.join(nation, keys=["s_nationkey"],
                     right_keys=["n_nationkey"]).select(["s_suppkey", "n_name"]) \
        .rename_columns(["s_suppkey", "supp_nation"])
    cust = pq.read_table(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_nationkey"])
    cust = cust.join(nation, keys=["c_nationkey"],
                     right_keys=["n_nationkey"]).select(["c_custkey", "n_name"]) \
        .rename_columns(["c_custkey", "cust_nation"])

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])
    li = build_op({
        "op": "filter",
        "predicate": (E.col("l_shipdate") >= E.lit(datetime.datetime(1996, 1, 1)))
        & (E.col("l_shipdate") < E.lit(datetime.datetime(1998, 1, 1))),
    })(li)
    li = build_op({"op": "broadcast_join", "small": supp, "how": "inner",
                   "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(li)
    li = build_op({
        "op": "mapping",
        "cols": {"volume": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount")),
                 "l_year": E.F("year", E.col("l_shipdate"))},
        "select": ["l_orderkey", "supp_nation", "volume", "l_year"],
    })(li)

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey"])
    orders = build_op({"op": "broadcast_join", "small": cust, "how": "inner",
                       "on": ["o_custkey"], "right_on": ["c_custkey"]})(orders)
    orders = orders.select_columns(["o_orderkey", "cust_nation"])

    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    joined = build_op({
        "op": "filter",
        "predicate": ((E.col("supp_nation") == E.lit(pair[0]))
                      & (E.col("cust_nation") == E.lit(pair[1])))
        | ((E.col("supp_nation") == E.lit(pair[1]))
           & (E.col("cust_nation") == E.lit(pair[0]))),
    })(joined)
    out = build_op({
        "op": "group_agg", "keys": ["supp_nation", "cust_nation", "l_year"],
        "aggs": [("sum", "volume", "revenue")],
    })(joined)
    return _round_cols(out, ["revenue"]).select_columns(
        ["supp_nation", "cust_nation", "l_year", "revenue"])


@query(
    "market_share_q8",
    """
    SELECT o_year,
           round(sum(CASE WHEN supp_nation = 'NATION_3' THEN volume ELSE 0 END)
                 / sum(volume), 6) AS mkt_share
    FROM (
      SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
             l_extendedprice * (1 - l_discount) AS volume,
             n1.n_name AS supp_nation
      FROM part
      JOIN lineitem ON p_partkey = l_partkey
      JOIN supplier ON s_suppkey = l_suppkey
      JOIN orders   ON l_orderkey = o_orderkey
      JOIN customer ON o_custkey = c_custkey
      JOIN nation n1 ON s_nationkey = n1.n_nationkey
      JOIN nation n2 ON c_nationkey = n2.n_nationkey
      JOIN region    ON n2.n_regionkey = r_regionkey
      WHERE r_name = 'EUROPE' AND p_type = 'PROMO'
        AND o_orderdate >= TIMESTAMP '1996-01-01'
        AND o_orderdate <  TIMESTAMP '1998-01-01'
    )
    GROUP BY o_year
    """,
)
def market_share_q8(sf_dir: str):
    """TPC-H Q8 shape (national market share): every dimension filter
    (part type, customer region) broadcasts onto its fact side before
    the single lineitem⋈orders exchange; the market-share division is
    a conditional two-phase sum pair."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_type"])
    part_keys = part.filter(pc.equal(part["p_type"], "PROMO"))["p_partkey"]
    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(_t(sf_dir, "nation"))
    supp = supp.join(nation, keys=["s_nationkey"], right_keys=["n_nationkey"]) \
        .select(["s_suppkey", "n_name"]) \
        .rename_columns(["s_suppkey", "supp_nation"])

    region = pq.read_table(_t(sf_dir, "region"))
    region = region.filter(pc.equal(region["r_name"], "EUROPE"))
    nat_eu = nation.join(region, keys=["n_regionkey"],
                         right_keys=["r_regionkey"], join_type="inner")
    cust = pq.read_table(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_nationkey"])
    cust_keys = cust.join(nat_eu.select(["n_nationkey"]), keys=["c_nationkey"],
                          right_keys=["n_nationkey"],
                          join_type="inner")["c_custkey"]

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])
    li = build_op({"op": "broadcast_semi",
                   "keys_ref": part_keys.to_pylist(),
                   "on": "l_partkey"})(li)
    li = build_op({"op": "broadcast_join", "small": supp, "how": "inner",
                   "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(li)
    li = build_op({
        "op": "mapping",
        "cols": {"volume": E.col("l_extendedprice")
                 * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_orderkey", "supp_nation", "volume"],
    })(li)

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey", "o_orderdate"])
    orders = build_op({
        "op": "filter",
        "predicate": (E.col("o_orderdate") >= E.lit(datetime.datetime(1996, 1, 1)))
        & (E.col("o_orderdate") < E.lit(datetime.datetime(1998, 1, 1))),
    })(orders)
    orders = build_op({"op": "broadcast_semi",
                       "keys_ref": cust_keys.to_pylist(),
                       "on": "o_custkey"})(orders)
    orders = build_op({
        "op": "mapping", "cols": {"o_year": E.F("year", E.col("o_orderdate"))},
        "select": ["o_orderkey", "o_year"],
    })(orders)

    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    joined = build_op({
        "op": "mapping",
        "cols": {"nat_vol": E.F(
            "if_else", E.col("supp_nation") == E.lit("NATION_3"),
            E.col("volume"), E.lit(0.0))},
        "select": ["o_year", "volume", "nat_vol"],
    })(joined)
    agg = build_op({
        "op": "group_agg", "keys": ["o_year"],
        "aggs": [("sum", "nat_vol", "s_nat"), ("sum", "volume", "s_all")],
    })(joined)
    out = build_op({
        "op": "mapping",
        "cols": {"mkt_share": E.col("s_nat") / E.col("s_all")},
        "select": ["o_year", "mkt_share"],
    })(agg)
    return _round_cols(out, ["mkt_share"], ndigits=6)


@query(
    "top_supplier_q15",
    """
    WITH rev AS (
      SELECT l_suppkey, sum(l_extendedprice * (1 - l_discount)) AS total_revenue
      FROM lineitem
      WHERE l_shipdate >= TIMESTAMP '1997-01-01'
        AND l_shipdate <  TIMESTAMP '1997-04-01'
      GROUP BY l_suppkey
    )
    SELECT s_suppkey, s_name, round(total_revenue, 4) AS total_revenue
    FROM supplier JOIN rev ON s_suppkey = l_suppkey
    WHERE total_revenue = (SELECT max(total_revenue) FROM rev)
    """,
)
def top_supplier_q15(sf_dir: str):
    """TPC-H Q15 shape (revenue view + max): the per-supplier aggregate
    is bounded by supplier cardinality, so the "view" materializes as a
    small Dataset; the scalar max is a driver-side reduce over it (like
    Q22's scalar subquery), then the supplier dimension broadcasts onto
    the one surviving row set."""
    import datetime

    import pyarrow.parquet as pq

    rd = _rd()
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_suppkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])
    li = build_op({
        "op": "filter",
        "predicate": (E.col("l_shipdate") >= E.lit(datetime.datetime(1997, 1, 1)))
        & (E.col("l_shipdate") < E.lit(datetime.datetime(1997, 4, 1))),
    })(li)
    li = build_op({
        "op": "mapping",
        "cols": {"volume": E.col("l_extendedprice")
                 * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_suppkey", "volume"],
    })(li)
    rev = build_op({
        "op": "group_agg", "keys": ["l_suppkey"],
        "aggs": [("sum", "volume", "total_revenue")],
    })(li).materialize()
    top = build_op({
        "op": "mapping", "cols": {"_g": E.lit(1)},
        "select": ["_g", "total_revenue"],
    })(rev)
    top = build_op({
        "op": "group_agg", "keys": ["_g"],
        "aggs": [("max", "total_revenue", "mx")],
    })(top)
    mx = top.take_all()[0]["mx"]
    best = build_op({"op": "filter",
                     "predicate": E.col("total_revenue") == E.lit(mx)})(rev)
    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_name"])
    out = build_op({"op": "broadcast_join", "small": supp, "how": "inner",
                    "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(best)
    out = build_op({
        "op": "mapping", "cols": {"s_suppkey": E.col("l_suppkey")},
        "select": ["s_suppkey", "s_name", "total_revenue"],
    })(out)
    return _round_cols(out, ["total_revenue"])


@query(
    "supplier_cnt_q16",
    """
    SELECT p_brand, p_type, CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
    FROM lineitem JOIN part ON p_partkey = l_partkey
    WHERE p_brand <> 'Brand#1' AND p_size >= 25
    GROUP BY p_brand, p_type
    """,
)
def supplier_cnt_q16(sf_dir: str):
    """TPC-H Q16 shape (distinct suppliers per part attribute — the
    testdata has no partsupp table, so lineitem plays the association
    role): part attrs broadcast onto the fact scan, then the exact
    distinct count runs as the two-stage pattern — distinct triples
    first (pre-aggregated inside map_batches, tiny exchange), count
    second."""
    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"),
                         columns=["p_partkey", "p_brand", "p_type", "p_size"])
    part = part.filter(pc.and_(pc.not_equal(part["p_brand"], "Brand#1"),
                               pc.greater_equal(part["p_size"], 25)))
    part = part.select(["p_partkey", "p_brand", "p_type"])

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_suppkey"])
    li = build_op({"op": "broadcast_join", "small": part, "how": "inner",
                   "on": ["l_partkey"], "right_on": ["p_partkey"]})(li)
    triples = build_op({
        "op": "group_agg", "keys": ["p_brand", "p_type", "l_suppkey"],
        "aggs": [("count", None, "_c")],
    })(li)
    out = build_op({
        "op": "group_agg", "keys": ["p_brand", "p_type"],
        "aggs": [("count", None, "supplier_cnt")],
    })(triples)
    return out.select_columns(["p_brand", "p_type", "supplier_cnt"])


@query(
    "small_qty_revenue_q17",
    """
    WITH thresh AS (
      SELECT l_partkey AS t_partkey, 0.2 * avg(l_quantity) AS qty_thresh
      FROM lineitem GROUP BY l_partkey
    )
    SELECT round(sum(l_extendedprice) / 7.0, 4) AS avg_yearly
    FROM lineitem
    JOIN part ON p_partkey = l_partkey
    JOIN thresh ON t_partkey = l_partkey
    WHERE p_brand = 'Brand#5' AND l_quantity < qty_thresh
    """,
)
def small_qty_revenue_q17(sf_dir: str):
    """TPC-H Q17 shape (small-quantity orders): correlated per-part
    average becomes a first grouped pass over ONLY the brand's rows
    (the per-part mean is unchanged by restricting to those parts —
    semi-filter first, so the heavy pass reads a fraction of the fact),
    broadcast back as a lookup, then a vectorized threshold filter and
    one global sum.  No row leaves a worker un-aggregated."""
    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"),
                         columns=["p_partkey", "p_brand"])
    keys = part.filter(pc.equal(part["p_brand"], "Brand#5"))["p_partkey"]

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_quantity", "l_extendedprice"])
    li = build_op({"op": "broadcast_semi", "keys_ref": keys.to_pylist(),
                   "on": "l_partkey"})(li).materialize()
    thresh = build_op({
        "op": "group_agg", "keys": ["l_partkey"],
        "aggs": [("mean", "l_quantity", "avg_qty")],
    })(li)
    thresh = build_op({
        "op": "mapping",
        "cols": {"t_partkey": E.col("l_partkey"),
                 "qty_thresh": E.lit(0.2) * E.col("avg_qty")},
        "select": ["t_partkey", "qty_thresh"],
    })(thresh)
    from rayflow.ops.kernels import collect_table

    thresh_tbl = collect_table(thresh)  # empty-safe
    li = build_op({"op": "broadcast_join", "small": thresh_tbl, "how": "inner",
                   "on": ["l_partkey"], "right_on": ["t_partkey"]})(li)
    li = build_op({
        "op": "filter",
        "predicate": E.col("l_quantity") < E.col("qty_thresh"),
    })(li)
    li = build_op({
        "op": "mapping", "cols": {"_g": E.lit(1)},
        "select": ["_g", "l_extendedprice"],
    })(li)
    agg = build_op({
        "op": "group_agg", "keys": ["_g"],
        "aggs": [("sum", "l_extendedprice", "s")],
    })(li)
    out = build_op({
        "op": "mapping",
        "cols": {"avg_yearly": E.col("s") / E.lit(7.0)},
        "select": ["avg_yearly"],
    })(agg)
    return _round_cols(out, ["avg_yearly"])


@query(
    "disjunctive_rev_q19",
    """
    SELECT round(sum(l_extendedprice * (1 - l_discount)), 4) AS revenue
    FROM lineitem JOIN part ON p_partkey = l_partkey
    WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 10
           AND l_quantity >= 1 AND l_quantity <= 20)
       OR (p_brand = 'Brand#2' AND p_size BETWEEN 5 AND 20
           AND l_quantity >= 10 AND l_quantity <= 40)
       OR (p_brand = 'Brand#3' AND p_size BETWEEN 10 AND 40
           AND l_quantity >= 20 AND l_quantity <= 60)
    """,
)
def disjunctive_rev_q19(sf_dir: str):
    """TPC-H Q19 shape (disjunctive brand/size/quantity predicate):
    part attrs broadcast-gather onto the pruned fact scan, the whole
    OR-of-ANDs evaluates as ONE vectorized boolean kernel, then a
    global two-phase sum — zero shuffles."""
    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"),
                         columns=["p_partkey", "p_brand", "p_size"])
    part = part.filter(pc.is_in(part["p_brand"],
                                pa.array(["Brand#1", "Brand#2", "Brand#3"])))

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_quantity",
                                  "l_extendedprice", "l_discount"])
    li = build_op({"op": "broadcast_join", "small": part, "how": "inner",
                   "on": ["l_partkey"], "right_on": ["p_partkey"]})(li)

    def block(brand, lo_s, hi_s, lo_q, hi_q):
        return ((E.col("p_brand") == E.lit(brand))
                & (E.col("p_size") >= E.lit(lo_s))
                & (E.col("p_size") <= E.lit(hi_s))
                & (E.col("l_quantity") >= E.lit(float(lo_q)))
                & (E.col("l_quantity") <= E.lit(float(hi_q))))

    li = build_op({
        "op": "filter",
        "predicate": block("Brand#1", 1, 10, 1, 20)
        | block("Brand#2", 5, 20, 10, 40)
        | block("Brand#3", 10, 40, 20, 60),
    })(li)
    li = build_op({
        "op": "mapping",
        "cols": {"_g": E.lit(1),
                 "rev": E.col("l_extendedprice") * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["_g", "rev"],
    })(li)
    agg = build_op({
        "op": "group_agg", "keys": ["_g"],
        "aggs": [("sum", "rev", "revenue")],
    })(li)
    return _round_cols(agg, ["revenue"]).select_columns(["revenue"])


@query(
    "nation_profit_q9_shape",
    """
    SELECT n_name AS nation,
           CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
           round(sum(l_extendedprice * (1 - l_discount)), 4) AS profit
    FROM lineitem
    JOIN part     ON p_partkey = l_partkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN nation   ON s_nationkey = n_nationkey
    WHERE p_name LIKE '%bolt%'
    GROUP BY 1, 2
    """,
)
def nation_profit_q9_shape(sf_dir: str):
    """TPC-H Q9 shape (product-type profit by nation and year; the
    testdata has no ``partsupp`` so the supplycost term is omitted —
    the oracle mirrors exactly what is computed).  Plan: the part-name
    filter reduces to a broadcast key set applied to lineitem BEFORE
    anything moves; supplier→nation collapses driver-side (100 rows ⋈
    25 rows) and broadcasts; the only exchange is the one unavoidable
    fact-fact lineitem⋈orders sharded join, then a two-phase
    (nation, year) aggregate.  ⟨upstream: TPC-H spec Q9⟩"""
    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"), columns=["p_partkey", "p_name"])
    part_keys = part.filter(
        pc.match_substring(part["p_name"], "bolt")).select(["p_partkey"])

    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(_t(sf_dir, "nation"),
                           columns=["n_nationkey", "n_name"])
    supp_nat = supp.join(nation, keys=["s_nationkey"],
                         right_keys=["n_nationkey"]) \
        .select(["s_suppkey", "n_name"]).rename_columns(["s_suppkey", "nation"])

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_extendedprice", "l_discount"])
    li = build_op({"op": "broadcast_join", "small": part_keys, "how": "inner",
                   "on": ["l_partkey"], "right_on": ["p_partkey"]})(li)
    li = build_op({"op": "broadcast_join", "small": supp_nat, "how": "inner",
                   "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(li)
    li = build_op({
        "op": "mapping",
        "cols": {"vol": E.col("l_extendedprice")
                 * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_orderkey", "nation", "vol"],
    })(li)

    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderdate"])
    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    joined = build_op({
        "op": "mapping",
        "cols": {"o_year": E.F("year", E.col("o_orderdate"))},
        "select": ["nation", "o_year", "vol"],
    })(joined)
    out = build_op({
        "op": "group_agg", "keys": ["nation", "o_year"],
        "aggs": [("sum", "vol", "profit")],
    })(joined)
    return _round_cols(out, ["profit"]).select_columns(
        ["nation", "o_year", "profit"])


@query(
    "waiting_supplier_q21_shape",
    """
    WITH l AS (
      SELECT l_orderkey, l_suppkey,
             CAST(l_shipdate > o_orderdate + INTERVAL 60 DAY AS INT) AS late
      FROM lineitem JOIN orders ON l_orderkey = o_orderkey
      WHERE o_orderstatus = 'F'
    ), per_supp AS (
      SELECT l_orderkey, l_suppkey, max(late) AS late
      FROM l GROUP BY 1, 2
    ), per_order AS (
      SELECT l_orderkey,
             count(*) AS n_supp,
             CAST(sum(late) AS BIGINT) AS n_late
      FROM per_supp GROUP BY 1
    )
    SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
    FROM per_supp ps
    JOIN per_order po USING (l_orderkey)
    JOIN supplier ON ps.l_suppkey = s_suppkey
    WHERE po.n_supp >= 2 AND po.n_late = 1 AND ps.late = 1
    GROUP BY s_name
    ORDER BY numwait DESC, s_name
    LIMIT 10
    """,
)
def waiting_supplier_q21_shape(sf_dir: str):
    """TPC-H Q21 shape (suppliers who kept orders waiting): the classic
    EXISTS / NOT-EXISTS pair re-expressed as per-order supplier
    statistics — the sole late supplier on a multi-supplier finished
    order.  The testdata has no receipt/commit dates, so "late" is
    shipped >60 days after the order date; the oracle mirrors exactly.

    Scale plan: ONE orderkey exchange does all the work.  The
    lineitem⋈orders sharded join, the (orderkey, suppkey) dedup-max,
    the per-order counts, and the lone-supplier filter all partition by
    orderkey (two-phase aggregates keep the exchanges partial); the
    final per-supplier count is a tiny two-phase aggregate and the
    supplier-name join broadcasts 100 rows.  No EXISTS rescan of the
    fact table — the reference semantics fall out of one grouped pass.
    ⟨upstream: TPC-H spec Q21⟩"""
    import pyarrow.parquet as pq

    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_orderdate",
                                      "o_orderstatus"])
    orders = build_op({
        "op": "filter",
        "predicate": E.col("o_orderstatus") == E.lit("F"),
    })(orders).select_columns(["o_orderkey", "o_orderdate"])

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey", "l_shipdate"])
    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    joined = build_op({
        "op": "mapping",
        "cols": {"late": E.F(
            "if_else",
            E.col("l_shipdate") > E.F("ts_add", E.col("o_orderdate"),
                                      E.lit(60 * 86400)),
            E.lit(1), E.lit(0))},
        "select": ["l_orderkey", "l_suppkey", "late"],
    })(joined)
    per_supp = build_op({
        "op": "group_agg", "keys": ["l_orderkey", "l_suppkey"],
        "aggs": [("max", "late", "late")],
    })(joined)
    per_order = build_op({
        "op": "group_agg", "keys": ["l_orderkey"],
        "aggs": [("count", "l_suppkey", "n_supp"),
                 ("sum", "late", "n_late")],
    })(per_supp)
    per_order = build_op({
        "op": "filter",
        "predicate": (E.col("n_supp") >= E.lit(2))
        & (E.col("n_late") == E.lit(1)),
    })(per_order).select_columns(["l_orderkey"])
    # the lone-late-order key set is tiny after the n_supp>=2 &
    # n_late==1 filter — strategy="auto" sizes it and broadcasts,
    # skipping the second exchange (falls back to the shuffle join if
    # it ever grows past the limit)
    lone = build_op({
        "op": "sharded_join", "right": per_order,
        "on": ["l_orderkey"], "right_on": ["l_orderkey"],
        "how": "inner", "num_partitions": 4, "strategy": "auto",
    })(build_op({
        "op": "filter", "predicate": E.col("late") == E.lit(1),
    })(per_supp))
    counts = build_op({
        "op": "group_agg", "keys": ["l_suppkey"],
        "aggs": [("count", "l_orderkey", "numwait")],
    })(lone)
    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_name"])
    counts = build_op({"op": "broadcast_join", "small": supp, "how": "inner",
                       "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(counts)
    out = counts.select_columns(["s_name", "numwait"]) \
        .sort(["numwait", "s_name"], descending=[True, False]).limit(10)
    return out


@query(
    "min_cost_supplier_q2_shape",
    """
    WITH sel AS (
      SELECT p_partkey, p_name FROM part WHERE p_size <= 10
    ), assoc AS (
      SELECT l_partkey, l_suppkey,
             min(l_extendedprice / l_quantity) AS unit_cost
      FROM lineitem
      WHERE l_partkey IN (SELECT p_partkey FROM sel)
      GROUP BY l_partkey, l_suppkey
    ), eur AS (
      SELECT s_suppkey, s_name, s_acctbal, n_name
      FROM supplier JOIN nation ON s_nationkey = n_nationkey
      JOIN region ON n_regionkey = r_regionkey
      WHERE r_name = 'EUROPE'
    ), costs AS (
      SELECT a.l_partkey AS p_partkey, a.unit_cost,
             e.s_name, e.s_acctbal, e.n_name
      FROM assoc a JOIN eur e ON a.l_suppkey = e.s_suppkey
    ), mins AS (
      SELECT p_partkey, min(unit_cost) AS min_cost
      FROM costs GROUP BY p_partkey
    )
    SELECT round(c.s_acctbal, 4) AS s_acctbal, c.s_name, c.n_name,
           c.p_partkey, s.p_name, round(c.unit_cost, 4) AS unit_cost
    FROM costs c
    JOIN mins m ON c.p_partkey = m.p_partkey AND c.unit_cost = m.min_cost
    JOIN sel s ON s.p_partkey = c.p_partkey
    """,
)
def min_cost_supplier_q2_shape(sf_dir: str):
    """TPC-H Q2 shape (minimum-cost supplier per part, ties kept; the
    testdata has no ``partsupp``, so lineitem plays the part↔supplier
    association with unit price ``l_extendedprice / l_quantity`` as the
    cost — the oracle mirrors exactly).  The correlated
    ``= (SELECT min ...)`` subquery becomes an aggregate + argmin
    rejoin: the per-part min is computed over region suppliers only,
    then equality-joined back so ALL tied minimum rows survive (exact
    double compare — both engines derive the min from the identical
    IEEE division results, so the equality is deterministic).

    Scale plan: the part-size filter semi-prunes the fact FIRST (the
    per-(part, supplier) min is unaffected by restricting parts), so
    the only exchange — the two-phase (l_partkey, l_suppkey) min — and
    everything after it runs on the selected slice.  supplier⋈nation⋈
    region collapses driver-side (dim-sized) and broadcasts; ``mins``
    is one row per selected part (dimension-sized), broadcast back for
    the argmin equality instead of a second exchange.  At 100 TB the
    same plan holds with ``mins`` partitioned by the SAME part key as
    ``costs`` — the rejoin co-locates, no extra shuffle.
    ⟨upstream: TPC-H spec Q2⟩"""
    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"),
                         columns=["p_partkey", "p_name", "p_size"])
    sel = part.filter(pc.less_equal(part["p_size"], 10)) \
        .select(["p_partkey", "p_name"])

    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_name", "s_nationkey",
                                  "s_acctbal"])
    nation = pq.read_table(_t(sf_dir, "nation"),
                           columns=["n_nationkey", "n_name", "n_regionkey"])
    region = pq.read_table(_t(sf_dir, "region"),
                           columns=["r_regionkey", "r_name"])
    region = region.filter(pc.equal(region["r_name"], "EUROPE"))
    eur = supp.join(nation.join(region, keys=["n_regionkey"],
                                right_keys=["r_regionkey"],
                                join_type="inner"),
                    keys=["s_nationkey"], right_keys=["n_nationkey"],
                    join_type="inner") \
        .select(["s_suppkey", "s_name", "s_acctbal", "n_name"])

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_suppkey",
                                  "l_extendedprice", "l_quantity"])
    li = build_op({"op": "broadcast_semi",
                   "keys_ref": sel["p_partkey"].to_pylist(),
                   "on": "l_partkey"})(li)
    li = build_op({
        "op": "mapping",
        "cols": {"unit_cost": E.col("l_extendedprice")
                 / E.col("l_quantity")},
        "select": ["l_partkey", "l_suppkey", "unit_cost"],
    })(li)
    assoc = build_op({
        "op": "group_agg", "keys": ["l_partkey", "l_suppkey"],
        "aggs": [("min", "unit_cost", "unit_cost")],
    })(li)
    costs = build_op({"op": "broadcast_join", "small": eur, "how": "inner",
                      "on": ["l_suppkey"], "right_on": ["s_suppkey"]})(assoc)
    costs = costs.materialize()
    mins = build_op({
        "op": "group_agg", "keys": ["l_partkey"],
        "aggs": [("min", "unit_cost", "min_cost")],
    })(costs)
    from rayflow.ops.kernels import collect_table

    mins_tbl = collect_table(mins).rename_columns(["m_partkey", "min_cost"])
    out = build_op({"op": "broadcast_join", "small": mins_tbl,
                    "how": "inner", "on": ["l_partkey"],
                    "right_on": ["m_partkey"]})(costs)
    out = build_op({
        "op": "filter",
        "predicate": E.col("unit_cost") == E.col("min_cost"),
    })(out)
    out = build_op({"op": "broadcast_join", "small": sel, "how": "inner",
                    "on": ["l_partkey"], "right_on": ["p_partkey"]})(out)
    out = build_op({
        "op": "mapping",
        "cols": {"p_partkey": E.col("l_partkey")},
        "select": ["s_acctbal", "s_name", "n_name", "p_partkey",
                   "p_name", "unit_cost"],
    })(out)
    return _round_cols(out, ["s_acctbal", "unit_cost"])


@query(
    "important_parts_q11_shape",
    """
    WITH agg AS (
      SELECT l_partkey, sum(l_extendedprice) AS value
      FROM lineitem
      WHERE l_suppkey IN
            (SELECT s_suppkey FROM supplier WHERE s_nationkey < 5)
      GROUP BY l_partkey
    )
    SELECT l_partkey AS ps_partkey, round(value, 4) AS value
    FROM agg
    WHERE value > (SELECT sum(value) * 2.0 / count(*) FROM agg)
    """,
)
def important_parts_q11_shape(sf_dir: str):
    """TPC-H Q11 shape (parts holding a significant fraction of total
    value; no ``partsupp``, so value = summed extended price of the
    nation-group's shipments — the oracle mirrors exactly).  The
    correlated global-fraction HAVING becomes: per-part two-phase sum,
    then ONE scalar (the global total) reduced from the aggregate and
    applied as a broadcast threshold filter.  Like the spec (whose
    fraction is 0.0001/SF), the threshold scales with the part count —
    2× the mean per-part value — so the query stays non-trivial at
    every scale factor.

    Scale plan: the nation's supplier keys are dim-sized → broadcast
    semi-prune before anything moves; one part-keyed two-phase
    exchange builds ``agg``; the global total is a keyless aggregate
    over the already-aggregated (part-sized) table — driver pulls ONE
    number, the filter runs where the data sits.  The aggregate is
    materialized once and reused for both the total and the filter
    (no second pass over the fact).  ⟨upstream: TPC-H spec Q11⟩"""
    import pyarrow.parquet as pq

    rd = _rd()
    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_nationkey"])
    keys = supp.filter(pc.less(supp["s_nationkey"], 5))["s_suppkey"]

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_suppkey",
                                  "l_extendedprice"])
    li = build_op({"op": "broadcast_semi", "keys_ref": keys.to_pylist(),
                   "on": "l_suppkey"})(li)
    agg = build_op({
        "op": "group_agg", "keys": ["l_partkey"],
        "aggs": [("sum", "l_extendedprice", "value")],
    })(li).materialize()
    total = build_op({
        "op": "group_agg", "keys": [],
        "aggs": [("sum", "value", "total"),
                 ("count", "value", "n_parts")],
    })(agg)
    tb = next(iter(total.iter_batches(batch_format="pyarrow")))
    thresh = tb["total"][0].as_py() * 2.0 / tb["n_parts"][0].as_py()
    out = build_op({
        "op": "filter", "predicate": E.col("value") > E.lit(thresh),
    })(agg)
    out = build_op({
        "op": "mapping",
        "cols": {"ps_partkey": E.col("l_partkey")},
        "select": ["ps_partkey", "value"],
    })(out)
    return _round_cols(out, ["value"])


@query(
    "excess_supplier_q20_shape",
    """
    WITH q AS (
      SELECT l_partkey, l_suppkey,
             sum(CASE WHEN EXTRACT(year FROM l_shipdate) = 1996
                      THEN l_quantity ELSE 0 END) AS qty_y,
             sum(l_quantity) AS qty_all
      FROM lineitem
      WHERE l_partkey IN
            (SELECT p_partkey FROM part WHERE p_name LIKE '%bolt%')
      GROUP BY l_partkey, l_suppkey
    )
    SELECT DISTINCT s_name, n_name AS nation
    FROM q
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    WHERE qty_y > 0.5 * qty_all
    """,
)
def excess_supplier_q20_shape(sf_dir: str):
    """TPC-H Q20 shape (suppliers with excess volume on selected
    parts): the nested correlated ``ps_availqty > 0.5 * sum(...)``
    chain — the testdata has no ``partsupp``/availqty, so the
    correlated threshold becomes "shipped more than half of the part's
    lifetime volume in one year", computed from the SAME grouped pass
    (conditional partial sum beside the total, no second scan; the
    oracle mirrors exactly).

    Scale plan: the part-name filter semi-prunes the fact first; ONE
    (part, supplier)-keyed two-phase exchange carries BOTH the
    conditional-year sum and the lifetime sum as twin partials; the
    threshold filter is vectorized on the aggregate; supplier/nation
    names broadcast onto the surviving pairs and the final DISTINCT is
    a dim-sized two-phase aggregate.  ⟨upstream: TPC-H spec Q20⟩"""
    import pyarrow.parquet as pq

    rd = _rd()
    part = pq.read_table(_t(sf_dir, "part"),
                         columns=["p_partkey", "p_name"])
    keys = part.filter(
        pc.match_substring(part["p_name"], "bolt"))["p_partkey"]

    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_partkey", "l_suppkey", "l_quantity",
                                  "l_shipdate"])
    li = build_op({"op": "broadcast_semi", "keys_ref": keys.to_pylist(),
                   "on": "l_partkey"})(li)
    li = build_op({
        "op": "mapping",
        "cols": {"qty_y": E.when(
            E.F("year", E.col("l_shipdate")) == E.lit(1996),
            E.col("l_quantity"), E.lit(0.0))},
        "select": ["l_partkey", "l_suppkey", "qty_y", "l_quantity"],
    })(li)
    q = build_op({
        "op": "group_agg", "keys": ["l_partkey", "l_suppkey"],
        "aggs": [("sum", "qty_y", "qty_y"),
                 ("sum", "l_quantity", "qty_all")],
    })(li)
    q = build_op({
        "op": "filter",
        "predicate": E.col("qty_y") > E.lit(0.5) * E.col("qty_all"),
    })(q)
    supp = pq.read_table(_t(sf_dir, "supplier"),
                         columns=["s_suppkey", "s_name", "s_nationkey"])
    nation = pq.read_table(_t(sf_dir, "nation"),
                           columns=["n_nationkey", "n_name"])
    supp_nat = supp.join(nation, keys=["s_nationkey"],
                         right_keys=["n_nationkey"]) \
        .select(["s_suppkey", "s_name", "n_name"]) \
        .rename_columns(["s_suppkey", "s_name", "nation"])
    q = build_op({"op": "broadcast_join", "small": supp_nat,
                  "how": "inner", "on": ["l_suppkey"],
                  "right_on": ["s_suppkey"]})(q)
    out = build_op({
        "op": "group_agg", "keys": ["s_name", "nation"],
        "aggs": [("count", None, "_c")],
    })(q)
    return out.select_columns(["s_name", "nation"])


@query(
    "pivot_returnflag_revenue",
    """
    SELECT l_linestatus,
           round(sum(CASE WHEN l_returnflag = 'A'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END), 4) AS rev_A,
           round(sum(CASE WHEN l_returnflag = 'N'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END), 4) AS rev_N,
           round(sum(CASE WHEN l_returnflag = 'R'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END), 4) AS rev_R
    FROM lineitem GROUP BY l_linestatus
    """,
)
def pivot_returnflag_revenue(sf_dir: str):
    """Long→wide ``pivot`` over the fact table: revenue by line status,
    one column per return flag.  The pivot domain is declared (stable
    output schema — no discovery pass), the conditional columns are
    built vectorized in the map stage, and all three measures ride ONE
    two-phase keyed aggregate."""
    rd = _rd()
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_linestatus", "l_returnflag",
                                  "l_extendedprice", "l_discount"])
    li = build_op({
        "op": "mapping",
        "cols": {"rev": E.col("l_extendedprice")
                 * (E.lit(1.0) - E.col("l_discount"))},
        "select": ["l_linestatus", "l_returnflag", "rev"],
    })(li)
    out = build_op({
        "op": "pivot", "keys": ["l_linestatus"],
        "pivot_col": "l_returnflag", "value_col": "rev",
        "values": ["A", "N", "R"], "agg": "sum", "name_prefix": "rev_",
    })(li)
    return _round_cols(out, ["rev_A", "rev_N", "rev_R"])


@query(
    "unpivot_part_measures",
    """
    SELECT p_partkey, 'p_retailprice' AS variable,
           round(CAST(p_retailprice AS DOUBLE), 4) AS value
    FROM part
    UNION ALL
    SELECT p_partkey, 'p_size', round(CAST(p_size AS DOUBLE), 4)
    FROM part
    """,
)
def unpivot_part_measures(sf_dir: str):
    """Wide→long ``unpivot`` (melt): part measures stacked into
    (variable, value) rows.  Entirely row-local — zero exchange; the
    melt factor only grows block sizes, which the streaming executor
    re-splits."""
    rd = _rd()
    part = rd.read_parquet(_t(sf_dir, "part"),
                           columns=["p_partkey", "p_retailprice",
                                    "p_size"])
    out = build_op({
        "op": "unpivot", "keys": ["p_partkey"],
        "value_cols": ["p_retailprice", "p_size"],
        "var_name": "variable", "value_name": "value",
    })(part)
    return _round_cols(out, ["value"])


@query(
    "rollup_status_priority",
    """
    SELECT o_orderstatus, o_orderpriority,
           CAST(count(*) AS BIGINT) AS n_orders,
           round(sum(o_totalprice), 4) AS total_price
    FROM orders
    GROUP BY ROLLUP(o_orderstatus, o_orderpriority)
    """,
)
def rollup_status_priority(sf_dir: str):
    """SQL ``GROUP BY ROLLUP`` as the ``group_rollup`` op: subtotal
    rows per key-prefix level plus the grand total, rolled-up keys
    null.  The fact is aggregated ONCE (finest two-phase exchange);
    every coarser level re-aggregates the finished aggregate —
    group-cardinality-sized inputs, never a second fact pass."""
    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderstatus", "o_orderpriority",
                                      "o_totalprice"])
    out = build_op({
        "op": "group_rollup",
        "keys": ["o_orderstatus", "o_orderpriority"],
        "aggs": [("count", None, "n_orders"),
                 ("sum", "o_totalprice", "total_price")],
    })(orders)
    return _round_cols(out, ["total_price"])


@query(
    "c4_clean_docs",
    """
    WITH seg AS (
      SELECT doc_id,
             replace(replace(replace(replace(coalesce(text, ''),
                     ' window ', chr(10) || chr(10)),
                     ' batch ', chr(10)),
                     'table', 'table.'),
                     'row', 'row.') AS text
      FROM documents
    ), l AS (
      SELECT doc_id, unnest(string_split(text, chr(10))) AS line,
             generate_subscripts(string_split(text, chr(10)), 1) AS ord
      FROM seg
    ), k AS (
      SELECT doc_id, line, ord,
             regexp_matches(rtrim(line), '[.!?"]$')
             AND length(regexp_extract_all(line, '\\S+')) >= 3
             AND NOT contains(lower(line), 'spark') AS keep
      FROM k_src
    ), d AS (
      SELECT doc_id,
             CAST(count(*) AS BIGINT) AS n_tot,
             CAST(sum(CASE WHEN keep THEN 1 ELSE 0 END) AS BIGINT)
               AS n_lines_kept,
             string_agg(CASE WHEN keep THEN line END, chr(10)
                        ORDER BY ord) AS text
      FROM k GROUP BY doc_id
    )
    SELECT s.doc_id, d.text, d.n_lines_kept,
           d.n_tot - d.n_lines_kept AS n_lines_dropped
    FROM seg s JOIN d USING (doc_id)
    WHERE NOT contains(lower(s.text), 'slow fast')
      AND d.n_lines_kept >= 1
    """.replace("FROM k_src", "FROM l"),
)
def c4_clean_docs(sf_dir: str):
    """C4-style cleaning (Raffel et al. 2020 §2.2) over the
    segmentized corpus, deterministically punctuated (both sides apply
    the identical ``table``→``table.`` / ``row``→``row.`` rewrite so
    the terminal-punctuation rule is actually exercised): keep lines
    ending in terminal punctuation with ≥3 words and no banned word,
    drop docs containing a banned substring or retaining no lines,
    rebuild the survivors in order.  ONE zero-exchange map stage —
    split, predicates, and rebuild are all flat-line Arrow kernels."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    ds = _segmentize(ds)
    ds = build_op({
        "op": "mapping",
        "cols": {"text": E.F(
            "replace_all",
            E.F("replace_all", E.col("text"),
                E.lit("table"), E.lit("table.")),
            E.lit("row"), E.lit("row."))},
        "select": ["doc_id", "text"],
    })(ds)
    ds = build_op({
        "op": "c4_line_filter", "column": "text", "min_words": 3,
        "require_terminal_punct": True,
        "banned_line_words": ("spark",),
        "banned_doc_substrings": ("slow fast",),
        "min_kept_lines": 1,
    })(ds)
    return ds.select_columns(["doc_id", "text", "n_lines_kept",
                              "n_lines_dropped"])


@query(
    "fuzzy_name_pairs",
    """
    WITH names AS (SELECT DISTINCT p_name AS s FROM part)
    SELECT a.s AS s_a, b.s AS s_b,
           CAST(levenshtein(a.s, b.s) AS BIGINT) AS dist
    FROM names a JOIN names b ON a.s < b.s
    WHERE levenshtein(a.s, b.s) <= 2
    """,
)
def fuzzy_name_pairs(sf_dir: str):
    """Exact edit-distance near-dup pairs over the part-name field
    (``levenshtein_pairs``): typo-level variants the shingle/sketch
    dedup family cannot see on short strings.  Length-banded blocking
    (exact — |len diff| ≤ dist), one keyed exchange, chunked
    vectorized DP in-group.  The oracle is the literal definition via
    DuckDB's ``levenshtein``."""
    part = _rd().read_parquet(_t(sf_dir, "part"), columns=["p_name"])
    out = build_op({"op": "levenshtein_pairs", "col": "p_name",
                    "k": 2})(part)
    return out.select_columns(["s_a", "s_b", "dist"])


@query(
    "scd2_turn_history",
    """
    WITH changes AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             CAST(CASE event_type WHEN 'click' THEN 0 WHEN 'error' THEN 1
                  WHEN 'purchase' THEN 2 WHEN 'signup' THEN 3
                  ELSE 4 END AS INTEGER)     AS turn_idx,
             event_type                      AS role,
             props                           AS text,
             event_id                        AS lsn,
             CASE WHEN value < 10 THEN 'delete' ELSE 'update' END AS op
      FROM events
    ), v AS (
      SELECT conv_id, turn_idx, role, text, lsn, op,
             lead(lsn) OVER (PARTITION BY conv_id, turn_idx
                             ORDER BY lsn) AS valid_to
      FROM changes
    )
    SELECT conv_id, turn_idx, role, text,
           lsn AS valid_from, valid_to,
           CAST(valid_to IS NULL AS BIGINT) AS is_current
    FROM v WHERE op <> 'delete'
    """,
)
def scd2_turn_history(sf_dir: str):
    """SCD TYPE-2 version history materialized from the CDC change
    stream (the Debezium→lake pattern; same ``events``-as-changes
    dressing as ``cdc_upsert_events``): every surviving change becomes
    a version row with a ``[valid_from, valid_to)`` LSN interval,
    deletes close intervals without emitting rows, the open interval
    is the current version.  ONE keyed exchange (``scd2_history`` op —
    lead over ALL changes first, delete filter second)."""
    changes = _events_as_changes(sf_dir)
    changes = changes.select_columns(
        ["conv_id", "turn_idx", "role", "text", "lsn", "op"])
    out = build_op({"op": "scd2_history",
                    "keys": ["conv_id", "turn_idx"]})(changes)
    return out.select_columns(["conv_id", "turn_idx", "role", "text",
                               "valid_from", "valid_to", "is_current"])


@query(
    "turn_transition_counts_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id, event_id,
             event_type AS role
      FROM events
    ), x AS (
      SELECT conv_id, role,
             lead(role) OVER (PARTITION BY conv_id
                              ORDER BY event_id) AS next_role
      FROM tr
    )
    SELECT role, next_role, CAST(count(*) AS BIGINT) AS n
    FROM x WHERE next_role IS NOT NULL
    GROUP BY role, next_role
    """,
)
def turn_transition_counts_transcripts(sf_dir: str):
    """Agent-transcript transition analytics: the global role→next-role
    Markov transition counts over per-conversation turn order (which
    tool/role follows which).  The per-conversation ``lead`` rides the
    one-exchange coarse-shard ``group_lag`` kernel (rank-free: ordered
    by event_id directly); the count is a tiny two-phase aggregate."""
    tr = _transcript_lines(sf_dir).select_columns(
        ["conv_id", "event_id", "role"])
    tr = build_op({"op": "group_lag", "key_col": "conv_id",
                   "order_col": "event_id", "value_col": "role",
                   "out": "next_role", "offset": -1})(tr)
    tr = build_op({"op": "filter",
                   "predicate": E.F("not_null",
                                    E.col("next_role"))})(tr)
    out = build_op({"op": "group_agg", "keys": ["role", "next_role"],
                    "aggs": [("count", None, "n")]})(tr)
    return out.select_columns(["role", "next_role", "n"])


@query(
    "distinct_flag_status",
    """
    SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem
    """,
)
def distinct_flag_status(sf_dir: str):
    """``SELECT DISTINCT`` as the first-class ``distinct`` op:
    duplicates collapse per block before any exchange (the adaptive
    two-phase aggregate underneath)."""
    ds = _rd().read_parquet(_t(sf_dir, "lineitem"),
                            columns=["l_returnflag", "l_linestatus"])
    return build_op({"op": "distinct"})(ds)


@query(
    "moments_nchars_by_source",
    """
    WITH m AS (
      SELECT source,
             CAST(count(*) AS DOUBLE) AS n,
             sum(CAST(n_chars AS DOUBLE)) AS s1,
             sum(CAST(n_chars AS DOUBLE) ** 2) AS s2,
             sum(CAST(n_chars AS DOUBLE) ** 3) AS s3,
             sum(CAST(n_chars AS DOUBLE) ** 4) AS s4
      FROM documents GROUP BY source
    )
    SELECT source,
           round(s1 / n, 4) AS n_chars_mean,
           round(n / (n - 1) * (s2 / n - (s1 / n) ** 2), 4)
             AS n_chars_var,
           round((s3 / n - 3 * (s1 / n) * s2 / n + 2 * (s1 / n) ** 3)
                 / ((s2 / n - (s1 / n) ** 2) ** 1.5), 4)
             AS n_chars_skew,
           round((s4 / n - 4 * (s1 / n) * s3 / n
                  + 6 * (s1 / n) ** 2 * s2 / n - 3 * (s1 / n) ** 4)
                 / ((s2 / n - (s1 / n) ** 2) ** 2) - 3.0, 4)
             AS n_chars_kurt
    FROM m
    """,
)
def moments_nchars_by_source(sf_dir: str):
    """Distribution profile of document length per source
    (``group_moments``): five power-sum numbers per (block, key)
    cross the exchange; population skew/kurt by design — the oracle
    mirrors the IDENTICAL closed form from the same power sums
    instead of calling an engine builtin (engines disagree on small-n
    corrections)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["source", "n_chars"])
    out = build_op({"op": "group_moments", "keys": ["source"],
                    "value_col": "n_chars", "prefix": "n_chars_"})(ds)
    return _round_cols(out, ["n_chars_mean", "n_chars_var",
                             "n_chars_skew", "n_chars_kurt"]) \
        .select_columns(["source", "n_chars_mean", "n_chars_var",
                         "n_chars_skew", "n_chars_kurt"])


@query(
    "corr_qty_price_by_flag",
    """
    SELECT l_returnflag,
           round(corr(l_quantity, l_extendedprice), 4) AS corr
    FROM lineitem GROUP BY l_returnflag
    """,
)
def corr_qty_price_by_flag(sf_dir: str):
    """Per-flag Pearson correlation of quantity vs price
    (``group_corr``): six moment numbers per (block, key) cross the
    exchange — never a raw row — and the combine finishes the closed
    form.  Oracle is SQL ``corr`` rounded to 4 (the decomposed moments
    agree with DuckDB's streaming kernel well past that)."""
    ds = _rd().read_parquet(_t(sf_dir, "lineitem"),
                            columns=["l_returnflag", "l_quantity",
                                     "l_extendedprice"])
    out = build_op({"op": "group_corr", "keys": ["l_returnflag"],
                    "x_col": "l_quantity",
                    "y_col": "l_extendedprice", "out": "corr"})(ds)
    return _round_cols(out, ["corr"]) \
        .select_columns(["l_returnflag", "corr"])


@query(
    "tfidf_top_terms_docs",
    """
    WITH tok AS (
      SELECT doc_id, unnest(list_filter(string_split(lower(text), ' '),
                                        x -> x <> '')) AS term
      FROM documents
    ), tf AS (
      SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
      FROM tok GROUP BY 1, 2
    ), df AS (
      SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
    ), scored AS (
      SELECT tf.doc_id, tf.term, tf.tf, df.df,
             tf.tf * ln((SELECT CAST(count(*) AS DOUBLE)
                         FROM documents) / df.df) AS tfidf
      FROM tf JOIN df USING (term)
    ), r AS (
      SELECT *, row_number() OVER (PARTITION BY doc_id
                ORDER BY tfidf DESC, term) AS rn
      FROM scored
    )
    SELECT doc_id, term, tf, df, round(tfidf, 4) AS tfidf
    FROM r WHERE rn <= 3
    """,
)
def tfidf_top_terms_docs(sf_dir: str):
    """Each document's 3 strongest TF-IDF terms (``tfidf`` op): two
    bounded exchanges — per-block (doc, term) counts collapse before
    the keyed combine, the vocabulary-sized df table broadcasts back —
    then the shared ``group_topk`` with the term as deterministic
    tiebreak."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    out = build_op({"op": "tfidf", "column": "text",
                    "id_col": "doc_id", "top_k": 3})(ds)
    return _round_cols(out, ["tfidf"]) \
        .select_columns(["doc_id", "term", "tf", "df", "tfidf"])


@query(
    "resample_hourly_user_value",
    """
    WITH e AS (
      SELECT user_id, ts, value FROM (
        SELECT user_id, ts, value,
               row_number() OVER (PARTITION BY user_id, ts
                                  ORDER BY event_id DESC) AS rn
        FROM events) WHERE rn = 1
    ), b AS (
      SELECT user_id, min(ts) AS mn, max(ts) AS mx FROM e GROUP BY 1
    ), g AS (
      SELECT user_id, unnest(generate_series(
               CAST(ceil(epoch_us(mn) / 3600000000.0) AS BIGINT),
               CAST(floor(epoch_us(mx) / 3600000000.0) AS BIGINT),
               1)) AS k
      FROM b
    ), t AS (
      SELECT user_id, make_timestamp(k * 3600000000) AS tick FROM g
    )
    SELECT t.user_id, t.tick, round(e.value, 4) AS value
    FROM t ASOF JOIN e ON t.user_id = e.user_id AND t.tick >= e.ts
    """,
)
def resample_hourly_user_value(sf_dir: str):
    """Time-series regularization (``resample_ffill``): one row per
    epoch-aligned hour inside each user's activity span, forward-
    filling the latest value — after deduping equal timestamps per
    user (latest event wins) so the carry is well-defined on BOTH
    sides.  ONE coarse-shard exchange, per-run vectorized grid +
    searchsorted; loud tick-explosion guard.  The oracle is
    generate_series + DuckDB ASOF JOIN."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["user_id", "event_id", "ts",
                                     "value"])
    ds = build_op({"op": "dedupe", "keys": ["user_id", "ts"],
                   "order_col": "event_id", "keep": "max"})(ds)
    out = build_op({
        "op": "resample_ffill", "key_col": "user_id", "ts_col": "ts",
        "value_col": "value", "interval_s": 3600.0,
    })(ds)
    out = build_op({
        "op": "mapping", "cols": {"user_id": E.F("int64",
                                                 E.col("user_id"))},
        "select": ["user_id", "tick", "value"],
    })(out)
    return _round_cols(out, ["value"])


@query(
    "moving_avg_user_value",
    """
    SELECT user_id, event_id,
           round(sum(value) OVER w, 4) AS value_mov_sum,
           round(avg(value) OVER w, 4) AS value_mov_mean,
           CAST(count(value) OVER w AS BIGINT) AS value_mov_count
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY event_id
                 ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)
    """,
)
def moving_avg_user_value(sf_dir: str):
    """Per-user trailing-5-row moving sum/mean/count over the event
    stream (``group_moving_agg``): one coarse-shard exchange, each key
    run one segmented prefix-sum — the rolling-average primitive with
    no per-row loop and no per-key task."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["user_id", "event_id", "value"])
    out = build_op({
        "op": "group_moving_agg", "key_col": "user_id",
        "order_col": "event_id", "value_col": "value", "window": 5,
        "fns": ["sum", "mean", "count"],
    })(ds)
    return _round_cols(out, ["value_mov_sum", "value_mov_mean"]) \
        .select_columns(["user_id", "event_id", "value_mov_sum",
                         "value_mov_mean", "value_mov_count"])


@query(
    "cube_status_priority",
    """
    SELECT o_orderstatus, o_orderpriority,
           CAST(count(*) AS BIGINT) AS n_orders,
           round(sum(o_totalprice), 4) AS total_price
    FROM orders
    GROUP BY CUBE(o_orderstatus, o_orderpriority)
    """,
)
def cube_status_priority(sf_dir: str):
    """``GROUP BY CUBE`` via ``group_grouping_sets(sets="cube")``: all
    2^k grouping sets from ONE finest-level fact aggregate — every
    coarser set re-aggregates the finished aggregate, never the fact;
    rolled-up keys typed-null, SQL style."""
    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderstatus", "o_orderpriority",
                                      "o_totalprice"])
    out = build_op({
        "op": "group_grouping_sets",
        "keys": ["o_orderstatus", "o_orderpriority"], "sets": "cube",
        "aggs": [("count", None, "n_orders"),
                 ("sum", "o_totalprice", "total_price")],
    })(orders)
    return _round_cols(out, ["total_price"])


@query(
    "intersect_customers_95_97",
    """
    SELECT o_custkey FROM orders
    WHERE EXTRACT(year FROM o_orderdate) = 1995
    INTERSECT
    SELECT o_custkey FROM orders
    WHERE EXTRACT(year FROM o_orderdate) = 1997
    """,
)
def intersect_customers_95_97(sf_dir: str):
    """SQL set operation (``set_op``): customers active in BOTH 1995
    and 1997 — whole-row INTERSECT semantics.  Both sides collapse to
    distinct rows via the adaptive two-phase aggregate BEFORE any
    exchange; membership is one sharded semi over an unambiguous
    length-prefixed row key (no size assumption on either side).
    EXCEPT / UNION DISTINCT share the machinery (unit-tested)."""
    rd = _rd()

    def year_side(y):
        ds = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_orderdate"])
        ds = build_op({
            "op": "filter",
            "predicate": E.F("year", E.col("o_orderdate")) == E.lit(y),
        })(ds)
        return ds.select_columns(["o_custkey"])

    return build_op({"op": "set_op", "other": year_side(1997),
                     "how": "intersect"})(year_side(1995))


@query("dup_span_remove_docs")
def dup_span_remove_docs(sf_dir: str):
    """ExactSubstr removal over the corpus (``dup_span_remove``,
    k=8 tokens on the synthetic docs): duplicated windows keep their
    globally-first occurrence, later occurrences are excised and docs
    rebuilt.  No SQL oracle — the global-first rebuild is not
    SQL-expressible (driver records the rows-only check); exactness is
    pinned by the first-occurrence-verbatim / same-doc-repeat /
    remove-then-detect-empty property tests in tests/test_round4.py."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    out = build_op({"op": "dup_span_remove", "k_tokens": 8})(ds)
    return out.select_columns(["doc_id", "text", "n_tokens_removed"])


@query(
    "coalesce_event_intervals",
    """
    WITH iv AS (
      SELECT user_id, ts AS s,
             ts + to_microseconds(CAST(floor(value * 60000000) AS BIGINT))
               AS e
      FROM events
    ), o AS (
      SELECT *, max(e) OVER (PARTITION BY user_id ORDER BY s, e
               ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS prev_max
      FROM iv
    ), f AS (
      SELECT *, CASE WHEN prev_max IS NULL OR s > prev_max
                     THEN 1 ELSE 0 END AS brk
      FROM o
    ), g AS (
      SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY s, e
                ROWS UNBOUNDED PRECEDING) AS isl
      FROM f
    )
    SELECT user_id, min(s) AS span_start, max(e) AS span_end,
           CAST(count(*) AS BIGINT) AS n_merged
    FROM g GROUP BY user_id, isl
    """,
)
def coalesce_event_intervals(sf_dir: str):
    """Gaps-and-islands (``interval_coalesce``): each event spans
    [ts, ts + value minutes]; overlapping-or-touching spans per user
    merge into maximal islands.  ONE keyed exchange; the in-shard
    sweep is a segmented running-max scan (loop over key RUNS, each
    slice one vectorized ``maximum.accumulate``).  The oracle is the
    classic prev-running-max window SQL."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["user_id", "ts", "value"])

    def spans(t: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        dur = pc.cast(pc.floor(pc.multiply(t["value"], 60000000.0)),
                      pa.int64())
        return pa.table({
            "user_id": t["user_id"],
            "s": pc.cast(us, pa.timestamp("us")),
            "e": pc.cast(pc.add(us, dur), pa.timestamp("us")),
        })

    ds = ds.map_batches(spans, batch_format="pyarrow",
                        zero_copy_batch=True)
    out = build_op({"op": "interval_coalesce", "key_col": "user_id",
                    "start_col": "s", "end_col": "e",
                    "agg_count": "n_merged"})(ds)
    out = build_op({
        "op": "mapping",
        "cols": {"span_start": E.col("s"), "span_end": E.col("e")},
        "select": ["user_id", "span_start", "span_end", "n_merged"],
    })(out)
    return out


@query(
    "pagerank_cust_supplier",
    """
    WITH e0 AS (
      SELECT DISTINCT 'c' || CAST(o_custkey AS VARCHAR) AS src,
                      's' || CAST(l_suppkey AS VARCHAR) AS dst
      FROM orders JOIN lineitem ON o_orderkey = l_orderkey
    ), e AS (
      SELECT src, dst FROM e0
      UNION ALL SELECT dst, src FROM e0
    ), deg AS (
      SELECT src AS node, CAST(count(*) AS DOUBLE) AS d
      FROM e GROUP BY 1
    ), nn AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM deg),
    r0 AS (SELECT node, 1.0 / n AS r FROM deg CROSS JOIN nn),
    r1 AS (
      SELECT e.dst AS node, 0.15 / max(nn.n) + 0.85 * sum(r0.r / deg.d)
             AS r
      FROM e JOIN r0 ON e.src = r0.node JOIN deg ON e.src = deg.node
      CROSS JOIN nn GROUP BY e.dst
    ), r2 AS (
      SELECT e.dst AS node, 0.15 / max(nn.n) + 0.85 * sum(r1.r / deg.d)
             AS r
      FROM e JOIN r1 ON e.src = r1.node JOIN deg ON e.src = deg.node
      CROSS JOIN nn GROUP BY e.dst
    ), r3 AS (
      SELECT e.dst AS node, 0.15 / max(nn.n) + 0.85 * sum(r2.r / deg.d)
             AS r
      FROM e JOIN r2 ON e.src = r2.node JOIN deg ON e.src = deg.node
      CROSS JOIN nn GROUP BY e.dst
    )
    SELECT node, r AS rank FROM r3
    """,
)
def pagerank_cust_supplier(sf_dir: str):
    """PageRank (3 iterations, d=0.85) over the customer↔supplier
    bipartite graph induced by orders⋈lineitem — the iterative-
    algorithm pattern beside k-means: edges never leave the workers;
    each iteration broadcasts a node-sized rank vector and reduces
    node-sized partials through ONE two-phase keyed combine.  The
    oracle is the literal power iteration unrolled in SQL."""
    rd = _rd()
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_orderkey", "o_custkey"])
    li = rd.read_parquet(_t(sf_dir, "lineitem"),
                         columns=["l_orderkey", "l_suppkey"])
    joined = build_op({
        "op": "sharded_join", "right": orders,
        "on": ["l_orderkey"], "right_on": ["o_orderkey"],
        "how": "inner", "num_partitions": 4,
    })(li)
    edges = build_op({
        "op": "mapping",
        "cols": {"src": E.F("concat", E.lit("c"),
                            E.F("string", E.col("o_custkey"))),
                 "dst": E.F("concat", E.lit("s"),
                            E.F("string", E.col("l_suppkey")))},
        "select": ["src", "dst"],
    })(joined)
    edges = build_op({
        "op": "group_agg", "keys": ["src", "dst"],
        "aggs": [("count", None, "_c")],
    })(edges)
    out = build_op({"op": "pagerank", "src_col": "src",
                    "dst_col": "dst", "n_iter": 3,
                    "damping": 0.85})(edges)
    return out.select_columns(["node", "rank"])


@query(
    "alternation_violations_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id, event_id,
             event_type AS role
      FROM events
    ), x AS (
      SELECT conv_id, role,
             lag(role) OVER (PARTITION BY conv_id
                             ORDER BY event_id) AS prev_role
      FROM tr
    )
    SELECT conv_id,
           CAST(sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END)
                AS BIGINT) AS n_violations,
           CAST(count(*) AS BIGINT) AS n_turns
    FROM x GROUP BY conv_id
    HAVING sum(CASE WHEN role = prev_role THEN 1 ELSE 0 END) > 0
    """,
)
def alternation_violations_transcripts(sf_dir: str):
    """SFT-prep admission signal: conversations with consecutive
    same-role turns (broken user/assistant alternation) and how many.
    The per-conversation ``lag`` rides the one-exchange coarse-shard
    kernel (rank-free, ordered by event_id); the violation count is a
    two-phase aggregate with a HAVING filter."""
    tr = _transcript_lines(sf_dir).select_columns(
        ["conv_id", "event_id", "role"])
    tr = build_op({"op": "group_lag", "key_col": "conv_id",
                   "order_col": "event_id", "value_col": "role",
                   "out": "prev_role", "offset": 1})(tr)
    tr = build_op({
        "op": "mapping",
        "cols": {"viol": E.when(
            E.F("fill_null",
                E.col("role") == E.col("prev_role"), E.lit(False)),
            E.lit(1), E.lit(0))},
        "select": ["conv_id", "viol"],
    })(tr)
    out = build_op({"op": "group_agg", "keys": ["conv_id"],
                    "aggs": [("sum", "viol", "n_violations"),
                             ("count", None, "n_turns")]})(tr)
    return build_op({
        "op": "filter",
        "predicate": E.col("n_violations") > E.lit(0),
    })(out).select_columns(["conv_id", "n_violations", "n_turns"])


@query(
    "zscore_order_value",
    """
    SELECT o_orderkey,
           CASE WHEN stddev_samp(o_totalprice)
                     OVER (PARTITION BY o_orderpriority) > 0
                THEN (o_totalprice
                      - avg(o_totalprice)
                        OVER (PARTITION BY o_orderpriority))
                     / stddev_samp(o_totalprice)
                       OVER (PARTITION BY o_orderpriority)
           END AS zscore
    FROM orders
    """,
)
def zscore_order_value(sf_dir: str):
    """Per-priority standardized order value (``group_zscore``,
    annotate mode): ONE two-phase (mean, std) aggregate broadcast back
    onto the stream — the fact never shuffles; z is a vectorized
    kernel.  The outlier-trim/flag modes of the same op are the
    curation winsorize step (unit-tested; the oracle checks the
    continuous z column, immune to threshold-boundary float flips)."""
    ds = _rd().read_parquet(_t(sf_dir, "orders"),
                            columns=["o_orderkey", "o_orderpriority",
                                     "o_totalprice"])
    out = build_op({"op": "group_zscore", "keys": ["o_orderpriority"],
                    "value_col": "o_totalprice", "out": "zscore",
                    "mode": "annotate"})(ds)
    return out.select_columns(["o_orderkey", "zscore"])


@query(
    "mode_lang_by_source",
    """
    WITH c AS (
      SELECT source, lang, count(*) AS n FROM documents GROUP BY 1, 2
    ), r AS (
      SELECT *, row_number() OVER (PARTITION BY source
                                   ORDER BY n DESC, lang) AS rn
      FROM c
    )
    SELECT source, lang AS mode, CAST(n AS BIGINT) AS n_mode
    FROM r WHERE rn = 1
    """,
)
def mode_lang_by_source(sf_dir: str):
    """Most-frequent language per source (``group_mode``): bounded
    exchange — only distinct (source, lang) count pairs move, the
    winner pick runs on the group-cardinality-sized aggregate with the
    value as the deterministic tiebreak (mirrored in the oracle's
    ORDER BY n DESC, lang)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["source", "lang"])
    out = build_op({"op": "group_mode", "keys": ["source"],
                    "value_col": "lang", "out": "mode",
                    "count_out": "n_mode"})(ds)
    return out.select_columns(["source", "mode", "n_mode"])


@query(
    "funnel_signup_click_purchase",
    """
    WITH e AS (SELECT user_id, event_type, ts FROM events),
    s1 AS (
      SELECT user_id, min(ts) AS signup_ts
      FROM e WHERE event_type = 'signup' GROUP BY user_id
    ), s2 AS (
      SELECT e.user_id, min(e.ts) AS click_ts
      FROM e JOIN s1 USING (user_id)
      WHERE event_type = 'click' AND e.ts > s1.signup_ts
        AND e.ts <= s1.signup_ts + INTERVAL 72 HOUR
      GROUP BY e.user_id
    ), s3 AS (
      SELECT e.user_id, min(e.ts) AS purchase_ts
      FROM e JOIN s2 USING (user_id) JOIN s1 USING (user_id)
      WHERE event_type = 'purchase' AND e.ts > s2.click_ts
        AND e.ts <= s1.signup_ts + INTERVAL 72 HOUR
      GROUP BY e.user_id
    )
    SELECT s1.user_id,
           CAST(1 + CASE WHEN click_ts IS NOT NULL THEN 1 ELSE 0 END
                  + CASE WHEN purchase_ts IS NOT NULL THEN 1 ELSE 0 END
                AS BIGINT) AS reached,
           signup_ts, click_ts, purchase_ts
    FROM s1 LEFT JOIN s2 USING (user_id) LEFT JOIN s3 USING (user_id)
    """,
)
def funnel_signup_click_purchase(sf_dir: str):
    """Ordered-event funnel (``funnel`` op): signup → click → purchase
    within 72 h of signup, greedy-earliest chain per user.  ONE keyed
    exchange; the in-shard sweep is one vectorized ``minimum.at`` pass
    PER STEP over the whole shard — never a per-key loop.  The oracle
    is the classic nested min-ts SQL."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["user_id", "event_type", "ts"])
    out = build_op({
        "op": "funnel", "key_col": "user_id", "step_col": "event_type",
        "order_col": "ts", "steps": ["signup", "click", "purchase"],
        "ts_outs": ["signup_ts", "click_ts", "purchase_ts"],
        "within": 72 * 3600.0,
    })(ds)
    return out.select_columns(["user_id", "reached", "signup_ts",
                               "click_ts", "purchase_ts"])


@query(
    "approx_percentile_nchars",
    """
    WITH o AS (
      SELECT source, n_chars,
             row_number() OVER (PARTITION BY source ORDER BY n_chars) AS rn,
             count(*) OVER (PARTITION BY source) AS cnt
      FROM documents)
    SELECT source,
      CAST(max(CASE WHEN rn = greatest(1,
            CAST(ceil(CAST(0.5 AS DOUBLE) * cnt) AS BIGINT))
        THEN n_chars END) AS DOUBLE) AS p50,
      CAST(max(CASE WHEN rn = greatest(1,
            CAST(ceil(CAST(0.9 AS DOUBLE) * cnt) AS BIGINT))
        THEN n_chars END) AS DOUBLE) AS p90
    FROM o GROUP BY source
    """,
)
def approx_percentile_nchars(sf_dir: str):
    """The declared-bin approximate percentile
    (``group_approx_percentile``) on unit bins over an integer column —
    where the sketch is EXACT by construction, so the oracle is the
    same discrete-percentile SQL as the exact op.  The point at 100 TB:
    the exchange is bounded by keys × n_bins no matter the value
    cardinality (an all-distinct double column ships every row through
    the exact op's histogram; this one never does)."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["source", "n_chars"])
    out = build_op({
        "op": "group_approx_percentile", "keys": ["source"],
        "value_col": "n_chars", "quantiles": [0.5, 0.9],
        "lo": 0.0, "hi": 1024.0, "n_bins": 1024,
    })(ds)
    return out.select_columns(["source", "p50", "p90"])


# the synthetic documents are single-line; derive a deterministic
# multi-line / multi-paragraph corpus (word 'batch' → newline, word
# 'window' → blank line) so the line/paragraph ops are actually
# exercised — BOTH sides apply the identical rewrite
_SEGMENTIZE_SQL = """
      SELECT doc_id,
             replace(replace(coalesce(text, ''),
                             ' window ', chr(10) || chr(10)),
                     ' batch ', chr(10)) AS text
      FROM documents
"""


def _segmentize(ds):
    return build_op({
        "op": "mapping",
        "cols": {"text": E.F(
            "replace_all",
            E.F("replace_all", E.F("coalesce", E.col("text"), E.lit("")),
                E.lit(" window "), E.lit("\n\n")),
            E.lit(" batch "), E.lit("\n"))},
        "select": ["doc_id", "text"],
    })(ds)


@query(
    "repetition_signals_docs",
    f"""
    WITH seg AS ({_SEGMENTIZE_SQL}),
    l AS (
      SELECT doc_id, unnest(string_split(text, chr(10))) AS s FROM seg
    ), lp AS (
      SELECT doc_id, s, count(*) AS c, length(s) AS len
      FROM l GROUP BY 1, 2
    ), la AS (
      SELECT doc_id, sum(c) AS n, count(*) AS u,
             sum(c * len) AS ch, sum((c - 1) * len) AS dch
      FROM lp GROUP BY 1
    ),
    p AS (
      SELECT doc_id, unnest(string_split(text, chr(10) || chr(10))) AS s
      FROM seg
    ), pp AS (
      SELECT doc_id, s, count(*) AS c, length(s) AS len
      FROM p GROUP BY 1, 2
    ), pa AS (
      SELECT doc_id, sum(c) AS n, count(*) AS u,
             sum(c * len) AS ch, sum((c - 1) * len) AS dch
      FROM pp GROUP BY 1
    )
    SELECT la.doc_id,
           CAST(la.n - la.u AS DOUBLE) / la.n AS dup_line_frac,
           CASE WHEN la.ch > 0 THEN CAST(la.dch AS DOUBLE) / la.ch
                ELSE 0.0 END AS dup_line_char_frac,
           CAST(pa.n - pa.u AS DOUBLE) / pa.n AS dup_para_frac,
           CASE WHEN pa.ch > 0 THEN CAST(pa.dch AS DOUBLE) / pa.ch
                ELSE 0.0 END AS dup_para_char_frac
    FROM la JOIN pa USING (doc_id)
    """,
)
def repetition_signals_docs(sf_dir: str):
    """Gopher repetition filters (dup line/paragraph fractions by count
    and by characters) over the segmentized corpus — stateless
    vectorized batch op, zero shuffles."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    ds = _segmentize(ds)
    ds = build_op({"op": "repetition_signals", "column": "text"})(ds)
    return ds.select_columns(["doc_id", "dup_line_frac",
                              "dup_line_char_frac", "dup_para_frac",
                              "dup_para_char_frac"])


@query(
    "paragraph_dedup_docs",
    f"""
    WITH seg AS ({_SEGMENTIZE_SQL}),
    p AS (
      SELECT doc_id,
             unnest(string_split(text, chr(10) || chr(10))) AS para,
             unnest(range(len(string_split(text, chr(10) || chr(10)))))
               AS para_idx
      FROM seg
    ), w AS (
      SELECT doc_id, para_idx, para FROM p
      QUALIFY row_number()
              OVER (PARTITION BY para ORDER BY doc_id, para_idx) = 1
    )
    SELECT doc_id,
           string_agg(para, chr(10) || chr(10) ORDER BY para_idx) AS text
    FROM w GROUP BY doc_id
    """,
)
def paragraph_dedup_docs(sf_dir: str):
    """Corpus-level exact paragraph dedup (first occurrence in
    (doc_id, position) order wins) over the segmentized corpus, docs
    rebuilt from surviving paragraphs — the RefinedWeb pre-pass."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    ds = _segmentize(ds)
    ds = build_op({"op": "paragraph_dedup", "id_col": "doc_id",
                   "text_col": "text", "out_col": "text"})(ds)
    return ds.select_columns(["doc_id", "text"])


@query(
    "domain_cap_docs",
    """
    SELECT doc_id, source FROM (
      SELECT doc_id, source,
             row_number() OVER (PARTITION BY source ORDER BY doc_id) AS rn
      FROM documents) t
    WHERE rn <= 10
    """,
)
def domain_cap_docs(sf_dir: str):
    """Per-domain document cap (bound any one host's corpus share —
    the standard web-curation quota): keep the 10 earliest doc_ids per
    source.  Per-batch partial cap, then ONE coarse-sharded keyed
    exchange re-running the same vectorized kernel."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "source"])
    return build_op({
        "op": "group_cap", "key_col": "source", "order_col": "doc_id",
        "n": 10,
    })(ds)


_INCR_DEDUP_SQL = """
    SELECT d.doc_id FROM documents d
    WHERE NOT EXISTS (SELECT 1 FROM documents r
                      WHERE r.doc_id % 3 = 0 AND r.text = d.text)
    """


@query("incremental_dedup_docs", _INCR_DEDUP_SQL)
def incremental_dedup_docs(sf_dir: str):
    """Cross-snapshot exact dedup (broadcast path): drop docs whose
    text already exists in the reference corpus (docs with
    doc_id%3==0, standing in for the previously-ingested lake).  The
    ref is reduced to 16-byte md5 digests, ray.put once, pc.is_in per
    batch — no shuffle."""
    rd = _rd()
    ref = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ref = build_op({"op": "filter",
                    "predicate": (E.col("doc_id") % 3) == 0})(ref)
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = build_op({"op": "dedup_against", "ref": ref,
                    "method": "broadcast"})(ds)
    return out.select_columns(["doc_id"])


@query("incremental_dedup_sharded", _INCR_DEDUP_SQL)
def incremental_dedup_sharded(sf_dir: str):
    """Cross-snapshot exact dedup, SHARDED path (no size assumption on
    the reference): digest both sides, one keyed exchange via
    sharded_semi(anti) over distinct ref digests."""
    rd = _rd()
    ref = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    ref = build_op({"op": "filter",
                    "predicate": (E.col("doc_id") % 3) == 0})(ref)
    ds = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id", "text"])
    out = build_op({"op": "dedup_against", "ref": ref, "method": "sharded",
                    "num_partitions": 4})(ds)
    return out.select_columns(["doc_id"])


_MIX_RATE_A, _MIX_RATE_B = 0.75, 0.25
_MIX_HEX_A = format(int(_MIX_RATE_A * float(1 << 64)), "016x")
_MIX_HEX_B = format(int(_MIX_RATE_B * float(1 << 64)), "016x")


@query(
    "weighted_mix_docs",
    f"""
    SELECT doc_id FROM documents
    WHERE doc_id % 2 = 0
      AND substr(md5('mixA' || CAST(doc_id AS VARCHAR)), 1, 16)
            < '{_MIX_HEX_A}'
    UNION ALL
    SELECT doc_id FROM documents
    WHERE doc_id % 2 = 1
      AND substr(md5('mixB' || CAST(doc_id AS VARCHAR)), 1, 16)
            < '{_MIX_HEX_B}'
    """,
)
def weighted_mix_docs(sf_dir: str):
    """Pre-training corpus mixing: two sources (even/odd doc ids
    standing in for web/books) sampled at 0.75 / 0.25 by deterministic
    salted-md5 thresholds, then unioned — pure map + zero-shuffle
    union; the oracle applies the identical hex-prefix threshold."""
    rd = _rd()
    docs = rd.read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    a = build_op({"op": "filter",
                  "predicate": (E.col("doc_id") % 2) == 0})(docs)
    b = build_op({"op": "filter",
                  "predicate": (E.col("doc_id") % 2) == 1})(docs)
    return build_op({
        "op": "weighted_mix", "id_col": "doc_id",
        "sources": [{"ds": a, "rate": _MIX_RATE_A, "salt": "mixA"},
                    {"ds": b, "rate": _MIX_RATE_B, "salt": "mixB"}],
    })(a)


@query(
    "global_shuffle_docs",
    """
    SELECT doc_id,
           CAST(row_number() OVER (
             ORDER BY md5('ep0' || CAST(doc_id AS VARCHAR)), doc_id) - 1
             AS BIGINT) AS shuffle_pos
    FROM documents
    """,
)
def global_shuffle_docs(sf_dir: str):
    """Reproducible epoch shuffle: every doc gets its exact global
    position in md5('ep0' || id) order via order-aligned hash buckets
    + a driver prefix-sum over the tiny bucket-count table — one keyed
    exchange, no global sort machinery."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"), columns=["doc_id"])
    out = build_op({"op": "global_shuffle", "id_col": "doc_id",
                    "salt": "ep0", "out": "shuffle_pos",
                    "n_buckets": 64})(ds)
    return out.select_columns(["doc_id", "shuffle_pos"])


@query(
    "simhash_near_dup_pairs",
    r"""
    WITH t AS (
      SELECT doc_id, regexp_extract_all(coalesce(text, ''), '\S+') AS toks
      FROM documents
    ), tok AS (
      SELECT doc_id, len(toks) AS n, unnest(toks) AS tk FROM t
    ), h AS (
      SELECT doc_id, n,
             CAST('0x' || substring(md5(tk), 1, 16) AS UBIGINT) AS hv
      FROM tok
    ), bits AS (
      SELECT doc_id, n, i,
             CASE WHEN (hv >> i) & 1 = 1 THEN 1 ELSE 0 END AS b
      FROM h CROSS JOIN (SELECT unnest(range(63)) AS i)
    ), mj AS (
      SELECT doc_id, i,
             CASE WHEN 2 * sum(b) > any_value(n)
                  THEN (1::UBIGINT << i) ELSE 0::UBIGINT END AS v
      FROM bits GROUP BY doc_id, i
    ), s0 AS (
      SELECT doc_id, CAST(sum(v) AS BIGINT) AS simhash FROM mj GROUP BY doc_id
    ), s AS (
      SELECT d.doc_id, COALESCE(s0.simhash, 0) AS simhash
      FROM documents d LEFT JOIN s0 ON d.doc_id = s0.doc_id
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(bit_count(xor(a.simhash::UBIGINT, b.simhash::UBIGINT))
                AS BIGINT) AS hd
    FROM s a JOIN s b ON a.doc_id < b.doc_id
    WHERE bit_count(xor(a.simhash::UBIGINT, b.simhash::UBIGINT)) <= 3
    """,
)
def simhash_near_dup_pairs(sf_dir: str):
    """SimHash near-dup detection: all pairs within 3 differing
    signature bits, found by pigeonhole band blocking (4 exact-match
    bands guarantee full recall at hd<=3) + in-bucket popcount verify —
    one keyed exchange carrying only (id, signature, band) ints.  The
    oracle brute-forces the full O(n^2) bit_count join."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    return build_op({"op": "simhash_near_dup", "hd_max": 3})(ds)


@query(
    "anti_join_bloom_prefilter",
    """
    SELECT c_custkey, round(c_acctbal, 4) AS acctbal
    FROM customer c
    WHERE NOT EXISTS (SELECT 1 FROM orders o
                      WHERE o.o_custkey = c.c_custkey
                        AND o.o_totalprice > 300000)
    """,
)
def anti_join_bloom_prefilter(sf_dir: str):
    """sharded_anti_quiet_customers' plan with the Bloom prefilter on:
    a broadcast Bloom of the (filtered) order custkeys resolves
    bloom-miss customers with NO exchange — only maybe-members ride the
    keyed join.  Same SQL, bit-identical output: the oracle proves the
    prefilter never changes results."""
    rd = _rd()
    cust = rd.read_parquet(_t(sf_dir, "customer"),
                           columns=["c_custkey", "c_acctbal"])
    cust = build_op({
        "op": "mapping",
        "cols": {"acctbal": E.F("round", E.col("c_acctbal"), 4)},
        "select": ["c_custkey", "acctbal"],
    })(cust)
    orders = rd.read_parquet(_t(sf_dir, "orders"),
                             columns=["o_custkey", "o_totalprice"])
    orders = build_op({
        "op": "filter", "predicate": E.col("o_totalprice") > 300000.0,
    })(orders)
    return build_op({
        "op": "sharded_semi", "right": orders,
        "on": "c_custkey", "right_on": "o_custkey",
        "anti": True, "num_partitions": 4, "bloom_bits_per_key": 10,
    })(cust)


@query(
    "order_rank_per_customer",
    """
    SELECT o_orderkey, o_custkey,
           CAST(row_number() OVER (PARTITION BY o_custkey
                                   ORDER BY o_orderdate, o_orderkey)
                AS BIGINT) AS rn
    FROM orders
    """,
)
def order_rank_per_customer(sf_dir: str):
    """Per-key row_number (each customer's orders ranked by date):
    ONE coarse-sharded keyed exchange, whole-shard vectorized lexsort
    rank — no per-key group tasks.  (o_orderdate, o_orderkey) is a
    unique order so the rank is deterministic; the op takes the packed
    pair as its order column."""
    ds = _rd().read_parquet(_t(sf_dir, "orders"),
                            columns=["o_orderkey", "o_custkey",
                                     "o_orderdate"])
    # pack (orderdate, orderkey) into one int64 order column: epoch
    # seconds (< 2^31) * 2^32 + orderkey (< 2^32) — overflow-free int64
    ds = build_op({
        "op": "mapping",
        "cols": {"_ord": E.F("ts_unix", E.col("o_orderdate")) * (1 << 32)
                 + E.col("o_orderkey")},
    })(ds)
    out = build_op({"op": "group_rank", "key_col": "o_custkey",
                    "order_col": "_ord", "out": "rn"})(ds)
    return out.select_columns(["o_orderkey", "o_custkey", "rn"])


@query(
    "running_revenue_per_customer",
    """
    SELECT o_orderkey, o_custkey,
           round(sum(o_totalprice) OVER (PARTITION BY o_custkey
                                         ORDER BY o_orderdate, o_orderkey),
                 4) AS running
    FROM orders
    """,
)
def running_revenue_per_customer(sf_dir: str):
    """Per-key running sum (cumulative revenue per customer in order
    date order) — SQL RANGE-frame semantics on ties, one coarse-shard
    exchange, vectorized global-cumsum-minus-run-base within shards."""
    ds = _rd().read_parquet(_t(sf_dir, "orders"),
                            columns=["o_orderkey", "o_custkey",
                                     "o_orderdate", "o_totalprice"])
    ds = build_op({
        "op": "mapping",
        "cols": {"_ord": E.F("ts_unix", E.col("o_orderdate")) * (1 << 32)
                 + E.col("o_orderkey")},
    })(ds)
    out = build_op({"op": "group_cumsum", "key_col": "o_custkey",
                    "order_col": "_ord", "value_col": "o_totalprice",
                    "out": "running"})(ds)
    out = build_op({
        "op": "mapping",
        "cols": {"running": E.F("round", E.col("running"), 4)},
    })(out)
    return out.select_columns(["o_orderkey", "o_custkey", "running"])


@query(
    "event_gap_per_user",
    """
    SELECT event_id, user_id,
           CAST(date_diff('second',
                          lag(ts) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id),
                          ts) AS BIGINT) AS gap_s
    FROM events
    """,
)
def event_gap_per_user(sf_dir: str):
    """Per-user inter-event gap (lag over the event stream) — the
    sessionization / cadence primitive.  One coarse-shard exchange,
    vectorized shifted-take within shards; first event per user gets
    NULL like SQL lag."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["event_id", "user_id", "ts"])
    ds = build_op({
        "op": "mapping",
        "cols": {"_ord": E.F("ts_unix", E.col("ts")) * (1 << 32)
                 + E.col("event_id"),
                 "_ts_s": E.F("ts_unix", E.col("ts"))},
    })(ds)
    out = build_op({"op": "group_lag", "key_col": "user_id",
                    "order_col": "_ord", "value_col": "_ts_s",
                    "out": "_prev_s"})(ds)
    out = build_op({
        "op": "mapping",
        "cols": {"gap_s": E.col("_ts_s") - E.col("_prev_s")},
    })(out)
    return out.select_columns(["event_id", "user_id", "gap_s"])


@query(
    "customer_value_quartiles",
    """
    SELECT c_custkey,
           round(percent_rank() OVER (ORDER BY c_acctbal, c_custkey), 6)
             AS pr,
           CAST(ntile(4) OVER (PARTITION BY c_mktsegment
                               ORDER BY c_acctbal, c_custkey) AS BIGINT)
             AS quartile
    FROM customer
    """,
)
def customer_value_quartiles(sf_dir: str):
    """percent_rank (global — single partition) + per-segment ntile(4)
    quartiles, both from group_rank's one-pass kernel.  The global
    percent_rank uses a constant key (one 'partition'), showing the
    same op covers the unpartitioned OVER () case."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "customer"),
                         columns=["c_custkey", "c_acctbal", "c_mktsegment"])
    # unique order: acctbal then custkey, packed (acctbal is 2dp money —
    # scale by 100 to an exact int)
    ds = build_op({
        "op": "mapping",
        "cols": {"_ord": E.F("round", E.col("c_acctbal") * 100.0, 0)
                 * (1 << 32) + E.col("c_custkey"),
                 "_one": E.lit(1)},
    })(ds)
    ds = build_op({"op": "group_rank", "key_col": "_one",
                   "order_col": "_ord", "out": "_rn_g",
                   "out_percent": "pr"})(ds)
    ds = build_op({"op": "group_rank", "key_col": "c_mktsegment",
                   "order_col": "_ord", "out": "_rn_s",
                   "out_ntile": "quartile", "ntile": 4})(ds)
    ds = build_op({
        "op": "mapping",
        "cols": {"pr": E.F("round", E.col("pr"), 6)},
    })(ds)
    return ds.select_columns(["c_custkey", "pr", "quartile"])


@query(
    "cdc_incremental_admit",
    """
    WITH changes AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             CAST(CASE event_type WHEN 'click' THEN 0 WHEN 'error' THEN 1
                  WHEN 'purchase' THEN 2 WHEN 'signup' THEN 3
                  ELSE 4 END AS INTEGER)     AS turn_idx,
             event_type                      AS role,
             props                           AS text,
             event_id                        AS lsn,
             CASE WHEN value < 10 THEN 'delete' ELSE 'update' END AS op
      FROM events
    ), cut AS (
      SELECT CAST(floor(max(event_id) / 2) AS BIGINT) AS c FROM events
    ), old AS (
      SELECT * FROM (
        SELECT *, row_number() OVER (PARTITION BY conv_id, turn_idx
                                     ORDER BY lsn DESC) AS rn
        FROM changes WHERE lsn <= (SELECT c FROM cut)) t
      WHERE rn = 1 AND op <> 'delete'
    ), feed AS (
      SELECT * FROM changes
      WHERE lsn > (SELECT c FROM cut) AND op <> 'delete'
    )
    SELECT f.conv_id, f.turn_idx, f.lsn, f.role
    FROM feed f
    WHERE NOT EXISTS (SELECT 1 FROM old o
                      WHERE o.conv_id = f.conv_id AND o.text = f.text)
    """,
)
def cdc_incremental_admit(sf_dir: str):
    """The nightly-ingest admission pipeline, composed from the
    engine's own planes: replay the change log through the REAL lake
    (two LSN bands), TIME-TRAVEL to the mid-log watermark
    (``snapshot_dataset``), read the post-watermark CHANGE FEED
    (``changes_between``, file-pruned), and admit only feed upserts
    whose content is NOT already in the as-of lake state
    (``dedup_against``, broadcast digests).  The oracle reproduces the
    same watermark split + LWW + anti-semantics in SQL."""
    import tempfile

    import pyarrow.parquet as pq

    from rayflow.cdc.changelog import write_changelog_dataset
    from rayflow.cdc.replay import CdcEngine
    from rayflow.cdc.source import changes_between

    ev_ids = pq.read_table(_t(sf_dir, "events"), columns=["event_id"])
    max_lsn = pc.max(ev_ids["event_id"]).as_py()
    cutoff = max_lsn // 2

    changes = _events_as_changes(sf_dir)
    work = tempfile.mkdtemp(prefix="rayflow-admitq-")
    log_dir = os.path.join(work, "log")
    write_changelog_dataset(changes, log_dir, n_bands=2)
    eng = CdcEngine(os.path.join(work, "lake"), num_partitions=8,
                    auto_salt=False)
    eng.replay(log_dir)

    def add_content(t: pa.Table) -> pa.Table:
        c = pc.binary_join_element_wise(
            t.column("conv_id"),
            pc.coalesce(t.column("text"), pa.scalar("", pa.string())),
            "\x1f")
        return t.append_column("__content", c)

    # admission content = (conversation, text): a feed upsert is new
    # unless THAT conversation already holds THAT text in the as-of lake
    ref = eng.snapshot_dataset(as_of_lsn=cutoff) \
        .select_columns(["conv_id", "text"]) \
        .map_batches(add_content, **{"batch_format": "pyarrow",
                                     "zero_copy_batch": True})
    feed = changes_between(log_dir, cutoff, max_lsn)
    feed = build_op({"op": "filter",
                     "predicate": E.col("op") != E.lit("delete")})(feed)
    feed = feed.map_batches(add_content, **{"batch_format": "pyarrow",
                                            "zero_copy_batch": True})
    out = build_op({"op": "dedup_against", "ref": ref,
                    "text_col": "__content",
                    "method": "broadcast"})(feed)
    return out.select_columns(["conv_id", "turn_idx", "lsn", "role"])


# --------------------------------------------------------------------------
# transcript-native curation: the engine's payload shape (conv_id,
# turn_idx, role, text, ts) as a first-class table, not just the CDC key
# --------------------------------------------------------------------------


def _events_as_transcripts(sf_dir: str):
    """The ``events`` table dressed as multi-turn conversation
    transcripts — (conv_id, turn_idx, role, text, ts): turn_idx is the
    event's rank WITHIN its conversation in event_id order (~67 turns
    per conversation at sf0.01), assigned distributed by ``group_rank``
    (one coarse-sharded exchange, no per-key tasks).  Shared by the
    transcript-plane queries; matches the input_hint shape the engine
    is built for."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "event_type",
                                  "props", "ts", "value"])

    def shape(t: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        return pa.table({
            "conv_id": conv,
            "role": t["event_type"],
            "text": t["props"],
            "ts": t["ts"].cast(pa.timestamp("us")),
            "value": t["value"],
            "event_id": t["event_id"],
        })

    ds = ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
    return build_op({"op": "group_rank", "key_col": "conv_id",
                     "order_col": "event_id", "out": "turn_idx"})(ds)


@query(
    "dialogue_pairs_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id)
               AS turn_idx,
             event_type AS role, props AS text
      FROM events
    ), lagd AS (
      SELECT conv_id, turn_idx, role, text,
             lag(text) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS prompt,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS prev_role
      FROM tr)
    SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
           prompt, text AS response
    FROM lagd WHERE prev_role = 'click' AND role = 'purchase'
    """,
)
def dialogue_pairs_transcripts(sf_dir: str):
    """Training-pair extraction over the transcript shape: each turn
    joined to its PREVIOUS turn (``group_lag`` with ``value_cols`` —
    text AND role lagged in ONE keyed exchange), keeping the
    (click → purchase) adjacent pairs as (prompt, response).  Two
    exchanges total (rank, lag), both coarse-sharded on conv_id —
    the same key, so at scale a reused partitioning carries both."""
    tr = _events_as_transcripts(sf_dir)
    tr = build_op({"op": "group_lag", "key_col": "conv_id",
                   "order_col": "turn_idx",
                   "value_cols": ["text", "role"],
                   "outs": ["prompt", "prev_role"]})(tr)
    tr = build_op({
        "op": "filter",
        "predicate": (E.col("prev_role") == E.lit("click"))
        & (E.col("role") == E.lit("purchase")),
    })(tr)
    return build_op({
        "op": "mapping",
        "cols": {"response": E.col("text")},
        "select": ["conv_id", "turn_idx", "prompt", "response"],
    })(tr)


@query(
    "conversation_rollup_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             event_type AS role, props AS text, ts
      FROM events)
    SELECT conv_id,
           CAST(count(*) AS BIGINT)            AS n_turns,
           CAST(sum(length(text)) AS BIGINT)   AS total_chars,
           CAST(epoch_us(min(ts)) AS BIGINT)   AS first_ts_us,
           CAST(epoch_us(max(ts)) AS BIGINT)   AS last_ts_us,
           CAST(sum(CASE WHEN role = 'purchase' THEN 1 ELSE 0 END)
                AS BIGINT)                     AS n_purchase
    FROM tr GROUP BY conv_id
    """,
)
def conversation_rollup_transcripts(sf_dir: str):
    """Per-conversation rollup (the curation unit of a transcript
    corpus is the CONVERSATION, not the turn): turn count, total
    chars, first/last activity, per-role counts — one vectorized
    flag/length pass + ONE two-phase ``group_agg`` exchange."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "event_type", "props", "ts"])

    def shape(t: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        return pa.table({
            "conv_id": conv,
            "nchars": pc.cast(pc.utf8_length(t["props"]), pa.int64()),
            "ts_us": pc.cast(t["ts"].cast(pa.timestamp("us")), pa.int64()),
            "is_purchase": pc.cast(
                pc.equal(t["event_type"], "purchase"), pa.int64()),
        })

    ds = ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
    out = build_op({
        "op": "group_agg", "keys": ["conv_id"],
        "aggs": [("count", None, "n_turns"),
                 ("sum", "nchars", "total_chars"),
                 ("min", "ts_us", "first_ts_us"),
                 ("max", "ts_us", "last_ts_us"),
                 ("sum", "is_purchase", "n_purchase")],
    })(ds)
    return build_op({
        "op": "mapping",
        "cols": {c: E.F("int64", E.col(c))
                 for c in ("n_turns", "total_chars", "first_ts_us",
                           "last_ts_us", "n_purchase")},
        "select": ["conv_id", "n_turns", "total_chars", "first_ts_us",
                   "last_ts_us", "n_purchase"],
    })(out)


@query(
    "conversation_admit_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id, value AS v
      FROM events)
    SELECT t.conv_id, CAST(count(*) AS BIGINT) AS n_turns
    FROM tr t
    WHERE NOT EXISTS (SELECT 1 FROM tr b
                      WHERE b.conv_id = t.conv_id AND b.v < 0.2)
    GROUP BY t.conv_id
    """,
)
def conversation_admit_transcripts(sf_dir: str):
    """Conversation-LEVEL admission: one bad turn disqualifies the
    whole conversation (the group-predicate shape of transcript
    curation — contamination/PII/abuse in any turn drops the unit).
    Plan: vectorized flag pass → tiny distinct flagged-conv set →
    Bloom-prefiltered sharded ANTI join (clean conversations skip the
    exchange on a bloom miss) → per-conversation count."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "value"])

    def shape(t: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        return pa.table({"conv_id": conv, "v": t["value"]})

    tr = ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
    bad = build_op({"op": "filter",
                    "predicate": E.col("v") < E.lit(0.2)})(tr)
    bad = build_op({"op": "group_agg", "keys": ["conv_id"],
                    "aggs": [("count", None, "_n_bad")]})(bad)
    kept = build_op({
        "op": "sharded_semi", "right": bad, "on": "conv_id",
        "anti": True, "num_partitions": 4, "bloom_bits_per_key": 10,
    })(tr)
    out = build_op({"op": "group_agg", "keys": ["conv_id"],
                    "aggs": [("count", None, "n_turns")]})(kept)
    return build_op({
        "op": "mapping",
        "cols": {"n_turns": E.F("int64", E.col("n_turns"))},
        "select": ["conv_id", "n_turns"],
    })(out)


@query(
    "chat_render_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id)
               AS turn_idx,
             event_type AS role, props AS text
      FROM events)
    SELECT conv_id,
           string_agg(role || ': ' || text, chr(10) ORDER BY turn_idx)
             AS doc
    FROM tr GROUP BY conv_id
    """,
)
def chat_render_transcripts(sf_dir: str):
    """Chat-template rendering: every conversation becomes ONE training
    document — its turns as ``role: text`` lines in turn order.  The
    assembly primitive of SFT-corpus preparation.  Plan: vectorized
    line render (one Arrow join kernel) → ``group_concat`` (ONE
    coarse-sharded exchange; the whole shard concatenates all its
    conversations via list-offset ``binary_join``, no per-conversation
    tasks or Python string loops).  turn_idx is rank-of-event_id
    within the conversation, so ordering the concat by event_id
    DIRECTLY yields the identical document and skips the rank
    exchange entirely — total: ONE exchange (2× at sf0.1)."""
    tr = _transcript_lines(sf_dir)
    return build_op({"op": "group_concat", "key_col": "conv_id",
                     "order_col": "event_id", "value_col": "line",
                     "out": "doc", "sep": "\n"})(tr)


def _transcript_lines(sf_dir: str):
    """(conv_id, event_id, role, line) — the rank-free transcript
    projection for order-only consumers: turn_idx is rank of event_id
    within the conversation, so any per-conversation ORDER BY turn_idx
    is equivalently ORDER BY event_id, without the rank exchange."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "event_type",
                                  "props"])

    def shape(t: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        ln = pc.binary_join_element_wise(t["event_type"], t["props"], ": ")
        return pa.table({"conv_id": conv, "event_id": t["event_id"],
                         "role": t["event_type"], "line": ln})

    return ds.map_batches(shape, batch_format="pyarrow",
                          zero_copy_batch=True)


@query(
    "sft_context_pairs_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id)
               AS turn_idx,
             event_type AS role, props AS text,
             event_type || ': ' || props AS line
      FROM events
    ), lagd AS (
      SELECT conv_id, turn_idx, role, text,
             lag(line, 1) OVER w AS l1,
             lag(line, 2) OVER w AS l2,
             lag(line, 3) OVER w AS l3
      FROM tr WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx))
    SELECT conv_id, CAST(turn_idx AS BIGINT) AS turn_idx,
           concat_ws(chr(10), l3, l2, l1) AS context, text AS response
    FROM lagd WHERE role = 'purchase' AND l1 IS NOT NULL
    """,
)
def sft_context_pairs_transcripts(sf_dir: str):
    """SFT example extraction with a FIXED context window: each
    target turn (role ``purchase`` standing in for "assistant") paired
    with its previous ≤3 turns rendered as context.  A fixed k keeps
    the op fully vectorized AND bounds output size by k×corpus (the
    unbounded-prefix variant is O(turns²) by construction — that cost
    is in the OUTPUT, not a plan choice).  Plan: one line render, ONE
    keyed exchange (``group_lag`` with per-column ``offsets`` — the
    same column lagged 1/2/3 in a single pass), then a null-skipping
    element-wise join (= SQL ``concat_ws``)."""
    tr = _events_as_transcripts(sf_dir)

    def line(t: pa.Table) -> pa.Table:
        ln = pc.binary_join_element_wise(t["role"], t["text"], ": ")
        return t.append_column("line", ln)

    tr = tr.map_batches(line, batch_format="pyarrow", zero_copy_batch=True)
    tr = build_op({"op": "group_lag", "key_col": "conv_id",
                   "order_col": "turn_idx",
                   "value_cols": ["line", "line", "line"],
                   "outs": ["l1", "l2", "l3"],
                   "offsets": [1, 2, 3]})(tr)

    def finish(t: pa.Table) -> pa.Table:
        keep = pc.and_(pc.equal(t["role"], "purchase"),
                       pc.is_valid(t["l1"]))
        t = t.filter(keep)
        ctx = pc.binary_join_element_wise(
            t["l3"].combine_chunks(), t["l2"].combine_chunks(),
            t["l1"].combine_chunks(), pa.array(["\n"] * t.num_rows),
            null_handling="skip")
        return pa.table({"conv_id": t["conv_id"],
                         "turn_idx": t["turn_idx"],
                         "context": ctx, "response": t["text"]})

    return tr.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True)


@query(
    "role_alternation_check_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id)
               AS turn_idx,
             event_type AS role
      FROM events
    ), lagd AS (
      SELECT conv_id, role,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS prev
      FROM tr)
    SELECT conv_id,
           CAST(sum(CASE WHEN role = prev THEN 1 ELSE 0 END) AS BIGINT)
             AS n_role_repeats,
           CAST(count(*) AS BIGINT) AS n_turns
    FROM lagd GROUP BY conv_id
    """,
)
def role_alternation_check_transcripts(sf_dir: str):
    """Transcript structural validation: per conversation, how many
    adjacent turns REPEAT the same role (a well-formed dialogue
    alternates).  One ``group_lag`` exchange + a vectorized compare +
    one two-phase ``group_agg`` — the repeat count and the turn count
    come out of the same aggregation.  Lags order by event_id directly
    (rank-free: see ``_transcript_lines``)."""
    tr = _transcript_lines(sf_dir)
    tr = build_op({"op": "group_lag", "key_col": "conv_id",
                   "order_col": "event_id", "value_col": "role",
                   "out": "prev"})(tr)

    def flag(t: pa.Table) -> pa.Table:
        rep = pc.cast(pc.fill_null(
            pc.equal(t["role"], t["prev"]), False), pa.int64())
        return pa.table({"conv_id": t["conv_id"], "rep": rep})

    tr = tr.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)
    out = build_op({"op": "group_agg", "keys": ["conv_id"],
                    "aggs": [("sum", "rep", "n_role_repeats"),
                             ("count", None, "n_turns")]})(tr)
    return build_op({
        "op": "mapping",
        "cols": {"n_role_repeats": E.F("int64", E.col("n_role_repeats")),
                 "n_turns": E.F("int64", E.col("n_turns"))},
        "select": ["conv_id", "n_role_repeats", "n_turns"],
    })(out)


@query(
    "role_transition_matrix_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id)
               AS turn_idx,
             event_type AS role
      FROM events
    ), lagd AS (
      SELECT conv_id, role,
             lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
               AS from_role
      FROM tr)
    SELECT from_role, role AS to_role,
           CAST(count(*) AS BIGINT) AS n
    FROM lagd WHERE from_role IS NOT NULL
    GROUP BY from_role, role
    """,
)
def role_transition_matrix_transcripts(sf_dir: str):
    """Corpus-wide role-transition matrix (who-follows-whom counts —
    the structure fingerprint of a dialogue corpus, and the input to
    Markov-style synthetic-dialogue QA).  ``group_lag`` is the only
    keyed exchange on conv_id; the (from, to) aggregation is a
    two-phase combine whose key space is |roles|² — tiny — so the
    second exchange moves a few rows per block regardless of corpus
    size.  Lags order by event_id directly (rank-free)."""
    tr = _transcript_lines(sf_dir)
    tr = build_op({"op": "group_lag", "key_col": "conv_id",
                   "order_col": "event_id", "value_col": "role",
                   "out": "from_role"})(tr)
    tr = build_op({"op": "filter",
                   "predicate": E.F("not_null", E.col("from_role"))})(tr)
    tr = build_op({"op": "mapping",
                   "cols": {"to_role": E.col("role")},
                   "select": ["from_role", "to_role"]})(tr)
    out = build_op({"op": "group_agg", "keys": ["from_role", "to_role"],
                    "aggs": [("count", None, "n")]})(tr)
    return build_op({
        "op": "mapping", "cols": {"n": E.F("int64", E.col("n"))},
        "select": ["from_role", "to_role", "n"],
    })(out)


@query(
    "boilerplate_turns_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             lower(props) AS norm
      FROM events
    ), d AS (SELECT DISTINCT conv_id, norm FROM tr)
    SELECT norm, CAST(count(*) AS BIGINT) AS n_convs
    FROM d GROUP BY norm HAVING count(*) >= 50
    """,
)
def boilerplate_turns_transcripts(sf_dir: str):
    """Cross-conversation boilerplate detection: normalized turn texts
    that appear in ≥50 DISTINCT conversations (canned greetings,
    templated tool output — text to strip before near-dup sketching).
    Exact distinct-conv counting via the two-phase ``dedupe`` on
    (norm, conv) — each pair survives once — then a count keyed on the
    normalized text.  Both exchanges carry at most one row per
    (text, conversation), already a tiny projection of the corpus."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["user_id", "props"])

    def shape(t: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        return pa.table({"conv_id": conv,
                         "norm": pc.utf8_lower(t["props"])})

    tr = ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
    # DISTINCT (norm, conv) via the two-phase group_agg combine (the
    # count is discarded — each pair survives exactly once)
    tr = build_op({"op": "group_agg", "keys": ["norm", "conv_id"],
                   "aggs": [("count", None, "_n")]})(tr)
    out = build_op({"op": "group_agg", "keys": ["norm"],
                    "aggs": [("count", None, "n_convs")]})(tr)
    out = build_op({"op": "filter",
                    "predicate": E.col("n_convs") >= E.lit(50)})(out)
    return build_op({
        "op": "mapping", "cols": {"n_convs": E.F("int64", E.col("n_convs"))},
        "select": ["norm", "n_convs"],
    })(out)



@query(
    "sft_corpus_transcripts",
    """
    WITH tr AS (
      SELECT 'u' || CAST(user_id AS VARCHAR) AS conv_id,
             row_number() OVER (PARTITION BY user_id ORDER BY event_id)
               AS turn_idx,
             event_type AS role, props AS text, value AS v
      FROM events
    ), adm AS (
      SELECT conv_id FROM tr GROUP BY conv_id HAVING avg(v) >= 45.0
    ), docs AS (
      SELECT t.conv_id,
             string_agg(t.role || ': ' || t.text, chr(10)
                        ORDER BY t.turn_idx) AS doc
      FROM tr t WHERE t.conv_id IN (SELECT conv_id FROM adm)
      GROUP BY t.conv_id
    ), ded AS (
      SELECT min(conv_id) AS conv_id, min(doc) AS doc,
             CAST(count(*) AS BIGINT) AS n_dups
      FROM docs GROUP BY md5(doc))
    SELECT conv_id, doc, n_dups,
           CAST(length(doc) AS BIGINT) AS n_chars
    FROM ded WHERE length(doc) >= 1000
    """,
)
def sft_corpus_transcripts(sf_dir: str):
    """FLAGSHIP COMPOSITION — the SFT-corpus preparation pipeline over
    the transcript shape, end to end:

      admission (conversation-level quality gate, avg turn value)
      → chat-template rendering (conversation → one document)
      → exact near-entry dedup (documents grouped by md5, keep the
        lexicographically-first conversation, count duplicates)
      → length floor.

    Plan economics at scale: the admission aggregate's key space is
    |conversations| (partial-combined); the admitted-set semi is
    bloom-prefiltered and sharded on conv_id — the SAME key the render
    exchange uses; rendering orders by event_id directly (rank-free,
    see ``_transcript_lines``) so turn ranking never pays its own
    exchange; dedup groups on the 16-byte md5 — documents shuffle once
    (the doc rides the same exchange as its hash, carried as min())."""
    rd = _rd()
    ds = rd.read_parquet(_t(sf_dir, "events"),
                         columns=["event_id", "user_id", "event_type",
                                  "props", "value"])

    def shape(t: pa.Table) -> pa.Table:
        conv = pc.binary_join_element_wise(
            pa.scalar("u"), pc.cast(t["user_id"], pa.string()), "")
        ln = pc.binary_join_element_wise(t["event_type"], t["props"], ": ")
        return pa.table({"conv_id": conv, "event_id": t["event_id"],
                         "line": ln, "value": t["value"]})

    tr = ds.map_batches(shape, batch_format="pyarrow", zero_copy_batch=True)
    adm = build_op({"op": "group_agg", "keys": ["conv_id"],
                    "aggs": [("mean", "value", "_avg_v")]})(tr)
    adm = build_op({"op": "filter",
                    "predicate": E.col("_avg_v") >= E.lit(45.0)})(adm)
    kept = build_op({"op": "sharded_semi", "right": adm,
                     "on": "conv_id", "num_partitions": 4,
                     "bloom_bits_per_key": 10})(tr)
    docs = build_op({"op": "group_concat", "key_col": "conv_id",
                     "order_col": "event_id", "value_col": "line",
                     "out": "doc", "sep": "\n"})(kept)
    docs = build_op({"op": "mapping",
                     "cols": {"h": E.F("hash_md5", E.col("doc"))}})(docs)
    ded = build_op({"op": "group_agg", "keys": ["h"],
                    "aggs": [("min", "conv_id", "conv_id"),
                             ("min", "doc", "doc"),
                             ("count", None, "n_dups")]})(docs)

    def finish(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.utf8_length(t["doc"]), pa.int64())
        t = t.append_column("n_chars", n)
        t = t.filter(pc.greater_equal(t["n_chars"], 1000))
        return t.select(["conv_id", "doc", "n_dups", "n_chars"])

    out = ded.map_batches(finish, batch_format="pyarrow",
                          zero_copy_batch=True)
    return build_op({
        "op": "mapping", "cols": {"n_dups": E.F("int64", E.col("n_dups"))},
        "select": ["conv_id", "doc", "n_dups", "n_chars"],
    })(out)


@query(
    "awk_high_value_users",
    """
    SELECT CAST(user_id AS VARCHAR) || ' ' || CAST(event_id AS VARCHAR)
               AS text
    FROM events
    WHERE value > 90.0 AND event_type = 'purchase'
    """)
def q_awk_high_value_users(sf_dir: str):
    """The ``awk`` one-liner surface over real data: render events as
    text records, then ``awk '$3 == "purchase" && $2 > 90 {print $1,
    $4}'`` — a stateless program, so it parallelizes as a map_batches
    stage (rayflow/ops/awk.py; the upstream analogue is
    ⟨upstream: internal/impl/awk/processor.go⟩ over message text)."""
    ds = _rd().read_parquet(
        _t(sf_dir, "events"),
        columns=["user_id", "value", "event_type", "event_id"])

    def to_lines(t: pa.Table) -> pa.Table:
        ln = pc.binary_join_element_wise(
            pc.cast(t["user_id"], pa.string()),
            pc.cast(t["value"], pa.string()),
            t["event_type"],
            pc.cast(t["event_id"], pa.string()), " ")
        return pa.table({"text": ln})

    lines = ds.map_batches(to_lines, batch_format="pyarrow",
                           zero_copy_batch=True)
    return build_op({
        "op": "awk",
        "program": '$3 == "purchase" && $2 > 90 { print $1, $4 }',
    })(lines)


@query(
    "awk_distinct_user_event",
    """
    SELECT DISTINCT CAST(user_id AS VARCHAR) || ' ' || event_type AS text
    FROM events
    """)
def q_awk_distinct_user_event(sf_dir: str):
    """The STATEFUL awk path in the driver contract: ``!seen[$0]++``
    (the classic streaming-dedup one-liner) over rendered event lines.
    Array state forces the ordered single-pass mode — one sequential
    stream, exactly awk's own execution model (rayflow/ops/awk.py
    docstring); equivalent to SELECT DISTINCT."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["user_id", "event_type"])

    def to_lines(t: pa.Table) -> pa.Table:
        ln = pc.binary_join_element_wise(
            pc.cast(t["user_id"], pa.string()), t["event_type"], " ")
        return pa.table({"text": ln})

    lines = ds.map_batches(to_lines, batch_format="pyarrow",
                           zero_copy_batch=True)
    return build_op({"op": "awk", "program": "!seen[$0]++"})(lines)


@query(
    "semdedup_keep_docs",
    """
    WITH aug AS (
      SELECT vec_id, embedding FROM embeddings
      UNION ALL
      SELECT vec_id + 1000000 AS vec_id, embedding FROM embeddings
      WHERE vec_id < 50
    )
    SELECT a.vec_id, CAST(0 AS BIGINT) AS cluster
    FROM aug a
    WHERE NOT EXISTS (
      SELECT 1 FROM aug b
      WHERE b.vec_id < a.vec_id
        AND list_cosine_similarity(a.embedding, b.embedding) >= 0.98
    )
    """,
)
def semdedup_keep_docs(sf_dir: str):
    """SemDeDup (semantic dedup, arXiv:2303.09540) in its exact oracle
    mode: single cluster (k=1 — global pairwise semantics, SQL NOT
    EXISTS over a cosine cross-join), lowest-id representative kept.
    Planted exact copies of the first 50 vectors (+1e6 ids) are the
    ground-truth duplicates — every planted copy must drop, every
    original must survive (natural max pairwise cosine in the fixture
    is ~0.6, far from the 0.98 threshold, so there is no float-
    boundary ambiguity between the engine and the oracle).  The
    clustered mode (k>1, the 100 TB path) is property-tested against
    a brute-force reference in tests/test_semdedup.py."""
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    planted = emb.slice(0, 50).set_column(
        0, "vec_id", pc.add(emb.slice(0, 50)["vec_id"], 1_000_000)
    )
    ds = _rd().from_arrow(pa.concat_tables([emb, planted]))
    return build_op({
        "op": "semdedup", "threshold": 0.98, "n_clusters": 1,
    })(ds)


@query(
    "cross_join_region_nation",
    """
    SELECT r.r_name, n.n_name,
           CAST(r.r_regionkey = n.n_regionkey AS BIGINT) AS is_home
    FROM region r CROSS JOIN nation n
    """,
)
def cross_join_region_nation(sf_dir: str):
    """CROSS JOIN as a first-class op: broadcast right side, generator
    map_batches emitting bounded product chunks (rayflow/ops/joins.py
    build_cross_join).  region x nation = 5 x 25 with a computed
    match flag."""
    import pyarrow.parquet as pq

    nation = pq.read_table(_t(sf_dir, "nation"),
                           columns=["n_name", "n_regionkey"])
    ds = _rd().read_parquet(_t(sf_dir, "region"),
                            columns=["r_name", "r_regionkey"])
    joined = build_op({"op": "cross_join", "small": nation})(ds)

    def flag(t: pa.Table) -> pa.Table:
        is_home = pc.cast(
            pc.equal(t["r_regionkey"], t["n_regionkey"]), pa.int64())
        return pa.table({
            "r_name": t["r_name"], "n_name": t["n_name"],
            "is_home": is_home,
        })

    return joined.map_batches(flag, batch_format="pyarrow",
                              zero_copy_batch=True)


@query("bpe_train_encode_docs")  # rows-only: merge learning is not SQL
def bpe_train_encode_docs(sf_dir: str):
    """Train a BPE tokenizer on the documents corpus (distributed
    word-frequency count -> driver merge learning over the vocabulary-
    bounded type table, Sennrich arXiv:1508.07909), then encode the
    same corpus with the learned merges and return per-doc true token
    counts.  Deterministic (tie-break: count DESC, pair ASC) but merge
    learning is not SQL-expressible — exactness is pinned by
    tests/test_bpe.py against the textbook reference implementation."""
    import pyarrow as pa_

    docs = _rd().read_parquet(_t(sf_dir, "documents"),
                              columns=["doc_id", "text"])
    merges_rows = build_op({
        "op": "bpe_train", "n_merges": 64, "lowercase": True,
    })(docs).take_all()
    merges = pa_.Table.from_pylist(
        sorted(merges_rows, key=lambda r: r["rank"]))
    enc = build_op({
        "op": "bpe_encode", "merges": merges, "lowercase": True,
    })(docs)
    return enc.select_columns(["doc_id", "n_bpe_tokens"])


@query("dsir_select_docs")  # rows-only: hashed-feature LLR is not SQL
def dsir_select_docs(sf_dir: str):
    """DSIR data selection (arXiv:2302.03169): target = the src0
    slice of the documents corpus, raw = everything; hashed n-gram
    log-importance weights (two bounded streaming passes, one <=dim
    keyed sum) then deterministic Gumbel top-k resampling (seeded
    splitmix64 noise — block-order independent).  Weight exactness is
    pinned against a scalar reference in tests/test_dsir.py; the
    end-to-end selection is deterministic but not SQL-expressible."""
    import pyarrow.parquet as pq

    tgt = pq.read_table(_t(sf_dir, "documents"), columns=["text", "source"])
    tgt = tgt.filter(pc.equal(tgt["source"], "src0")).select(["text"])
    docs = _rd().read_parquet(_t(sf_dir, "documents"),
                              columns=["doc_id", "text", "source"])
    weighted = build_op({
        "op": "dsir_weights", "target": tgt, "dim": 4096,
    })(docs)
    picked = build_op({
        "op": "gumbel_topk_sample", "k": 100, "weight_col": "dsir_logw",
        "id_col": "doc_id", "seed": 13,
    })(weighted)
    return picked.select_columns(["doc_id", "source"])


@query(
    "bm25_search_docs",
    """
    WITH tok AS (
      SELECT doc_id, unnest(list_filter(string_split(lower(text), ' '),
                                        x -> x <> '')) AS term
      FROM documents
    ), stats AS (
      SELECT (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS n,
             (SELECT CAST(count(*) AS DOUBLE) FROM tok)
               / (SELECT CAST(count(*) AS DOUBLE) FROM documents) AS avgdl
    ), dl AS (
      SELECT doc_id, CAST(count(*) AS BIGINT) AS dl FROM tok GROUP BY 1
    ), tf AS (
      SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
      FROM tok WHERE term IN ('merge', 'window', 'vector') GROUP BY 1, 2
    ), df AS (
      SELECT term, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY 1
    ), sc AS (
      SELECT tf.doc_id,
             sum(ln(1 + (s.n - df.df + 0.5) / (df.df + 0.5))
                 * tf.tf * 2.2
                 / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / s.avgdl))) AS score
      FROM tf JOIN df USING (term) JOIN dl USING (doc_id)
           CROSS JOIN stats s
      GROUP BY 1
    )
    SELECT doc_id, round(score, 4) AS score
    FROM sc ORDER BY score DESC, doc_id LIMIT 10
    """,
)
def bm25_search_docs(sf_dir: str):
    """BM25 top-10 for the query {merge, window, vector} (``bm25_topk``
    op): implicit inverted index — corpus scalars and per-term df are
    the only global state (driver-bounded), candidates are the only
    exchange.  Same tokenizer as ``tfidf``; the oracle reproduces
    Lucene-form BM25 (k1=1.2, b=0.75) in closed-form SQL; scores
    rounded to 4 on both sides."""
    ds = _rd().read_parquet(_t(sf_dir, "documents"),
                            columns=["doc_id", "text"])
    out = build_op({"op": "bm25_topk",
                    "terms": ["merge", "window", "vector"], "k": 10})(ds)
    return _round_cols(out, ["score"]).select_columns(["doc_id", "score"])


@query("ann_pq_planted", _ANN_PLANTED_SQL)
def ann_pq_planted(sf_dir: str):
    return _ann_planted(sf_dir, "ann_pq")


@query("ann_pq_topk")  # approximate; recall@10 floor asserted in pytest
def ann_pq_topk(sf_dir: str):
    """PQ/ADC top-10 over the embeddings corpus: compressed-domain scan
    (8 bytes/vector) + exact re-rank of the k·rerank shortlist."""
    import pyarrow.parquet as pq

    emb = pq.read_table(_t(sf_dir, "embeddings"),
                        columns=["vec_id", "embedding"])
    qt = emb.filter(pc.less(emb["vec_id"], 5))
    queries_m = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    sample = np.asarray(
        emb.take(pa.array(range(0, emb.num_rows,
                                max(1, emb.num_rows // 500))))
        ["embedding"].to_pylist(), dtype=np.float64)
    ds = _rd().read_parquet(_t(sf_dir, "embeddings"),
                            columns=["vec_id", "embedding"])
    return build_op({"op": "ann_pq", "queries": queries_m,
                     "query_ids": qids, "k": 10, "m_sub": 8, "k_sub": 64,
                     "rerank": 4, "train_sample": sample})(ds)


@query("tdigest_value_by_type")  # approximate sketch; rank-error bound
def tdigest_value_by_type(sf_dir: str):  # pinned in tests/test_round5.py
    """Per-event-type t-digest quantiles of the continuous ``value``
    column (``group_tdigest``): domain-free mergeable sketch — the
    open-ended-range companion to ``approx_percentile_nchars``'s
    declared-bin histogram.  Centroid lists, never raw values, cross
    the one keyed exchange."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["event_type", "value"])
    out = build_op({"op": "group_tdigest", "keys": ["event_type"],
                    "value_col": "value",
                    "quantiles": [0.5, 0.95, 0.99]})(ds)
    return _round_cols(out, ["p50", "p95", "p99"]) \
        .select_columns(["event_type", "p50", "p95", "p99"])


@query(
    "triangle_counts_graph",
    """
    WITH raw AS (
      SELECT CAST(l_orderkey % 397 AS VARCHAR) AS s,
             CAST(l_partkey % 397 AS VARCHAR) AS d
      FROM lineitem WHERE l_quantity < 3
    ), e AS (
      SELECT DISTINCT least(s, d) AS a, greatest(s, d) AS b
      FROM raw WHERE s <> d
    ), t AS (
      SELECT e1.a AS x, e1.b AS y, e2.b AS z
      FROM e e1 JOIN e e2 ON e2.a = e1.b
                JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
    )
    SELECT node, CAST(count(*) AS BIGINT) AS triangles
    FROM (SELECT x AS node FROM t UNION ALL
          SELECT y FROM t UNION ALL
          SELECT z FROM t)
    GROUP BY 1
    """,
)
def triangle_counts_graph(sf_dir: str):
    """Per-node exact triangle counts (``triangle_count`` op) over the
    deterministic mixed-mod graph derived from lineitem (order/part
    keys mod 397 share one id space, so odd cycles exist).  The oracle
    enumerates each triangle once via the same string-canonical
    ordering (x < y < z) the degree-ordered wedge join guarantees."""
    ds = _rd().read_parquet(_t(sf_dir, "lineitem"),
                            columns=["l_orderkey", "l_partkey",
                                     "l_quantity"])
    ds = build_op({"op": "filter",
                   "predicate": E.col("l_quantity") < 3})(ds)

    def derive(t: pa.Table) -> pa.Table:
        o = t["l_orderkey"].to_numpy(zero_copy_only=False) % 397
        p = t["l_partkey"].to_numpy(zero_copy_only=False) % 397
        return pa.table({
            "src": pc.cast(pa.array(o, pa.int64()), pa.string()),
            "dst": pc.cast(pa.array(p, pa.int64()), pa.string())})

    ds = ds.map_batches(derive, batch_format="pyarrow",
                        zero_copy_batch=True)
    return build_op({"op": "triangle_count"})(ds)


@query(
    "bucketize_order_totals",
    """
    SELECT CAST(len(list_filter([50000.0, 150000.0, 300000.0],
                                e -> o_totalprice >= e)) AS BIGINT)
             AS bucket,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(o_totalprice), 2) AS total
    FROM orders
    GROUP BY 1
    """,
)
def bucketize_order_totals(sf_dir: str):
    """Declared-edge bucketing (``bucketize``, width_bucket semantics:
    left-closed, boundary goes up) + per-bucket rollup — the
    feature-binning finisher for the quantile sketches (edges from
    ``group_tdigest`` at scale; declared here so the oracle is exact).
    Zero exchange for the assignment, one bounded combine for the
    rollup."""
    ds = _rd().read_parquet(_t(sf_dir, "orders"), columns=["o_totalprice"])
    ds = build_op({"op": "bucketize", "value_col": "o_totalprice",
                   "edges": [50_000.0, 150_000.0, 300_000.0]})(ds)
    out = build_op({"op": "group_agg", "keys": ["bucket"],
                    "aggs": [("count", None, "n"),
                             ("sum", "o_totalprice", "total")]})(ds)
    return _round_cols(out, ["total"], 2) \
        .select_columns(["bucket", "n", "total"])


@query(
    "ewma_user_value",
    """
    WITH e AS (
      SELECT user_id, event_id, value,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY event_id) - 1 AS i
      FROM events
    ), s AS (
      SELECT user_id, event_id, i,
             first_value(value) OVER w AS x0,
             SUM(CASE WHEN i > 0 THEN value * pow(0.8, -i)
                      ELSE 0.0 END) OVER w AS acc
      FROM e
      WINDOW w AS (PARTITION BY user_id ORDER BY i
                   ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    )
    SELECT user_id, event_id,
           round(pow(0.8, i) * x0 + 0.2 * pow(0.8, i) * acc, 4) AS ewma
    FROM s
    """,
)
def ewma_user_value(sf_dir: str):
    """Per-user EWMA of the event value stream (``ewma`` op, α=0.2,
    pandas adjust=False semantics): ONE coarse-shard exchange, blocked
    closed-form recurrence in-shard.  The oracle unrolls the recurrence
    as a pow-weighted window sum — algebraically identical, both sides
    rounded to 4 (the blocked engine kernel and the whole-run SQL
    scaling agree to ~1e-12 relative)."""
    ds = _rd().read_parquet(_t(sf_dir, "events"),
                            columns=["user_id", "event_id", "value"])
    out = build_op({"op": "ewma", "key_col": "user_id",
                    "order_col": "event_id", "value_col": "value",
                    "alpha": 0.2})(ds)
    return _round_cols(out, ["ewma"]) \
        .select_columns(["user_id", "event_id", "ewma"])

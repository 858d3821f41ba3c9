"""Declarative pipeline builder — the Benthos-config analogue.

The reference builds ``input → pipeline(processors) → output`` from a
YAML config tree (``⟨upstream: internal/config/⟩``, ``internal/stream/
type.go``; the YAML *is* the physical plan — no optimizer).  Here the
same declaration is a plain dict (YAML-loadable) over the op registry::

    p = Pipeline.from_dict({
        "input":  {"op": "read_parquet", "paths": ".../lineitem.parquet",
                    "columns": ["l_quantity", "l_shipdate"]},
        "steps": [
            {"op": "filter", "predicate": ["lt", ["col", "l_shipdate"],
                                                  ["lit", "1996-01-01"]]},
            {"op": "group_agg", "keys": ["l_returnflag"],
             "aggs": [["sum", "l_quantity", "sum_qty"]]},
        ],
        "output": {"op": "write_parquet", "path": "/tmp/out"},
    })
    ds_or_none = p.run()

Multiple named pipelines can be declared and instantiated
programmatically — the ``benthos streams`` manager analogue is just a
dict of these.
"""

from __future__ import annotations

from typing import Any

from rayflow.ops import OPS, build_op, register_op

# --------------------------------------------------------------------------
# sources (inputs) — SURVEY.md §2.1
# --------------------------------------------------------------------------


@register_op("read_parquet")
def build_read_parquet(*, paths, columns: list[str] | None = None, **kw):
    """``file`` input with parquet codec; ALWAYS pass ``columns`` when the
    pipeline doesn't need the full width — pruning happens at the read."""

    def source(_=None):
        import ray.data as rd

        return rd.read_parquet(paths, columns=columns, **kw)

    return source


@register_op("read_csv")
def build_read_csv(*, paths, **kw):
    def source(_=None):
        import ray.data as rd

        return rd.read_csv(paths, **kw)

    return source


@register_op("read_json")
def build_read_json(*, paths, **kw):
    def source(_=None):
        import ray.data as rd

        return rd.read_json(paths, **kw)

    return source


@register_op("read_text")
def build_read_text(*, paths, **kw):
    """``file`` input with the ``lines`` scanner."""

    def source(_=None):
        import ray.data as rd

        return rd.read_text(paths, **kw)

    return source


@register_op("generate")
def build_generate(*, count: int, mapping: dict[str, Any] | None = None,
                   seed_col: str = "id"):
    """Synthetic input (``generate``): ``range(count)`` + a mapping.
    Deterministic by construction — the row index is the only seed."""

    def source(_=None):
        import ray.data as rd

        ds = rd.range(count).rename_columns({"id": seed_col})
        if mapping:
            from rayflow.ops.core import build_mapping

            ds = build_mapping(cols=mapping)(ds)
        return ds

    return source


# --------------------------------------------------------------------------
# sinks (outputs) — SURVEY.md §2.2
# --------------------------------------------------------------------------


@register_op("write_parquet")
def build_write_parquet(*, path: str, partition_cols: list[str] | None = None, **kw):
    """Lake-style sink: a directory of part files (resumable layout);
    optionally hash-partitioned by columns for downstream pruning."""

    def sink(ds):
        if partition_cols:
            ds.write_parquet(path, partition_cols=partition_cols, **kw)
        else:
            ds.write_parquet(path, **kw)
        return None

    return sink


@register_op("write_json")
def build_write_json(*, path: str, **kw):
    def sink(ds):
        ds.write_json(path, **kw)
        return None

    return sink


@register_op("write_csv")
def build_write_csv(*, path: str, **kw):
    """``file`` output with the csv codec (``⟨upstream:
    internal/codec/writer.go⟩``) — streamed per-block part files."""

    def sink(ds):
        ds.write_csv(path, **kw)
        return None

    return sink


@register_op("route_write")
def build_route_write(*, path: str, route_col: str = "route"):
    """``switch`` output: one partition directory per route value."""

    def sink(ds):
        ds.write_parquet(path, partition_cols=[route_col])
        return None

    return sink


# --------------------------------------------------------------------------
# the pipeline object
# --------------------------------------------------------------------------


class Pipeline:
    def __init__(self, source=None, steps=(), output=None):
        self.source = source
        self.steps = list(steps)
        self.output = output

    @classmethod
    def from_dict(cls, conf: dict) -> "Pipeline":
        src = build_op(conf["input"]) if "input" in conf else None
        steps = [build_op(s) for s in conf.get("steps", [])]
        out_conf = conf.get("output")
        if out_conf is None:
            out = None
        elif isinstance(out_conf, list):
            # ``broker`` fan_out output: every child sink consumes the
            # same materialized result (materialize once, write N times)
            children = [build_op(o) for o in out_conf]

            def out(ds):
                ds = ds.materialize()
                for child in children:
                    child(ds)
                return None

        else:
            out = build_op(out_conf)
        return cls(src, steps, out)

    def run(self, ds=None):
        """Execute: source (unless a Dataset is passed in), then each
        step, then the sink.  Returns the final Dataset (or None if the
        sink consumed it)."""
        if ds is None:
            if self.source is None:
                raise ValueError("pipeline has no input and no dataset was given")
            ds = self.source()
        for step in self.steps:
            ds = step(ds)
        if self.output is not None:
            return self.output(ds)
        return ds


def available_ops() -> list[str]:
    return sorted(OPS)


def from_yaml(text_or_path: str) -> Pipeline:
    """Build a pipeline from YAML (the reference's native config format).

    Accepts a YAML string or a path to a ``.yaml`` file.  The document
    is the same shape as :meth:`Pipeline.from_dict`."""
    import os

    import yaml

    if os.path.exists(text_or_path):
        with open(text_or_path) as f:
            conf = yaml.safe_load(f)
    else:
        conf = yaml.safe_load(text_or_path)
    return Pipeline.from_dict(conf)


@register_op("sql_query")
def build_sql_query(*, sql: str, tables: dict[str, str] | None = None):
    """SQL input (the ``sql_select`` input analogue): run a DuckDB query
    over parquet files (``tables`` maps view name → parquet path) and
    stream the result in as a Dataset.  For big results prefer native
    reads + rayflow ops; this is the escape hatch for relational
    bootstrap queries."""

    def source(_=None):
        import duckdb
        import ray.data as rd

        con = duckdb.connect()
        for name, path in (tables or {}).items():
            con.sql(
                f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{path}')"
            )
        tbl = con.sql(sql).arrow()
        con.close()
        return rd.from_arrow(tbl)

    return source


class _SqlBatch:
    """Per-batch SQL stage: one DuckDB connection per instance (one
    instance per worker process, :func:`rayflow.ops.kernels.per_process`),
    each Arrow batch registered zero-copy as view ``batch``."""

    def __init__(self, sql: str):
        import duckdb

        self.con = duckdb.connect()
        self.sql = sql

    def __call__(self, t):
        self.con.register("batch", t)
        try:
            return self.con.sql(self.sql).arrow()
        finally:
            self.con.unregister("batch")


@register_op("sql_batch")
def build_sql_batch(*, sql: str, batch_size: int | None = None):
    """Per-batch SQL processor (the ``sql_select``/``sql_raw``
    PROCESSOR analogue, network-free): each zero-copy Arrow batch is
    exposed to an embedded DuckDB as view ``batch`` and replaced by the
    query result.

    BATCH-LOCAL by design, like every reference processor operating on
    a message batch: row-level SQL (projection, filters, CASE, lateral
    UNNEST, scalar functions) is exact; aggregates/DISTINCT/ORDER BY
    apply per batch, not globally — global versions belong to
    ``group_agg``/``sort``/``dedupe``.  The same contract the reference
    documents for its processor-level SQL."""
    from rayflow.ops.kernels import per_process

    def apply(ds):
        kw = {} if batch_size is None else {"batch_size": batch_size}
        return ds.map_batches(per_process(_SqlBatch, sql),
                              batch_format="pyarrow", zero_copy_batch=True,
                              **kw)

    return apply


def lint(text_or_path: str) -> dict:
    """Validate a pipeline config WITHOUT running it (the ``benthos
    lint`` analogue): YAML parses, every step names a registered op,
    and each op's arguments bind (builders construct eagerly, so bad
    kwargs / malformed expressions surface here, not mid-job).

    Returns ``{"ok": bool, "errors": [{"where", "error"}, ...]}``.
    """
    import os

    import yaml

    errors: list[dict] = []
    try:
        if os.path.exists(text_or_path):
            with open(text_or_path) as f:
                conf = yaml.safe_load(f)
        elif "\n" not in text_or_path and \
                text_or_path.endswith((".yaml", ".yml")):
            # a path-looking argument that doesn't exist is a missing
            # file, not YAML — don't mis-diagnose the common CLI typo
            return {"ok": False, "errors": [
                {"where": "config", "error": f"no such file: {text_or_path}"}]}
        else:
            conf = yaml.safe_load(text_or_path)
    except yaml.YAMLError as ex:
        return {"ok": False, "errors": [{"where": "yaml", "error": str(ex)}]}
    if not isinstance(conf, dict):
        return {"ok": False,
                "errors": [{"where": "root", "error": "config must be a mapping"}]}
    # a `rayflow test` document wraps its pipeline: lint the inner steps
    if "pipeline" in conf and "steps" not in conf and \
            isinstance(conf["pipeline"], dict):
        conf = conf["pipeline"]

    import ray

    def try_build(where: str, op_conf):
        if not isinstance(op_conf, dict) or "op" not in op_conf:
            errors.append({"where": where,
                           "error": "step must be a mapping with an 'op' key"})
            return
        # lint must not publish resources: some builders ray.put their
        # broadcast payloads at build time, which would boot a cluster
        orig_put = ray.put
        ray.put = lambda v, **kw: None
        try:
            build_op(op_conf)
        except Exception as ex:  # noqa: BLE001 - lint reports everything
            errors.append({"where": where,
                           "error": f"{type(ex).__name__}: {ex}"})
        finally:
            ray.put = orig_put

    if "input" in conf:
        try_build("input", conf["input"])
    for i, step in enumerate(conf.get("steps", [])):
        try_build(f"steps[{i}]", step)
    out = conf.get("output")
    if isinstance(out, list):
        for i, child in enumerate(out):
            try_build(f"output[{i}]", child)
    elif out is not None:
        try_build("output", out)
    return {"ok": not errors, "errors": errors}


@register_op("export_partitioned")
def build_export_partitioned(*, path: str, partition_col: str):
    """RESUMABLE partitioned export: one directory per partition value
    (``<col>=<v>/``), hive layout.  STREAMING writes — every input
    block appends its rows as ``part-<pid>-<seq>.parquet`` files into
    the partition dirs it touches (temp name + rename), so no task
    ever materializes a whole partition: a skewed value (one language
    = 40% of the corpus) costs many small files, never worker memory.
    There is NO keyed exchange at all — blocks stream straight from
    the upstream operator to disk.

    Commit protocol: after the streaming pass completes, a ``_SUCCESS``
    marker is placed in every partition dir written this run.  A re-run
    first enumerates markers, SKIPS finished partitions before any
    compute (broadcast key-set filter), and CLEANS part files out of
    unmarked dirs (uncommitted leftovers from a crashed run — redoing
    them with fresh file names would otherwise duplicate rows).

    Returns a small stats Dataset of (partition, rows) actually written
    this run."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    def sink(ds):
        os.makedirs(path, exist_ok=True)
        done = set()
        prefix = f"{partition_col}="
        for d in os.listdir(path):
            if d.startswith(prefix) and os.path.exists(
                    os.path.join(path, d, "_SUCCESS")):
                done.add(d[len(prefix):])
        # clean uncommitted part files (crashed run): no marker means the
        # partition is being redone from scratch this run
        for d in os.listdir(path):
            if d.startswith(prefix) and d[len(prefix):] not in done:
                pdir = os.path.join(path, d)
                for f in os.listdir(pdir):
                    if f.endswith(".parquet") or f.startswith(".part"):
                        os.remove(os.path.join(pdir, f))
        if done:
            import pyarrow.compute as pc
            import ray

            done_ref = ray.put(pa.array(sorted(done)))

            def drop_done(t: pa.Table) -> pa.Table:
                from rayflow.ops.kernels import _fetch

                vals = _fetch(done_ref, lambda v: v)
                key = pc.cast(t[partition_col], pa.string())
                return t.filter(pc.invert(pc.is_in(key, value_set=vals)))

            ds = ds.map_batches(drop_done, batch_format="pyarrow",
                                zero_copy_batch=True)

        def reject_null_keys(t: pa.Table) -> pa.Table:
            # Ray's groupby hangs on null keys (documented quirk), and a
            # null can't name a directory — fail fast with a clear error
            import pyarrow.compute as pc

            if pc.any(pc.is_null(t[partition_col])).as_py():
                raise ValueError(
                    f"export_partitioned: null values in partition column "
                    f"{partition_col!r}; filter or fill them first")
            return t

        ds = ds.map_batches(reject_null_keys, batch_format="pyarrow",
                            zero_copy_batch=True)

        def write_block(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            if not t.num_rows:
                return pa.table({"partition": pa.array([], pa.string()),
                                 "rows": pa.array([], pa.int64())})
            keys = pc.cast(t[partition_col], pa.string())
            enc = keys.combine_chunks().dictionary_encode()
            vals = enc.dictionary.to_pylist()
            codes = enc.indices.to_numpy(zero_copy_only=False)
            # hive layout: the partition value lives in the directory
            # name, not (also) in the file — duplicate columns make
            # readers' schema merges conflict
            body = t.drop_columns([partition_col])
            counts = []
            import uuid

            import numpy as np
            for ci, v in enumerate(vals):
                idx = np.flatnonzero(codes == ci)
                d = os.path.join(path, f"{partition_col}={v}")
                os.makedirs(d, exist_ok=True)
                # names only need uniqueness (results don't depend on
                # them); a closure counter would reset per task copy
                name = f"part-{uuid.uuid4().hex}.parquet"
                tmp = os.path.join(d, f".part.tmp.{name}")
                pq.write_table(body.take(pa.array(idx, pa.int64())), tmp)
                os.replace(tmp, os.path.join(d, name))
                counts.append(len(idx))
            return pa.table({"partition": pa.array([str(v) for v in vals]),
                             "rows": pa.array(counts, pa.int64())})

        stats = ds.map_batches(write_block, batch_format="pyarrow",
                               zero_copy_batch=True)
        # the streaming pass must COMPLETE before any marker is placed —
        # the stats table is tiny (values x blocks rows), so this
        # materialization is the commit barrier, not a data copy
        from rayflow.ops.kernels import collect_table

        st = collect_table(stats.materialize())
        agg = (st.group_by("partition").aggregate([("rows", "sum")])
               if st.num_rows else st)
        written = []
        total = []
        for i in range(agg.num_rows):
            v = agg["partition"][i].as_py()
            written.append(v)
            total.append(agg["rows_sum"][i].as_py() if st.num_rows else 0)
            with open(os.path.join(path, f"{partition_col}={v}",
                                   "_SUCCESS"), "w"):
                pass
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "partition": pa.array(written, pa.string()),
            "rows": pa.array(total, pa.int64()),
        }))

    return sink


# static exchange classification per op — what each stage costs at
# cluster scale.  Classes:
#   row-local    one map_batches, zero data movement
#   keyed        ONE keyed exchange (two-phase partials where possible)
#   broadcast    small side shipped once via ray.put; fact never moves
#   global       all-to-all barrier (sort / repartition / shuffle)
#   actor        calls a named service actor (cache / rate limit)
#   source/sink  read or write boundary
#   driver       composition that owns its own sub-plan (see docstring)
EXCHANGE_CLASS: dict[str, str] = {
    **{n: "row-local" for n in (
        "mapping", "filter", "select", "drop", "rename", "explode",
        "split_text", "parse_json", "parse_csv", "parse_xml",
        "parse_log", "grok", "json_schema", "compress", "decompress",
        "archive", "unarchive", "insert_part", "select_parts",
        "batch_policy", "noop", "sleep", "log_stage", "metric",
        "token_count", "lang_id", "quality_score", "fingerprint",
        "bucketize",
        "simhash", "pii_redact", "gopher_quality",
        "repetition_signals", "c4_line_filter", "unpivot", "awk",
        "parse_avro", "parse_msgpack", "parse_protobuf",
        "parse_parquet", "format_avro", "format_msgpack",
        "format_protobuf", "format_parquet", "late_filter",
        "window_tumbling", "window_sliding", "sql_batch", "catch",
        "switch", "branch", "sample", "limit", "jaccard_block_pairs",
        "json_schema", "gif_frames", "cached_mapping", "media_decode",
        "media_probe", "media_resize", "media_frame_sample",
        "audio_features", "subprocess_map", "http_request",
    )},
    **{n: "keyed" for n in (
        "group_agg", "group_topk", "group_percentile",
        "group_approx_percentile", "group_rollup", "group_rank",
        "group_grouping_sets",
        "group_cumsum", "group_lag", "group_concat", "group_hll",
        "group_moving_agg", "group_corr", "group_moments",
        "group_cap", "dedupe", "sharded_join", "sharded_semi",
        "asof_join", "interval_join", "window_session",
        "minhash_lsh_dedup", "ngram_jaccard_dedup", "simhash_near_dup",
        "levenshtein_pairs", "scd2_history", "dup_span_pairs",
        "interval_coalesce", "set_op", "resample_ffill", "distinct",
        "paragraph_dedup", "pack_chunks", "global_shuffle",
        "stratified_sample", "ngram_topk", "heavy_hitters", "tfidf",
        "approx_distinct", "pivot", "weighted_mix", "embedding_near_dup",
        "profile_columns", "funnel", "group_mode", "dup_span_remove",
        "group_zscore", "semdedup", "bpe_train", "gumbel_topk_sample",
        "group_tdigest", "bm25_topk", "triangle_count", "ewma",
    )},
    **{n: "broadcast" for n in (
        "broadcast_join", "broadcast_semi", "decontaminate",
        "knn_bruteforce", "kmeans", "ngram_lm_score", "dedup_against",
        "ann_lsh", "ann_ivf", "connected_components", "pagerank",
        "cross_join", "dsir_weights", "bpe_encode",
        "ann_pq", "pq_encode",
    )},
    **{n: "global" for n in ("sort", "repartition", "union")},
    **{n: "actor" for n in ("cache_get", "cache_set", "rate_limit")},
    **{n: "source/sink" for n in (
        "read_parquet", "read_csv", "read_json", "read_text",
        "generate", "sql_query", "write_parquet", "write_json", "write_csv",
        "route_write", "export_partitioned",
        "read_stdin", "read_socket", "read_socket_server",
        "write_stdout", "write_socket",
        "read_http_client", "write_http_client", "read_http_server",
    )},
    **{n: "driver" for n in ("workflow",)},
}


def explain(text_or_path: str) -> dict:
    """Static plan annotation WITHOUT running the pipeline: per stage,
    the op name and its exchange class — where the cluster-scale cost
    lives (keyed exchanges and global barriers move data; row-local
    and broadcast stages don't).  Builds on :func:`lint`, so a config
    that wouldn't construct reports its errors instead.

    Returns ``{"ok": bool, "stages": [{"where", "op", "exchange"}...],
    "summary": {"keyed": n, ...}, "errors": [...]}``."""
    import os

    import yaml

    res = lint(text_or_path)
    if not res["ok"]:
        return {"ok": False, "stages": [], "summary": {},
                "errors": res["errors"]}
    if os.path.exists(text_or_path):
        with open(text_or_path) as f:
            conf = yaml.safe_load(f)
    else:
        conf = yaml.safe_load(text_or_path)

    stages = []

    def add(where: str, op_conf):
        name = op_conf["op"]
        stages.append({"where": where, "op": name,
                       "exchange": EXCHANGE_CLASS.get(name, "unclassified")})

    # a `rayflow test` document wraps its pipeline — explain the inner
    # steps (a path-based `config:` indirection resolves through lint)
    if "pipeline" in conf and "steps" not in conf:
        inner = conf["pipeline"]
        if isinstance(inner, dict):
            conf = inner

    if "input" in conf:
        add("input", conf["input"])
    for i, s in enumerate(conf.get("steps", [])):
        add(f"steps[{i}]", s)
    out = conf.get("output")
    if isinstance(out, list):
        for i, o in enumerate(out):
            add(f"output[{i}]", o)
    elif out is not None:
        add("output", out)
    summary: dict[str, int] = {}
    for st in stages:
        summary[st["exchange"]] = summary.get(st["exchange"], 0) + 1
    return {"ok": True, "stages": stages, "summary": summary, "errors": []}

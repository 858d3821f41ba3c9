"""The two workloads, each run through the engine's public API.

Each workload function takes a :class:`Context` and returns its metrics.
Untraced runs return the end-to-end metrics; traced runs (``ctx.tracer``
set) return the per-layer metrics, taken from spans put around calls
into the engine.  Every output is checked against :mod:`perfbench.expected`;
a failed check clears ``ctx.correct``.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import pyarrow as pa

from perfbench import expected, gen, layers
from perfbench.trace import Tracer, self_times, under

NUM_PARTITIONS = 64
N_CPUS = 4
TAIL_CONVS = 3000
TAIL_BAND_EVENTS = 3000
TAIL_MIN_BANDS = 6
TAIL_EVOLVE_BAND = 4      # bands 4.. carry the evolved schema
TAIL_SNAPSHOTS = 3
LOOKUPS = 3               # fresh-reader point reads after each commit
QUERY_NAMES = [
    "dialogue_pairs_transcripts", "conversation_rollup_transcripts",
    "sft_corpus_transcripts", "dedupe_latest_event", "window_session_user",
    "group_topk_events", "domain_cap_docs", "dup_span_remove_docs",
    "window_tumbling_hour", "minhash_near_dup",
]
DUP_SPAN_K = 8            # k_tokens of the dup_span_remove_docs query


class Context:
    """One run: its inputs, clock, tracer and the tally of operations."""

    def __init__(self, work: str, seed: int, seconds: float,
                 t_process_start: float, trace: bool, report=None):
        self.work, self.seed = work, seed
        self.seconds, self.t_process_start = seconds, t_process_start
        self.tracer = Tracer() if trace else None
        self.attempted = self.failed = 0
        self.correct = True
        self.setup_s = None
        self._report = report or (lambda event: None)

    def op(self, name: str, fn, *args, **kwargs):
        """Run one operation; an exception counts it as failed and
        returns ``None``."""
        self.attempted += 1
        self._report({"op": name})
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self._report({"failed": name})
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what: str, problem: str | None) -> None:
        if problem is not None:
            self.correct = False
            print(f"perfbench: check failed: {what}: {problem}",
                  file=sys.stderr)

    def setup_done(self) -> None:
        self.setup_s = time.time() - self.t_process_start

    def span(self, name: str):
        """A traced span, or a no-op when tracing is off."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)


def _consume(ds) -> pa.Table:
    import ray

    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return (pa.concat_tables(tables, promote_options="permissive")
            if tables else pa.table({}))


def _lookup(ctx: Context, lake: str, conv: int) -> pa.Table:
    from rayflow.cdc import CdcEngine
    from rayflow.cdc.replay import read_conversation

    with ctx.span("lookup.open"):
        engine = CdcEngine(lake, num_partitions=NUM_PARTITIONS)
    with ctx.span("lookup.read"):
        return read_conversation(engine, gen.conv_name(conv))


def _lookups(ctx: Context, lake: str, conv: int, want: pa.Table) -> None:
    """:data:`LOOKUPS` point reads of one conversation, each by a fresh
    reader, checked against ``want``."""
    for _ in range(LOOKUPS):
        got = ctx.op("lookup", _lookup, ctx, lake, conv)
        if got is not None:
            ctx.check("lookup", expected.compare_lake(got, want))


def _snapshot(ctx: Context, lake: str, lsn: int) -> pa.Table:
    from rayflow.cdc import CdcEngine

    with ctx.span("snapshot"):
        return _consume(CdcEngine(lake, num_partitions=NUM_PARTITIONS)
                        .snapshot_dataset(lsn, include_meta=True))


def _create_lake(ctx: Context, lake: str, log: str) -> None:
    """Set-up: a fresh lake from the bands in the log, with the salt plan
    traced when tracing is on."""
    from rayflow.cdc import CdcEngine
    from rayflow.cdc import replay as replay_mod

    engine = CdcEngine(lake, num_partitions=NUM_PARTITIONS)
    with (ctx.tracer.patched([(replay_mod, "plan_salts", "salt_plan")])
          if ctx.tracer else contextlib.nullcontext()):
        engine.replay(log)


# -- tail -----------------------------------------------------------------------


def tail(ctx: Context) -> dict:
    """Closed loop with one writer: a band lands, one ``tail`` poll round
    commits it, a fresh reader point-reads the hottest conversation; the
    next band lands only then.  Snapshots of earlier watermarks follow."""
    from rayflow.cdc import CdcEngine

    feed = gen.TailFeed(ctx.seed, TAIL_CONVS, TAIL_BAND_EVENTS, TAIL_EVOLVE_BAND)
    hot = feed.log.hot_conv
    log = ctx.path("log")
    feed.write_base(log)
    lake = ctx.path("lake")
    _create_lake(ctx, lake, log)
    engine = CdcEngine(lake, NUM_PARTITIONS)
    traced_lake = None
    if ctx.tracer is not None:
        traced_lake = ctx.path("traced-lake")
        shutil.copytree(lake, traced_lake)
    ctx.setup_done()

    commits = []
    watermarks = [len(feed.log.events) - 1]
    ray_walls, actor_rows = [], None
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < ctx.seconds
           or len(commits) < TAIL_MIN_BANDS):
        _, hi = feed.write_next(log)
        t_land = time.perf_counter()
        stats = ctx.op("commit", engine.tail, log, max_rounds=1)
        latency = time.perf_counter() - t_land
        if stats is None:
            break
        commits.append(latency)
        ray_walls.append(stats.wall_s)
        watermarks.append(hi)
        ctx.check("tail commit", None if stats.bands_applied == 1
                  and engine.manifest.committed_lsn == hi
                  else f"applied {stats.bands_applied} bands, watermark "
                  f"{engine.manifest.committed_lsn} != {hi}")
        if traced_lake is not None:
            info = ctx.op("traced_commit", layers.traced_replay,
                          ctx.tracer, traced_lake, log, N_CPUS,
                          stats.lineage[-1])
            if info is not None:   # rows each actor absorbed, all bands
                actor_rows = [a + b for a, b in zip(
                    actor_rows or [0] * len(info["actor_rows"]),
                    info["actor_rows"])]
            ctx.op("pool_start", layers.probe_pool_start, ctx.tracer,
                   layers.default_merge_actors(NUM_PARTITIONS, N_CPUS))
        _lookups(ctx, lake, hot,
                 expected.expected_lake(feed.log.events, hi, conv=hot))

    step = max(1, (len(watermarks) - 1) // TAIL_SNAPSHOTS)
    for lsn in watermarks[:-1][::step][:TAIL_SNAPSHOTS]:
        got = ctx.op("snapshot", _snapshot, ctx, lake, lsn)
        if got is not None:
            ctx.check(f"tail snapshot at {lsn}", expected.compare_lake(
                got, expected.expected_lake(feed.log.events, lsn)))
    want = expected.expected_lake(feed.log.events, watermarks[-1])
    ctx.check("tail lake", expected.check_lake(lake, want))
    if traced_lake is not None:
        ctx.check("traced tail lake", expected.check_lake(traced_lake, want))
        return layer_metrics(ctx.tracer.spans, n_commits=len(commits),
                             ray_wall=sum(ray_walls),
                             actor_rows=actor_rows or [])
    return _end_to_end(commits)


# -- operators ------------------------------------------------------------------


def operators(ctx: Context) -> dict:
    """An untimed warm-up query, then timed passes over the query list;
    every result is compared with the query's DuckDB SQL on the same
    files."""
    from rayflow.queries import ORACLE_SQL, QUERIES

    tables_dir = ctx.path("tables")
    os.makedirs(tables_dir)
    paths = {t: os.path.join(tables_dir, f"{t}.parquet")
             for t in ("events", "documents")}
    gen.write_events_table(paths["events"], ctx.seed)
    gen.write_documents_table(paths["documents"], ctx.seed)
    ctx.setup_done()

    want = {}
    for q in QUERY_NAMES:
        if q in ORACLE_SQL:
            want[q] = expected.duckdb_result(ORACLE_SQL[q], paths)
        else:
            import pyarrow.parquet as pq

            docs = pq.read_table(paths["documents"])
            want[q] = expected.dup_span_remove(
                docs["doc_id"].to_pylist(), docs["text"].to_pylist(),
                DUP_SPAN_K)

    def one_pass() -> list[float]:
        """Each query's time in one pass over the list."""
        times = []
        for q in QUERY_NAMES:
            t = time.perf_counter()
            with ctx.span(f"query.{q}"):
                got = ctx.op(q, lambda: _consume(QUERIES[q](tables_dir)))
            times.append(time.perf_counter() - t)
            if got is not None:
                ctx.check(q, expected.compare_query(got, want[q]))
        return times

    # untimed warm-up: the first query's first run pays the start of
    # Ray's task workers; later first runs of the other queries measured
    # no slower than their second runs
    ctx.op(QUERY_NAMES[0], lambda: _consume(QUERIES[QUERY_NAMES[0]](tables_dir)))
    passes = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < ctx.seconds or not passes:
        passes.append(one_pass())
        if ctx.tracer is not None:
            return layer_metrics(ctx.tracer.spans, n_commits=1)
    print(f"perfbench: pass samples {json.dumps([sum(p) for p in passes])}",
          file=sys.stderr)
    # a pass made of each query's median over the passes, so that one
    # query's slow run in one pass and another's in the next both drop out
    return {"op_p50_s": sum(statistics.median(t) for t in zip(*passes))}


def _end_to_end(op_walls: list[float]) -> dict:
    """The median of what the timed loop measured, left out when it has
    no sample (every such operation failed).  The samples go to stderr."""
    print(f"perfbench: op samples {json.dumps(op_walls)}", file=sys.stderr)
    return {"op_p50_s": statistics.median(op_walls)} if op_walls else {}


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(spans: list[dict], n_commits: int, ray_wall: float = 0.0,
                  actor_rows=()) -> dict:
    """Per-layer self times and counts, per commit (per pass for the
    operators workload)."""
    st = self_times(spans)
    n = max(1, n_commits)

    def t(name):
        return sum(st[s["id"]] for s in spans if s["name"] == name) / n

    def t_under(name, parent):
        return sum(st[s["id"]] for s in under(spans, name, parent)) / n

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)

    rows_in, rows_out = count("normalize", "rows_in"), count("normalize", "rows_out")
    busy = sum(s["end"] - s["start"] for s in spans
               if s["name"] in layers.TOP_LEVEL and s["parent"] is None)
    n_flush = max(1, sum(1 for s in spans if s["name"] == "flush"))
    n_commit = max(1, sum(1 for s in spans if s["name"] == "commit"))
    m = {
        "source.list_s": t("source.list"),
        "read.s": t("read"),
        "read.rows": count("read", "rows") / n,
        "normalize.s": t("normalize"),
        "normalize.lww_s": t_under("lww_reduce", "normalize"),
        "normalize.part_ids_s": t_under("part_ids", "normalize"),
        "normalize.collapse": rows_in / rows_out if rows_out else 0.0,
        "route.s": t("route"),
        "route.rows": count("route", "rows") / n,
        "apply.s": t("apply") + t_under("lww_reduce", "apply"),
        "apply.compactions": len(under(spans, "lww_reduce", "apply")) / n,
        "apply.skew": (max(actor_rows) / np.mean(actor_rows)
                       if len(actor_rows) and np.mean(actor_rows) else 0.0),
        "pool_start_s": t("pool_start"),
        "flush.hydrate_s": t("flush.hydrate"),
        "flush.merge_write_s": (t("flush") + t("flush.merge_write")
                                + t_under("lww_reduce", "flush.merge_write")),
        "flush.files": count("flush", "files") / n_flush,
        "flush.bytes": count("flush", "bytes") / n_flush,
        "commit.s": t("commit"),
        "commit.manifest_bytes": count("commit", "manifest_bytes") / n_commit,
        "salt_plan.s": t("salt_plan") * n,
        "lookup.open_s": _mean_span(spans, "lookup.open"),
        "lookup.read_s": _mean_span(spans, "lookup.read"),
        "snapshot.s": _mean_span(spans, "snapshot"),
        "orchestration.s": (ray_wall - busy) / n if ray_wall else 0.0,
    }
    for q in QUERY_NAMES:
        m[f"query.{q}.s"] = _mean_span(spans, f"query.{q}")
    return m


def _mean_span(spans: list[dict], name: str) -> float:
    d = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return float(np.mean(d)) if d else 0.0


WORKLOADS = {"tail": tail, "operators": operators}

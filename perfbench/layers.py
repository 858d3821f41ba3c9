"""The engine's replay layers called one by one in this process, traced.

:func:`traced_replay` applies the pending bands of a change log to a
lake as one commit, calling the engine's layer functions in the order
``CdcEngine.replay`` (streaming mode) calls them: band listing, the
Parquet read of each change-log file, ``NormalizeChanges``, the split by
owning merge actor (``RouteToPool``), the merge actor class's ``apply``
and ``flush`` (run here, not as Ray actors), and the manifest commit,
which writes the lineage record of the Ray run's commit of the same
bands, so the traced manifest is the engine's.
Spans go around each call; ``lww_reduce``, ``compute_part_ids``,
``hydrate_base`` and ``merge_partition_delta`` are wrapped where the
engine's modules look them up.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import pyarrow.parquet as pq

from perfbench.trace import Tracer

#: top-level spans that together make up the layers' busy time on a set
#: of bands, merge-pool start included
TOP_LEVEL = ("source.list", "read", "normalize", "route", "flush", "commit",
             "pool_start")


def default_merge_actors(num_partitions: int, n_cpus: int) -> int:
    """The pool size ``CdcEngine.replay`` picks when none is given."""
    return max(1, min(num_partitions, n_cpus // 2, 12))


class InProcessActor:
    """Stands in for a merge-actor handle: ``apply.remote`` runs the
    actor class's ``apply`` here, in an ``apply`` span."""

    def __init__(self, tracer: Tracer, impl):
        self._tracer, self._impl, self.rows = tracer, impl, 0
        self.apply = SimpleNamespace(remote=self._apply)

    def _apply(self, block_ref, indices):
        import ray

        block = ray.get(block_ref)
        with self._tracer.span("apply") as c:
            n = c["rows"] = self._impl.apply(block, indices)
        self.rows += n
        return ray.put(n)


def traced_replay(tracer: Tracer, lake_dir: str, log_dir: str,
                  n_cpus: int, lineage: dict) -> dict:
    """Apply every band above the lake's watermark as one traced commit
    whose manifest record is ``lineage``.  Returns the raw event count and
    the rows each actor absorbed."""
    from rayflow.cdc import merge, streaming
    from rayflow.cdc.sink import LakeManifest
    from rayflow.cdc.source import band_schema, list_bands
    from rayflow.schema import unify

    manifest = LakeManifest(lake_dir)
    num_partitions = int(manifest.state["num_partitions"])
    with tracer.span("source.list"):
        bands = list_bands(log_dir, after_lsn=manifest.committed_lsn)
        schema = unify(*[band_schema(b) for b in bands])
        if manifest.schema is not None:
            schema = unify(manifest.schema, schema)
    files = [f for b in bands for f in b.files]
    group_hi = max(b.lsn_hi for b in bands)
    salts = {k: int(v) for k, v in manifest.state.get("salts", {}).items()}
    normalize = merge.NormalizeChanges(schema, num_partitions, salts)
    n_actors = default_merge_actors(num_partitions, n_cpus)
    impls = [streaming._MergeActorImpl(i, n_actors) for i in range(n_actors)]
    handles = [InProcessActor(tracer, a) for a in impls]
    route = streaming.RouteToPool(handles, n_actors)
    n_raw = 0
    with tracer.patched([
        (merge, "lww_reduce", "lww_reduce"),
        (merge, "compute_part_ids", "part_ids"),
        (streaming, "lww_reduce", "lww_reduce"),
        (streaming, "hydrate_base", "flush.hydrate"),
        (streaming, "merge_partition_delta", "flush.merge_write"),
    ]):
        for path in files:
            with tracer.span("read") as c:
                tbl = pq.read_table(path, use_threads=False)
                c["rows"] = tbl.num_rows
            n_raw += tbl.num_rows
            with tracer.span("normalize") as c:
                out = normalize(tbl)
                c["rows_in"], c["rows_out"] = tbl.num_rows, out.num_rows
            with tracer.span("route") as c:
                route(out)
                c["rows"] = out.num_rows
        with tracer.span("flush") as c:
            base = manifest.partition_files()
            part_stats = [rec for a in impls
                          for rec in a.flush(lake_dir, base, group_hi)]
            c["files"] = len(part_stats)
            c["bytes"] = sum(os.path.getsize(r["file"]) for r in part_stats)
    with tracer.span("commit") as c:
        manifest.commit_band(
            band_hi=group_hi, schema=schema, part_stats=part_stats,
            salts=salts, num_partitions=num_partitions,
            lineage=lineage)
        c["manifest_bytes"] = os.path.getsize(manifest.path)
    return {"n_events": n_raw, "actor_rows": [h.rows for h in handles]}


def probe_pool_start(tracer: Tracer, n_actors: int) -> None:
    """Build a ``MergePool`` and wait for every actor's first reply (an
    empty ``flush``), the start-up each ``replay`` call pays."""
    import ray

    from rayflow.cdc.streaming import MergePool

    with tracer.span("pool_start"):
        pool = MergePool(num_actors=n_actors)
        ray.get([a.flush.remote("", {}, -1) for a in pool.actors])
    pool.shutdown()

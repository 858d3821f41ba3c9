"""Streaming merge pool: long-lived actors holding per-partition state.

This is the architecture the north star names explicitly: *actor pools
holding per-partition merge state (hash-indexed latest-version maps with
LSN-based last-writer-wins)* — the Ray-native rebuild of the reference's
manager-held cache resources + dedupe seen-state (``⟨upstream:
internal/manager/⟩``, ``processor_dedupe.go``).

:class:`_MergeActorImpl` is the one merge stage.
:meth:`rayflow.cdc.CdcEngine.replay` runs a single instance of it in the
driver process: every normalized file of a commit group is applied to
it, then it is flushed, and the driver commits the manifest.

:class:`MergePool` and :class:`RouteToPool` wrap the same class as Ray
actors fed by stateless routing calls::

    RouteToPool(batch): split by owning actor (owner = part_id % A),
          put the block ONCE, ray.get MergeActor.apply(block, indices)
          — the get IS the backpressure: a caller can't out-run its actors
    MergePool.flush: ray.get(actor.flush(band_hi)) for all actors

Replay does not use them (in process was faster at every group size
measured); ``perfbench``'s layer model does, to time the routing and
actor start-up of a distributed merge.

Each merge actor owns partitions ``p ≡ idx (mod A)`` and buffers their
deltas as Arrow sub-tables (compacted with the vectorized LWW reduce
when a partition's buffer exceeds ``compact_rows`` — so actor memory
holds at most O(live keys + compact_rows) rows per partition, the
"hash-indexed latest-version map" in columnar form).  ``flush`` merges
each owned partition with its durable base state and writes the new
state file idempotently; the actors' RAM is never the source of truth,
so a crashed group is simply re-run (exactly-once comes from the
manifest commit, SURVEY.md §7.4).  Exact replays of an event (a retried
routing task re-applying a batch) are removed by unique-LSN dedupe in
the merge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from rayflow.cdc.merge import hydrate_base, lww_reduce, merge_partition_delta
from rayflow.cdc.partitioner import PART_COL
from rayflow.schema import conform, unify


class _MergeActorImpl:
    """Plain class; wrapped with ``ray.remote`` at pool construction so
    importing this module never touches Ray."""

    def __init__(self, actor_idx: int, num_actors: int,
                 compact_rows: int = 500_000,
                 fail_after_applies: int | None = None):
        self.idx = actor_idx
        self.n = num_actors
        self.compact_rows = compact_rows
        self.buf: dict[int, list[pa.Table]] = {}
        self.rows: dict[int, int] = {}
        # test-only fault injection: raise on the Nth apply (crash-
        # atomicity tests kill the replay mid-band this way)
        self._fail_after = fail_after_applies
        self._n_applies = 0

    def apply(self, block: pa.Table, indices: np.ndarray | None = None) -> int:
        """Absorb this actor's rows of a routed block.

        ``block`` arrives as a zero-copy plasma read (the router put it
        ONCE and every actor's task references the same object — shipping
        per-actor sub-tables through the RPC cost 3x the whole stage,
        measured); ``indices`` selects the rows this actor owns (``None``:
        all of them, as in replay's single in-process merger)."""
        self._n_applies += 1
        if self._fail_after is not None and self._n_applies > self._fail_after:
            raise RuntimeError("injected merge-actor failure (test)")
        sub = block if indices is None else block.take(pa.array(indices))
        if sub.num_rows == 0:
            return 0
        parts = sub.column(PART_COL).to_numpy()
        order = np.argsort(parts, kind="stable")
        sorted_tbl = sub.take(pa.array(order))
        sorted_parts = parts[order]
        bounds = np.flatnonzero(np.diff(sorted_parts)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [len(sorted_parts)]))
        for s, e in zip(starts, ends):
            pid = int(sorted_parts[s])
            piece = sorted_tbl.slice(s, e - s).drop_columns([PART_COL])
            self.buf.setdefault(pid, []).append(piece)
            self.rows[pid] = self.rows.get(pid, 0) + (e - s)
            if self.rows[pid] > self.compact_rows:
                self._compact(pid)
        return sub.num_rows

    def _compact(self, pid: int) -> None:
        tables = self.buf[pid]
        uni = unify(*[t.schema for t in tables])
        merged = lww_reduce(
            pa.concat_tables([conform(t, uni) for t in tables])
        )
        self.buf[pid] = [merged]
        self.rows[pid] = merged.num_rows

    def flush(self, lake_dir: str, base_files: dict[int, str],
              band_hi: int) -> list[dict]:
        """Merge every owned partition with its base and write the new
        state files; clears actor state.  Returns per-partition stats."""
        stats = []
        for pid in sorted(self.buf):
            tables = self.buf[pid]
            uni = unify(*[t.schema for t in tables])
            delta = pa.concat_tables([conform(t, uni) for t in tables])
            stats.append(
                merge_partition_delta(
                    delta,
                    hydrate_base(base_files, pid),
                    lake_dir=lake_dir,
                    part_id=pid,
                    band_hi=band_hi,
                )
            )
        self.buf.clear()
        self.rows.clear()
        return stats


class MergePool:
    """Driver-side handle on a merge-actor pool.  Actors are scheduled
    with ``"SPREAD"``: one merge actor per node before doubling up, so
    routing-task → actor traffic fans across the cluster's object stores
    instead of hammering one node's."""

    def __init__(self, num_actors: int, compact_rows: int = 500_000):
        import ray

        self.num_actors = num_actors
        actor_cls = ray.remote(num_cpus=1)(_MergeActorImpl).options(
            scheduling_strategy="SPREAD")
        self.actors = [actor_cls.remote(i, num_actors, compact_rows)
                       for i in range(num_actors)]

    def flush(self, lake_dir: str, base_files: dict[int, str],
              band_hi: int) -> list[dict]:
        import ray

        results = ray.get(
            [a.flush.remote(lake_dir, base_files, band_hi) for a in self.actors]
        )
        return [rec for per_actor in results for rec in per_actor]

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
        self.actors = []


class RouteToPool:
    """Stateless routing stage: split each normalized batch by owning
    actor and block on the actors' acks (backpressure — a task cannot
    out-run its merge actors).  Returns a tiny count table so the
    Dataset execution has an output to drive."""

    def __init__(self, actors, num_actors: int):
        self.actors = actors
        self.n = num_actors

    def __call__(self, batch: pa.Table) -> pa.Table:
        import ray

        if batch.num_rows == 0:
            return pa.table({"routed": pa.array([0], type=pa.int64())})
        batch = batch.combine_chunks()
        owner = batch.column(PART_COL).to_numpy() % self.n
        block_ref = ray.put(batch)  # ONE plasma write, shared by all actors
        refs = []
        for a_idx in np.unique(owner):
            idx = np.flatnonzero(owner == a_idx)
            refs.append(self.actors[a_idx].apply.remote(block_ref, idx))
        routed = sum(ray.get(refs))
        del block_ref
        return pa.table({"routed": pa.array([routed], type=pa.int64())})

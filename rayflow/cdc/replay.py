"""Resumable CDC replay driver: change log → Parquet lake, band by band.

The Ray-Data-native rebuild of the reference's stream lifecycle
(``⟨upstream: internal/stream/type.go⟩`` input → pipeline → output with
ack-gated offset commit): each *commit group* (``bands_per_commit``
contiguous LSN bands) is one micro-batch, applied in the driver
process::

    for each file: pq.read_table → NormalizeChanges → merger.apply
    merger.flush(...)                    # one in-process merge actor object
    manifest.commit_band(...)            # the atomic exactly-once commit

:class:`NormalizeChanges` casts to the group's unified schema, validates
the envelope, LWW-reduces each file's block and assigns the salted part
id; the merge stage (:class:`rayflow.cdc.streaming._MergeActorImpl`,
whose ``flush`` calls :func:`rayflow.cdc.merge.merge_partition_delta`)
buffers per-partition deltas and rewrites each touched partition.  No
merge-actor pool, Dataset or routing task is started, so a small
``tail`` commit costs what it changed: on a 4-vCPU box, applying a group
in process was faster than through a merge-actor pool at every group
size measured, 3 k to 300 k events (CHANGES.md).

Partition count and the salt plan are fixed at lake creation and
persisted in the manifest — key→partition placement must be stable for
the lifetime of the lake (a moved key would LWW against the wrong base
state).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from rayflow.cdc.merge import NormalizeChanges, lake_schema_for
from rayflow.cdc.partitioner import PART_COL, plan_salts
from rayflow.cdc.sink import LakeManifest
from rayflow.cdc.source import band_schema, list_bands
from rayflow.cdc.streaming import _MergeActorImpl
from rayflow.schema import META_LSN, unify


@dataclass
class ReplayStats:
    bands_applied: int = 0
    n_events: int = 0
    wall_s: float = 0.0
    lineage: list[dict] = field(default_factory=list)

    @property
    def events_per_s(self) -> float:
        return self.n_events / self.wall_s if self.wall_s > 0 else 0.0


class CdcEngine:
    """One engine instance per lake directory.

    ``num_partitions`` bounds per-partition merge state (size it so one
    partition's latest-version rows fit a worker's heap at target scale:
    P ≈ total_keys × row_bytes / partition_budget).
    """

    def __init__(
        self,
        lake_dir: str,
        num_partitions: int = 32,
        auto_salt: bool = True,
        salt_sample_fraction: float = 0.05,
        seed: int = 42,
    ):
        self.lake_dir = lake_dir
        self.num_partitions = num_partitions
        self.auto_salt = auto_salt
        self.salt_sample_fraction = salt_sample_fraction
        self.seed = seed
        self.manifest = LakeManifest(lake_dir)
        # key→partition placement is a property of the LAKE, fixed at its
        # creation: resuming with a different partition count would LWW new
        # deltas against the wrong base state.  Adopt the manifest's value.
        existing_p = self.manifest.state.get("num_partitions")
        if existing_p is not None and int(existing_p) != num_partitions:
            import warnings

            warnings.warn(
                f"lake {lake_dir} was created with num_partitions={existing_p}; "
                f"ignoring requested {num_partitions}",
                stacklevel=2,
            )
            self.num_partitions = int(existing_p)

    # -- replay ------------------------------------------------------------

    def replay(self, log_dir: str, max_bands: int | None = None,
               bands_per_commit: int = 1) -> ReplayStats:
        """Apply all un-committed bands of ``log_dir`` (resume-safe).

        ``bands_per_commit`` is the checkpoint-granularity knob (the
        batching-policy analogue): N bands are applied as ONE group and
        committed atomically together.  Larger groups amortize
        per-commit overheads (lake rewrite amplification) at the cost of
        coarser resume granularity — a crash redoes the whole in-flight
        group.  Each group is read, normalized, merged and committed in
        this process (module docstring).
        """
        stats = ReplayStats()
        t0 = time.perf_counter()
        bands = list_bands(log_dir, after_lsn=self.manifest.committed_lsn)
        if max_bands is not None:
            bands = bands[:max_bands]

        salts = {k: int(v) for k, v in self.manifest.state.get("salts", {}).items()}
        if (
            self.auto_salt and not salts and self.manifest.committed_lsn < 0 and bands
        ):
            import ray.data as rd

            # Plan the salt map ONCE at lake creation from a sample of the
            # visible log, then persist it: key→partition placement must
            # stay stable forever.  Sampling is FILE-level (deterministic,
            # spread across bands/source partitions) so only the sampled
            # files' key column is ever read — row-sampling every file
            # cost more than the replay it protects.
            all_files = [f for b in bands for f in b.files]
            n_sample = max(
                min(4, len(all_files)),
                int(round(self.salt_sample_fraction * len(all_files))),
            )
            stride = max(1, len(all_files) // n_sample)
            sample_files = all_files[::stride][:n_sample]
            key_ds = rd.read_parquet(sample_files, columns=["conv_id"])
            salts = plan_salts(
                key_ds,
                self.num_partitions,
                sample_fraction=1.0,
                seed=self.seed,
            )

        groups = [
            bands[i : i + bands_per_commit]
            for i in range(0, len(bands), max(1, bands_per_commit))
        ]
        for group in groups:
            tb0 = time.perf_counter()
            files = [f for b in group for f in b.files]
            group_hi = max(b.lsn_hi for b in group)
            step_schema = unify(*[band_schema(b) for b in group])
            prior = self.manifest.schema
            if prior is not None:
                step_schema = unify(prior, step_schema)

            # event count from parquet footers (no data read)
            n_raw = sum(pq.read_metadata(f).num_rows for f in files)
            normalize = NormalizeChanges(step_schema, self.num_partitions, salts)
            merger = _MergeActorImpl(
                0, 1,
                fail_after_applies=getattr(self, "_test_fail_after_applies", None))
            for path in files:
                merger.apply(normalize(pq.read_table(path)))
            part_stats = merger.flush(
                self.lake_dir, self.manifest.partition_files(), group_hi
            )
            wall = time.perf_counter() - tb0

            lineage = {
                "band_ids": [b.band_id for b in group],
                "lsn_lo": min(b.lsn_lo for b in group),
                "lsn_hi": group_hi,
                "input_files": [
                    f.split("/")[-2] + "/" + f.split("/")[-1] for f in files
                ],
                "n_events": n_raw,
                "n_invalid": normalize.n_invalid,
                "n_partitions_touched": len(part_stats),
                "rows_after": int(sum(r["rows"] for r in part_stats)),
                # per-partition lineage: what this band did to each
                # partition (events applied, rows after, state file)
                "partitions": [
                    {
                        "part_id": int(r["part_id"]),
                        "n_events": int(r["n_events"]),
                        "rows": int(r["rows"]),
                        "file": os.path.basename(r["file"]),
                    }
                    for r in sorted(part_stats, key=lambda x: x["part_id"])
                ],
                "wall_s": round(wall, 4),
                "events_per_s": round(n_raw / wall, 1) if wall > 0 else None,
            }
            self.manifest.commit_band(
                band_hi=group_hi,
                schema=step_schema,
                part_stats=part_stats,
                salts=salts,
                lineage=lineage,
                num_partitions=self.num_partitions,
            )
            stats.bands_applied += len(group)
            stats.n_events += n_raw
            stats.lineage.append(lineage)

        stats.wall_s = time.perf_counter() - t0
        return stats

    # -- maintenance -------------------------------------------------------

    def tail(self, log_dir: str, *, poll_interval: float = 0.25,
             idle_rounds: int = 3, max_rounds: int | None = None,
             bands_per_commit: int = 1, on_round=None) -> ReplayStats:
        """Continuous incremental apply — the reference's daemon loop
        (``benthos -c`` runs forever; here bounded for testability).

        Poll ``log_dir`` for bands past the committed watermark; when
        new bands exist, :meth:`replay` them (same exactly-once
        commit); when none do, sleep ``poll_interval``.  Stop after
        ``idle_rounds`` consecutive empty polls (a live deployment
        would pass ``idle_rounds=None``-like large values / supervise
        externally) or ``max_rounds`` total polls.  Crash-safe at every
        point: state lives in the manifest, so a killed tailer resumes
        exactly like a killed replay.

        Returns aggregate stats across all apply rounds; ``on_round``
        (if given) is called with each round's ReplayStats.
        """
        total = ReplayStats()
        idle = 0
        rounds = 0
        while True:
            rounds += 1
            if max_rounds is not None and rounds > max_rounds:
                break
            pending = list_bands(log_dir, after_lsn=self.manifest.committed_lsn)
            if not pending:
                idle += 1
                if idle >= idle_rounds:
                    break
                time.sleep(poll_interval)
                continue
            idle = 0
            st = self.replay(log_dir, bands_per_commit=bands_per_commit)
            total.bands_applied += st.bands_applied
            total.n_events += st.n_events
            total.wall_s += st.wall_s
            total.lineage.extend(st.lineage)
            if on_round is not None:
                on_round(st)
        return total

    def compact(self) -> int:
        """Rewrite every live partition at the current unified lake
        schema (folds pre-evolution files forward) and bump their state
        version to the committed watermark.  Returns partitions rewritten.

        Distributed: partition ids fan out as Ray tasks (chunked so a
        4096-partition lake doesn't submit 4096 tiny tasks); each task
        rewrites its partitions' files idempotently (write-temp +
        ``os.replace``; the path is a pure function of ``(pid, hi)`` so
        retries converge) and returns only the small stats records.  The
        driver touches no table bytes — it gathers stats and publishes
        ONE atomic manifest commit, same crash contract as a band."""
        import ray

        from rayflow.cdc.merge import lake_schema_for

        files = self.manifest.partition_files()
        if not files or self.manifest.schema is None:
            return 0
        target = lake_schema_for(self.manifest.schema)
        hi = self.manifest.committed_lsn
        lake_dir = self.lake_dir

        @ray.remote(num_cpus=1)
        def compact_parts(items: list[tuple[int, str]]) -> list[dict]:
            import pyarrow.parquet as _pq

            from rayflow.schema import conform as _conform

            recs = []
            for pid, path in items:
                tbl = _conform(_pq.read_table(path), target)
                part_dir = os.path.join(lake_dir, f"part-{pid:05d}")
                final = os.path.join(part_dir, f"compact-{hi:012d}.parquet")
                tmp = final + f".tmp.{os.getpid()}"
                _pq.write_table(tbl, tmp)
                os.replace(tmp, final)
                recs.append({"part_id": pid, "rows": tbl.num_rows,
                             "n_events": 0, "lsn_hi": hi, "file": final})
            return recs

        items = sorted(files.items())
        # ~4 chunks per CPU keeps tasks coarse enough to amortize overhead
        # while still load-balancing skewed partition sizes
        n_chunks = max(1, min(len(items),
                              int(ray.cluster_resources().get("CPU", 8)) * 4))
        step = (len(items) + n_chunks - 1) // n_chunks
        chunks = [items[i:i + step] for i in range(0, len(items), step)]
        part_stats = [rec for recs in ray.get(
            [compact_parts.remote(c) for c in chunks]) for rec in recs]
        self.manifest.commit_band(
            band_hi=hi, schema=self.manifest.schema, part_stats=part_stats,
            salts={k: int(v) for k, v in self.manifest.state.get("salts", {}).items()},
            lineage={"compaction": True, "n_partitions": len(part_stats)},
            num_partitions=self.num_partitions,
        )
        return len(part_stats)

    def repartition(self, new_num_partitions: int, *, resalt: bool = True,
                    salt_sample_fraction: float = 1.0) -> int:
        """PARTITION EVOLUTION: rewrite the lake under a new partition
        count (and, by default, a fresh salt plan measured from the
        lake's live keys).

        The placement law ("key→partition is fixed for the lake's
        lifetime", module docstring) exists so a delta is never
        LWW-merged against the wrong base state — i.e. placement must
        be stable *between* commits, not for eternity.  An offline
        repartition preserves it by moving EVERY key in one atomic
        step: all live rows are re-bucketed under the new
        ``(P, salts)`` law, every new state file is written
        idempotently, and ONE manifest replace flips
        ``num_partitions`` + ``salts`` + the whole partition map
        together.  Crash before the commit → only unreferenced files
        exist (vacuum fodder) and the old layout is still live; crash
        after → the lake IS the new layout and the next replay band
        adopts it (``__init__`` reads P from the manifest).  Superseded
        files stay on disk for time travel until :meth:`vacuum`, like
        any other commit.

        Use when the lake outgrows its creation-time sizing rule
        (P ≈ total_keys × row_bytes / partition_budget) — e.g. a lake
        sized for 10^8 keys that grew to 10^10.  The rewrite is one
        keyed exchange over the live rows (much smaller than the log
        that produced them); ``resalt`` re-measures hot conversations
        from the live turn counts.  Returns new partitions written.
        """
        import ray.data as rd

        from rayflow.cdc.partitioner import compute_part_ids
        from rayflow.ops.kernels import shard_exchange
        from rayflow.schema import conform as _conform

        if new_num_partitions < 1:
            raise ValueError("new_num_partitions must be >= 1")
        files = self.manifest.live_files()
        hi = self.manifest.committed_lsn
        old_p = self.num_partitions
        if not files:
            # empty lake: the law flip is pure metadata
            self.manifest.state["num_partitions"] = int(new_num_partitions)
            self.manifest.state["partitions"] = {}
            if resalt:
                self.manifest.state["salts"] = {}
            self.manifest.state["lineage"].append({
                "repartition": True, "lsn_hi": hi,
                "from_partitions": old_p, "to_partitions": int(new_num_partitions),
                "partitions": [], "rows_after": 0,
            })
            self.manifest.state["version"] = int(self.manifest.state["version"]) + 1
            self.manifest._write()
            self.num_partitions = int(new_num_partitions)
            return 0

        target = lake_schema_for(self.manifest.schema)
        if resalt:
            key_ds = rd.read_parquet(files, columns=["conv_id"])
            salts = plan_salts(key_ds, new_num_partitions,
                               sample_fraction=salt_sample_fraction,
                               seed=self.seed)
        else:
            salts = {k: int(v)
                     for k, v in self.manifest.state.get("salts", {}).items()}
        lake_dir = self.lake_dir
        new_p = int(new_num_partitions)

        def _route(t: pa.Table) -> pa.Table:
            t = _conform(t, target)
            pid = compute_part_ids(t["conv_id"], t["turn_idx"], new_p, salts)
            return t.append_column(PART_COL, pa.array(pid, pa.int32()))

        def write_parts(shard: pa.Table) -> pa.Table:
            """Write each new partition of one shard to its state file;
            emit one stats row per partition.  The path is a pure
            function of ``(pid, hi, new_p)``, so retried tasks converge —
            the idempotence contract of merge state files."""
            import pyarrow.compute as pc
            import pyarrow.parquet as _pq

            pids, paths, rows = [], [], []
            for pid in pc.unique(shard[PART_COL]).to_pylist():
                t = shard.filter(pc.equal(shard[PART_COL], pid)) \
                    .drop_columns([PART_COL])
                t = t.take(pc.sort_indices(
                    t, sort_keys=[("conv_id", "ascending"),
                                  ("turn_idx", "ascending")]))
                part_dir = os.path.join(lake_dir, f"part-{pid:05d}")
                os.makedirs(part_dir, exist_ok=True)
                final = os.path.join(
                    part_dir, f"repart-{hi:012d}-p{new_p}.parquet")
                tmp = final + f".tmp.{os.getpid()}"
                _pq.write_table(t, tmp)
                os.replace(tmp, final)
                pids.append(pid)
                paths.append(final)
                rows.append(t.num_rows)
            return pa.table({
                "part_id": pa.array(pids, pa.int32()),
                "rows": pa.array(rows, pa.int64()),
                "file": pa.array(paths, pa.string()),
            })

        routed = rd.read_parquet(files).map_batches(
            _route, batch_format="pyarrow", zero_copy_batch=True)
        # ≤ new_p tiny stats rows
        part_stats = shard_exchange(routed, PART_COL, write_parts).take_all()

        self.manifest.state["partitions"] = {
            str(int(r["part_id"])): {
                "file": os.path.relpath(r["file"], lake_dir),
                "lsn": hi, "rows": int(r["rows"]),
            } for r in part_stats
        }
        self.manifest.state["num_partitions"] = new_p
        self.manifest.state["salts"] = {str(k): int(v) for k, v in salts.items()}
        self.manifest.state["lineage"].append({
            "repartition": True, "lsn_hi": hi,
            "from_partitions": old_p, "to_partitions": new_p,
            "rows_after": int(sum(int(r["rows"]) for r in part_stats)),
            # full per-partition file list: a repartition record is a
            # complete snapshot — snapshot_dataset() RESETS its selection
            # here because the pid namespace changed
            "partitions": [
                {"part_id": int(r["part_id"]), "rows": int(r["rows"]),
                 "n_events": 0, "file": os.path.basename(r["file"])}
                for r in sorted(part_stats, key=lambda x: int(x["part_id"]))
            ],
        })
        self.manifest.state["version"] = int(self.manifest.state["version"]) + 1
        self.manifest._write()
        self.num_partitions = new_p
        return len(part_stats)

    def vacuum(self) -> int:
        """Delete state files not referenced by the manifest (older
        versions superseded by later commits).  Safe any time: a file
        not in the manifest does not exist, by definition.

        Files PINNED by reference branches (``rayflow.cdc.branch``)
        are kept — a branch's manifest points into this lake, so its
        pins are part of this lake's live set until
        ``remove_branch_pin`` releases them.  Re-reads the manifest
        from disk first: pins are written out-of-band by
        ``branch_lake`` and this engine's in-memory copy may predate
        them."""
        import glob as _glob

        manifest = LakeManifest(self.lake_dir)    # fresh: see docstring
        live = set(manifest.live_files())
        for pin in manifest.state.get("pins", {}).values():
            live.update(os.path.join(self.lake_dir, rel) for rel in pin)
        removed = 0
        for f in _glob.glob(os.path.join(self.lake_dir, "part-*", "*.parquet")):
            if f not in live:
                os.unlink(f)
                removed += 1
        return removed

    # -- read side ---------------------------------------------------------

    def final_dataset(self, include_meta: bool = False):
        """The lake as a streaming ``ray.data.Dataset`` (no full
        materialization).  Mixed-schema partition files are unified on
        read (the lake may hold pre-evolution files until rewritten)."""
        import ray.data as rd

        files = self.manifest.live_files()
        if not files:
            sch = self.manifest.schema
            empty = (lake_schema_for(sch) if sch else pa.schema([])).empty_table()
            return rd.from_arrow(empty)
        target = lake_schema_for(self.manifest.schema)
        ds = rd.read_parquet(files)

        from rayflow.schema import conform  # local import: small closure

        ds = ds.map_batches(
            lambda t: conform(t, target), batch_format="pyarrow", zero_copy_batch=True
        )
        if not include_meta:
            ds = ds.drop_columns([META_LSN])
        return ds

    def snapshot_lsns(self) -> list[int]:
        """Committed watermarks available for time travel (one per
        band-group commit, from the manifest's lineage records)."""
        return sorted({int(rec["lsn_hi"])
                       for rec in self.manifest.state.get("lineage", [])
                       if "lsn_hi" in rec})

    def snapshot_dataset(self, as_of_lsn: int, include_meta: bool = False):
        """TIME TRAVEL: the lake as of an earlier committed watermark.

        Partition state files are immutable pure functions of
        ``(part_id, band_hi)`` and superseded files stay on disk until
        :meth:`vacuum`, so a historical snapshot is just a different
        file selection.  The selection is MANIFEST-driven, not a
        directory glob: each lineage record names every partition's
        state file at its commit, so the snapshot is the per-partition
        latest file across records with ``lsn_hi <= as_of_lsn`` —
        uncommitted orphan files can never leak in, and a selection
        that references a vacuumed file raises instead of silently
        returning partial history.  Zero data movement — then the
        identical streaming read path as :meth:`final_dataset`.
        """
        import ray.data as rd

        if as_of_lsn >= self.manifest.committed_lsn:
            # the newest watermark IS the live table — read it through
            # the manifest's current files (valid even after compact()
            # + vacuum() pruned the historical state files)
            return self.final_dataset(include_meta=include_meta)
        latest: dict[int, str] = {}
        for rec in self.manifest.state.get("lineage", []):
            if int(rec.get("lsn_hi", -1)) <= as_of_lsn:
                if rec.get("repartition"):
                    # pid namespace changed: this record is a COMPLETE
                    # snapshot under the new law — carrying pre-evolution
                    # pids forward would double-count rows
                    latest = {}
                for p in rec.get("partitions", []):
                    latest[int(p["part_id"])] = p["file"]
        files, missing = [], []
        for pid in sorted(latest):
            f = os.path.join(self.lake_dir, f"part-{pid:05d}", latest[pid])
            (files if os.path.exists(f) else missing).append(f)
        if missing:
            raise FileNotFoundError(
                f"snapshot as of lsn {as_of_lsn}: {len(missing)} state "
                f"file(s) no longer exist (e.g. {missing[0]}) — vacuum() "
                "prunes superseded files, so time travel reaches only "
                "un-vacuumed history")
        if not files:
            sch = self.manifest.schema
            empty = (lake_schema_for(sch) if sch else pa.schema([])).empty_table()
            return rd.from_arrow(empty)
        target = lake_schema_for(self.manifest.schema)
        ds = rd.read_parquet(sorted(files))

        from rayflow.schema import conform

        ds = ds.map_batches(
            lambda t: conform(t, target), batch_format="pyarrow",
            zero_copy_batch=True)
        if not include_meta:
            ds = ds.drop_columns([META_LSN])
        return ds

    def final_table(self, include_meta: bool = True) -> pa.Table:
        """Driver-side materialization for tests/verification only —
        sorted by ``(conv_id, turn_idx)`` per the correctness gate."""
        import ray

        ds = self.final_dataset(include_meta=include_meta)
        if ds.count() == 0:
            sch = self.manifest.schema
            return (lake_schema_for(sch) if sch else pa.schema([])).empty_table()
        refs = ds.sort(["conv_id", "turn_idx"]).to_arrow_refs()
        tables = [t for t in ray.get(refs) if t.num_rows > 0]
        return pa.concat_tables(tables, promote_options="permissive")

    # -- observability -----------------------------------------------------

    def lineage_table(self) -> pa.Table:
        """The lake's commit audit trail as a queryable Arrow table —
        one row per manifest commit (replay band group or compaction),
        straight from the durable manifest so it survives restarts and
        is identical for every reader."""
        rows = []
        for i, ln in enumerate(self.manifest.state.get("lineage", [])):
            rows.append({
                "commit_idx": i,
                "kind": "compaction" if ln.get("compaction") else "replay",
                "lsn_lo": ln.get("lsn_lo"),
                "lsn_hi": ln.get("lsn_hi"),
                "n_bands": len(ln.get("band_ids", []) or []),
                "n_events": ln.get("n_events"),
                "n_invalid": ln.get("n_invalid"),
                "n_partitions_touched": (
                    ln.get("n_partitions_touched")
                    if not ln.get("compaction") else ln.get("n_partitions")),
                "rows_after": ln.get("rows_after"),
                "wall_s": ln.get("wall_s"),
                "events_per_s": ln.get("events_per_s"),
            })
        schema = pa.schema([
            ("commit_idx", pa.int32()), ("kind", pa.string()),
            ("lsn_lo", pa.int64()), ("lsn_hi", pa.int64()),
            ("n_bands", pa.int32()), ("n_events", pa.int64()),
            ("n_invalid", pa.int64()), ("n_partitions_touched", pa.int32()),
            ("rows_after", pa.int64()), ("wall_s", pa.float64()),
            ("events_per_s", pa.float64()),
        ])
        return pa.Table.from_pylist(rows, schema=schema)

    def partition_stats(self) -> pa.Table:
        """Current per-partition state as an Arrow table: live state
        file, watermark, row count, on-disk bytes, and the per-commit
        applied-event totals folded from the lineage (post-collapse
        upserts: per-block LWW collapse dedupes raw events before the
        exchange, so this is <= the raw change count) — the rule's
        'per-partition lineage + metrics' as data, not log lines."""
        events: dict[int, int] = {}
        for ln in self.manifest.state.get("lineage", []):
            for p in ln.get("partitions", []) or []:
                pid = int(p["part_id"])
                events[pid] = events.get(pid, 0) + int(p.get("n_events", 0))
        rows = []
        for pid_s, rec in sorted(self.manifest.state.get("partitions", {}).items(),
                                 key=lambda kv: int(kv[0])):
            pid = int(pid_s)
            path = os.path.join(self.lake_dir, rec["file"])
            rows.append({
                "part_id": pid,
                "rows": int(rec["rows"]),
                "lsn": int(rec["lsn"]),
                "n_events_applied": events.get(pid, 0),
                "state_file": rec["file"],
                "bytes": os.path.getsize(path) if os.path.exists(path) else None,
            })
        schema = pa.schema([
            ("part_id", pa.int32()), ("rows", pa.int64()),
            ("lsn", pa.int64()), ("n_events_applied", pa.int64()),
            ("state_file", pa.string()), ("bytes", pa.int64()),
        ])
        return pa.Table.from_pylist(rows, schema=schema)


def _point_lookup_parts(engine: "CdcEngine", conv_id: str) -> list[int]:
    """Partitions that may hold a conversation (1 normally, s when salted)."""
    import numpy as np

    from rayflow.cdc.partitioner import compute_part_ids

    salts = {k: int(v) for k, v in engine.manifest.state.get("salts", {}).items()}
    s = salts.get(conv_id, 1)
    turns = np.arange(max(s * 4, 4), dtype=np.int64)  # cover every salt residue
    parts = compute_part_ids(
        np.array([conv_id] * len(turns), dtype=object), turns,
        engine.num_partitions, salts,
    )
    return sorted(set(int(p) for p in parts))


def read_conversation(engine: "CdcEngine", conv_id: str) -> pa.Table:
    """Point lookup: fetch one conversation's turns touching ONLY its
    partition state file(s) — the payoff of stable hash placement (a
    salted conversation reads its s partitions).  Returns turns sorted
    by turn_idx."""
    import pyarrow.compute as pc

    files = engine.manifest.partition_files()
    tables = []
    for pid in _point_lookup_parts(engine, conv_id):
        path = files.get(pid)
        if path is None:
            continue
        t = pq.read_table(path)
        tables.append(t.filter(pc.equal(t["conv_id"], conv_id)))
    if not tables:
        sch = engine.manifest.schema
        return (lake_schema_for(sch) if sch else pa.schema([])).empty_table()
    out = pa.concat_tables(tables, promote_options="permissive")
    return out.take(pc.sort_indices(out, sort_keys=[("turn_idx", "ascending")]))

"""Last-writer-wins merge: the stateful heart of the CDC engine.

Semantics rebuilt from the reference's delivery/ordering model (``⟨upstream:
internal/checkpoint/capped.go⟩`` tolerates out-of-order acks; ``⟨upstream:
internal/impl/pure/processor_dedupe.go⟩`` keyed seen-state): correctness
never depends on arrival order — only on LSN comparison.  For each merge
key ``(conv_id, turn_idx)`` the row with the maximum ``lsn`` wins
(then ``src_ts``; a full tie keeps the later row).  Rows of one source
transaction may share an LSN across keys, so winners are picked per key,
never by LSN alone; a winning ``delete`` removes the key.

Execution shape:

1. **Partial reduce** in :class:`NormalizeChanges`, per change-log file
   *before* any routing (:func:`lww_reduce` per block) — collapses
   repeated updates to the same key so hot conversations don't inflate
   what the merge stage buffers (the combiner trick; this is the main
   skew defuser alongside salting).
2. **Merge** (:func:`merge_partition_delta`, called by each merge
   actor's ``flush`` in :mod:`rayflow.cdc.streaming`) — per lake
   partition: hydrate the base state (hash-indexed latest-version rows
   in the lake Parquet file — the durable form of the per-partition
   latest-version map), LWW-reduce ``base ∪ delta`` with Arrow-schema
   unification (column add / int widen), and write the new partition
   state file idempotently.  Replay runs one merge actor object in the
   driver process (:mod:`rayflow.cdc.replay`).

Partition state files are pure functions of ``(part_id, band_hi)`` so a
retried task overwrites the same path with identical content; commit is
the driver's atomic manifest publish (:mod:`rayflow.cdc.sink`).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from rayflow.cdc.partitioner import PART_COL, compute_part_ids
from rayflow.schema import KEY_COLUMNS, META_LSN, conform, unify

#: op value given to hydrated base rows — never equal to 'delete', so a
#: base row that wins (no newer change for its key) survives the merge.
_BASE_OP = "base"


def lww_reduce(tbl: pa.Table, key_cols: list[str] = KEY_COLUMNS,
               lsn_col: str = "lsn") -> pa.Table:
    """Keep exactly one row per key: the max ``(lsn, src_ts)``, a null
    ``src_ts`` (hydrated base rows) ordering first; on a full tie the
    later row wins.  One stable sort on ``(lsn, src_ts)``, then each
    key's last row from an ordered group-by — per key, since rows of
    one source transaction share an LSN.  Pure vectorized Arrow,
    winners in input order."""
    if tbl.num_rows == 0:
        return tbl
    order_cols = [lsn_col] + (["src_ts"] if "src_ts" in tbl.column_names else [])
    order = pc.sort_indices(tbl.select(order_cols),
                            sort_keys=[(c, "ascending") for c in order_cols],
                            null_placement="at_start")
    ranked = tbl.select(key_cols).take(order).append_column("__row", order)
    last = ranked.group_by(key_cols, use_threads=False).aggregate(
        [("__row", "last")]).column("__row_last")
    if len(last) == tbl.num_rows:  # all keys already unique
        return tbl
    return tbl.take(np.sort(last.to_numpy()))


class NormalizeChanges:
    """Stateless stage over one change-log file's zero-copy Arrow table.

    Casts every batch to the band's unified change schema (schema
    evolution happens here for the in-flight stream), validates the
    envelope (known op, non-null keys/lsn — invalid rows are dropped and
    counted in ``_invalid`` metadata, the dead-letter hook), runs the
    per-block partial LWW reduce, and attaches the salted partition id.
    """

    def __init__(self, schema: pa.Schema, num_partitions: int,
                 salts: dict[str, int] | None = None):
        self.schema = schema
        self.num_partitions = num_partitions
        self.salts = salts or {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        tbl = conform(batch, self.schema)
        valid = pc.and_(
            pc.is_in(tbl["op"], value_set=pa.array(["insert", "update", "delete"])),
            pc.and_(
                pc.is_valid(tbl["lsn"]),
                pc.and_(*[pc.is_valid(tbl[k]) for k in KEY_COLUMNS]),
            ),
        )
        if not pc.all(valid).as_py():
            tbl = tbl.filter(valid)
        tbl = lww_reduce(tbl)
        part = compute_part_ids(
            tbl["conv_id"], tbl["turn_idx"], self.num_partitions, self.salts
        )
        return tbl.append_column(PART_COL, pa.array(part, type=pa.int32()))


def lake_schema_for(change_schema: pa.Schema) -> pa.Schema:
    """Lake partition-file schema for a change schema: payload columns
    plus the ``_lsn`` metadata column (enables LWW on later bands)."""
    fields = [f for f in change_schema if f.name not in ("lsn", "op", "src_ts", PART_COL)]
    return pa.schema(fields + [pa.field(META_LSN, pa.int64())])


def drop_duplicate_lsns(tbl: pa.Table, lsn_col: str = "lsn") -> pa.Table:
    """Remove exact event replays: rows repeating a ``(key, lsn)`` pair
    (a re-applied batch).  Rows of one source transaction share an LSN
    across keys, so the LSN alone is not an event id.  Keeps the first
    row of each pair, in input order."""
    if pc.count_distinct(tbl.column(lsn_col)).as_py() == tbl.num_rows:
        return tbl
    cols = KEY_COLUMNS + [lsn_col]
    first = tbl.select(cols).append_column(
        "__row", pa.array(np.arange(tbl.num_rows))
    ).group_by(cols, use_threads=False).aggregate([("__row", "min")])
    return tbl.take(np.sort(first.column("__row_min").to_numpy()))


def merge_partition_delta(
    delta: pa.Table,
    base: pa.Table | None,
    *,
    lake_dir: str,
    part_id: int,
    band_hi: int,
) -> dict:
    """LWW-merge one partition's delta with its base state and write the
    new state file idempotently.  Called by the merge actor's ``flush``
    under both replay drivers (in process and pooled)."""
    delta = drop_duplicate_lsns(delta)
    if base is not None and base.num_rows > 0:
        # dress base rows as pseudo-changes: lsn = stored _lsn, op = 'base'
        base = base.rename_columns(
            ["lsn" if c == META_LSN else c for c in base.column_names]
        )
        base = base.append_column(
            "op", pa.array(np.full(base.num_rows, _BASE_OP), type=pa.string())
        )
        uni = unify(delta.schema, base.schema)
        combined = pa.concat_tables([conform(delta, uni), conform(base, uni)])
    else:
        combined = delta

    winners = lww_reduce(combined)
    survivors = winners.filter(pc.not_equal(winners["op"], "delete"))
    out_fields = [
        f for f in combined.schema if f.name not in ("lsn", "op", "src_ts")
    ]
    out_schema = pa.schema(out_fields + [pa.field(META_LSN, pa.int64())])
    out = conform(
        survivors.rename_columns(
            [META_LSN if c == "lsn" else c for c in survivors.column_names]
        ),
        out_schema,
    )

    part_dir = os.path.join(lake_dir, f"part-{part_id:05d}")
    os.makedirs(part_dir, exist_ok=True)
    final = os.path.join(part_dir, f"state-{band_hi:012d}.parquet")
    tmp = final + f".tmp.{os.getpid()}"
    pq.write_table(out, tmp)
    os.replace(tmp, final)  # atomic; retries converge on identical bytes
    return {
        "part_id": part_id,
        "file": final,
        "rows": out.num_rows,
        "n_events": delta.num_rows,
        "lsn_hi": band_hi,
    }


def hydrate_base(base_files: dict[int, str], part_id: int) -> pa.Table | None:
    path = base_files.get(part_id)
    if path is None or not os.path.exists(path):
        return None
    return pq.read_table(path)

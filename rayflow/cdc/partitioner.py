"""Key partitioning with hot-key salting for the CDC merge shuffle.

The reference scales horizontally by source-partition assignment only
(Kafka consumer groups, SURVEY.md §4) and has no skew handling; at
10^10-event scale the north rule requires explicit hash partitioning by
``conv_id`` *and* salting hot conversations.  Strategy:

- ``part_id = H(conv_id) % P`` normally (one conversation → one merge
  partition, so merge state for a key never races across workers);
- a conversation found hot (event share above a threshold in a seeded
  sample) is *salted*: ``part_id = H(conv_id, turn_idx % s) % P`` — its
  turns spread over ``s`` partitions.  Correctness is preserved because
  the salt is a pure function of the merge key ``(conv_id, turn_idx)``:
  every event for one key still lands in exactly one partition.

Hashes use ``pandas.util.hash_array`` (SipHash with a fixed key):
deterministic across processes/nodes, vectorized in C — Python's
builtin ``hash`` is per-process salted and must never be used here.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

PART_COL = "_part_id"
_MIX = np.uint64(0x9E3779B97F4A7C15)  # 64-bit golden-ratio mixing constant


def hash_strings(arr: pa.ChunkedArray | pa.Array | np.ndarray) -> np.ndarray:
    """Deterministic uint64 hash of a string column."""
    if isinstance(arr, (pa.ChunkedArray, pa.Array)):
        arr = arr.to_numpy(zero_copy_only=False)
    return pd.util.hash_array(np.asarray(arr, dtype=object))


def compute_part_ids(
    conv_id: pa.ChunkedArray | np.ndarray,
    turn_idx: pa.ChunkedArray | np.ndarray,
    num_partitions: int,
    salts: dict[str, int] | None = None,
) -> np.ndarray:
    """Vectorized ``part_id`` for a batch (see module docstring).

    Arrow inputs are dictionary-encoded first so the per-string SipHash
    and the salt-map lookup run once per UNIQUE conversation (a CDC
    block holds ~dozens of events per conversation — hashing every row
    as a Python object was the normalize stage's hottest line)."""
    if isinstance(conv_id, (pa.ChunkedArray, pa.Array)):
        arr = conv_id.combine_chunks() if isinstance(conv_id, pa.ChunkedArray) else conv_id
        import pyarrow.compute as pc

        enc = pc.dictionary_encode(arr)
        enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
        uniq = enc.dictionary.to_numpy(zero_copy_only=False)
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        hu = pd.util.hash_array(np.asarray(uniq, dtype=object))
        h = hu[idx]
        if salts:
            su = np.fromiter((salts.get(c, 1) for c in uniq), np.uint64, len(uniq))
            s = su[idx]
        else:
            s = None
    else:
        conv_np = np.asarray(conv_id)
        h = hash_strings(conv_np)
        s = (pd.Series(conv_np).map(salts).fillna(1).to_numpy(dtype=np.uint64)
             if salts else None)
    if s is not None and (s > 1).any():
        turn_np = (
            turn_idx.to_numpy(zero_copy_only=False)
            if isinstance(turn_idx, (pa.ChunkedArray, pa.Array))
            else np.asarray(turn_idx)
        ).astype(np.uint64)
        salt = turn_np % np.maximum(s, 1)
        h = np.where(s > 1, (h + (salt + np.uint64(1)) * _MIX), h)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def plan_salts(
    ds,
    num_partitions: int,
    sample_fraction: float = 0.05,
    hot_share: float = 0.5,
    max_salt: int = 16,
    seed: int = 42,
) -> dict[str, int]:
    """Detect hot conversations from a seeded sample of the change stream.

    A conversation whose sampled event share exceeds ``hot_share / P``
    (i.e. it would fill more than ``hot_share`` of one average merge
    partition) gets a salt proportional to its excess, capped at
    ``max_salt``.  The sample is a small groupby-count — cheap relative
    to the replay it protects.
    """
    import pandas as pd
    import pyarrow as pa

    sample = ds if sample_fraction >= 1.0 else ds.random_sample(sample_fraction, seed=seed)

    # Shuffle-free counting: per-block value_counts (tiny tables) combined
    # on the driver — a full groupby shuffle here cost more than the replay
    # it was protecting (measured 8-12s at sf0.1).
    def _block_counts(t: pa.Table) -> pa.Table:
        vc = t.group_by("conv_id", use_threads=False).aggregate([("conv_id", "count")])
        return vc.rename_columns(["conv_id", "n"])

    import ray

    # materialize first: on a lazy Dataset, to_arrow_refs() runs the plan
    # a second time (limit 1) to learn its schema, and cancelling that
    # run has crashed Ray 2.49's reference counter (CHANGES.md)
    refs = sample.map_batches(
        _block_counts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize().to_arrow_refs()
    tables = [t for t in ray.get(refs) if t.num_rows > 0]
    if not tables:
        return {}
    counts = (
        pa.concat_tables(tables)
        .to_pandas()
        .groupby("conv_id", as_index=False)["n"]
        .sum()
        .rename(columns={"n": "count()"})
    )
    if counts.empty:
        return {}
    total = counts["count()"].sum()
    threshold = max(hot_share * total / num_partitions, 1.0)
    hot = counts[counts["count()"] > threshold]
    salts: dict[str, int] = {}
    for conv, cnt in zip(hot["conv_id"], hot["count()"]):
        s = int(min(max_salt, int(np.ceil(cnt / threshold))))
        if s > 1:
            salts[str(conv)] = s
    return salts

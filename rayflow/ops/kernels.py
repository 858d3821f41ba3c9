"""Shared vectorized Arrow kernels used by several ops."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def argextreme_reduce(
    tbl: pa.Table, keys: list[str], order_col: str, keep: str = "max"
) -> pa.Table:
    """Keep the row with the min/max ``order_col`` per key group.

    Pure vectorized Arrow (grouped extreme + hash-set membership filter).
    REQUIRES ``order_col`` values to be globally unique in ``tbl`` (LSNs,
    primary keys) — otherwise a row from another group sharing the winning
    value would survive.  This is the whole-row argmax trick the CDC merge
    uses (:func:`rayflow.cdc.merge.lww_reduce` is the ``max``/lsn case).
    """
    if tbl.num_rows == 0:
        return tbl
    agg = tbl.group_by(keys, use_threads=False).aggregate([(order_col, keep)])
    winners = agg.column(f"{order_col}_{keep}")
    if len(winners) == tbl.num_rows:
        return tbl
    mask = pc.is_in(tbl.column(order_col), value_set=winners.combine_chunks())
    return tbl.filter(mask)


def explode_list(tbl: pa.Table, list_col: str, out_col: str | None = None) -> pa.Table:
    """One output row per list element (``unarchive``/``flat_map``
    analogue).  Vectorized: list flatten + parent-index take."""
    out_col = out_col or list_col
    arr = tbl.column(list_col)
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    flat = pc.list_flatten(arr)
    parents = pc.list_parent_indices(arr)
    rest = tbl.drop_columns([list_col]).take(parents)
    return rest.append_column(out_col, flat)


def collect_table(ds) -> pa.Table:
    """Materialize a SMALL Dataset to one Arrow table, surviving the
    empty case (``iter_batches`` yields nothing for an empty dataset,
    and ``pa.concat_tables`` of zero tables raises).  Falls back to the
    dataset's schema for a typed empty table, or a zero-column table
    when even the schema is unknown."""
    batches = list(ds.iter_batches(batch_size=1 << 20,
                                   batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches)
    sch = ds.schema()
    if sch is None:
        return pa.table({})
    names = list(sch.names)
    types = list(sch.types)
    return pa.Table.from_arrays(
        [pa.array([], t) for t in types], names=names)


def sum_count_topk(partials, *, key_col: str, count_col: str, k: int):
    """Shared finish for count-based top-k ops (ngram_topk,
    heavy_hitters): sum partial counts per key, rank descending with
    the key as deterministic tiebreak, keep k."""
    from rayflow.ops import build_op

    combined = build_op({
        "op": "group_agg", "keys": [key_col],
        "aggs": [("sum", count_col, count_col)],
    })(partials)
    ranked = build_op({
        "op": "sort", "keys": [count_col, key_col],
        "descending": [True, False],
    })(combined)
    return ranked.limit(k)


def md5_digests(strings: list) -> "np.ndarray":
    """Vectorized MD5 over an array of SHORT strings (<= 55 utf-8
    bytes, i.e. a single 512-bit block — ids, keys, short tokens).

    Standard RFC-1321 MD5, all 64 rounds computed simultaneously
    across rows with in-place numpy uint32 arithmetic (wrap-around
    native); returns an (n, 16) uint8 digest matrix whose row-wise
    lexicographic order equals hexdigest string order.  Rows longer
    than 55 bytes (or None) fall back to hashlib.  Removes the one
    O(rows) Python loop from stratified_sample's rank hash (~2x
    hashlib-in-a-loop at 200k rows, with no per-row interpreter cost
    growing under concurrency).
    """
    import hashlib

    import numpy as np

    import pyarrow as _pa

    if isinstance(strings, (_pa.Array, _pa.ChunkedArray)):
        arr = (strings.combine_chunks()
               if isinstance(strings, _pa.ChunkedArray) else strings)
        if _pa.types.is_large_string(arr.type) or \
                _pa.types.is_large_binary(arr.type):
            arr = arr.cast(_pa.string()) if _pa.types.is_large_string(
                arr.type) else arr.cast(_pa.binary())
        if _pa.types.is_string(arr.type) or _pa.types.is_binary(arr.type):
            # zero-copy: the utf-8 payload is already one flat buffer
            off = np.frombuffer(arr.buffers()[1], np.int32,
                                count=len(arr) + 1, offset=4 * arr.offset)
            data = arr.buffers()[2]
            allflat = (np.frombuffer(data, np.uint8) if data is not None
                       else np.zeros(0, np.uint8))
            lens = (off[1:] - off[:-1]).astype(np.int64)
            if arr.null_count:
                valid = np.asarray(arr.is_valid())
                lens = np.where(valid, lens, -1)
            slow = np.flatnonzero(lens > 55)
            slow_vals = [allflat[off[i]:off[i] + lens[i]].tobytes()
                         for i in slow]
            return _md5_pack_and_round(allflat, off[:-1].astype(np.int64),
                                       lens, slow_vals, slow)
        strings = strings.to_pylist()

    enc = [None if s is None else
           (s if isinstance(s, bytes) else str(s).encode("utf-8"))
           for s in strings]
    lens = np.array([-1 if b is None else len(b) for b in enc], dtype=np.int64)
    flat = np.frombuffer(b"".join(b for b in enc if b is not None), np.uint8)
    pos = np.where(lens >= 0, lens, 0)
    starts = np.concatenate(([0], np.cumsum(pos)))[:-1]
    slow = np.flatnonzero(lens > 55)
    return _md5_pack_and_round(flat, starts, lens,
                               [enc[i] for i in slow], slow)


def _md5_pack_and_round(allflat, starts, lens, slow_vals, slow_idx):
    """Shared MD5 core over a flat byte stream with per-row
    (start, len) extents.  len < 0 rows are null (zero digest); rows in
    ``slow_idx`` (> 55 bytes, multi-block) fall back to hashlib."""
    import hashlib

    import numpy as np

    n = len(lens)
    out = np.zeros((n, 16), dtype=np.uint8)
    for i, b in zip(slow_idx, slow_vals):
        out[i] = np.frombuffer(hashlib.md5(b).digest(), np.uint8)
    fast = (lens >= 0) & (lens <= 55)
    idx = np.flatnonzero(fast)
    m = len(idx)
    if not m:
        return out

    # -- pack each message into its padded 64-byte block (flat scatter)
    fl = lens[idx]
    buf = np.zeros((m, 64), dtype=np.uint8)
    total = int(fl.sum())
    if total:
        # flat gather/scatter: src = msg_start + within, dest = row*64 +
        # within; 'within' folded into one arange via segment offsets
        segstarts = np.concatenate(([0], np.cumsum(fl)))[:-1]
        ar = np.arange(total, dtype=np.int64)
        src = np.repeat(starts[idx] - segstarts, fl) + ar
        dest = np.repeat(np.arange(m, dtype=np.int64) * 64 - segstarts,
                         fl) + ar
        buf.reshape(-1)[dest] = allflat[src]
    buf[np.arange(m), fl] = 0x80
    bitlen = (fl * 8).astype(np.uint64)
    for j in range(8):
        buf[:, 56 + j] = ((bitlen >> np.uint64(8 * j)) &
                          np.uint64(0xFF)).astype(np.uint8)
    M = np.ascontiguousarray(buf).view("<u4")  # (m, 16) LE words

    # cache-resident chunks: the 64-round state (7 arrays + the message
    # words) must fit L2 or the loop goes memory-bound — 8k rows ≈ 750 KB
    # measured 3x faster than one full-width pass at 200k rows
    dig = np.empty((m, 16), dtype=np.uint8)
    CHUNK = 8192
    for lo in range(0, m, CHUNK):
        _md5_rounds_into(M[lo:lo + CHUNK], dig[lo:lo + CHUNK])
    out[idx] = dig
    return out


_MD5_K = None


def _md5_rounds_into(M, dig):
    """RFC-1321 rounds over ``M`` (k, 16) LE words, digests into ``dig``
    (k, 16) uint8 — in-place numpy uint32 ops, zero per-row Python."""
    import numpy as np

    global _MD5_K
    if _MD5_K is None:
        _MD5_K = np.floor(np.abs(np.sin(np.arange(1, 65, dtype=np.float64)))
                          * 4294967296.0).astype(np.uint64).astype(np.uint32)
    K = _MD5_K
    S = [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + \
        [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
    k = len(M)
    MT = np.ascontiguousarray(M.T)  # (16, k): contiguous word columns
    a = np.full(k, 0x67452301, np.uint32)
    b = np.full(k, 0xEFCDAB89, np.uint32)
    c = np.full(k, 0x98BADCFE, np.uint32)
    d = np.full(k, 0x10325476, np.uint32)
    a0, b0, c0, d0 = a.copy(), b.copy(), c.copy(), d.copy()
    f = np.empty(k, np.uint32)
    x = np.empty(k, np.uint32)
    spare = np.empty(k, np.uint32)
    for r in range(64):
        # boolean mixers in their 3-op xor/and forms, all in-place
        if r < 16:
            np.bitwise_xor(c, d, out=f)
            np.bitwise_and(f, b, out=f)
            np.bitwise_xor(f, d, out=f)
            g = r
        elif r < 32:
            np.bitwise_xor(b, c, out=f)
            np.bitwise_and(f, d, out=f)
            np.bitwise_xor(f, c, out=f)
            g = (5 * r + 1) % 16
        elif r < 48:
            np.bitwise_xor(b, c, out=f)
            np.bitwise_xor(f, d, out=f)
            g = (3 * r + 5) % 16
        else:
            np.bitwise_not(d, out=f)
            np.bitwise_or(f, b, out=f)
            np.bitwise_xor(f, c, out=f)
            g = (7 * r) % 16
        f += a
        f += np.uint32(K[r])
        f += MT[g]
        s, s2 = np.uint32(S[r]), np.uint32(32 - S[r])
        rot = spare           # old `a` buffer, free after `f += a` above
        np.right_shift(f, s2, out=x)
        np.left_shift(f, s, out=rot)
        np.bitwise_or(rot, x, out=rot)
        rot += b
        a, b, c, d, spare = d, rot, b, c, a
    a0 += a
    b0 += b
    c0 += c
    d0 += d
    for w, word in enumerate((a0, b0, c0, d0)):
        for j in range(4):
            dig[:, 4 * w + j] = ((word >> np.uint32(8 * j)) &
                                 np.uint32(0xFF)).astype(np.uint8)


def md5_rank64(strings: list):
    """(hi, lo) uint64 big-endian views of ``md5_digests`` — two int
    columns whose (hi, lo) sort order equals md5 hexdigest string
    order, for cheap rank-by-hash sorts without 32-char strings."""
    import numpy as np

    dig = md5_digests(strings)
    be = dig.view(">u8").astype(np.uint64)  # (n, 2) big-endian words
    return be[:, 0], be[:, 1]


class BloomFilter:
    """Fixed-size Bloom filter over md5-hashed keys, built for the
    broadcast-prefilter pattern: constructed ONCE (driver or build
    task), ``ray.put`` once, probed vectorized per batch.  The bit
    array is a numpy uint64 vector (``m_bits/8`` bytes regardless of
    key count — 10 bits/key ≈ <1% FP with the derived k), so a
    10^9-key join side broadcasts ~1.2 GB instead of re-shipping the
    key set, and false positives only cost wasted exchange volume,
    never correctness (the join itself stays exact).

    Hashing: (hi, lo) = md5_rank64(str(key)); probe i uses the
    standard double-hash ``(hi + i*lo) mod m`` (Kirsch–Mitzenmacher),
    all probes vectorized across the batch.
    """

    def __init__(self, m_bits: int, k: int):
        import numpy as np

        if m_bits <= 0 or k <= 0:
            raise ValueError("BloomFilter: m_bits and k must be positive")
        self.m = int(m_bits)
        self.k = int(k)
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)

    @classmethod
    def sized(cls, n_keys: int, bits_per_key: int = 10) -> "BloomFilter":
        import numpy as np

        m = max(64, int(n_keys) * int(bits_per_key))
        k = max(1, int(round(0.693 * bits_per_key)))
        del np
        return cls(m, k)

    def _idx(self, col):
        import numpy as np

        import pyarrow as _pa
        import pyarrow.compute as _pc

        if not (_pa.types.is_string(col.type) or _pa.types.is_binary(col.type)
                or _pa.types.is_large_string(col.type)):
            col = _pc.cast(col, _pa.string())
        hi, lo = md5_rank64(
            col.combine_chunks() if isinstance(col, _pa.ChunkedArray)
            else col)
        m = np.uint64(self.m)
        ks = np.arange(self.k, dtype=np.uint64)[:, None]
        return (hi[None, :] + ks * lo[None, :]) % m  # (k, n)

    def add(self, col) -> None:
        import numpy as np

        idx = self._idx(col).ravel()
        np.bitwise_or.at(self.bits, (idx >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (idx & np.uint64(63)))

    def contains(self, col):
        """Vectorized membership: bool ndarray, True = maybe present."""
        import numpy as np

        idx = self._idx(col)
        word = self.bits[(idx >> np.uint64(6)).astype(np.int64)]
        hit = (word >> (idx & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=0).astype(bool)


def build_bloom_from(ds, key_col: str, *, bits_per_key: int = 10,
                     count_hint: int | None = None) -> BloomFilter:
    """Stream a dataset's ``key_col`` through a BloomFilter build: the
    driver holds only the bit array (m/8 bytes); key hashes are
    consumed batch-by-batch and discarded — never the key set."""
    n = count_hint if count_hint is not None else ds.count()
    bf = BloomFilter.sized(max(n, 1), bits_per_key)
    for b in ds.select_columns([key_col]).iter_batches(
            batch_format="pyarrow", batch_size=65536):
        col = b.column(key_col)
        if col.null_count:
            col = col.drop_null()
        if len(col):
            bf.add(col)
    return bf


def auto_num_shards(ds, *, target_shard_bytes: int = 256 << 20,
                    min_shards: int = 64, max_shards: int = 65536):
    """Byte-based fan-out sizing for :func:`shard_exchange` (the
    ``cdc/replay.py`` partition rule applied to coarse key shards):
    shards ≈ in-memory bytes ÷ ``target_shard_bytes``, floored
    at ``min_shards`` (parallelism at small scale) and capped at
    ``max_shards`` (shard-column cardinality sanity).  A constant
    fan-out is a sizing hazard — at 100× the data each shard task holds
    100× the bytes; this keeps per-shard heap bounded instead.

    Returns ``(num_shards, materialized_ds)`` — sizing requires one
    execution, so the materialized handle is returned for reuse (the
    caller was about to shuffle it anyway; the exchange is blocking
    all-to-all regardless)."""
    import math

    m = ds.materialize()
    sz = m.size_bytes() or 0
    n = int(max(min_shards,
                min(max_shards, math.ceil(sz / max(1, target_shard_bytes)))))
    return n, m


def clamp_join_partitions(requested: int) -> int:
    """Bound a ``Dataset.join`` partition count by the cluster's CPU
    count.  Ray's hash-shuffle join spins up its aggregator actor pool
    up front; requesting many more partitions than the cluster has
    CPUs can starve the pool into a hang on small clusters (measured
    on Ray 2.49: ``num_partitions=32`` on a 4-CPU local cluster never
    completes; 24 does).  Partitions beyond the CPU count add actor
    overhead, not parallelism, so the clamp also never hurts — at
    cluster scale (CPUs ≫ requested) it is the identity."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) or int(requested)
    except Exception:
        return max(2, int(requested))
    return max(2, min(int(requested), cpus))


def group_codes(keys) -> "np.ndarray":
    """Local int64 group codes for a key column (only equality matters):
    dictionary-encode + EXPLICIT null handling — null keys form one
    group (code -1), matching SQL's PARTITION BY null partition, rather
    than riding the implementation-defined NaN→int cast."""
    import numpy as np

    import pyarrow as _pa
    import pyarrow.compute as _pc

    if isinstance(keys, _pa.ChunkedArray):
        keys = keys.combine_chunks()
    idx = _pc.dictionary_encode(keys).indices
    if idx.null_count:
        idx = _pc.fill_null(idx, -1)
    return idx.to_numpy(zero_copy_only=False).astype(np.int64)


def shard_codes(keys, num_shards: int) -> "np.ndarray":
    """Deterministic hash-shard ids (int64 in [0, num_shards)) for a
    key column of any type: cast to string, md5 hi mod shards.  Null
    keys shard together (explicit sentinel, not hash-of-garbage)."""
    import numpy as np

    import pyarrow as _pa
    import pyarrow.compute as _pc

    if isinstance(keys, _pa.ChunkedArray):
        keys = keys.combine_chunks()
    if not (_pa.types.is_string(keys.type) or _pa.types.is_binary(keys.type)
            or _pa.types.is_large_string(keys.type)):
        keys = _pc.cast(keys, _pa.string())
    if keys.null_count:
        keys = _pc.fill_null(keys, "\x00<null>")
    hi, _ = md5_rank64(keys)
    return (hi % np.uint64(num_shards)).astype(np.int64)


SHARD_COL = "__shard"


def shard_key(t: pa.Table, keys: list[str]):
    """The one key rule for sharding: a single column as it is, several
    columns cast to string with nulls filled and joined by ``\x1f`` —
    equal keys (nulls included) always build equal strings."""
    if len(keys) == 1:
        return t.column(keys[0])
    return pc.binary_join_element_wise(
        *[pc.fill_null(pc.cast(t.column(k), pa.string()), "\x00")
          for k in keys], "\x1f")


def shard_exchange(ds, keys, fn, *, batch_format: str = "pyarrow"):
    """The coarse-shard keyed exchange every grouped kernel shares
    (Flink's key groups): rows hash by ``keys`` into a bounded set of
    shards and ``fn`` runs once per shard over ALL of that shard's
    keys — never one Ray group callback per key.

    One policy for every caller: the push-based shuffle, the shard
    count from :func:`auto_num_shards` (which materializes the input
    once to size it), and :func:`shard_key` for multi-column keys.
    ``fn`` gets a ``batch_format`` batch without the shard column.  An
    empty input with a known schema runs ``fn`` once on an empty batch
    of that schema, so the result carries ``fn``'s schema."""
    import ray
    import ray.data as rd

    from rayflow.ops import prefer_push_shuffle

    prefer_push_shuffle()
    keys = [keys] if isinstance(keys, str) else list(keys)
    n, m = auto_num_shards(ds)
    if m.count() == 0:
        # a batch function upstream that never saw a batch leaves
        # blocks without columns: nothing to run fn on
        refs = m.to_arrow_refs()
        empty = ray.get(refs[0]).slice(0, 0) if refs else pa.table({})
        if not empty.num_columns:
            return m
        out = fn(empty if batch_format == "pyarrow" else empty.to_pandas())
        return (rd.from_arrow(out) if isinstance(out, pa.Table)
                else rd.from_pandas(out))

    def tag(t: pa.Table) -> pa.Table:
        return t.append_column(
            SHARD_COL, pa.array(shard_codes(shard_key(t, keys), n),
                                pa.int64()))

    def run(g):
        return fn(g.drop_columns([SHARD_COL]) if batch_format == "pyarrow"
                  else g.drop(columns=[SHARD_COL]))

    return m.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True) \
        .groupby(SHARD_COL).map_groups(run, batch_format=batch_format)


def clamp_actor_concurrency(requested: int) -> int:
    """Bound an actor-pool ``map_batches`` concurrency so at least one
    CPU stays free for the pool's upstream task stage.  A fixed pool of
    N actors × 1 CPU on an N-CPU cluster starves the feeding
    ``ReadParquet``/map tasks into a DEADLOCK (measured on Ray 2.49:
    ``concurrency=2`` + an upstream read on a 2-CPU cluster never
    completes).  At cluster scale (CPUs ≫ requested) this is the
    identity."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0)) or int(requested)
    except Exception:
        return max(1, int(requested))
    return max(1, min(int(requested), cpus - 1))

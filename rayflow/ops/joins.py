"""Joins & lookups (SURVEY.md §2.5).

The reference has exactly two join shapes: the ``sequence`` input's
``sharded_join`` (offline key merge of two inputs, ``⟨upstream:
internal/impl/pure/input_sequence.go⟩``) and the ``branch``+``cache``/
``http`` enrichment lookup (``⟨upstream:
internal/impl/pure/processor_branch.go⟩``).  Ray-Data-native mappings:

- **broadcast_join** — the enrichment lookup: the small side is put in
  the object store ONCE (``ray.put``) and fetched once per worker
  *process* (module-level cache keyed by object ref), not per batch and
  not re-shipped with every task.  The big side streams through a
  vectorized pandas merge per batch as stateless tasks — elastic, and
  no actor pool that could reserve every CPU on a small node.
- **sharded_join** — both sides large: ``Dataset.join`` (hash shuffle
  on the key, Ray ≥ 2.46) through ``_hash_join``, which pads every
  block so an empty first block cannot lose a side's schema.  The
  partition count is explicit — at scale pick it so each partition's
  build side fits a worker's heap.
- **semi/anti** — ``broadcast_semi`` filters by a broadcast key set;
  ``sharded_semi`` broadcasts a right side's distinct keys up to
  ``SEMI_BROADCAST_BYTES`` and hash joins against them above it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)

#: distinct right-key bytes above which ``sharded_semi`` hash joins.
SEMI_BROADCAST_BYTES = 64 << 20

#: per-worker-process cache of fetched broadcast objects: ref.hex() → value.
#: ``ray.get`` on an already-local object is cheap, but the pandas index /
#: sorted key-set build on top of it is not — cache the derived form.
_BCAST_CACHE: dict[str, object] = {}


def _fetch(ref, derive):
    import ray

    key = ref.hex()
    if key not in _BCAST_CACHE:
        _BCAST_CACHE[key] = derive(ray.get(ref))
    return _BCAST_CACHE[key]


@register_op("broadcast_join")
def build_broadcast_join(*, small, on: list[str], right_on: list[str] | None = None,
                         how: str = "left", suffix: str = "_r"):
    """``small`` may be a pa.Table / pandas DataFrame (will be ray.put)
    or an existing ObjectRef.

    Hot path is Arrow-native: ``pc.index_in`` on the key + ``take`` on
    the small table, appending columns to the (zero-copy) left batch —
    no pandas round-trip, which on string-heavy batches costs a full
    copy each way.  Falls back to a pandas merge only for multi-key
    joins, duplicate-key small sides (index_in finds first match only),
    or join types beyond left/inner."""
    import ray

    small_ref = small if isinstance(small, ray.ObjectRef) else ray.put(small)
    ron = right_on or on

    def _joinable(t: pa.DataType) -> bool:
        return pa.types.is_integer(t) or pa.types.is_string(t) or \
            pa.types.is_large_string(t)

    def _composite(tbl: pa.Table, cols: list[str]):
        # multi-key → one separator-joined string key (types restricted
        # to int/string so the textual form is side-independent)
        return pc.binary_join_element_wise(
            *[pc.cast(tbl[c], pa.string()) for c in cols], "\x1f"
        ).combine_chunks()

    def derive(obj):
        tbl = obj if isinstance(obj, pa.Table) else pa.Table.from_pandas(
            obj, preserve_index=False)
        if how in ("left", "inner") and \
                all(_joinable(tbl.schema.field(c).type) for c in ron):
            keys = (tbl.column(ron[0]).combine_chunks()
                    if len(ron) == 1 else _composite(tbl, ron))
            if keys.null_count == 0 and \
                    pc.count_distinct(keys).as_py() == len(keys):
                return ("arrow", tbl, keys)
        return ("pandas", tbl.to_pandas())

    def merge(batch: pa.Table) -> pa.Table:
        cached = _fetch(small_ref, derive)
        if cached[0] == "arrow" and (
            len(on) > 1
            or all(_joinable(batch.schema.field(c).type) for c in on)
        ):
            _, tbl, keys = cached
            if len(on) == 1:
                key_col = batch.column(on[0])
                if key_col.type != keys.type:
                    key_col = pc.cast(key_col, keys.type)
            else:
                key_col = _composite(batch, on)
            idx = pc.index_in(key_col, value_set=keys)
            if how == "inner":
                valid = pc.is_valid(idx)
                batch = batch.filter(valid)
                idx = idx.filter(valid)
            gathered = tbl.take(idx)  # null indices → null rows (left join)
            out = batch
            for name in tbl.column_names:
                if name in ron or name in on:
                    continue  # key columns already present on the left
                col = gathered.column(name)
                out_name = name + suffix if name in batch.column_names else name
                out = out.append_column(out_name, col)
            return out
        # pandas fallback; a cached arrow-form small side converts here
        # (only hit when the LEFT key types are non-joinable)
        small_pd = cached[1].to_pandas() if cached[0] == "arrow" else cached[1]
        left = batch.to_pandas()
        merged = left.merge(
            small_pd, how=how, left_on=on, right_on=ron, suffixes=("", suffix)
        )
        dup = [c for c in ron if c not in on and c in merged.columns]
        if dup:
            merged = merged.drop(columns=dup)
        return pa.Table.from_pandas(merged, preserve_index=False)

    def apply(ds):
        return ds.map_batches(merge, batch_format="pyarrow", zero_copy_batch=True)

    return apply


@register_op("cross_join")
def build_cross_join(*, small, suffix: str = "_r",
                     broadcast_bytes_limit: int = 64 << 20,
                     out_chunk_rows: int = 65536):
    """CROSS JOIN (cartesian product) with a broadcast right side.

    The right side must be genuinely small — a cross join's output is
    |left| x |right| rows, so a large right side is an outer-product
    explosion no engine should run silently; sides above
    ``broadcast_bytes_limit`` fail loud.  The left streams: each batch
    emits its product in ``out_chunk_rows``-bounded chunks (generator
    ``map_batches``), so the per-task heap stays bounded no matter how
    the batch x right product blows up.  Name collisions on the right
    get ``suffix``."""
    import ray

    if not isinstance(small, ray.ObjectRef):
        tbl = small if isinstance(small, pa.Table) else pa.Table.from_pandas(
            small, preserve_index=False)
        if tbl.nbytes > broadcast_bytes_limit:
            raise ValueError(
                f"cross_join: right side is {tbl.nbytes >> 20} MiB "
                f"(> {broadcast_bytes_limit >> 20} MiB) — a cartesian "
                f"product against a side this large is almost always a "
                f"mistake; pre-aggregate or raise broadcast_bytes_limit")
        small_ref = ray.put(tbl)
    else:
        small_ref = small

    def product(batch: pa.Table):
        right = _fetch(small_ref, lambda v: v)
        n, m = batch.num_rows, right.num_rows
        if n == 0 or m == 0:
            out = batch.slice(0, 0)
            empty_r = right.slice(0, 0)
            for name in right.column_names:
                out_name = name + suffix if name in out.column_names else name
                out = out.append_column(out_name, empty_r.column(name))
            yield out
            return
        rows_per_slice = max(1, out_chunk_rows // m)
        for start in range(0, n, rows_per_slice):
            part = batch.slice(start, rows_per_slice)
            k = part.num_rows
            left_idx = np.repeat(np.arange(k, dtype=np.int64), m)
            right_idx = np.tile(np.arange(m, dtype=np.int64), k)
            out = part.take(pa.array(left_idx))
            gathered = right.take(pa.array(right_idx))
            for name in right.column_names:
                out_name = name + suffix if name in out.column_names else name
                out = out.append_column(out_name, gathered.column(name))
            yield out

    def apply(ds):
        return ds.map_batches(product, batch_format="pyarrow",
                              zero_copy_batch=True)

    return apply


@register_op("broadcast_semi")
def build_broadcast_semi(*, keys_ref, on: str, anti: bool = False):
    """Semi/anti join: broadcast the key set, vectorized membership filter."""
    import ray

    ref = keys_ref if isinstance(keys_ref, ray.ObjectRef) else ray.put(keys_ref)

    def derive(keys):
        return keys if isinstance(keys, pa.Array) else pa.array(sorted(set(keys)))

    def fn(t: pa.Table) -> pa.Table:
        value_set = _fetch(ref, derive)
        mask = pc.is_in(t.column(on), value_set=value_set)
        if anti:
            mask = pc.invert(mask)
        return t.filter(mask)

    def apply(ds):
        return ds.map_batches(fn, **_PA_KW)

    return apply


def _bloom_prefilter(ds, right, on: str, right_key: str,
                     bits_per_key: int, anti: bool):
    """Split ``ds`` by a broadcast Bloom of the right side's keys:
    returns ``(candidates, definite)`` where ``candidates`` must still
    go through the exact join and ``definite`` already has its answer
    (empty for semi; the guaranteed-absent rows for anti — a bloom miss
    proves absence, so those rows skip the exchange entirely).  False
    positives only inflate ``candidates`` — correctness is untouched.
    NULL keys never equal anything in SQL: they are definite-pass for
    anti and definite-drop for semi."""
    import ray

    from rayflow.ops.kernels import build_bloom_from

    bloom_ref = ray.put(build_bloom_from(right, right_key,
                                         bits_per_key=bits_per_key))

    def split(keep_maybe: bool):
        def fn(t: pa.Table) -> pa.Table:
            bf = _fetch(bloom_ref, lambda b: b)
            col = t.column(on)
            valid = np.asarray(pc.is_valid(col))
            maybe = np.zeros(t.num_rows, dtype=bool)
            if valid.any():
                got = bf.contains(
                    col.combine_chunks().drop_null()
                    if isinstance(col, pa.ChunkedArray) else col.drop_null())
                maybe[np.flatnonzero(valid)] = got
            return t.filter(pa.array(maybe if keep_maybe else ~maybe))

        return fn

    candidates = ds.map_batches(split(True), **_PA_KW)
    definite = ds.map_batches(split(False), **_PA_KW) if anti else None
    return candidates, definite


def _hash_join(left, right, *, join_type: str, on, right_on,
               num_partitions: int):
    """``Dataset.join`` that survives empty blocks.  Ray's hash join
    (2.49) takes a side's schema from its first block only; if that
    block is empty (after a filter or bloom prefilter), partitions that
    get no row of the side have no columns and the join raises.  So
    every block of both sides gets one all-null row (fields relaxed to
    nullable).  A null key matches nothing; where the join keeps a
    side's unmatched rows, a bool tag marks its pads and they are
    dropped after the join."""
    from rayflow.ops.kernels import clamp_join_partitions

    def pad(tag):
        def fn(t: pa.Table) -> pa.Table:
            schema = pa.schema([f.with_nullable(True) for f in t.schema],
                               metadata=t.schema.metadata)
            t = pa.concat_tables([
                pa.Table.from_arrays(t.columns, schema=schema),
                pa.Table.from_arrays([pa.nulls(1, f.type) for f in schema],
                                     schema=schema)])
            if tag:
                t = t.append_column(
                    tag, pa.array(np.arange(t.num_rows) == t.num_rows - 1))
            return t

        return fn

    # pads of a side survive only where its unmatched rows are kept
    ltag = "__pad_l" if join_type in (
        "left_outer", "full_outer", "left_anti") else None
    rtag = "__pad_r" if join_type in (
        "right_outer", "full_outer", "right_anti") else None

    def unpad(t: pa.Table) -> pa.Table:
        tags = [c for c in (ltag, rtag) if c in t.column_names]
        for c in tags:
            t = t.filter(pc.invert(pc.fill_null(t.column(c), False)))
        return t.drop_columns(tags)

    joined = left.map_batches(pad(ltag), **_PA_KW).join(
        right.map_batches(pad(rtag), **_PA_KW), join_type=join_type,
        num_partitions=clamp_join_partitions(num_partitions),
        on=tuple(on), right_on=tuple(right_on) if right_on else None)
    return joined.map_batches(unpad, **_PA_KW) if ltag or rtag else joined


@register_op("sharded_semi")
def build_sharded_semi(*, right, on: str, right_on: str | None = None,
                       anti: bool = False, num_partitions: int = 16,
                       bloom_bits_per_key: int | None = None):
    """Semi/anti join with NO size assumption on either side.  The right
    side is reduced to its distinct non-null keys and materialized, so
    it runs once (on the join path too: the object store spills a key
    set larger than memory).  Up to ``SEMI_BROADCAST_BYTES`` the key set is
    broadcast and each left batch is filtered by ``pc.is_in`` in a
    stateless task (``broadcast_semi``).  Above it the keys, with a
    count column as marker, are LEFT-OUTER hash joined
    (``_hash_join``) and the marker's presence is the filter.  Left
    columns pass through unchanged; a null left key never matches, so
    semi drops it and anti keeps it.

    ``bloom_bits_per_key`` (join path only) broadcasts a Bloom filter
    of the keys (m/8 bytes) and prefilters the left side BEFORE the
    exchange: semi ships only maybe-members; anti resolves bloom misses
    with no exchange.  False positives ride the exchange and are
    filtered there, so the join stays exact."""

    def apply(ds):
        import ray

        from rayflow.ops import build_op
        from rayflow.ops.kernels import collect_table

        rk = right_on or on
        # renamed: Dataset.join rejects a column name present on both sides
        keys = build_op({
            "op": "group_agg", "keys": ["__semi_k"],
            "aggs": [("count", None, "__semi_n")],
        })(right.map_batches(
            lambda t: pa.table({"__semi_k": pc.drop_null(t.column(rk))}),
            **_PA_KW)).materialize()
        if keys.size_bytes() <= SEMI_BROADCAST_BYTES:
            kt = collect_table(keys)
            if kt.num_rows == 0:  # no right key: anti keeps all, semi none
                return ds if anti else ds.map_batches(
                    lambda t: t.slice(0, 0), **_PA_KW)
            return build_broadcast_semi(
                keys_ref=ray.put(kt.column("__semi_k").combine_chunks()),
                on=on, anti=anti)(ds)
        definite = None
        if bloom_bits_per_key:
            ds, definite = _bloom_prefilter(
                ds, keys, on, "__semi_k", bloom_bits_per_key, anti)

        def finish(t: pa.Table) -> pa.Table:
            mask = pc.is_valid(t.column("__semi_n"))
            if anti:
                mask = pc.invert(mask)
            out = t.filter(mask)
            return out.drop_columns([c for c in ("__semi_k", "__semi_n")
                                     if c in out.column_names])

        out = _hash_join(ds, keys, join_type="left_outer", on=(on,),
                         right_on=("__semi_k",),
                         num_partitions=num_partitions).map_batches(
            finish, **_PA_KW)
        if definite is not None:
            out = out.union(definite)  # bloom-miss rows: proven absent
        return out

    return apply


@register_op("sharded_join")
def build_sharded_join(*, right, on: list[str], right_on: list[str] | None = None,
                       how: str = "inner", num_partitions: int = 16,
                       strategy: str = "shuffle",
                       broadcast_bytes_limit: int = 64 << 20,
                       bloom_bits_per_key: int | None = None):
    """Large-large hash join (the ``sharded_join`` sequence input):
    both sides shuffled on the key into ``num_partitions`` shards, merged
    shard-wise.  Uses ``Dataset.join``; sizing rule at scale: shard count
    ≥ build-side bytes / worker heap budget.

    ``strategy="auto"`` sizes the right side first (materialize +
    ``size_bytes``) and, when it fits ``broadcast_bytes_limit`` and the
    join is inner/left, switches to the broadcast path — the planner
    decision every engine makes for a dim-table join; the exchange is
    avoided entirely.  Default stays ``"shuffle"`` (explicit is better
    for a bench surface).

    ``bloom_bits_per_key`` (opt-in, inner single-key joins): broadcast
    a Bloom of the right keys and drop left rows with no possible match
    BEFORE the exchange — in a selective fact⋈filtered-dim join most of
    the fact side never ships.  Exactness is untouched (false positives
    still join and miss)."""

    # normalize SQL shorthands once so every branch (auto-broadcast
    # gate included) sees one spelling
    how = {"left_outer": "left", "right_outer": "right",
           "outer": "full_outer", "full": "full_outer"}.get(how, how)
    if bloom_bits_per_key and (how != "inner" or len(on) != 1):
        raise ValueError("sharded_join: bloom_bits_per_key needs an "
                         "inner single-key join (other shapes keep "
                         "unmatched left rows)")

    def apply(ds):
        r = right
        if bloom_bits_per_key:
            ds, _ = _bloom_prefilter(
                ds, r, on[0], (right_on or on)[0], bloom_bits_per_key,
                anti=False)
        if strategy == "auto" and how in ("inner", "left"):
            r = r.materialize()
            if (r.size_bytes() or 0) <= broadcast_bytes_limit:
                from rayflow.ops.kernels import collect_table

                small = collect_table(r)
                if small.num_rows or small.num_columns:
                    return build_broadcast_join(
                        small=small, on=on, right_on=right_on, how=how)(ds)
        # Dataset.join takes *_outer names
        jt = {"left": "left_outer", "right": "right_outer"}.get(how, how)
        return _hash_join(ds, r, join_type=jt, on=on, right_on=right_on,
                          num_partitions=num_partitions)

    return apply


def _tag_union_align(left_ds, right_ds, all_cols, ren, tag_col):
    """Shared co-location scaffolding for the custom joins: suffix-
    rename the right side, align both sides to the union schema
    (missing columns become typed nulls), tag rows, union."""

    def _align(tag):
        def fn(t: pa.Table) -> pa.Table:
            if tag == "r":
                t = t.rename_columns([ren[c] for c in t.column_names])
            n = t.num_rows
            cols, names = [], []
            for name, typ in all_cols.items():
                names.append(name)
                cols.append(t.column(name) if name in t.column_names
                            else pa.nulls(n, typ))
            names.append(tag_col)
            cols.append(pa.array([tag] * n, pa.string()))
            return pa.Table.from_arrays(cols, names=names)

        return fn

    lt = left_ds.map_batches(_align("l"), **_PA_KW)
    rt = right_ds.map_batches(_align("r"), **_PA_KW)
    return lt.union(rt)


def _detect_hot_keys(ds, on: str, *, sample_fraction: float = 0.05,
                     min_share: float = 0.125, seed: int = 42) -> list:
    """Seeded sampled heavy-key scan of the left side: keys holding at
    least ``min_share`` of the sampled rows.  One cheap extra pass;
    only used when a join opts into ``auto_salt``."""
    from rayflow.ops.kernels import collect_table

    s = ds.random_sample(sample_fraction, seed=seed)

    def cnt(t: pa.Table) -> pa.Table:
        return t.select([on]).group_by([on]).aggregate([([], "count_all")])

    tbl = collect_table(s.map_batches(cnt, **_PA_KW).materialize())
    if not tbl.num_rows:
        return []
    g = tbl.group_by([on]).aggregate([("count_all", "sum")])
    counts = g["count_all_sum"].to_numpy(zero_copy_only=False)
    total = counts.sum()
    keep = counts >= max(1.0, min_share * total)
    return [v for v, k in zip(g[on].to_pylist(), keep) if k]


def _salted_map_groups(both, *, on: str, side_col: str, salt_keys,
                       num_salts: int, per_shard):
    """Key-grouped execution with optional hot-key salting (the CDC
    merge's salt-then-re-merge, applied to the join co-location
    exchange).  ``per_shard`` is an ARROW kernel over a co-located
    slice — it must handle any number of keys (segmented sweeps), so
    the same kernel serves both the coarse-shard path and the salted
    per-group path (a salt group is just a one-key shard).

    Hot LEFT rows are spread round-robin across ``num_salts``
    sub-groups; hot RIGHT rows (the state history / interval set every
    left row must see) are REPLICATED into every sub-group, so each
    sub-group computes exactly the rows its left slice would have
    produced unsalted — the result set is identical, but the hot key's
    work lands on ``num_salts`` tasks instead of one straggler.
    Replication cost: (num_salts - 1) extra copies of the hot keys'
    right rows only."""
    from rayflow.ops import prefer_push_shuffle

    if not salt_keys or num_salts <= 1:
        # COARSE shards, not one Ray group per key: each shard resolves
        # all its keys in ONE segmented Arrow kernel — at corpus scale
        # (millions of keys) per-key Ray group callbacks are the
        # bottleneck, same reasoning as minhash's bucket groups
        from rayflow.ops.kernels import shard_exchange

        return shard_exchange(both, on, per_shard)

    import numpy as np

    prefer_push_shuffle()
    hot_strs = sorted({str(v) for v in salt_keys})

    def add_salt(t: pa.Table) -> pa.Table:
        key_str = pc.fill_null(pc.cast(t.column(on), pa.string()),
                               "\x00null")
        if t.num_rows == 0:
            return t.append_column("_gk", key_str)
        hot = pc.fill_null(
            pc.is_in(key_str, value_set=pa.array(hot_strs, pa.string())),
            False).to_numpy(zero_copy_only=False)
        is_r = pc.fill_null(pc.equal(t.column(side_col), "r"),
                            False).to_numpy(zero_copy_only=False)
        # salt values don't affect the result (any split of left rows is
        # valid), so round-robin is both balanced and type-agnostic
        salt = np.where(hot & ~is_r,
                        np.arange(t.num_rows, dtype=np.int64) % num_salts, 0)
        salt_str = pa.array(np.char.mod("%d", salt))
        gk = pc.binary_join_element_wise(key_str, salt_str, "#")
        base = t.append_column("_gk", gk).filter(
            pa.array(~(hot & is_r)))
        out = [base]
        hot_r = t.filter(pa.array(hot & is_r))
        if hot_r.num_rows:
            hr_key = pc.fill_null(pc.cast(hot_r.column(on), pa.string()),
                                  "\x00null")
            for s in range(num_salts):
                gk_s = pc.binary_join_element_wise(hr_key, str(s), "#")
                out.append(hot_r.append_column("_gk", gk_s))
        return pa.concat_tables(out, promote_options="default")

    salted = both.map_batches(add_salt, **_PA_KW)

    def wrapper(g: pa.Table) -> pa.Table:
        return per_shard(g.drop_columns(["_gk"]))

    return salted.groupby("_gk").map_groups(wrapper,
                                            batch_format="pyarrow")


@register_op("asof_join")
def build_asof_join(*, right, on: str, time_col: str,
                    direction: str = "backward", suffix: str = "_r",
                    strategy: str = "auto",
                    broadcast_bytes_limit: int = 64 << 20,
                    salt_keys: list | None = None, num_salts: int = 8,
                    auto_salt: bool = False):
    """As-of join — each left row picks the right row with the latest
    ``time_col`` ≤ its own (``direction="backward"``; ``"forward"`` =
    earliest ≥) within the same ``on`` key.  The enrichment shape Ray
    Data has no primitive for (DuckDB: ``ASOF JOIN``): events joined to
    the dimension state that was current when they happened.

    Two plans, picked by ``strategy`` (same planner rule as
    sharded_join):

    - **broadcast** (``"auto"`` when the right side fits
      ``broadcast_bytes_limit``): the right side — typically the small,
      dim-like "state history" — is sorted per key once, broadcast via
      ``ray.put``, and every left batch resolves with per-key binary
      searches.  ZERO exchanges; the left side never moves.
    - **shuffle** (``"shuffle"``, or auto when the right side is big):
      tag both sides, align schemas (missing columns are typed nulls),
      union, then ONE hash exchange — coarse hash(key) shards
      (:func:`~rayflow.ops.kernels.shard_exchange`) where the WHOLE
      shard resolves in one segmented Arrow sweep: lexsort by
      (key, time, side), then a run-encoded ``maximum.accumulate``
      carries each left row's latest visible right row — no per-key
      Python, no pandas round-trip, right values gathered with typed
      Arrow takes.  Hot keys: pass ``salt_keys=[...]`` (or
      ``auto_salt=True`` for a seeded sampled heavy-key scan) to
      spread each listed key over ``num_salts`` sub-groups — left
      rows split round-robin, right state history replicated per
      salt; identical results, no straggler task.

    Ties on equal ``time_col`` within a key resolve: ``backward`` to
    the LAST right row in (time, original-order), ``forward`` to the
    FIRST (pandas ``merge_asof`` semantics); pre-dedupe the right
    side on (key, time) for engine-independent determinism.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"asof_join: bad direction {direction!r}")

    def apply_broadcast(ds, rt_small: pa.Table, ren, out_right):
        import ray

        rt_small = rt_small.rename_columns(
            [ren[c] for c in rt_small.column_names])
        right_names = list(out_right)

        def derive(tbl: pa.Table):
            df = tbl.to_pandas().sort_values([on, time_col], kind="stable")
            index: dict = {}
            for key, g in df.groupby(on, sort=False):
                index[key] = (g[time_col].to_numpy(),
                              g[right_names].reset_index(drop=True))
            return index

        ref = ray.put(rt_small)

        def fn(batch: pa.Table) -> pa.Table:
            import numpy as np
            import pandas as pd

            idx = _fetch(ref, derive)
            keys = batch.column(on).to_numpy(zero_copy_only=False)
            times = batch.column(time_col).to_numpy(zero_copy_only=False)
            n = batch.num_rows
            out_cols = {}
            # one stable argsort groups the batch by key: each distinct
            # key is a contiguous run — O(n log n) total, not
            # O(distinct_keys × n) full-batch scans
            codes, uniques = pd.factorize(keys, use_na_sentinel=False)
            order = np.argsort(codes, kind="stable")
            run_starts = np.flatnonzero(
                np.diff(codes[order], prepend=-1_000_000_000)) \
                if n else np.array([], dtype=np.int64)
            run_bounds = np.append(run_starts, n)
            for r in range(len(run_starts)):
                sel = order[run_bounds[r]:run_bounds[r + 1]]
                hit = idx.get(uniques[codes[order[run_bounds[r]]]])
                if hit is None:
                    continue
                rt_times, rows = hit
                if direction == "backward":
                    pos = np.searchsorted(rt_times, times[sel], side="right") - 1
                else:
                    pos = np.searchsorted(rt_times, times[sel], side="left")
                    pos[pos >= len(rt_times)] = -1
                valid = pos >= 0
                # stash gathered right values per output column
                for c in right_names:
                    col = out_cols.setdefault(
                        c, np.full(n, None, dtype=object))
                    vals = rows[c].to_numpy()
                    col[sel[valid]] = vals[pos[valid]]
            t = batch
            for c in right_names:
                vals = out_cols.get(c, np.full(n, None, dtype=object))
                t = t.append_column(
                    c, pa.array(list(vals), type=out_right[c]))
            return t

        return ds.map_batches(fn, **_PA_KW)

    def apply(ds):
        left_schema = ds.schema()
        rt = right
        right_schema = rt.schema()
        if right_schema is None:
            # lazy plans (e.g. a row filter) may not know their schema
            # yet — execute once; 0-row blocks still carry the schema
            rt = rt.materialize()
            right_schema = rt.schema()
        if right_schema is None:
            # genuinely schema-less empty right (from_items([])): the
            # right column set is unknowable, so the join is the identity
            return ds
        left_cols = dict(zip(left_schema.names, left_schema.types))
        right_cols = dict(zip(right_schema.names, right_schema.types))
        # right columns that collide with left (other than key/time) are
        # suffixed, as a pandas merge would
        ren = {c: (c + suffix if c in left_cols and c not in (on, time_col)
                   else c) for c in right_cols}
        out_right = {ren[c]: t for c, t in right_cols.items()
                     if c not in (on, time_col)}
        all_cols = {**left_cols, **out_right}

        if strategy == "auto":
            rm = rt.materialize()
            if (rm.size_bytes() or 0) <= broadcast_bytes_limit:
                from rayflow.ops.kernels import collect_table

                small = collect_table(rm)
                return apply_broadcast(ds, small, ren, out_right)

        both = _tag_union_align(ds, rt, all_cols, ren, "_asof_side")
        out_names = list(all_cols)
        right_names = list(out_right)

        def asof_shard(g: pa.Table) -> pa.Table:
            # segmented sweep over the whole co-located shard: encode
            # (key-run, sorted-pos) so one maximum.accumulate carries
            # "latest right row seen" across every key at once —
            # O(n log n), zero per-key Python, typed Arrow gathers
            from rayflow.ops.kernels import group_codes

            n = g.num_rows
            left_mask = pc.equal(g.column("_asof_side"), "l")
            is_l = left_mask.to_numpy(zero_copy_only=False)
            if n == 0 or is_l.all() or not is_l.any():
                # no right rows → left rows pass through (right cols
                # already typed nulls); no left rows → typed empty
                return g.filter(left_mask).select(out_names)
            kidx = group_codes(g.column(on))
            tcol = g.column(time_col)
            if pa.types.is_timestamp(tcol.type):
                # int64 ns end to end (fill_null keeps the int dtype —
                # a single null would force float64 and ~200 ns
                # rounding at current epoch values)
                times = pc.fill_null(
                    pc.cast(pc.cast(tcol, pa.timestamp("ns")),
                            pa.int64()), 0) \
                    .to_numpy(zero_copy_only=False)
            else:
                times = tcol.to_numpy(zero_copy_only=False)
            pos = np.arange(n, dtype=np.int64)
            if direction == "backward":
                tkey, tie = times, pos
            else:
                # forward = backward over reversed time; reversed tie
                # order makes equal-time rights resolve to the FIRST
                # original occurrence (merge_asof parity)
                tkey, tie = -times, -pos
            side_rank = is_l.astype(np.int8)  # right (0) before left
            o = np.lexsort((tie, side_rank, tkey, kidx))
            ks, isl_o = kidx[o], is_l[o]
            run_id = np.cumsum(
                np.concatenate(([True], ks[1:] != ks[:-1]))) - 1
            # encoded scan: value = run_id*(n+1) + (sorted_pos if right
            # else -1).  Any previous run's max ≤ run_id*(n+1) - 1, so
            # rel < 0 decodes unambiguously to "no right row yet"
            spos = np.arange(n, dtype=np.int64)
            val = run_id * np.int64(n + 1) + np.where(isl_o, -1, spos)
            rel = np.maximum.accumulate(val) - run_id * np.int64(n + 1)
            lsel = np.flatnonzero(isl_o)
            l_orig = o[lsel]
            matched = rel[lsel] >= 0
            r_orig = np.where(matched,
                              o[np.clip(rel[lsel], 0, n - 1)], 0)
            taken_l = g.take(pa.array(l_orig, pa.int64()))
            ridx = pa.array(r_orig, pa.int64(),
                            mask=~matched)  # null index → null row
            cols = {}
            for name in out_names:
                cols[name] = (g.column(name).take(ridx)
                              if name in out_right
                              else taken_l.column(name))
            return pa.table(cols)

        hot = list(salt_keys or [])
        if auto_salt and not hot:
            hot = _detect_hot_keys(ds, on)
        return _salted_map_groups(both, on=on, side_col="_asof_side",
                                  salt_keys=hot, num_salts=num_salts,
                                  per_shard=asof_shard)

    return apply


@register_op("interval_join")
def build_interval_join(*, right, on: str, time_col: str,
                        start_col: str, end_col: str, suffix: str = "_r",
                        salt_keys: list | None = None, num_salts: int = 8,
                        auto_salt: bool = False):
    """Range (interval) join: INNER-join each left row to every right
    interval ``[start_col, end_col]`` that contains its ``time_col``,
    within the same ``on`` key — the event-in-window enrichment
    (DuckDB: a plain inequality join; Ray Data has no primitive).

    Same co-location plan as :func:`build_asof_join` — tag, align,
    union, ONE hash exchange (byte-sized coarse shards), segmented
    Arrow sweep per shard.  Left times sort once per key run; ALL of a
    key's intervals resolve in ONE batched pair of ``searchsorted``
    calls, pairs built with ``np.repeat`` offset arithmetic — the loop
    is over key RUNS only, cost O(intervals·log rows + output pairs),
    never the cross product and never per-interval Python.  Hot keys:
    ``salt_keys`` / ``auto_salt`` spread a listed key over
    ``num_salts`` sub-groups (left rows split, intervals replicated) —
    same results, no straggler task.
    """
    import numpy as np

    def apply(ds):
        left_schema = ds.schema()
        right_schema = right.schema()
        if right_schema is None:
            # schema-less empty right: inner semantics → no pairs
            return ds.limit(0)
        left_cols = dict(zip(left_schema.names, left_schema.types))
        right_cols = dict(zip(right_schema.names, right_schema.types))
        ren = {c: (c + suffix if c in left_cols and c != on else c)
               for c in right_cols}
        out_right = {ren[c]: t for c, t in right_cols.items() if c != on}
        all_cols = {**left_cols, **out_right}
        rstart, rend = ren[start_col], ren[end_col]

        both = _tag_union_align(ds, right, all_cols, ren, "_iv_side")
        left_names = list(left_cols)
        right_names = list(out_right)
        out_names = left_names + right_names

        def _np_times(col):
            # int64 ns with nulls FILLED (the union-align pads the
            # other side's rows with typed nulls; a float64 fallback
            # would cost ~200 ns rounding at current epoch values).
            # Filled sentinels sit only on rows the sweep never indexes
            # (time on right rows, start/end on left rows).
            if pa.types.is_timestamp(col.type):
                return pc.fill_null(
                    pc.cast(pc.cast(col, pa.timestamp("ns")),
                            pa.int64()), 0).to_numpy(zero_copy_only=False)
            return col.to_numpy(zero_copy_only=False)

        def interval_shard(g: pa.Table) -> pa.Table:
            from rayflow.ops.kernels import group_codes

            n = g.num_rows
            left_mask = pc.equal(g.column("_iv_side"), "l")
            is_l = left_mask.to_numpy(zero_copy_only=False)
            empty = g.filter(pa.array(np.zeros(n, bool))).select(out_names)
            if n == 0 or is_l.all() or not is_l.any():
                return empty
            kidx = group_codes(g.column(on))
            if (kidx < 0).any():   # null keys: one ordinary group
                kidx = kidx.copy()
                kidx[kidx < 0] = kidx.max() + 1
            times = _np_times(g.column(time_col))
            starts = _np_times(g.column(rstart))
            ends = _np_times(g.column(rend))
            l_idx = np.flatnonzero(is_l)
            r_idx = np.flatnonzero(~is_l)
            # left rows sorted by (key, time): per-key runs of sorted
            # times, searchsorted-able per segment
            lo_ord = np.lexsort((times[l_idx], kidx[l_idx]))
            l_sorted = l_idx[lo_ord]
            lk, ltimes = kidx[l_sorted], times[l_sorted]
            l_run_start = np.flatnonzero(
                np.concatenate(([True], lk[1:] != lk[:-1])))
            l_run_end = np.append(l_run_start[1:], len(lk))
            # key code → left run index (dense array lookup)
            nk = int(kidx.max()) + 1
            run_of_key = np.full(nk, -1, np.int64)
            run_of_key[lk[l_run_start]] = np.arange(len(l_run_start))
            # right intervals grouped by key: one batched searchsorted
            # pair PER KEY RUN, pairs built with repeat+offset math
            r_ord = np.argsort(kidx[r_idx], kind="stable")
            r_sorted = r_idx[r_ord]
            rk = kidx[r_sorted]
            r_run_start = np.flatnonzero(
                np.concatenate(([True], rk[1:] != rk[:-1])))
            r_run_end = np.append(r_run_start[1:], len(rk))
            li_parts, ri_parts = [], []
            for rs, re in zip(r_run_start, r_run_end):
                run = run_of_key[rk[rs]]
                if run < 0:
                    continue
                ls, le = l_run_start[run], l_run_end[run]
                seg = ltimes[ls:le]
                rows = r_sorted[rs:re]
                lo = np.searchsorted(seg, starts[rows], side="left")
                hi = np.searchsorted(seg, ends[rows], side="right")
                cnt = hi - lo
                total = int(cnt.sum())
                if not total:
                    continue
                offs = np.repeat(np.cumsum(cnt) - cnt, cnt)
                ar = np.arange(total, dtype=np.int64)
                li_parts.append(ls + np.repeat(lo, cnt) + (ar - offs))
                ri_parts.append(np.repeat(rows, cnt))
            if not li_parts:
                return empty
            l_pairs = l_sorted[np.concatenate(li_parts)]
            r_pairs = np.concatenate(ri_parts)
            taken_l = g.take(pa.array(l_pairs, pa.int64()))
            ridx = pa.array(r_pairs, pa.int64())
            cols = {}
            for name in out_names:
                cols[name] = (g.column(name).take(ridx)
                              if name in out_right
                              else taken_l.column(name))
            return pa.table(cols)

        hot = list(salt_keys or [])
        if auto_salt and not hot:
            hot = _detect_hot_keys(ds, on)
        return _salted_map_groups(both, on=on, side_col="_iv_side",
                                  salt_keys=hot, num_salts=num_salts,
                                  per_shard=interval_shard)

    return apply

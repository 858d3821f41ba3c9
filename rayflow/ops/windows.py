"""Event-time windows — the ``system_window`` buffer analogue.

The reference's only streaming-window primitive is the ``system_window``
buffer (tumbling/sliding event-time windows with ``timestamp_mapping``
and ``allowed_lateness``, ``⟨upstream:
internal/impl/pure/buffer_system_window.go⟩``).  Ray Data has no
watermarks; for a *bounded* replay the exact equivalent is event-time
bucketing + a keyed aggregate (SURVEY.md §2.4):

- tumbling(size): ``bucket = floor(epoch / size)`` → groupby(bucket,…)
- sliding(size, slide): each row belongs to ``size/slide`` buckets →
  vectorized row replication (repeat + take), then the same groupby
- allowed_lateness on replay: rows with ``ts < max_seen_ts - lateness``
  per key are *late*; with bounded data this reduces to a filter against
  the per-key max timestamp (two-pass: tiny max-aggregate broadcast,
  then filter).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op
from rayflow.ops.kernels import group_codes, shard_exchange, shard_key

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)


def _epoch_us(col) -> pc.Expression | pa.ChunkedArray:
    return pc.cast(pc.cast(col, pa.timestamp("us")), pa.int64())


def add_tumbling_bucket(t: pa.Table, ts_col: str, size_s: float,
                        out: str = "window_start") -> pa.Table:
    """Append the window start (as timestamp[us]) for a tumbling window."""
    us = _epoch_us(t.column(ts_col))
    size_us = int(size_s * 1e6)
    start = pc.multiply(
        pc.cast(
            pc.floor(pc.divide(pc.cast(us, pa.float64()), size_us)), pa.int64()
        ),
        size_us,
    )
    return t.append_column(out, pc.cast(start, pa.timestamp("us")))


@register_op("window_tumbling")
def build_window_tumbling(*, ts_col: str, size_s: float,
                          keys: list[str] | None = None,
                          aggs: list[tuple[str, str | None, str]] | None = None,
                          out: str = "window_start"):
    keys = keys or []

    def apply(ds):
        ds = ds.map_batches(
            lambda t: add_tumbling_bucket(t, ts_col, size_s, out), **_PA_KW
        )
        if not aggs:
            return ds
        from rayflow.ops.core import build_group_agg

        return build_group_agg(keys=[out] + keys, aggs=aggs)(ds)

    return apply


def explode_sliding(t: pa.Table, ts_col: str, size_s: float, slide_s: float,
                    out: str = "window_start") -> pa.Table:
    """Replicate each row into every sliding window containing it.

    Vectorized: per-row window count is constant (= size/slide for
    aligned windows); rows are repeated via a take on repeated parent
    indices.  A row with time t is in windows starting at
    ``slide*k ∈ (t - size, t]``."""
    us = _epoch_us(t.column(ts_col)).to_numpy()
    size_us, slide_us = int(size_s * 1e6), int(slide_s * 1e6)
    first = ((us - size_us) // slide_us + 1) * slide_us  # first window start > t-size
    last = (us // slide_us) * slide_us                   # last window start <= t
    counts = ((last - first) // slide_us + 1).astype(np.int64)
    parents = np.repeat(np.arange(len(us), dtype=np.int64), counts)
    # per-replica window index, fully vectorized (no per-row Python)
    ends = np.cumsum(counts)
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        ends - counts, counts
    )
    starts = first[parents] + offsets * slide_us
    rep = t.take(pa.array(parents))
    return rep.append_column(out, pa.array(starts).cast(pa.timestamp("us")))


@register_op("window_sliding")
def build_window_sliding(*, ts_col: str, size_s: float, slide_s: float,
                         keys: list[str] | None = None,
                         aggs: list[tuple[str, str | None, str]] | None = None,
                         out: str = "window_start",
                         mode: str = "auto", partial_limit: int = 2_000_000):
    """Sliding event-time windows.

    With aggregates and ``size % slide == 0`` (aligned windows), the
    default plan NEVER replicates rows: each block is pre-aggregated to
    (slide-bucket, keys) partials first, and only those tiny partial
    rows are replicated ``size/slide`` times before the final combine —
    peak block memory is flat in the size/slide ratio (a 24h window
    sliding by 1m replicates 1440x; partials make that ~buckets x keys
    rows instead of the corpus).  Falls back to row replication
    (``mode="explode"``, or automatically for non-decomposable aggs /
    unaligned windows / no aggs)."""
    keys = keys or []

    size_us, slide_us = int(size_s * 1e6), int(slide_s * 1e6)

    def apply_explode(ds):
        ds = ds.map_batches(
            lambda t: explode_sliding(t, ts_col, size_s, slide_s, out), **_PA_KW
        )
        if not aggs:
            return ds
        from rayflow.ops.core import build_group_agg

        return build_group_agg(keys=[out] + keys, aggs=aggs)(ds)

    from rayflow.ops.core import _DECOMPOSABLE

    aligned = slide_us > 0 and size_us % slide_us == 0
    decomposable = bool(aggs) and all(f in _DECOMPOSABLE for f, _, _ in aggs)
    if mode == "explode" or not (aligned and decomposable):
        return apply_explode

    from rayflow.ops.core import agg_need, partial_table, reduce_partials

    need, need_count_all = agg_need(aggs)
    ratio = size_us // slide_us
    bucket = "__slide_bucket"

    def partial_per_bucket(t: pa.Table) -> pa.Table:
        us = _epoch_us(t.column(ts_col))
        b = pc.multiply(
            pc.cast(pc.floor(pc.divide(pc.cast(us, pa.float64()), slide_us)),
                    pa.int64()), slide_us)
        t = t.append_column(bucket, b)
        return partial_table(t, [bucket] + keys, need, need_count_all)

    def explode_partials(t: pa.Table) -> pa.Table:
        # a window [w, w+size) with w aligned to slide contains the
        # whole bucket [b, b+slide) iff w in {b - j*slide : 0 <= j < ratio}
        n = t.num_rows
        parents = np.repeat(np.arange(n, dtype=np.int64), ratio)
        offs = np.tile(np.arange(ratio, dtype=np.int64), n)
        b = t.column(bucket).to_numpy(zero_copy_only=False)
        starts = b[parents] - offs * slide_us
        rep = t.take(pa.array(parents)).drop_columns([bucket])
        return rep.append_column(out, pa.array(starts, pa.int64()))

    def apply(ds):
        parts = (ds.map_batches(partial_per_bucket, **_PA_KW)
                   .map_batches(explode_partials, **_PA_KW))
        final = reduce_partials(parts, [out] + keys, aggs, need,
                                need_count_all, partial_limit)

        def ts_out(t: pa.Table) -> pa.Table:
            return t.set_column(
                t.schema.get_field_index(out), out,
                pc.cast(t[out], pa.timestamp("us")))

        return final.map_batches(ts_out, **_PA_KW)

    return apply


@register_op("late_filter")
def build_late_filter(*, ts_col: str, keys: list[str] | None = None,
                      allowed_lateness_s: float = 0.0):
    """Allowed-lateness rule on bounded replay (``system_window``'s
    ``allowed_lateness``): drop rows older than the per-key max event
    time minus the lateness budget.  Two passes: a tiny max aggregate
    (broadcast to every task), then a vectorized filter — the watermark
    is global per key, matching the reference's behaviour at
    end-of-stream."""
    keys = keys or []

    def apply(ds):
        import ray

        if keys:
            from ray.data.aggregate import Max

            # per-key watermark: tiny aggregate, broadcast as an Arrow
            # table; the filter is a vectorized index_in + take + one
            # comparison — no per-row Python
            maxes = ds.groupby(keys).aggregate(Max(ts_col, alias_name="__maxts"))
            wm_tbl = pa.concat_tables(
                maxes.iter_batches(batch_size=1 << 20, batch_format="pyarrow")
            )
            wm_ref = ray.put(wm_tbl)
            late_us = int(allowed_lateness_s * 1e6)

            def fn(t: pa.Table) -> pa.Table:
                from rayflow.ops.joins import _fetch

                def derive(tbl):
                    cut = pc.subtract(
                        pc.cast(pc.cast(tbl["__maxts"], pa.timestamp("us")),
                                pa.int64()),
                        late_us,
                    )
                    if len(keys) == 1:
                        return (tbl.column(keys[0]).combine_chunks(), cut)
                    # composite key → single dictionary-joined string key
                    combo = pc.binary_join_element_wise(
                        *[pc.cast(tbl[k], pa.string()) for k in keys], "\x1f"
                    )
                    return (combo.combine_chunks(), cut)

                wm_keys, cutoffs = _fetch(wm_ref, derive)
                if len(keys) == 1:
                    bk = t.column(keys[0])
                else:
                    bk = pc.binary_join_element_wise(
                        *[pc.cast(t[k], pa.string()) for k in keys], "\x1f"
                    )
                idx = pc.index_in(bk, value_set=wm_keys)
                cut = pc.take(cutoffs, idx)
                ts_us = pc.cast(pc.cast(t.column(ts_col), pa.timestamp("us")),
                                pa.int64())
                mask = pc.greater_equal(ts_us, cut)
                return t.filter(mask)

            return ds.map_batches(fn, **_PA_KW)

        # global watermark
        global_max = ds.max(ts_col)
        cutoff = np.datetime64(global_max, "us") - np.timedelta64(
            int(allowed_lateness_s * 1e6), "us"
        )

        def gfn(t: pa.Table) -> pa.Table:
            mask = pc.greater_equal(
                pc.cast(t.column(ts_col), pa.timestamp("us")),
                pa.scalar(cutoff.astype("datetime64[us]").item(), pa.timestamp("us")),
            )
            return t.filter(mask)

        return ds.map_batches(gfn, **_PA_KW)

    return apply


@register_op("window_session")
def build_window_session(*, keys: list[str], ts_col: str, gap_s: float,
                         aggs: list[tuple[str, str | None, str]] | None = None,
                         out: str = "session_start",
                         bucket_s: float | None = None):
    """Gap-based session windows: per key, sort by event time and start a
    new session whenever the gap to the previous event exceeds ``gap_s``.

    MEMORY-BOUNDED on hot keys: a key's history is NOT materialized in
    one task.  Events group by ``(key, time_bucket)`` — bucket width
    ``bucket_s`` (default ``1024 * gap_s``) — so a single task sees at
    most one bucket of one key, regardless of how long-lived the key
    is.  Sessions that cross bucket boundaries are stitched with a
    distributed prefix-scan (the pack_chunks trick):

    1. sessionize each ``(key, bucket)`` group locally (fresh-start
       assumption);
    2. per-bucket summaries — (first_ts, last_ts, last session start)
       — reduce to a tiny table the driver folds in time order: a
       bucket whose first event is within ``gap_s`` of the previous
       bucket's last event CONTINUES that session, so its leading run
       (rows still in the bucket's first local session) is rewritten
       to the carried session start;
    3. one broadcast map applies the rewrites.

    The driver holds only (key, bucket) summary rows, never events.
    The intermediate is materialized once (consumed by both the
    summary reduce and the rewrite map) — blocks live in the object
    store and spill, not in any worker heap."""

    def apply(ds):
        import pandas as pd
        import ray

        from rayflow.ops.joins import _fetch
        from rayflow.ops.kernels import collect_table

        bs_us = float(bucket_s if bucket_s is not None
                      else gap_s * 1024.0) * 1e6
        bcol, gkeys = "_sess_bucket", keys + ["_sess_bucket"]

        def with_bucket(t: pa.Table) -> pa.Table:
            us = pc.cast(pc.cast(t.column(ts_col), pa.timestamp("us")),
                         pa.int64())
            b = pc.floor(pc.divide(pc.cast(us, pa.float64()), bs_us))
            return t.append_column(bcol, pc.cast(b, pa.int64()))

        def sessionize(g: pa.Table) -> pa.Table:
            # whole shard in one segmented scan: sort by (group, ts); a
            # session starts on a group change or a gap > gap_s, and
            # each row's start is the running max of start positions
            ts = g.column(ts_col)
            if not pa.types.is_timestamp(ts.type):
                ts = pc.cast(ts, pa.timestamp("us"))
            us = _epoch_us(ts).to_numpy(zero_copy_only=False)
            codes = [group_codes(g.column(c)) for c in gkeys]
            o = np.lexsort((us, *reversed(codes)))
            new = np.ones(len(o), bool)
            new[1:] = np.diff(us[o]) > gap_s * 1e6
            for c in codes:
                c = c[o]
                new[1:] |= c[1:] != c[:-1]
            pos = np.maximum.accumulate(
                np.where(new, np.arange(len(o)), 0))
            src = np.empty(len(o), np.int64)
            src[o] = o[pos]
            return g.append_column(out, ts.take(pa.array(src, pa.int64())))

        # COARSE shards of the (key, bucket) groups — one Ray callback
        # per shard instead of per group (billions of (key, bucket)
        # pairs at scale)
        sessioned = shard_exchange(ds.map_batches(with_bucket, **_PA_KW),
                                   gkeys, sessionize).materialize()

        # per-(key, bucket) summaries: batch partials -> driver combine
        # (a group never splits across map_groups output blocks, but a
        # block may hold several groups — partials handle either way)
        def summ_partial(b: pd.DataFrame) -> pd.DataFrame:
            return b.groupby(gkeys, sort=False, as_index=False).agg(
                _first_ts=(ts_col, "min"), _last_ts=(ts_col, "max"),
                _last_start=(out, "max"))

        parts = collect_table(
            sessioned.map_batches(summ_partial, batch_format="pandas")
        ).to_pandas()
        if parts.empty:     # no events: no summaries, nothing to fold
            parts = pd.DataFrame(columns=gkeys + ["_first_ts", "_last_ts",
                                                  "_last_start"])
        sdf = parts.groupby(gkeys, as_index=False).agg(
            _first_ts=("_first_ts", "min"), _last_ts=("_last_ts", "max"),
            _last_start=("_last_start", "max")
        ).sort_values(gkeys, ignore_index=True)

        # driver fold over bucket summaries, per key in time order
        # (itertuples(name=None): underscore-prefixed columns would be
        # positionally renamed in named tuples)
        nk = len(gkeys)
        repl: list[tuple] = []
        for _kv, grp in sdf.groupby(keys, sort=False):
            prev_ts = prev_start = None
            for r in grp.itertuples(index=False, name=None):
                first_ts, last_ts, last_start = r[nk], r[nk + 1], r[nk + 2]
                if (prev_ts is not None
                        and (first_ts - prev_ts).total_seconds() <= gap_s):
                    # leading run continues the previous bucket's session
                    repl.append(r[:nk] + (first_ts, prev_start))
                    eff = last_start if last_start > first_ts else prev_start
                else:
                    eff = last_start
                prev_ts, prev_start = last_ts, eff

        if repl:
            rdf = pd.DataFrame(repl, columns=gkeys + ["_first_ts",
                                                      "_new_start"])
            rref = ray.put(rdf)

            def rewrite(b: pd.DataFrame) -> pd.DataFrame:
                r = _fetch(rref, lambda v: v)
                m = b.merge(r, how="left", on=gkeys)
                hit = m["_new_start"].notna() & (
                    pd.to_datetime(m[out]) == m["_first_ts"])
                m.loc[hit, out] = m.loc[hit, "_new_start"]
                return m.drop(columns=["_first_ts", "_new_start"])

            sessioned = sessioned.map_batches(rewrite, batch_format="pandas")
        sessioned = sessioned.drop_columns([bcol])
        if not aggs:
            return sessioned
        from rayflow.ops.core import build_group_agg

        return build_group_agg(keys=keys + [out], aggs=aggs)(sessioned)

    return apply


@register_op("group_rank")
def build_group_rank(*, key_col: str, order_col: str, out: str = "rn",
                     descending: bool = False,
                     out_percent: str | None = None,
                     out_ntile: str | None = None, ntile: int = 4):
    """Per-key ``row_number()`` (1-based, ``OVER (PARTITION BY key
    ORDER BY order)``): ONE coarse-sharded keyed exchange — every key's
    rows land in the same hash(key)-shard, then the whole shard ranks
    all its keys in one vectorized lexsort pass (no per-key group
    tasks).  Ties in ``order_col`` break arbitrarily; pass a unique
    order for determinism.

    ``out_percent`` adds SQL ``percent_rank()`` = (rn-1)/(n_key-1)
    (0.0 for single-row keys) and ``out_ntile`` adds ``ntile(k)`` with
    SQL's larger-buckets-first split — both from the same pass, no
    extra exchange (the per-key count is the run length already in
    hand)."""

    def rank_shard(g: pa.Table) -> pa.Table:
        codes = group_codes(g.column(key_col))
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        if descending:
            if not np.issubdtype(order.dtype, np.number):
                raise ValueError("group_rank: descending needs a "
                                 "numeric order col")
            order = -order
        o = np.lexsort((order, codes))
        ks = codes[o]
        starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
        runlen = np.diff(np.concatenate((starts, [len(ks)])))
        rank = (np.arange(len(ks), dtype=np.int64)
                - np.repeat(starts, runlen) + 1)
        rn = np.empty(len(ks), np.int64)
        rn[o] = rank
        res = g.append_column(out, pa.array(rn, pa.int64()))
        if out_percent or out_ntile:
            nk_sorted = np.repeat(runlen, runlen)  # per-row key size
            nk = np.empty(len(ks), np.int64)
            nk[o] = nk_sorted
        if out_percent:
            with np.errstate(divide="ignore", invalid="ignore"):
                pr = np.where(nk > 1, (rn - 1) / np.maximum(nk - 1, 1), 0.0)
            res = res.append_column(out_percent, pa.array(pr, pa.float64()))
        if out_ntile:
            k = np.int64(ntile)
            q, r = nk // k, nk % k
            big_span = r * (q + 1)
            in_big = rn <= big_span
            # q can be 0 (fewer rows than tiles): every row its own tile
            tile_small = np.where(
                q > 0, r + (rn - big_span + np.maximum(q, 1) - 1)
                // np.maximum(q, 1), rn)
            tile = np.where(in_big, (rn + q) // np.maximum(q + 1, 1),
                            tile_small)
            res = res.append_column(out_ntile,
                                    pa.array(tile.astype(np.int64),
                                             pa.int64()))
        return res

    return lambda ds: shard_exchange(ds, key_col, rank_shard)


@register_op("group_cumsum")
def build_group_cumsum(*, key_col: str, order_col: str, value_col: str,
                       out: str = "running"):
    """Per-key running sum (``SUM(v) OVER (PARTITION BY key ORDER BY
    order)`` with the default RANGE frame — ties share the frame total,
    matching SQL).  Same one-exchange coarse-shard shape as
    group_rank; within a shard the cumsum over every key is one
    vectorized pass (global cumsum minus each key run's start offset),
    with per-(key, order) tie groups collapsed to their last value."""
    def cumsum_shard(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.append_column(out, pa.array([], pa.float64()))
        codes = group_codes(g.column(key_col))
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        vals = g.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        o = np.lexsort((order, codes))
        ks, os_, vs = codes[o], order[o], vals[o]
        csum = np.cumsum(vs)
        starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
        runlen = np.diff(np.concatenate((starts, [len(ks)])))
        base = np.repeat(np.where(starts > 0, csum[starts - 1], 0.0)
                         if len(starts) else np.zeros(0), runlen)
        # SQL RANGE frame: rows tied on (key, order) share the total of
        # the whole tie group — propagate each tie run's LAST cumsum
        new_tie = np.concatenate(([True], (ks[1:] != ks[:-1])
                                  | (os_[1:] != os_[:-1])))
        tie_id = np.cumsum(new_tie) - 1
        tie_starts = np.flatnonzero(new_tie)
        tie_ends = np.concatenate((tie_starts[1:], [len(ks)])) - 1
        run = csum[tie_ends][tie_id] - base
        rn = np.empty(len(ks), np.float64)
        rn[o] = run
        return g.append_column(out, pa.array(rn, pa.float64()))
    return lambda ds: shard_exchange(ds, key_col, cumsum_shard)


@register_op("group_lag")
def build_group_lag(*, key_col: str, order_col: str,
                    value_col: str | None = None,
                    out: str = "lag", offset: int = 1,
                    value_cols: list[str] | None = None,
                    outs: list[str] | None = None,
                    offsets: list[int] | None = None):
    """Per-key ``lag(value, offset)`` / ``lead`` (negative ``offset``)
    ``OVER (PARTITION BY key ORDER BY order)`` — the consecutive-event
    delta primitive (inter-event gaps, previous-state comparison in a
    change feed).  Same one-exchange coarse-shard shape as group_rank;
    within a shard every key's shift happens in one vectorized pass
    (sorted positions ± offset, run-boundary mask → nulls).  Pass a
    unique ``order_col`` for determinism.

    ``value_cols``/``outs``: lag SEVERAL columns in the SAME single
    exchange — the shift index is computed once per shard and applied
    per column; N chained ``group_lag`` ops would pay N keyed
    exchanges for work one pass covers.

    ``offsets``: a per-column offset paired with ``value_cols`` (e.g.
    the same column lagged 1, 2 and 3 turns back for fixed-window
    context assembly) — still ONE keyed exchange; the shift index is
    computed once per DISTINCT offset within the shard."""
    if (value_col is None) == (value_cols is None):
        raise ValueError("group_lag: pass exactly one of value_col / "
                         "value_cols")
    cols_in = list(value_cols) if value_cols else [value_col]
    outs_ = (list(outs) if outs else
             ([out] if value_cols is None
              else [c + "_lag" for c in cols_in]))
    if len(outs_) != len(cols_in):
        raise ValueError("group_lag: outs must match value_cols")
    if offsets is not None:
        if value_cols is None or len(offsets) != len(cols_in):
            raise ValueError("group_lag: offsets must pair with "
                             "value_cols")
        offs_ = [int(x) for x in offsets]
    else:
        offs_ = [int(offset)] * len(cols_in)
    if any(x == 0 for x in offs_):
        raise ValueError("group_lag: offset must be nonzero "
                         "(positive = lag, negative = lead)")

    def lag_shard(g: pa.Table) -> pa.Table:
        codes = group_codes(g.column(key_col))
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        o = np.lexsort((order, codes))
        n = len(o)
        ks = codes[o]
        shifts: dict[int, tuple] = {}
        for off in set(offs_):
            src = np.arange(n, dtype=np.int64) - off
            ok = (src >= 0) & (src < n)
            src_c = np.clip(src, 0, max(n - 1, 0))
            ok &= ks[src_c] == ks  # same key run only
            take_idx = np.full(n, -1, np.int64)
            take_idx[o] = np.where(ok, o[src_c], -1)
            shifts[off] = (
                pa.array(take_idx >= 0),
                pa.array(np.where(take_idx >= 0, take_idx, 0), pa.int64()))
        for c, o_name, off in zip(cols_in, outs_, offs_):
            valid, safe = shifts[off]
            vals = g.column(c).combine_chunks()
            lag_col = pc.if_else(valid, vals.take(safe),
                                 pa.scalar(None, vals.type))
            g = g.append_column(o_name, lag_col)
        return g

    return lambda ds: shard_exchange(ds, key_col, lag_shard)


@register_op("group_concat")
def build_group_concat(*, key_col: str, order_col: str, value_col: str,
                       out: str = "concat", sep: str = "\n"):
    """Per-key ORDERED string concatenation — SQL
    ``string_agg(value, sep ORDER BY order) GROUP BY key`` — the
    chat-template / document-assembly primitive for transcript
    corpora (turns → one training document per conversation).

    One coarse-sharded keyed exchange (hash(key) → shard), then the
    whole shard concatenates ALL its keys in one vectorized pass:
    lexsort by (key, order), per-key run offsets over the sorted value
    buffer → ``pa.ListArray.from_arrays`` → ``pc.binary_join`` (one C
    kernel, no per-key Python, no per-key string accumulation).  Null
    values are skipped, matching SQL ``string_agg``; ties in
    ``order_col`` break arbitrarily — pass a unique order for a
    deterministic document.  Output: one row per key,
    ``(key_col, out)``.

    Scale note: a key's full document is materialized contiguously in
    its shard, so the per-shard memory bound is (shard's total text
    bytes) — the same bound the exchange itself already implies.  Hot
    conversations bound single-DOCUMENT size, not single-task group
    count (the shard concatenates all keys in one pass)."""

    def concat_shard(g: pa.Table) -> pa.Table:
        vals = g.column(value_col).combine_chunks()
        mask = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        if not mask.all():                      # SQL string_agg skips nulls
            keep = np.flatnonzero(mask)
            g = g.take(pa.array(keep, pa.int64()))
            vals = g.column(value_col).combine_chunks()
        codes = group_codes(g.column(key_col))
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        o = np.lexsort((order, codes))
        ks = codes[o]
        # large_string / int64 offsets: a shard's concatenated text can
        # pass the 2 GB int32 offset ceiling long before memory does
        sorted_vals = vals.cast(pa.large_string()).take(
            pa.array(o, pa.int64()))
        starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1]))) \
            if len(ks) else np.zeros(0, np.int64)
        offsets = np.concatenate((starts, [len(ks)])).astype(np.int64) \
            if len(ks) else np.zeros(1, np.int64)
        if isinstance(sorted_vals, pa.ChunkedArray):
            sorted_vals = sorted_vals.combine_chunks()
        lists = pa.LargeListArray.from_arrays(pa.array(offsets, pa.int64()),
                                              sorted_vals)
        joined = pc.binary_join(lists, pa.scalar(sep, pa.large_string()))
        keys_out = g.column(key_col).take(
            pa.array(o[starts] if len(ks) else [], pa.int64()))
        return pa.table({key_col: keys_out, out: joined})

    return lambda ds: shard_exchange(ds, key_col, concat_shard)


@register_op("scd2_history")
def build_scd2_history(*, keys: list[str], lsn_col: str = "lsn",
                       op_col: str = "op", delete_value: str = "delete",
                       valid_from: str = "valid_from",
                       valid_to: str = "valid_to",
                       current_flag: str = "is_current"):
    """Slowly-changing-dimension TYPE-2 materialization of a CDC change
    stream (the Debezium→lake pattern): every non-delete change becomes
    a VERSION row with a ``[valid_from, valid_to)`` LSN interval;
    ``valid_to`` is the NEXT change's LSN on the same key — deletes
    close the previous version's interval but emit no row — and the
    open interval marks the current version (``is_current`` 0/1).

    ONE keyed exchange: the per-key ``lead(lsn)`` rides the shared
    coarse-shard ``group_lag`` kernel over a combined key (lead is
    computed over ALL changes including deletes, THEN delete rows are
    filtered — that ordering is what closes intervals correctly).
    Payload columns pass through untouched."""
    from rayflow.ops import build_op

    def apply(ds):
        def addk(t: pa.Table) -> pa.Table:
            return t.append_column("_scd2_key", shard_key(t, keys))

        ds = ds.map_batches(addk, **_PA_KW)
        ds = build_op({"op": "group_lag", "key_col": "_scd2_key",
                       "order_col": lsn_col, "value_col": lsn_col,
                       "out": valid_to, "offset": -1})(ds)

        def fin(t: pa.Table) -> pa.Table:
            mask = pc.not_equal(
                pc.cast(t.column(op_col), pa.string()), delete_value)
            t = t.filter(pc.fill_null(mask, True))
            t = t.append_column(valid_from, t.column(lsn_col))
            t = t.append_column(
                current_flag,
                pc.cast(pc.is_null(t.column(valid_to)), pa.int64()))
            drop = ["_scd2_key", op_col]
            if valid_from != lsn_col:
                drop.append(lsn_col)
            return t.drop_columns(drop)

        return ds.map_batches(fin, **_PA_KW)

    return apply


@register_op("funnel")
def build_funnel(*, key_col: str, step_col: str, order_col: str,
                 steps: list, ts_outs: list[str] | None = None,
                 within: float | None = None,
                 reached_out: str = "reached"):
    """Ordered-event funnel analysis (the product-analytics classic,
    here over agent transcripts: which conversations did tool A, then
    B, then C): per key, the earliest chain of ``steps`` values in
    strictly increasing ``order_col`` — greedy-earliest semantics, the
    standard funnel definition.  Output: one row per key that reached
    step 1, with ``reached`` (how deep) and each step's order value
    (null past the drop-off).  ``within`` bounds the whole chain to
    ``step1_order + within`` (same units as ``order_col``).

    ONE keyed exchange (the shared coarse-shard shape); in-shard the
    sweep is one pass PER STEP over the whole shard — ``len(steps)``
    vectorized ``minimum.at`` scatters, never a per-key loop.  The
    shard stays ARROW end to end: only the key codes, step codes and
    order values become numpy; no pandas round-trip copies the payload
    columns."""
    n_steps = len(steps)
    if n_steps < 2:
        raise ValueError("funnel: need at least 2 steps")
    outs = ts_outs or [f"step{i+1}_order" for i in range(n_steps)]
    if len(outs) != n_steps:
        raise ValueError("funnel: ts_outs must match steps")
    steps_str = pa.array([str(s) for s in steps], pa.string())

    def sweep(g: pa.Table) -> pa.Table:
        n = g.num_rows
        kidx = group_codes(g.column(key_col))
        if (kidx < 0).any():      # null keys form one ordinary group
            kidx = kidx.copy()
            kidx[kidx < 0] = kidx.max() + 1
        nk = int(kidx.max()) + 1 if n else 0
        ocol = g.column(order_col)
        is_dt = pa.types.is_timestamp(ocol.type)
        # datetimes stay int64 ns end to end — a float64 cast loses
        # sub-microsecond bits (2^53 < ns range) and drifts the output
        if is_dt:
            order = pc.cast(pc.cast(ocol, pa.timestamp("ns")),
                            pa.int64()).to_numpy(zero_copy_only=False)
            sent = np.iinfo(np.int64).max
            w = int(float(within) * 1e9) if within is not None else None
        else:
            order = ocol.to_numpy(
                zero_copy_only=False).astype(np.float64)
            sent = np.inf
            w = float(within) if within is not None else None
        code = pc.fill_null(
            pc.index_in(pc.cast(g.column(step_col), pa.string()),
                        value_set=steps_str), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        ts = np.full((n_steps, nk), sent, dtype=order.dtype)
        for i in range(n_steps):
            m = code == i
            if i > 0:
                m &= order > ts[i - 1][kidx]
                if w is not None:
                    # clip before adding so the int sentinel can't wrap
                    bound = np.minimum(ts[0], sent - w)[kidx] + w
                    m &= order <= bound
            if m.any():
                np.minimum.at(ts[i], kidx[m], order[m])
        # representative original row per key (first occurrence) —
        # the key VALUE is gathered with an Arrow take, type preserved
        rep = np.full(nk, n, dtype=np.int64)
        if n:
            np.minimum.at(rep, kidx, np.arange(n, dtype=np.int64))
        started = ts[0] != sent
        sel = np.flatnonzero(started)
        reached = (ts != sent).sum(axis=0)  # monotone: sentinel propagates
        cols = {
            key_col: g.column(key_col).take(pa.array(rep[sel], pa.int64())),
            reached_out: pa.array(reached[sel].astype(np.int64),
                                  pa.int64()),
        }
        for i, nm in enumerate(outs):
            v = ts[i][sel]
            miss = v == sent
            if is_dt:
                arr = pa.array(np.where(miss, 0, v), pa.int64(),
                               mask=miss)
                cols[nm] = arr.cast(pa.timestamp("ns"))
            else:
                cols[nm] = pa.array(np.where(miss, np.nan, v),
                                    pa.float64())
        return pa.table(cols)

    return lambda ds: shard_exchange(ds, key_col, sweep)


@register_op("interval_coalesce")
def build_interval_coalesce(*, key_col: str, start_col: str, end_col: str,
                            agg_count: str = "n_merged"):
    """Gaps-and-islands: merge overlapping-or-touching ``[start, end]``
    intervals per key into maximal islands (the classic SQL pattern —
    coalescing validity ranges, on-call shifts, session spans).
    Output: one row per island with the key, island start/end, and how
    many input intervals merged into it.

    ONE keyed exchange (shared coarse-shard shape); in-shard the sweep
    is fully vectorized: sort by (key, start), running ``maximum
    .accumulate`` of end within key runs, island breaks where a start
    exceeds the running max of everything before it — no per-key
    loop."""

    def sweep(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table({
                key_col: g.column(key_col).slice(0, 0),
                start_col: g.column(start_col).slice(0, 0),
                end_col: g.column(end_col).slice(0, 0),
                agg_count: pa.array([], pa.int64())})
        kidx = group_codes(g.column(key_col))
        start = g.column(start_col).to_numpy(zero_copy_only=False)
        end = g.column(end_col).to_numpy(zero_copy_only=False)
        o = np.lexsort((start, kidx))
        ks, ss, es = kidx[o], start[o], end[o]
        # new island where a row's start exceeds the running max end of
        # everything before it IN ITS KEY RUN.  Segmented cummax has no
        # offset trick (unlike cumsum), so scan per key run — the loop
        # is over RUNS (≤ keys/shard), each slice a vectorized
        # maximum.accumulate, never a per-row loop
        run_start = np.concatenate(([True], ks[1:] != ks[:-1]))
        reset_idx = np.nonzero(run_start)[0]
        new_island = np.zeros(n, dtype=bool)
        new_island[reset_idx] = True
        for s_i, e_i in zip(reset_idx, np.append(reset_idx[1:], n)):
            if e_i - s_i <= 1:
                continue
            seg_cm = np.maximum.accumulate(es[s_i:e_i])
            new_island[s_i + 1:e_i] = ss[s_i + 1:e_i] > seg_cm[:-1]
        # islands are CONTIGUOUS runs in (key, start) order: island
        # start = first start (sorted), end = segmented max via
        # reduceat, count = run length — no pandas groupby needed
        isl_starts = np.flatnonzero(new_island)
        isl_len = np.diff(np.append(isl_starts, n)).astype(np.int64)
        isl_end = np.maximum.reduceat(es, isl_starts)
        key_type = g.schema.field(key_col).type
        s_type = g.schema.field(start_col).type
        e_type = g.schema.field(end_col).type
        return pa.table({
            key_col: g.column(key_col).take(
                pa.array(o[isl_starts], pa.int64())),
            start_col: pa.array(ss[isl_starts]).cast(s_type),
            end_col: pa.array(isl_end).cast(e_type),
            agg_count: pa.array(isl_len, pa.int64()),
        }).cast(pa.schema([(key_col, key_type), (start_col, s_type),
                           (end_col, e_type), (agg_count, pa.int64())]))

    return lambda ds: shard_exchange(ds, key_col, sweep)


@register_op("group_moving_agg")
def build_group_moving_agg(*, key_col: str, order_col: str,
                           value_col: str, window: int,
                           fns: list[str] = ("sum",),
                           out_prefix: str | None = None):
    """Per-key moving-window aggregates over the trailing ``window``
    rows (SQL ``ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW``):
    moving sum / mean / count — the rolling-average primitive.  Pass a
    unique ``order_col`` for determinism (same rule as ``group_lag``).

    Same one-exchange coarse-shard shape as the other window
    functions; in-shard each key run computes via ONE segmented prefix
    sum (``out[i] = ps[i] − ps[i−w]`` with run-boundary clamping) — no
    per-row loop, no per-key task.  min/max need a monotone-deque scan
    and are deliberately excluded; use ``group_topk`` shapes for
    those."""
    if window < 1:
        raise ValueError("group_moving_agg: window must be >= 1")
    for f in fns:
        if f not in ("sum", "mean", "count"):
            raise ValueError(
                "group_moving_agg: fns must be sum/mean/count (min/max "
                "need a deque scan — excluded by design)")
    pre = out_prefix or f"{value_col}_mov"

    def sweep(g: pa.Table) -> pa.Table:
        n = g.num_rows
        kidx = group_codes(g.column(key_col))
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        v = pc.cast(g.column(value_col), pa.float64()) \
            .to_numpy(zero_copy_only=False)
        # sorted-space prefix sums, results SCATTERED back to the
        # original row order — the shard's payload columns are never
        # reordered or copied (Arrow end to end)
        o = np.lexsort((order, kidx))
        ks, vs = kidx[o], v[o]
        run_start = np.concatenate(([True], ks[1:] != ks[:-1])) \
            if n else np.zeros(0, bool)
        idx = np.arange(n, dtype=np.int64)
        run_origin = np.maximum.accumulate(np.where(run_start, idx, 0))
        ps = np.concatenate(([0.0], np.cumsum(np.nan_to_num(vs))))
        valid = np.concatenate(([0], np.cumsum((~np.isnan(vs))
                                               .astype(np.int64))))
        # trailing-window lower bound, clamped to the run start
        lo = np.maximum(idx - window + 1, run_origin)
        msum_s = ps[idx + 1] - ps[lo]
        mcnt_s = valid[idx + 1] - valid[lo]
        msum = np.empty(n, np.float64)
        mcnt = np.empty(n, np.int64)
        msum[o] = msum_s
        mcnt[o] = mcnt_s
        for f in fns:
            if f == "sum":
                # SQL SUM over an all-null window is NULL, not 0
                g = g.append_column(
                    f"{pre}_sum",
                    pa.array(np.where(mcnt > 0, msum, np.nan),
                             pa.float64()))
            elif f == "count":
                g = g.append_column(f"{pre}_count",
                                    pa.array(mcnt, pa.int64()))
            else:
                with np.errstate(invalid="ignore", divide="ignore"):
                    g = g.append_column(
                        f"{pre}_mean",
                        pa.array(np.where(mcnt > 0, msum / mcnt, np.nan),
                                 pa.float64()))
        return g

    return lambda ds: shard_exchange(ds, key_col, sweep)


@register_op("resample_ffill")
def build_resample_ffill(*, key_col: str, ts_col: str, value_col: str,
                         interval_s: float,
                         max_ticks_per_key: int = 1_000_000,
                         tick_out: str = "tick",
                         value_out: str | None = None):
    """Per-key time-series resampling with forward fill (gap filling):
    emit one row per epoch-aligned ``interval_s`` tick inside each
    key's [min ts, max ts] span, carrying the key's latest value at or
    before the tick — the classic sensor/metric regularization step.

    One coarse-shard keyed exchange; in-shard each key run is a
    vectorized ``searchsorted`` of the tick grid into the run's sorted
    timestamps (loop over key RUNS only).  Keys whose span would emit
    more than ``max_ticks_per_key`` ticks fail LOUD (an outlier span ×
    a fine interval silently exploding into billions of rows is the
    classic resample footgun)."""
    if interval_s <= 0:
        raise ValueError("resample_ffill: interval_s must be > 0")
    iv = int(interval_s * 1e6)
    vout = value_out or value_col

    def sweep(g: pa.Table) -> pa.Table:
        n = g.num_rows
        kidx = group_codes(g.column(key_col))
        ts = pc.cast(pc.cast(g.column(ts_col), pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        o = np.lexsort((ts, kidx))
        ks, tss = kidx[o], ts[o]
        run_start = np.concatenate(([True], ks[1:] != ks[:-1])) \
            if n else np.zeros(0, bool)
        starts = np.nonzero(run_start)[0]
        ends = np.append(starts[1:], n)
        rep_idx, out_t = [], []
        for s_i, e_i in zip(starts, ends):
            t_run = tss[s_i:e_i]
            lo = -(-t_run[0] // iv)            # ceil division
            hi = t_run[-1] // iv
            if hi < lo:
                continue
            if hi - lo + 1 > max_ticks_per_key:
                raise ValueError(
                    f"resample_ffill: key would emit {hi - lo + 1} "
                    f"ticks (> max_ticks_per_key={max_ticks_per_key}) — "
                    "outlier span × fine interval; coarsen interval_s "
                    "or pre-filter")
            grid = np.arange(lo, hi + 1, dtype=np.int64) * iv
            src = np.searchsorted(t_run, grid, side="right") - 1
            # ORIGINAL row index of each tick's ffill source: key and
            # value are gathered with Arrow takes, types preserved —
            # no pandas object round-trip, and an all-empty sweep
            # inherits the input schema instead of a hardcoded one
            rep_idx.append(o[s_i + src])
            out_t.append(grid)
        if not rep_idx:
            return pa.table({
                key_col: g.column(key_col).slice(0, 0),
                tick_out: pa.array([], pa.timestamp("us")),
                vout: g.column(value_col).slice(0, 0)})
        idxs = pa.array(np.concatenate(rep_idx), pa.int64())
        return pa.table({
            key_col: g.column(key_col).take(idxs),
            tick_out: pa.array(np.concatenate(out_t), pa.int64()).cast(
                pa.timestamp("us")),
            vout: g.column(value_col).take(idxs),
        })

    return lambda ds: shard_exchange(ds, key_col, sweep)


@register_op("ewma")
def build_ewma(*, key_col: str, order_col: str, value_col: str,
               alpha: float, out: str = "ewma"):
    """Per-key exponentially-weighted moving average over an ordered
    column (pandas ``ewm(alpha, adjust=False)`` semantics: ``y_0 =
    x_0``, ``y_i = α·x_i + (1−α)·y_{i−1}``) — the time-series smoother
    / drift baseline of metric pipelines.

    Same ONE coarse-shard keyed exchange as ``group_cumsum``; in-shard
    each key run evaluates the recurrence in closed form, vectorized:
    ``y_i = α·p_i·Σ_j x_j/p_j + (1−α)·p_i·c`` with ``p_i = (1−α)^i``
    and carry ``c``, processed in blocks sized so ``(1−α)^{−(B−1)}``
    stays finite — no per-row Python, no overflow at any α, and terms
    that fall below float range are exactly the ones EWMA has already
    decayed to nothing.  The recurrence is linear, so each run is
    evaluated on ``x / max|x|`` and scaled back: ``blk · inv`` then
    stays below ``1e300`` whatever the magnitude of the values."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("ewma: alpha must be in (0, 1]")
    beta = 1.0 - alpha
    # block bound: beta^-(B-1) < 1e300
    B = 512 if beta == 0.0 else max(
        1, min(512, int(690.0 / max(1e-12, -np.log(beta)))))

    def _run_ewma(x: np.ndarray) -> np.ndarray:
        if beta == 0.0:
            return x.copy()
        scale = np.max(np.abs(x), initial=0.0, where=np.isfinite(x)) or 1.0
        x = x / scale
        y = np.empty_like(x)
        y[0] = x[0]
        c = x[0]
        i = 1
        while i < len(x):
            blk = x[i:i + B]
            m = len(blk)
            p = np.power(beta, np.arange(m, dtype=np.float64))
            inv = np.power(beta, -np.arange(m, dtype=np.float64))
            yb = alpha * p * np.cumsum(blk * inv) + beta * p * c
            y[i:i + m] = yb
            c = yb[-1]
            i += m
        return y * scale

    def shard(g: pa.Table) -> pa.Table:
        codes = group_codes(g.column(key_col))
        order = g.column(order_col).to_numpy(zero_copy_only=False)
        vals = g.column(value_col).to_numpy(
            zero_copy_only=False).astype(np.float64)
        o = np.lexsort((order, codes))
        ks, vs = codes[o], vals[o]
        res = np.empty(len(ks), np.float64)
        starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1]))) \
            if len(ks) else np.zeros(0, np.int64)
        ends = np.append(starts[1:], len(ks))
        for s_i, e_i in zip(starts, ends):
            res[s_i:e_i] = _run_ewma(vs[s_i:e_i])
        outv = np.empty(len(ks), np.float64)
        outv[o] = res
        return g.append_column(out, pa.array(outv, pa.float64()))
    return lambda ds: shard_exchange(ds, key_col, shard)

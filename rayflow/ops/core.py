"""Core stateless + shuffle ops — the ``internal/impl/pure`` analogues.

Every op is a named builder returning ``Dataset → Dataset``.  All hot
paths are ``map_batches`` with ``batch_format="pyarrow"`` and
vectorized bodies; nothing iterates Python rows.

Reference processors covered here (SURVEY.md §2.3):
``mapping``/``mutation`` → :func:`build_mapping`; Bloblang ``deleted()``
and ``bounds_check`` → :func:`build_filter`; ``select_parts``/projection
→ select/drop/rename; ``unarchive``(json_array)/``split`` →
explode/repartition; ``dedupe`` → :func:`build_dedupe` (two-phase:
per-block partial reduce, then keyed shuffle reduce); ``group_by_value``
+ mapping reduce → :func:`build_group_agg`; ``switch``/``try``/``catch``
→ route/error-column convention.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow import expr as E
from rayflow.ops import register_op
from rayflow.ops.kernels import argextreme_reduce, explode_list, shard_exchange

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)


def _exprs(spec: dict[str, Any]) -> dict[str, E.Expr]:
    return {
        name: (e if isinstance(e, E.Expr) else E.parse(e)) for name, e in spec.items()
    }


@register_op("mapping")
def build_mapping(*, cols: dict[str, Any] | None = None,
                  text: str | None = None,
                  select: list[str] | None = None,
                  drop: list[str] | None = None):
    """Compute/overwrite columns from expressions; optionally project.

    The ``mapping``/``mutation`` processor: Bloblang assignments become
    vectorized Arrow kernel trees (:mod:`rayflow.expr`).  Accepts either
    ``cols`` (Expr / s-expression dict) or ``text`` — a Bloblang-syntax
    program (``root.x = this.a.uppercase()`` lines, the reference's
    native mapping surface) parsed by :mod:`rayflow.bloblang`;
    ``root.x = deleted()`` adds x to the drop list."""
    if text is not None:
        from rayflow.bloblang import DELETED, parse_program

        prog = parse_program(text)
        deleted = [k for k, v in prog.items() if v is DELETED]
        cols = {k: v for k, v in prog.items() if v is not DELETED}
        if deleted:
            drop = list(drop or []) + deleted
    if cols is None:
        raise ValueError("mapping: need 'cols' or 'text'")
    compiled = _exprs(cols)

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            for name, ex in compiled.items():
                val = ex.eval(t)
                if isinstance(val, pa.Scalar):
                    val = pa.nulls(t.num_rows, val.type).fill_null(val)
                if name in t.column_names:
                    t = t.set_column(t.column_names.index(name), name, val)
                else:
                    t = t.append_column(name, val)
            if drop:
                t = t.drop_columns([c for c in drop if c in t.column_names])
            if select:
                t = t.select(select)
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("filter")
def build_filter(*, predicate: Any):
    """Keep rows where the predicate expression is true (vectorized —
    never ``ds.filter(row_fn)``)."""
    pred = predicate if isinstance(predicate, E.Expr) else E.parse(predicate)

    def apply(ds):
        return ds.map_batches(
            lambda t: t.filter(pc.fill_null(pred.eval(t), False)), **_PA_KW
        )

    return apply


@register_op("select")
def build_select(*, columns: list[str]):
    def apply(ds):
        return ds.select_columns(columns)

    return apply


@register_op("drop")
def build_drop(*, columns: list[str]):
    def apply(ds):
        return ds.drop_columns(columns)

    return apply


@register_op("rename")
def build_rename(*, names: dict[str, str]):
    """Column rename via an explicit Arrow map — ``Dataset.rename_columns``
    breaks on pandas-formatted upstream blocks (e.g. after map_groups)."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([names.get(c, c) for c in t.column_names])

        return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)

    return apply


@register_op("explode")
def build_explode(*, column: str, out: str | None = None):
    """List column → one row per element (``unarchive`` json_array)."""

    def apply(ds):
        return ds.map_batches(lambda t: explode_list(t, column, out), **_PA_KW)

    return apply


@register_op("split_text")
def build_split_text(*, column: str, pattern: str = r"\s+", out: str = "token",
                     regex: bool = True):
    """Tokenize a string column and explode to one row per token."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            split = (
                pc.split_pattern_regex(t.column(column), pattern)
                if regex
                else pc.split_pattern(t.column(column), pattern)
            )
            t = t.append_column("__tokens", split)
            out_t = explode_list(t, "__tokens", out)
            return out_t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("dedupe")
def build_dedupe(*, keys: list[str], order_col: str, keep: str = "max",
                 partial_limit: int = 2_000_000):
    """Global exact dedupe: keep the min/max-``order_col`` row per key.

    The ``dedupe`` processor's cache-backed seen-set becomes a two-phase
    reduce: per-block partial (collapses duplicates before the exchange)
    then a combine — no shared mutable cache needed, and deterministic
    regardless of arrival order (same philosophy as the CDC LWW merge).
    ``order_col`` must be globally unique.

    Like ``group_agg``, the combine is size-adaptive: when the partial
    survivors are few, one repartition(1) + Arrow reduce replaces the
    keyed shuffle entirely; otherwise a keyed exchange over the
    (already collapsed) partials runs — never over raw rows."""

    def apply(ds):
        partials = ds.map_batches(
            lambda t: argextreme_reduce(t, keys, order_col, keep), **_PA_KW
        ).materialize()
        if partials.count() <= partial_limit:
            return partials.repartition(1).map_batches(
                lambda t: argextreme_reduce(t, keys, order_col, keep),
                batch_size=None, **_PA_KW,
            )
        # COARSE key shards, not one Ray group per key — argextreme is
        # a multi-key table kernel already, so each shard reduces all
        # its keys in one vectorized pass
        return shard_exchange(
            partials, keys,
            lambda t: argextreme_reduce(t, keys, order_col, keep))

    return apply


@register_op("union")
def build_union(*, others: list):
    """Fan-in (the ``broker`` input)."""

    def apply(ds):
        return ds.union(*others)

    return apply


@register_op("limit")
def build_limit(*, n: int):
    def apply(ds):
        return ds.limit(n)

    return apply


@register_op("sort")
def build_sort(*, keys: list[str], descending: bool | list[bool] = False):
    def apply(ds):
        from rayflow.ops import prefer_push_shuffle

        prefer_push_shuffle()
        return ds.sort(keys, descending=descending)

    return apply


@register_op("sample")
def build_sample(*, fraction: float, seed: int = 42):
    def apply(ds):
        return ds.random_sample(fraction, seed=seed)

    return apply


@register_op("repartition")
def build_repartition(*, num_blocks: int, shuffle: bool = False):
    """Block sizing (``split`` processor / batching policy analogue)."""

    def apply(ds):
        return ds.repartition(num_blocks, shuffle=shuffle)

    return apply


@register_op("switch")
def build_switch(*, cases: list[tuple[Any, str]], default: str = "_default",
                 out: str = "route"):
    """Route each row to the first matching case (``switch`` output /
    processor): adds a route column; downstream filters or a partitioned
    write consume it."""
    compiled = [(E.parse(c) if not isinstance(c, E.Expr) else c, name)
                for c, name in cases]

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            route = pa.nulls(t.num_rows, pa.string())
            # evaluate in reverse so earlier cases overwrite later ones
            for cond, name in reversed(compiled):
                mask = pc.fill_null(cond.eval(t), False)
                route = pc.if_else(mask, pa.scalar(name, pa.string()), route)
            route = pc.fill_null(route, default)
            return t.append_column(out, route)

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("catch")
def build_catch(*, error_col: str = "_error", mode: str = "drop",
                dead_letter_path: str | None = None):
    """Error-path handling (``try``/``catch``): ops that fail per-row set
    ``error_col``; ``catch`` drops (optionally dead-lettering) or clears.
    """

    def apply(ds):
        if mode == "clear":
            return ds.drop_columns([error_col])

        def fn(t: pa.Table) -> pa.Table:
            if error_col not in t.column_names:
                return t
            bad_mask = pc.is_valid(t.column(error_col))
            if dead_letter_path and pc.any(bad_mask).as_py():
                import os
                import uuid

                import pyarrow.parquet as pq

                os.makedirs(dead_letter_path, exist_ok=True)
                pq.write_table(
                    t.filter(bad_mask),
                    os.path.join(dead_letter_path, f"dead-{uuid.uuid4().hex}.parquet"),
                )
            return t.filter(pc.invert(bad_mask)).drop_columns([error_col])

        return ds.map_batches(fn, **_PA_KW)

    return apply


def _agg(fn: str, col: str | None, alias: str):
    from ray.data.aggregate import Count, Max, Mean, Min, Std, Sum

    if fn == "count":
        return Count(alias_name=alias)
    return {"sum": Sum, "min": Min, "max": Max, "mean": Mean, "std": Std}[fn](
        col, alias_name=alias
    )


_DECOMPOSABLE = {"sum", "count", "min", "max", "mean", "std"}


def agg_need(aggs) -> tuple[set, bool]:
    """Partial-stat spec for a decomposable agg list: (col, kind) pairs
    with kinds sum / cv (valid count) / sq (sum of squares) / min / max,
    plus whether a plain row count is needed.  Shared by group_agg and
    the sliding-window partial path."""
    need: set[tuple[str, str]] = set()
    need_count_all = False
    for f, c, _ in aggs:
        if f == "count":
            need_count_all = True
        elif f == "sum":
            need.add((c, "sum"))
        elif f == "mean":
            need.update([(c, "sum"), (c, "cv")])
        elif f == "min":
            need.add((c, "min"))
        elif f == "max":
            need.add((c, "max"))
        elif f == "std":
            need.update([(c, "sum"), (c, "cv"), (c, "sq")])
    return need, need_count_all


def partial_table(t: pa.Table, keys: list[str], need: set,
                  need_count_all: bool) -> pa.Table:
    """One block's partial aggregates via Arrow's C ``group_by``
    (columns named ``{col}_sum`` / ``{col}_count`` / ``{col}_min`` /
    ``{col}_max`` / ``__sq_{col}_sum`` / ``count_all``)."""
    spec = []
    for col, kind in sorted(need):
        if kind == "sq":
            sq = f"__sq_{col}"
            t = t.append_column(
                sq, pc.multiply(pc.cast(t[col], pa.float64()),
                                pc.cast(t[col], pa.float64())))
            spec.append((sq, "sum"))
        elif kind == "sum":
            spec.append((col, "sum"))
        elif kind == "cv":
            spec.append((col, "count"))
        elif kind == "min":
            spec.append((col, "min"))
        elif kind == "max":
            spec.append((col, "max"))
    if need_count_all:
        spec.append(([], "count_all"))
    return t.group_by(keys, use_threads=False).aggregate(spec)


def combine_partials(t: pa.Table, keys: list[str], need: set,
                     need_count_all: bool) -> pa.Table:
    """Merge partial tables: group the concatenated partials by key,
    summing sums/counts and min/max-ing extrema (output columns get a
    second suffix, e.g. ``{col}_sum_sum``)."""
    spec = []
    for col, kind in sorted(need):
        if kind == "sq":
            spec.append((f"__sq_{col}_sum", "sum"))
        elif kind == "sum":
            spec.append((f"{col}_sum", "sum"))
        elif kind == "cv":
            spec.append((f"{col}_count", "sum"))
        elif kind == "min":
            spec.append((f"{col}_min", "min"))
        elif kind == "max":
            spec.append((f"{col}_max", "max"))
    if need_count_all:
        spec.append(("count_all", "sum"))
    return t.group_by(keys, use_threads=False).aggregate(spec)


def finalize_from_sums(g: pa.Table, keys: list[str], aggs) -> pa.Table:
    """Final agg columns from combined partial sums (the
    ``{col}_sum_sum``-style names of :func:`combine_partials` or the
    keyed-aggregate fallback)."""
    def f64(name):
        return pc.cast(g[name], pa.float64())

    out_cols: dict[str, pa.ChunkedArray] = {k: g[k] for k in keys}
    for f, c, alias in aggs:
        if f == "count":
            out_cols[alias] = pc.cast(g["count_all_sum"], pa.int64())
        elif f == "sum":
            out_cols[alias] = g[f"{c}_sum_sum"]
        elif f == "mean":
            out_cols[alias] = pc.divide(f64(f"{c}_sum_sum"),
                                        f64(f"{c}_count_sum"))
        elif f == "min":
            out_cols[alias] = g[f"{c}_min_min"]
        elif f == "max":
            out_cols[alias] = g[f"{c}_max_max"]
        elif f == "std":
            n = f64(f"{c}_count_sum")
            s = f64(f"{c}_sum_sum")
            sq = f64(f"__sq_{c}_sum_sum")
            var = pc.divide(
                pc.subtract(sq, pc.divide(pc.multiply(s, s), n)),
                pc.subtract(n, 1.0))
            # n<=1 (single sample / all-null group): stddev_samp is
            # NULL in SQL and the shuffle cross-check — don't clamp to 0
            out_cols[alias] = pc.if_else(
                pc.less_equal(n, 1.0), pa.scalar(None, pa.float64()),
                pc.sqrt(pc.max_element_wise(var, 0.0)))
    return pa.table(out_cols)


def reduce_partials(partials_ds, keys: list[str], aggs, need: set,
                    need_count_all: bool, partial_limit: int):
    """Shared combine plan over a Dataset of partial rows: when small,
    ONE repartition(1) + Arrow combine (no shuffle machinery); when the
    key space stays large, a keyed Ray aggregate over partials only."""
    partials = partials_ds.materialize()
    if partials.count() <= partial_limit:
        def combine(t: pa.Table) -> pa.Table:
            # canonical order: partial blocks arrive in nondeterministic
            # task-completion order; sorting by every column makes the
            # float accumulation order (and hence the last ULP of sums)
            # identical across runs
            if t.num_rows:
                t = t.sort_by([(c, "ascending") for c in t.column_names])
            return finalize_from_sums(
                combine_partials(t, keys, need, need_count_all), keys, aggs)

        return partials.repartition(1).map_batches(
            combine, batch_size=None, **_PA_KW)
    # high-cardinality fallback: keyed exchange over partials only
    from ray.data.aggregate import Max, Min, Sum

    from rayflow.ops import prefer_push_shuffle

    prefer_push_shuffle()
    built = []
    for col, kind in sorted(need):
        if kind == "sq":
            built.append(Sum(f"__sq_{col}_sum",
                             alias_name=f"__sq_{col}_sum_sum"))
        elif kind == "sum":
            built.append(Sum(f"{col}_sum", alias_name=f"{col}_sum_sum"))
        elif kind == "cv":
            built.append(Sum(f"{col}_count", alias_name=f"{col}_count_sum"))
        elif kind == "min":
            built.append(Min(f"{col}_min", alias_name=f"{col}_min_min"))
        elif kind == "max":
            built.append(Max(f"{col}_max", alias_name=f"{col}_max_max"))
    if need_count_all:
        built.append(Sum("count_all", alias_name="count_all_sum"))
    reduced = partials.groupby(keys).aggregate(*built)
    return reduced.map_batches(
        lambda t: finalize_from_sums(t, keys, aggs), **_PA_KW)


@register_op("group_agg")
def build_group_agg(*, keys: list[str], aggs: list[tuple[str, str | None, str]],
                    mode: str = "auto", partial_limit: int = 2_000_000):
    """Grouped aggregation (``group_by_value`` + Bloblang fold reduce).

    ``aggs`` = [(fn, col_or_None, alias)], fn ∈ sum/min/max/mean/std/count.

    Default path (``mode="auto"``, all fns decomposable) is a TWO-PHASE
    combiner: each block is pre-aggregated with Arrow's C ``group_by``
    inside ``map_batches`` (sum/count/min/max/sum-of-squares partials —
    mean and std decompose), then the partials are combined.  When the
    partial row count is small the combine is one repartition(1) +
    Arrow group_by — no Ray shuffle machinery at all (the sort-based
    aggregate costs ~1s fixed on 300k rows; this path does the same
    query in the map stage).  When partials stay large (high-cardinality
    keys) the combine falls back to a keyed Ray aggregate — but the
    exchange then carries partials, never raw rows.  Bonus: Arrow
    groups null keys fine, avoiding Ray groupby's null-key hang.

    ``mode="shuffle"`` forces the original ``ds.groupby().aggregate``
    path (kept as a cross-check)."""
    decomposable = all(f in _DECOMPOSABLE for f, _, _ in aggs)

    def apply_shuffle(ds):
        from rayflow.ops import prefer_push_shuffle

        prefer_push_shuffle()
        built = [_agg(f, c, alias) for f, c, alias in aggs]
        return ds.groupby(keys).aggregate(*built)

    if mode == "shuffle" or not decomposable:
        return apply_shuffle

    need, need_count_all = agg_need(aggs)

    def partial(t: pa.Table) -> pa.Table:
        return partial_table(t, keys, need, need_count_all)

    def apply(ds):
        partials = ds.map_batches(partial, **_PA_KW)
        return reduce_partials(partials, keys, aggs, need, need_count_all,
                               partial_limit)

    return apply


@register_op("group_topk")
def build_group_topk(*, keys: list[str], order_col: str, k: int,
                     descending: bool = True, tiebreak: str | None = None):
    """Top-k rows per key group (``group_by_value`` + sort + select_parts
    composition in the reference).  Per-group pandas sort on the shuffled
    groups; ``tiebreak`` column makes results deterministic under ties."""

    by = [order_col] + ([tiebreak] if tiebreak else [])
    asc = [not descending] + ([True] if tiebreak else [])

    def per_shard(g):
        # whole-shard vectorized: one sort + grouped head over ALL of
        # the shard's keys (no per-key Ray group callbacks)
        return (g.sort_values(by, ascending=asc)
                 .groupby(keys, sort=False, dropna=False).head(k))

    return lambda ds: shard_exchange(ds, keys, per_shard,
                                     batch_format="pandas")


@register_op("compress")
def build_compress(*, column: str, codec: str = "gzip", out: str | None = None):
    """Compress a string/binary column to binary (``compress``
    processor; gzip/zlib).  Per-row Python over bytes — payload
    transform, not a hot relational path."""
    import gzip as _gz
    import zlib as _zl

    enc = {"gzip": _gz.compress, "zlib": _zl.compress}[codec]
    target = out or column

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            vals = t.column(column).to_pylist()
            comp = [
                None if v is None else enc(v.encode() if isinstance(v, str) else v)
                for v in vals
            ]
            arr = pa.array(comp, pa.large_binary())
            if target in t.column_names:
                return t.set_column(t.column_names.index(target), target, arr)
            return t.append_column(target, arr)

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("decompress")
def build_decompress(*, column: str, codec: str = "gzip",
                     out: str | None = None, as_text: bool = True):
    """Inverse of ``compress``."""
    import gzip as _gz
    import zlib as _zl

    dec = {"gzip": _gz.decompress, "zlib": _zl.decompress}[codec]
    target = out or column

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            vals = t.column(column).to_pylist()
            raw = [None if v is None else dec(v) for v in vals]
            if as_text:
                arr = pa.array(
                    [None if v is None else v.decode() for v in raw], pa.string()
                )
            else:
                arr = pa.array(raw, pa.large_binary())
            if target in t.column_names:
                return t.set_column(t.column_names.index(target), target, arr)
            return t.append_column(target, arr)

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("parse_json")
def build_parse_json(*, column: str, out: str | None = None,
                     drop_source: bool = False):
    """Parse a JSON-string column into a struct column (``parse_json``
    Bloblang method / payload JSON→struct from SURVEY §1.2).  Schema is
    inferred per batch from the parsed documents; parse failures become
    null structs plus an ``_error`` marker (route with ``catch``)."""
    import json as _json

    target = out or f"{column}_parsed"

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            docs, errs = [], []
            for v in t.column(column).to_pylist():
                if v is None:
                    docs.append(None)
                    errs.append(None)
                    continue
                try:
                    d = _json.loads(v)
                    docs.append(d if isinstance(d, dict) else {"value": d})
                    errs.append(None)
                except (ValueError, TypeError):
                    docs.append(None)
                    errs.append("parse_json: invalid")
            t = t.append_column(target, pa.array(docs))
            t = t.append_column("_error", pa.array(errs, pa.string()))
            if drop_source:
                t = t.drop_columns([column])
            return t

        return ds.map_batches(fn, batch_format="pyarrow")

    return apply


@register_op("group_percentile")
def build_group_percentile(*, keys: list[str], value_col: str,
                           quantiles: list[float],
                           prefix: str | None = None):
    """EXACT per-group percentiles of a discrete (int/low-cardinality)
    column, as a two-phase histogram combiner — the same shape as
    ``group_agg``'s partial path, so nothing but (key, value, count)
    rows ever cross the exchange.

    Phase 1: per-block ``group_by(keys + [value_col]).count`` inside
    ``map_batches``.  Phase 2: combine the (small) histogram, then per
    key pick the value whose cumulative count first reaches
    ``ceil(q × n)`` — the classic discrete percentile, deterministic
    and SQL-mirrorable as ``row_number() = ceil(q*cnt)`` over the
    value order (no engine-specific interpolation semantics).

    For continuous float columns quantize first (the histogram stays
    exact for the quantized value); a t-digest sketch would trade that
    exactness for unbounded domains.

    Output columns: keys + ``p<q>`` (e.g. p50, p90), value-typed.
    """
    qs = sorted(quantiles)
    names = [f"{prefix or 'p'}{int(q * 100)}" for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        return t.group_by(keys + [value_col], use_threads=False) \
            .aggregate([([], "count_all")])

    def finish(t: pa.Table) -> pa.Table:
        import pandas as pd

        if t.num_rows == 0:
            cols = {k: [] for k in keys}
            cols.update({nm: [] for nm in names})
            return pa.table(cols)
        df = t.to_pandas()
        df = df.groupby(keys + [value_col], as_index=False)["count_all"] \
            .sum().sort_values(keys + [value_col], ignore_index=True)
        out_rows = []
        for kv, g in df.groupby(keys, sort=True):
            kv = kv if isinstance(kv, tuple) else (kv,)
            cum = g["count_all"].cumsum().to_numpy()
            n = cum[-1]
            vals = g[value_col].to_numpy()
            row = dict(zip(keys, kv))
            for q, nm in zip(qs, names):
                rank = max(1, int(np.ceil(q * n)))
                row[nm] = vals[np.searchsorted(cum, rank, side="left")]
            out_rows.append(row)
        return pa.Table.from_pandas(
            pd.DataFrame(out_rows, columns=keys + names),
            preserve_index=False)

    def apply(ds):
        partials = ds.map_batches(partial, **_PA_KW)
        return partials.repartition(1).map_batches(
            finish, batch_size=None, **_PA_KW)

    return apply


@register_op("noop")
def build_noop():
    """Identity processor (the reference's ``noop``)."""
    return lambda ds: ds


@register_op("sleep")
def build_sleep(*, seconds: float):
    """Per-batch delay (the reference's ``sleep``) — useful for
    exercising backpressure and pipelining in tests; the streaming
    executor keeps upstream stages productive while batches wait."""
    import time as _time

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            _time.sleep(seconds)
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("rate_limit")
def build_rate_limit(*, resource: str, rate: float | None = None,
                     burst: float | None = None, cost: str = "rows",
                     batch_size: int | None = None):
    """Admission control against a shared budget (the reference's
    ``rate_limit`` processor + ``local`` resource — count/interval
    token bucket shared across pipeline stages).

    One named reservation-bucket actor per ``resource`` (see
    :class:`rayflow.state.RateLimiterImpl`); every batch debits
    ``cost`` = its row count (``"rows"``) or 1 (``"batches"``) and
    sleeps out its granted delay IN THE WORKER, so backpressure
    propagates naturally through the streaming executor while the
    actor itself only does O(1) bookkeeping per batch.  Use it to
    protect a downstream system (an external store fed by a sink, a
    subprocess stage) with a cluster-wide cap — the executor's own
    backpressure bounds memory, not throughput."""
    import time as _time

    if cost not in ("rows", "batches"):
        raise ValueError(
            f"rate_limit: cost must be 'rows' or 'batches', got {cost!r}")

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            from rayflow.state import get_rate_limiter

            import ray as _ray

            handle = get_rate_limiter(resource, rate, burst)
            n = float(t.num_rows) if cost == "rows" else 1.0
            wait = _ray.get(handle.acquire.remote(n))
            if wait > 0:
                _time.sleep(wait)
            return t

        kw = dict(_PA_KW)
        if batch_size is not None:
            kw["batch_size"] = batch_size
        return ds.map_batches(fn, **kw)

    return apply


@register_op("log_stage")
def build_log_stage(*, name: str = "stage", sample: int = 3):
    """Observability tap (the reference's ``log`` processor): print a
    per-batch row count and up to ``sample`` example rows to the worker
    log, pass the data through unchanged."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            head = t.slice(0, min(sample, t.num_rows)).to_pylist()
            print(f"[rayflow:{name}] batch rows={t.num_rows} sample={head}",
                  flush=True)
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("pivot")
def build_pivot(*, keys: list[str], pivot_col: str, value_col: str,
                values: list, agg: str = "sum",
                name_prefix: str = ""):
    """Long→wide pivot (the reference's ``group_by_value`` + per-group
    mapping fan-out, reshaped as a single grouped aggregate).

    ``values`` is the EXPLICIT pivot domain — at 100 TB a
    discover-the-distincts pass is its own query, and a stable output
    schema is a requirement for downstream stages, so the caller names
    the columns.  Each pivot value becomes one conditional column
    (``if_else(pivot==v, value, 0)``), computed vectorized inside the
    map stage, and ALL columns then ride the SAME two-phase
    ``group_agg`` — one keyed exchange total, identical cost to a
    plain grouped aggregate with ``len(values)`` measures.

    ``agg`` ∈ sum/count/min/max/mean.  count counts matching rows
    (``sum`` of 0/1); min/max of non-matching rows are null-ignoring
    (matches SQL ``min(CASE WHEN ... END)``)."""
    if agg not in ("sum", "count", "min", "max", "mean"):
        raise ValueError(f"pivot: agg must be sum/count/min/max/mean, "
                         f"got {agg!r}")

    def col_name(v) -> str:
        return f"{name_prefix}{v}"

    cols: dict[str, E.Expr] = {}
    for v in values:
        cond = E.col(pivot_col) == E.lit(v)
        if agg == "count":
            cols[col_name(v)] = E.when(cond, E.lit(1), E.lit(0))
        elif agg in ("min", "max", "mean"):
            # null out non-matching rows so min/max/mean ignore them,
            # exactly like SQL's CASE WHEN without ELSE
            cols[col_name(v)] = E.when(cond, E.col(value_col),
                                       E.lit(None))
        else:
            cols[col_name(v)] = E.when(cond, E.col(value_col), E.lit(0.0))
    agg_fn = "sum" if agg == "count" else agg
    aggs = [(agg_fn, col_name(v), col_name(v)) for v in values]

    from rayflow.ops import build_op

    def apply(ds):
        ds = build_op({"op": "mapping", "cols": cols,
                       "select": keys + [col_name(v) for v in values]})(ds)
        return build_op({"op": "group_agg", "keys": keys,
                         "aggs": aggs})(ds)

    return apply


@register_op("unpivot")
def build_unpivot(*, keys: list[str], value_cols: list[str],
                  var_name: str = "variable", value_name: str = "value"):
    """Wide→long melt (``unarchive`` on a struct-of-measures, in
    reference terms).  Entirely row-local: each Arrow batch emits
    ``len(value_cols)`` stacked slices — key columns are repeated by
    zero-copy take, the variable column is a dictionary-encoded
    constant run per slice.  NO exchange; block sizes grow by the
    melt factor, which the streaming executor re-splits downstream."""

    def fn(t: pa.Table) -> pa.Table:
        pieces = []
        for c in value_cols:
            vals = pc.cast(t.column(c), pa.float64())
            cols = {k: t.column(k) for k in keys}
            cols[var_name] = pa.array([c] * t.num_rows, pa.string())
            cols[value_name] = vals
            pieces.append(pa.table(cols))
        return pa.concat_tables(pieces) if pieces else pa.table(
            {k: t.column(k).slice(0, 0) for k in keys})

    def apply(ds):
        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("group_rollup")
def build_group_rollup(*, keys: list[str],
                       aggs: list[tuple[str, str | None, str]],
                       partial_limit: int = 2_000_000):
    """Hierarchical grouping-sets aggregate (SQL ``GROUP BY ROLLUP``):
    one row set per prefix of ``keys`` — (a,b), (a), and the grand
    total for ``keys=[a,b]`` — with rolled-up key columns null, SQL
    style.  Thin delegation to :func:`build_group_grouping_sets` with
    the prefix sets: the fact aggregates ONCE at the finest level,
    coarser prefixes re-aggregate that aggregate (and when it fits a
    block, ALL levels compute in one driver-side Arrow pass — zero
    extra exchanges).  ``mean``/``std`` rejected (not re-aggregable
    from finished values; carry sum+count yourself and divide)."""
    for f, _, _ in aggs:
        if f not in ("sum", "count", "min", "max"):
            raise ValueError(
                f"group_rollup: agg {f!r} is not re-aggregable from the "
                "finest level — use sum/count/min/max (for mean, carry "
                "sum and count and divide downstream)")
    sets = [keys[:n] for n in range(len(keys), -1, -1)]
    return build_group_grouping_sets(keys=keys, sets=sets, aggs=aggs,
                                     partial_limit=partial_limit)


@register_op("group_approx_percentile")
def build_group_approx_percentile(*, keys: list[str], value_col: str,
                                  quantiles: list[float],
                                  lo: float, hi: float,
                                  n_bins: int = 4096,
                                  prefix: str | None = None):
    """Approximate per-group percentiles of a CONTINUOUS column with a
    DECLARED fixed-bin histogram — the 100-TB companion to the exact
    ``group_percentile``: that op's (key, value, count) exchange is
    exact but value-cardinality-sized, so an all-distinct double
    column ships every row; this one's exchange is bounded by
    ``keys × n_bins`` REGARDLESS of data, with deterministic error
    ≤ one bin width ((hi−lo)/n_bins).

    The domain [lo, hi) is declared by the caller (like ``pivot``'s
    value list: a data-dependent domain would need its own pass and
    break mergeability); values outside clamp to the edge bins.
    Estimate = lower edge of the bin whose cumulative count reaches
    ``ceil(q×n)`` — on integer-valued data with unit bins this equals
    the exact discrete percentile, which is how the oracle checks it.

    Plan: per-block vectorized bincount partials → two-phase
    ``group_agg`` sum on (keys, bin) → coarse-shard finish (per-key
    cumsum + searchsorted, vectorized in-shard)."""
    qs = sorted(quantiles)
    names = [f"{prefix or 'p'}{int(q * 100)}" for q in qs]
    if n_bins <= 0 or hi <= lo:
        raise ValueError("group_approx_percentile: need n_bins > 0 and "
                         "hi > lo")
    width = (float(hi) - float(lo)) / n_bins

    from rayflow.ops import build_op

    def binned(t: pa.Table) -> pa.Table:
        v = t.column(value_col).to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        b = np.clip(((v - lo) / width).astype(np.int64), 0, n_bins - 1)
        return t.drop_columns([value_col]).append_column(
            "_ap_bin", pa.array(b, pa.int64()))

    def finish(g) -> "pa.Table":
        import pandas as pd

        df = g.sort_values(keys + ["_ap_bin"], ignore_index=True)
        out_rows = []
        for kv, gg in df.groupby(keys, sort=True):
            kv = kv if isinstance(kv, tuple) else (kv,)
            cum = gg["_ap_n"].cumsum().to_numpy()
            n = cum[-1]
            bins = gg["_ap_bin"].to_numpy()
            row = dict(zip(keys, kv))
            for q, nm in zip(qs, names):
                rank = max(1, int(np.ceil(q * n)))
                row[nm] = lo + width * bins[
                    np.searchsorted(cum, rank, side="left")]
            out_rows.append(row)
        return pa.Table.from_pandas(
            pd.DataFrame(out_rows, columns=keys + names),
            preserve_index=False)

    def apply(ds):
        ds = ds.map_batches(binned, **_PA_KW)
        hist = build_op({"op": "group_agg", "keys": keys + ["_ap_bin"],
                         "aggs": [("count", None, "_ap_n")]})(ds)
        return shard_exchange(hist, keys, finish, batch_format="pandas")

    return apply


@register_op("group_mode")
def build_group_mode(*, keys: list[str], value_col: str,
                     out: str = "mode", count_out: str | None = None):
    """Most-frequent value per key (SQL ``mode()``), ties broken by the
    SMALLEST value — deterministic and SQL-mirrorable as
    ``row_number() OVER (ORDER BY cnt DESC, value) = 1``.

    Pure composition, bounded exchange: the (keys, value) count is the
    two-phase ``group_agg`` (only distinct pairs cross the wire), the
    winner pick is ``group_topk(k=1)`` with the value as tiebreak —
    group-cardinality-sized input."""
    from rayflow.ops import build_op

    def apply(ds):
        counts = build_op({
            "op": "group_agg", "keys": keys + [value_col],
            "aggs": [("count", None, "_gm_n")],
        })(ds)
        top = build_op({
            "op": "group_topk", "keys": keys, "order_col": "_gm_n",
            "k": 1, "descending": True, "tiebreak": value_col,
        })(counts)

        def fin(t: pa.Table) -> pa.Table:
            t = t.append_column(out, t.column(value_col))
            if count_out:
                t = t.append_column(
                    count_out, pc.cast(t.column("_gm_n"), pa.int64()))
            return t.drop_columns([value_col, "_gm_n"])

        return top.map_batches(fin, **_PA_KW)

    return apply


@register_op("group_zscore")
def build_group_zscore(*, keys: list[str], value_col: str,
                       out: str = "zscore", mode: str = "annotate",
                       threshold: float = 3.0,
                       broadcast_limit: int = 5_000_000):
    """Per-key standardization: z = (value − key_mean) / key_std
    (sample std), the winsorize/outlier-trim primitive of a curation
    pipeline.  ``mode``: ``annotate`` adds the z column, ``flag`` adds
    a 0/1 ``<out>_outlier`` column (|z| > threshold), ``trim`` drops
    outlier rows.  Keys whose std is null/0 (n ≤ 1 or constant) get
    null z and are never trimmed — SQL semantics.

    ONE two-phase aggregate builds the per-key (mean, std) table —
    group-cardinality-sized — which broadcasts back onto the stream
    (q17's thresh pattern); the z computation is a vectorized kernel.
    Fails loud past ``broadcast_limit`` keys (then shard-join the
    stats instead of broadcasting)."""
    if mode not in ("annotate", "flag", "trim"):
        raise ValueError("group_zscore: mode must be "
                         "annotate/flag/trim")

    from rayflow.ops import build_op

    def apply(ds):
        stats = build_op({
            "op": "group_agg", "keys": keys,
            "aggs": [("mean", value_col, "_gz_mean"),
                     ("std", value_col, "_gz_std")],
        })(ds)
        from rayflow.ops.kernels import collect_table

        stats_tbl = collect_table(stats)
        if stats_tbl.num_rows == 0:
            # empty input: nothing to standardize — the input (also
            # empty) passes through instead of crashing concat_tables
            return ds
        if stats_tbl.num_rows > broadcast_limit:
            raise ValueError(
                f"group_zscore: {stats_tbl.num_rows} keys exceed "
                f"broadcast_limit={broadcast_limit} — shard-join the "
                "stats table instead of broadcasting")
        rename = {k: f"_gz_{k}" for k in keys}
        stats_tbl = stats_tbl.rename_columns(
            [rename.get(c, c) for c in stats_tbl.column_names])
        joined = build_op({
            "op": "broadcast_join", "small": stats_tbl, "how": "left",
            "on": keys, "right_on": [f"_gz_{k}" for k in keys],
        })(ds)

        def fin(t: pa.Table) -> pa.Table:
            v = pc.cast(t.column(value_col), pa.float64())
            mu = t.column("_gz_mean")
            sd = t.column("_gz_std")
            ok = pc.and_(pc.is_valid(sd), pc.not_equal(sd, 0.0))
            z = pc.if_else(ok, pc.divide(pc.subtract(v, mu),
                                         pc.if_else(ok, sd, 1.0)),
                           pa.scalar(None, pa.float64()))
            t = t.drop_columns(["_gz_mean", "_gz_std"])
            if mode == "annotate":
                return t.append_column(out, z)
            is_out = pc.fill_null(
                pc.greater(pc.abs(z), threshold), False)
            if mode == "flag":
                return t.append_column(out, z).append_column(
                    f"{out}_outlier", pc.cast(is_out, pa.int64()))
            return t.filter(pc.invert(is_out))

        return joined.map_batches(fin, **_PA_KW)

    return apply


@register_op("set_op")
def build_set_op(*, other, how: str = "intersect",
                 partial_limit: int = 2_000_000):
    """Whole-row SQL set operations: ``intersect`` / ``except`` /
    ``union_distinct`` — SET semantics (distinct rows), matching the
    SQL operators of the same names.

    Plan: both sides reduce to DISTINCT rows via the adaptive two-phase
    ``group_agg`` over ALL columns (duplicates collapse before any
    exchange), then membership is decided with the existing
    ``sharded_semi`` machinery (no size assumption on either side) —
    ``intersect`` keeps distinct left rows present in right,
    ``except`` keeps those absent, ``union_distinct`` is one distinct
    over the concatenation.  Column sets must match."""
    if how not in ("intersect", "except", "union_distinct"):
        raise ValueError("set_op: how must be intersect/except/"
                         "union_distinct")

    from rayflow.ops import build_op

    def distinct(ds, cols):
        return build_op({"op": "group_agg", "keys": cols,
                         "aggs": [("count", None, "_so_n")],
                         "partial_limit": partial_limit})(ds) \
            .drop_columns(["_so_n"])

    def row_key(cols):
        # unambiguous whole-row encoding: per field "len:value", nulls
        # as the no-colon token "N" (can't collide — non-null pieces
        # always contain ':'), concatenated.  Vectorized Arrow kernels.
        def fn(t: pa.Table) -> pa.Table:
            pieces = []
            for c in cols:
                s = pc.cast(t.column(c), pa.string())
                enc = pc.binary_join_element_wise(
                    pc.cast(pc.utf8_length(s), pa.string()), s, ":")
                pieces.append(pc.coalesce(enc, pa.scalar("N")))
            key = pieces[0] if len(pieces) == 1 else \
                pc.binary_join_element_wise(*pieces, "")
            return t.append_column("_so_key", key)

        return fn

    def apply(ds):
        lsch, osch = ds.schema(), other.schema()
        cols = [c for c in lsch.names]
        ocols = [c for c in osch.names]
        if sorted(cols) != sorted(ocols):
            raise ValueError(
                f"set_op: column sets differ: {sorted(cols)} vs "
                f"{sorted(ocols)}")
        # membership is decided on a string-cast row key, under which
        # int64 5 and float64 5.0 (or 0.0 vs -0.0) encode differently —
        # silently diverging from SQL set-op equality.  Fail loud on
        # type mismatch instead of accepting mixed-type inputs.
        ltypes = dict(zip(lsch.names, lsch.types))
        otypes = dict(zip(osch.names, osch.types))
        bad = {c: (ltypes[c], otypes[c]) for c in cols
               if ltypes[c] != otypes[c]}
        if bad:
            raise ValueError(
                "set_op: column types differ between sides (row equality "
                "is decided on a canonical encoding, so e.g. int64 5 and "
                "float64 5.0 would NOT match; cast one side first): "
                + ", ".join(f"{c}: {l} vs {r}"
                            for c, (l, r) in sorted(bad.items())))
        right = other.select_columns(cols)
        if how == "union_distinct":
            return distinct(ds.union(right), cols)
        left_d = distinct(ds, cols).map_batches(row_key(cols), **_PA_KW)
        right_d = distinct(right, cols) \
            .map_batches(row_key(cols), **_PA_KW) \
            .select_columns(["_so_key"])
        out = build_op({
            "op": "sharded_semi", "right": right_d,
            "on": "_so_key", "anti": (how == "except"),
        })(left_d)
        return out.drop_columns(["_so_key"])

    return apply


@register_op("group_grouping_sets")
def build_group_grouping_sets(*, keys: list[str],
                              sets: list | str = "cube",
                              aggs: list[tuple[str, str | None, str]]
                              = (),
                              partial_limit: int = 2_000_000):
    """Arbitrary ``GROUP BY GROUPING SETS`` / ``CUBE`` (the general
    form of ``group_rollup``): each requested set must be a subset of
    ``keys``; absent key columns are typed nulls, SQL style.
    ``sets="cube"`` expands to every subset of ``keys`` (2^k sets —
    keep k small).

    Same scale plan as rollup: the FACT aggregates exactly once at the
    finest level (all ``keys``); every set re-aggregates that finished
    aggregate — group-cardinality-sized inputs, sum/count→sum,
    min/max→min/max.  ``mean``/``std`` rejected (not re-aggregable)."""
    for f, _, _ in aggs:
        if f not in ("sum", "count", "min", "max"):
            raise ValueError(
                f"group_grouping_sets: agg {f!r} is not re-aggregable "
                "from the finest level — use sum/count/min/max")
    if sets == "cube":
        from itertools import combinations

        expanded = [list(c) for r in range(len(keys), -1, -1)
                    for c in combinations(keys, r)]
    else:
        expanded = [list(s) for s in sets]
        for s in expanded:
            if not set(s) <= set(keys):
                raise ValueError(
                    f"group_grouping_sets: set {s} is not a subset of "
                    f"keys {keys}")

    from rayflow.ops import build_op

    re_aggs = [("sum" if f in ("count", "sum") else f, alias, alias)
               for f, _, alias in aggs]
    alias_cols = [alias for _, _, alias in aggs]

    def apply(ds):
        finest = build_op({"op": "group_agg", "keys": keys,
                           "aggs": list(aggs),
                           "partial_limit": partial_limit})(ds) \
            .materialize()
        sch = finest.schema()
        key_types = {n: ty for n, ty in zip(sch.names, sch.types)
                     if n in keys}

        def null_fill(level_ds, present: list[str]):
            absent = [k for k in keys if k not in present]

            def fn(t: pa.Table) -> pa.Table:
                out = {k: t.column(k) for k in present}
                for k in absent:
                    out[k] = pa.nulls(t.num_rows, key_types[k])
                for a in alias_cols:
                    out[a] = t.column(a)
                return pa.table({k: out[k] for k in keys + alias_cols})

            return level_ds.map_batches(fn, **_PA_KW)

        # small-finest fast path: the coarser sets re-aggregate a
        # group-cardinality-sized table — when it fits one block, ALL
        # levels compute in a single driver-side Arrow pass instead of
        # one exchange per set (2^k exchanges for a cube otherwise)
        if finest.count() <= 200_000:
            from rayflow.ops.kernels import collect_table

            tbl = collect_table(finest)  # empty-safe
            pieces = []
            for s in expanded:
                if sorted(s) == sorted(keys):
                    lvl = tbl
                elif s:
                    agged = tbl.group_by(s, use_threads=False).aggregate(
                        [(alias, f) for f, alias, _ in re_aggs])
                    # Arrow names aggregates "<col>_<fn>"; rebuild by
                    # lookup (output column ORDER is version-dependent)
                    lvl = pa.table(
                        {**{k: agged.column(k) for k in s},
                         **{alias: agged.column(f"{alias}_{f}")
                            for f, alias, _ in re_aggs}})
                else:
                    lvl = pa.table({
                        alias: [_arrow_scalar_agg(tbl, f, alias)]
                        for f, alias, _ in re_aggs})
                cols = {}
                for k in keys:
                    cols[k] = lvl.column(k) if k in s else \
                        pa.nulls(lvl.num_rows, key_types[k])
                for a in alias_cols:
                    cols[a] = lvl.column(a)
                pieces.append(pa.table(cols))
            import ray.data as rd

            return rd.from_arrow(pa.concat_tables(pieces))

        levels = []
        for s in expanded:
            if sorted(s) == sorted(keys):
                levels.append(null_fill(finest, keys))
                continue
            lvl = build_op({"op": "group_agg", "keys": s,
                            "aggs": re_aggs,
                            "partial_limit": partial_limit})(finest)
            levels.append(null_fill(lvl, s))
        out = levels[0]
        for lvl in levels[1:]:
            out = out.union(lvl)
        return out

    return apply


def _arrow_scalar_agg(tbl: pa.Table, f: str, col: str):
    arr = tbl.column(col)
    if f == "sum":
        return pc.sum(arr).as_py()
    if f == "min":
        return pc.min(arr).as_py()
    if f == "max":
        return pc.max(arr).as_py()
    raise ValueError(f)


@register_op("group_corr")
def build_group_corr(*, keys: list[str], x_col: str, y_col: str,
                     out: str = "corr", min_n: int = 2):
    """Per-key Pearson correlation (SQL ``corr(x, y)``), decomposed
    into moment partials like ``group_agg``'s mean/std: each block
    contributes (n, Σx, Σy, Σxy, Σx², Σy²) per key — six numbers, so
    ONLY moment rows cross the exchange — and the combine finishes
    r = (nΣxy − ΣxΣy) / √((nΣx² − (Σx)²)(nΣy² − (Σy)²)).
    Pairs with either side null are excluded (SQL semantics); keys
    with fewer than ``min_n`` pairs or zero variance yield null."""

    from rayflow.ops import build_op

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t.column(x_col), pa.float64())
        y = pc.cast(t.column(y_col), pa.float64())
        ok = pc.and_(pc.is_valid(x), pc.is_valid(y))
        t2 = t.filter(ok)
        x = pc.cast(t2.column(x_col), pa.float64())
        y = pc.cast(t2.column(y_col), pa.float64())
        t2 = pa.table({
            **{k: t2.column(k) for k in keys},
            "_gc_x": x, "_gc_y": y,
            "_gc_xy": pc.multiply(x, y),
            "_gc_xx": pc.multiply(x, x),
            "_gc_yy": pc.multiply(y, y),
        })
        return t2.group_by(keys, use_threads=False).aggregate(
            [("_gc_x", "sum"), ("_gc_y", "sum"), ("_gc_xy", "sum"),
             ("_gc_xx", "sum"), ("_gc_yy", "sum"), ([], "count_all")])

    def apply(ds):
        parts = ds.map_batches(partial, **_PA_KW)
        comb = build_op({
            "op": "group_agg", "keys": keys,
            "aggs": [("sum", "_gc_x_sum", "sx"),
                     ("sum", "_gc_y_sum", "sy"),
                     ("sum", "_gc_xy_sum", "sxy"),
                     ("sum", "_gc_xx_sum", "sxx"),
                     ("sum", "_gc_yy_sum", "syy"),
                     ("sum", "count_all", "n")],
        })(parts)

        def finish(t: pa.Table) -> pa.Table:
            n = t.column("n").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            sx = t.column("sx").to_numpy(zero_copy_only=False)
            sy = t.column("sy").to_numpy(zero_copy_only=False)
            sxy = t.column("sxy").to_numpy(zero_copy_only=False)
            sxx = t.column("sxx").to_numpy(zero_copy_only=False)
            syy = t.column("syy").to_numpy(zero_copy_only=False)
            with np.errstate(invalid="ignore", divide="ignore"):
                den = np.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
                r = np.where((n >= min_n) & (den > 0),
                             (n * sxy - sx * sy) / den, np.nan)
            cols = {k: t.column(k) for k in keys}
            cols[out] = pa.array(r, pa.float64())
            return pa.table(cols)

        return comb.map_batches(finish, **_PA_KW)

    return apply


@register_op("group_moments")
def build_group_moments(*, keys: list[str], value_col: str,
                        prefix: str | None = None, min_n: int = 2):
    """Per-key distribution moments — mean, sample variance,
    POPULATION skewness (m3/m2^1.5) and excess kurtosis (m4/m2² − 3) —
    the distribution-profiling aggregate for length/score columns.

    Decomposed like ``group_corr``: each block ships (n, Σx, Σx²,
    Σx³, Σx⁴) per key — five numbers — and the combine finishes the
    closed forms.  Population (not sample-adjusted) skew/kurt by
    design: engines disagree on the small-n corrections, so the SQL
    oracle mirrors the IDENTICAL power-sum formula instead of calling
    an engine builtin.  Nulls excluded; keys with n < ``min_n`` or
    zero variance yield null skew/kurt."""
    from rayflow.ops import build_op

    pre = f"{value_col}_" if prefix is None else prefix

    def partial(t: pa.Table) -> pa.Table:
        t2 = t.filter(pc.is_valid(t.column(value_col)))
        x = pc.cast(t2.column(value_col), pa.float64())
        x2 = pc.multiply(x, x)
        t2 = pa.table({
            **{k: t2.column(k) for k in keys},
            "_gm_x": x, "_gm_x2": x2,
            "_gm_x3": pc.multiply(x2, x),
            "_gm_x4": pc.multiply(x2, x2),
        })
        return t2.group_by(keys, use_threads=False).aggregate(
            [("_gm_x", "sum"), ("_gm_x2", "sum"), ("_gm_x3", "sum"),
             ("_gm_x4", "sum"), ([], "count_all")])

    def apply(ds):
        comb = build_op({
            "op": "group_agg", "keys": keys,
            "aggs": [("sum", "_gm_x_sum", "s1"),
                     ("sum", "_gm_x2_sum", "s2"),
                     ("sum", "_gm_x3_sum", "s3"),
                     ("sum", "_gm_x4_sum", "s4"),
                     ("sum", "count_all", "n")],
        })(ds.map_batches(partial, **_PA_KW))

        def finish(t: pa.Table) -> pa.Table:
            n = t.column("n").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            s1 = t.column("s1").to_numpy(zero_copy_only=False)
            s2 = t.column("s2").to_numpy(zero_copy_only=False)
            s3 = t.column("s3").to_numpy(zero_copy_only=False)
            s4 = t.column("s4").to_numpy(zero_copy_only=False)
            with np.errstate(invalid="ignore", divide="ignore"):
                mu = s1 / n
                m2 = s2 / n - mu * mu
                m3 = s3 / n - 3 * mu * s2 / n + 2 * mu ** 3
                m4 = (s4 / n - 4 * mu * s3 / n
                      + 6 * mu * mu * s2 / n - 3 * mu ** 4)
                var = np.where(n > 1, n / (n - 1) * m2, np.nan)
                ok = (n >= min_n) & (m2 > 0)
                skew = np.where(ok, m3 / np.power(m2, 1.5), np.nan)
                kurt = np.where(ok, m4 / (m2 * m2) - 3.0, np.nan)
            cols = {k: t.column(k) for k in keys}
            cols[f"{pre}mean"] = pa.array(mu, pa.float64())
            cols[f"{pre}var"] = pa.array(var, pa.float64())
            cols[f"{pre}skew"] = pa.array(skew, pa.float64())
            cols[f"{pre}kurt"] = pa.array(kurt, pa.float64())
            return pa.table(cols)

        return comb.map_batches(finish, **_PA_KW)

    return apply


@register_op("distinct")
def build_distinct(*, columns: list[str] | None = None,
                   partial_limit: int = 2_000_000):
    """SQL ``SELECT DISTINCT`` as a first-class op: unique rows over
    ``columns`` (default: all columns).  Thin wrapper over the
    adaptive two-phase ``group_agg`` — duplicates collapse per block
    BEFORE any exchange, and the combine is repartition(1) when small
    or a keyed exchange over already-collapsed rows otherwise."""
    from rayflow.ops import build_op

    def apply(ds):
        cols = columns or list(ds.schema().names)
        out = build_op({"op": "group_agg", "keys": cols,
                        "aggs": [("count", None, "_d_n")],
                        "partial_limit": partial_limit})(ds)
        return out.drop_columns(["_d_n"])

    return apply

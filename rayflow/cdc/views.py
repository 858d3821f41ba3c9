"""Incrementally-maintained windowed aggregates over a CDC lake.

The ``system_window``-on-a-stream use of the reference (``⟨upstream:
internal/impl/pure/buffer_system_window.go⟩`` feeding an aggregate):
a tumbling-window aggregate kept up to date as change bands land,
WITHOUT recomputing from the full table.

Classic delta/retraction view maintenance, composed from the engine's
own primitives:

1. ``changes_between(prev_wm, wm)`` — the delta (band-pruned read);
2. LWW-collapse the delta per key (``dedupe`` two-phase reduce) — the
   net final event per affected key;
3. retract: the affected keys' OLD rows, read from
   ``snapshot_dataset(prev_wm)`` filtered by a broadcast key set
   (immutable state files — zero data movement beyond the pruned
   scan), weighted -1;
4. insert: the delta's final non-delete rows, weighted +1;
5. fold the weighted partial aggregates into the view's state table.

Cost per refresh ∝ delta size (+ a filtered snapshot scan), never the
table.  The state table is (windows × keys) partial sums — tiny by
the nature of an aggregate view — so the fold is a driver-side Arrow
group-sum.  Only sum/count/mean/std are maintainable this way (they
retract); min/max need a from-scratch recompute and are rejected.

Two extensions beyond the windowed case:

- **group-only views** (``ts_col=None``): the same delta/retraction
  machinery maintains a plain grouped aggregate (one global window);
- **durable state** (``state_dir=...``): every refresh checkpoints the
  partial-sum table + ``applied_lsn`` atomically (meta json is the
  commit point, manifest discipline) so a restarted process resumes
  folding from the watermark instead of from scratch — the view-level
  analogue of the lake's resumable replay.  A checkpoint is bound to
  its view DEFINITION by a cfg hash; reusing a state_dir with a
  different definition fails loud.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_RETRACTABLE = {"sum", "count", "mean", "std"}


def _weighted_partials(t: pa.Table, w: int, cfg: dict) -> pa.Table:
    """Per-(window, keys) partial sums of a delta slice, each
    contribution multiplied by ``w`` (+1 insert / -1 retract).
    Module-level so map_batches closures ship only the small ``cfg``
    dict, never the view/engine objects.  Column names follow
    :func:`rayflow.ops.core.partial_table` so the view state feeds
    ``finalize_from_sums`` unchanged."""
    if cfg["ts_col"] is not None:
        t = t.filter(pc.is_valid(t[cfg["ts_col"]]))
    if t.num_rows == 0:
        return _empty_state(cfg)
    if cfg["ts_col"] is None:        # group-only view: one global window
        win = pa.array(np.zeros(t.num_rows, np.int64), pa.int64())
    else:
        us = pc.cast(pc.cast(t[cfg["ts_col"]], pa.timestamp("us")),
                     pa.int64())
        win = pc.multiply(
            pc.cast(pc.floor(pc.divide(pc.cast(us, pa.float64()),
                                       cfg["size_us"])), pa.int64()),
            cfg["size_us"])
    cols: dict = {cfg["out"]: win}
    for k in cfg["keys"]:
        cols[k] = t[k]
    wf = float(w)
    for col, kind in cfg["need"]:
        v = pc.cast(t[col], pa.float64())
        valid = pc.is_valid(v)
        v0 = pc.fill_null(v, 0.0)
        if kind == "sum":
            cols[f"{col}_sum"] = pc.multiply(v0, wf)
        elif kind == "cv":
            cols[f"{col}_count"] = pc.if_else(
                valid, pa.scalar(wf), pa.scalar(0.0))
        elif kind == "sq":
            cols[f"__sq_{col}_sum"] = pc.multiply(pc.multiply(v0, v0), wf)
    cols["count_all"] = pa.array(np.full(t.num_rows, wf))
    part = pa.table(cols)
    gk = [cfg["out"]] + cfg["keys"]
    g = part.group_by(gk, use_threads=False) \
        .aggregate([(n, "sum") for n in cfg["names"]])
    return g.rename_columns(gk + cfg["names"])


def _empty_state(cfg: dict) -> pa.Table:
    fields = [(cfg["out"], pa.int64())]
    # key columns take their lake types from the first real slice; the
    # empty placeholder is only ever used when EVERY part is empty, so
    # its string stand-in never merges with real data
    for k in cfg["keys"]:
        fields.append((k, pa.string()))
    for n in cfg["names"]:
        fields.append((n, pa.float64()))
    return pa.table({n: pa.array([], t) for n, t in fields})


class TumblingWindowView:
    """Maintained tumbling-window aggregate over a :class:`CdcEngine`
    lake.  ``aggs`` uses group_agg's [(fn, col, alias)] spec.

    >>> view = TumblingWindowView(eng, log_dir, ts_col="ts",
    ...                           size_s=3600, aggs=[("count", None, "n")])
    >>> view.refresh()          # apply all newly committed bands
    >>> view.result()           # pa.Table: window_start, n
    """

    def __init__(self, engine, log_dir: str, *, ts_col: str | None = None,
                 size_s: float | None = None,
                 keys: list[str] | None = None,
                 aggs: list[tuple[str, str | None, str]],
                 key_cols: tuple[str, ...] = ("conv_id", "turn_idx"),
                 out: str = "window_start",
                 state_dir: str | None = None):
        bad = [f for f, _, _ in aggs if f not in _RETRACTABLE]
        if bad:
            raise ValueError(
                f"TumblingWindowView: {bad} cannot be maintained "
                "incrementally (no retraction); use sum/count/mean/std or "
                "recompute from a snapshot")
        if (ts_col is None) != (size_s is None):
            raise ValueError("TumblingWindowView: pass ts_col AND size_s "
                             "for a windowed view, or neither for a "
                             "group-only view")
        if ts_col is None and not keys:
            raise ValueError("TumblingWindowView: a group-only view "
                             "needs keys")
        self.engine = engine
        self.log_dir = log_dir
        self.aggs = list(aggs)
        self.key_cols = list(key_cols)
        from rayflow.ops.core import agg_need

        need, _ = agg_need(aggs)
        need = sorted(need)
        names = []
        for col, kind in need:
            if kind == "sq":
                names.append(f"__sq_{col}_sum")
            elif kind == "sum":
                names.append(f"{col}_sum")
            elif kind == "cv":
                names.append(f"{col}_count")
        # state always tracks a row count so emptied groups can be dropped
        names.append("count_all")
        #: everything a worker-side partial needs — plain picklable dict
        self.cfg = {"ts_col": ts_col,
                    "size_us": None if size_s is None else int(size_s * 1e6),
                    "keys": list(keys or []), "out": out,
                    "need": need, "names": names}
        self.applied_lsn = -1
        self._state: pa.Table | None = None
        self.state_dir = state_dir
        if state_dir is not None:
            self._load_state()

    # -- durability ----------------------------------------------------------

    def _cfg_key(self) -> str:
        import hashlib
        import json

        blob = json.dumps({"cfg": self.cfg, "aggs": self.aggs,
                           "key_cols": self.key_cols}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def _load_state(self) -> None:
        """Resume from a persisted checkpoint, if one exists and was
        written by a view with the IDENTICAL definition (cfg hash —
        silently folding new deltas into a differently-shaped state
        would corrupt the view)."""
        import json
        import os

        import pyarrow.parquet as pq

        meta_p = os.path.join(self.state_dir, "view.json")
        if not os.path.exists(meta_p):
            return
        with open(meta_p) as f:
            meta = json.load(f)
        if meta.get("cfg_key") != self._cfg_key():
            raise ValueError(
                f"view state in {self.state_dir} was written by a view "
                "with a different definition (ts/size/keys/aggs); use a "
                "fresh state_dir or delete the stale checkpoint")
        self.applied_lsn = int(meta["applied_lsn"])
        state_p = os.path.join(self.state_dir, "state.parquet")
        self._state = pq.read_table(state_p) if os.path.exists(state_p) \
            else None

    def _persist_state(self) -> None:
        """Checkpoint atomically: state parquet first, then the meta
        json via write-temp + ``os.replace`` — the meta is the commit
        point, so a crash between the two leaves the OLD checkpoint
        fully intact (the new parquet is just an orphan overwrite
        target).  Same discipline as the lake manifest."""
        import json
        import os
        import tempfile

        import pyarrow.parquet as pq

        os.makedirs(self.state_dir, exist_ok=True)
        state_p = os.path.join(self.state_dir, "state.parquet")
        if self._state is not None:
            tmp = state_p + f".tmp.{os.getpid()}"
            pq.write_table(self._state, tmp)
            os.replace(tmp, state_p)
        fd, tmp = tempfile.mkstemp(dir=self.state_dir, prefix=".view.")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump({"applied_lsn": self.applied_lsn,
                           "cfg_key": self._cfg_key()}, f)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, os.path.join(self.state_dir, "view.json"))
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    # -- maintenance ---------------------------------------------------------

    def refresh(self, to_lsn: int | None = None) -> "TumblingWindowView":
        """Fold every committed band with ``applied < lsn <= to`` into
        the view.  ``to_lsn`` must be a committed watermark (default:
        the engine's current one) — the retraction lookup time-travels
        to ``applied_lsn``, which therefore always sits on a committed
        snapshot."""
        import ray

        from rayflow.cdc.source import changes_between
        from rayflow.ops import build_op
        from rayflow.ops.kernels import collect_table

        cfg = self.cfg
        to = self.engine.manifest.committed_lsn if to_lsn is None else to_lsn
        if to <= self.applied_lsn:
            return self
        snaps = set(self.engine.snapshot_lsns())
        if to not in snaps:
            raise ValueError(f"refresh watermark {to} is not a committed "
                             f"snapshot (have {sorted(snaps)[-5:]})")
        delta = changes_between(self.log_dir, self.applied_lsn, to)
        final = build_op({"op": "dedupe", "keys": self.key_cols,
                          "order_col": "lsn"})(delta)
        final = final.materialize()

        parts = [self._state if self._state is not None
                 else _empty_state(cfg)]
        key_cols = self.key_cols
        if self.applied_lsn >= 0 and final.count():
            # affected keys -> broadcast composite set -> pruned old scan;
            # partials computed worker-side, only (window×key) sums return
            aff = collect_table(final.select_columns(key_cols))
            comp = pc.binary_join_element_wise(
                *[pc.cast(aff[k], pa.string()) for k in key_cols], "\x1f")
            aff_ref = ray.put(comp.combine_chunks())
            snap = self.engine.snapshot_dataset(self.applied_lsn)

            def old_partials(t: pa.Table) -> pa.Table:
                from rayflow.ops.kernels import _fetch

                keyset = _fetch(aff_ref, lambda v: v)
                c = pc.binary_join_element_wise(
                    *[pc.cast(t[k], pa.string()) for k in key_cols], "\x1f")
                return _weighted_partials(
                    t.filter(pc.is_in(c, value_set=keyset)), -1, cfg)

            parts.append(collect_table(snap.map_batches(
                old_partials, batch_format="pyarrow", zero_copy_batch=True)))

        def ins_partials(t: pa.Table) -> pa.Table:
            live = t.filter(pc.not_equal(pc.fill_null(t["op"], ""), "delete"))
            return _weighted_partials(live, +1, cfg)

        parts.append(collect_table(final.map_batches(
            ins_partials, batch_format="pyarrow", zero_copy_batch=True)))

        parts = [p for p in parts if p.num_rows]
        if parts:
            merged = pa.concat_tables(parts, promote_options="permissive")
            # canonical order before combining: float-sum determinism rule
            merged = merged.sort_by(
                [(c, "ascending") for c in merged.column_names])
            gk = [cfg["out"]] + cfg["keys"]
            g = merged.group_by(gk, use_threads=False) \
                .aggregate([(n, "sum") for n in cfg["names"]])
            g = g.rename_columns(gk + cfg["names"])
            # retraction emptied some (window, keys) groups: drop them
            self._state = g.filter(pc.greater(g["count_all"], 0.5))
        else:
            self._state = _empty_state(cfg)
        self.applied_lsn = to
        if self.state_dir is not None:
            self._persist_state()
        return self

    # -- read ----------------------------------------------------------------

    def result(self) -> pa.Table:
        """Finalized aggregate table: ``out`` as timestamp[us] + keys +
        one column per agg alias, sorted by window then keys."""
        from rayflow.ops.core import finalize_from_sums

        cfg = self.cfg
        st = self._state if self._state is not None else _empty_state(cfg)
        ren = {n: n + "_sum" for n in cfg["names"]}
        st = st.rename_columns([ren.get(c, c) for c in st.column_names])
        fin = finalize_from_sums(st, [cfg["out"]] + cfg["keys"], self.aggs)
        if cfg["ts_col"] is None:      # group-only: drop the constant window
            fin = fin.drop_columns([cfg["out"]])
            return fin.sort_by([(c, "ascending") for c in cfg["keys"]])
        fin = fin.set_column(
            fin.schema.get_field_index(cfg["out"]), cfg["out"],
            pc.cast(fin[cfg["out"]], pa.timestamp("us")))
        return fin.sort_by([(c, "ascending")
                            for c in [cfg["out"]] + cfg["keys"]])

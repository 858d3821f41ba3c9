"""Second wave of processor analogues: branch/workflow, archive/
unarchive, grok, json_schema validation, cache ops, metric, read_until.

These complete the SURVEY.md §2.3 inventory rows not covered by
:mod:`rayflow.ops.core`.
"""

from __future__ import annotations

import json
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc

from rayflow import expr as E
from rayflow.ops import build_op, register_op

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)


@register_op("branch")
def build_branch(*, request_map: dict[str, Any], processors: list[dict],
                 result_map: dict[str, str]):
    """The enrichment workhorse (``⟨upstream:
    internal/impl/pure/processor_branch.go⟩``): derive a request view
    from each row (``request_map`` = col→expr), run child processors on
    it, then merge selected result columns back onto the ORIGINAL rows
    (``result_map`` = out_col→branch_col).  Row-aligned children only
    (mapping/filter-free transforms) — the reference has the same
    constraint for in-place result mapping."""
    req_exprs = {k: (v if isinstance(v, E.Expr) else E.parse(v))
                 for k, v in request_map.items()}
    child_fns = [_table_fn(p) for p in processors]

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            req = pa.table({k: _as_array(ex.eval(t), t.num_rows)
                            for k, ex in req_exprs.items()})
            branch = req
            for child in child_fns:
                branch = child(branch)
            if branch.num_rows != t.num_rows:
                raise ValueError(
                    "branch children changed row count; result_map requires "
                    "row-aligned children"
                )
            for out_col, branch_col in result_map.items():
                col = branch.column(branch_col)
                if out_col in t.column_names:
                    t = t.set_column(t.column_names.index(out_col), out_col, col)
                else:
                    t = t.append_column(out_col, col)
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


def _as_array(v, n):
    if isinstance(v, pa.Scalar):
        return pa.nulls(n, v.type).fill_null(v)
    return v


def _table_fn(conf: dict):
    """Compile a branch-child processor config into a pure
    ``pa.Table → pa.Table`` kernel (runs INSIDE the parent batch — no
    nested Dataset execution in workers).  Row-aligned ops only."""
    conf = dict(conf)
    op = conf.pop("op")
    if op == "mapping":
        exprs = {k: (v if isinstance(v, E.Expr) else E.parse(v))
                 for k, v in conf["cols"].items()}

        def mapping_fn(t: pa.Table) -> pa.Table:
            for name, ex in exprs.items():
                val = _as_array(ex.eval(t), t.num_rows)
                if name in t.column_names:
                    t = t.set_column(t.column_names.index(name), name, val)
                else:
                    t = t.append_column(name, val)
            return t

        return mapping_fn
    if op == "grok":
        col, pattern = conf["column"], conf["pattern"]

        def grok_fn(t: pa.Table) -> pa.Table:
            extracted = pc.extract_regex(t.column(col), pattern)
            for field in extracted.type:
                t = t.append_column(field.name, pc.struct_field(extracted, field.name))
            return t

        return grok_fn
    raise ValueError(
        f"branch children must be row-aligned table ops (mapping/grok), got {op!r}"
    )


@register_op("workflow")
def build_workflow(*, branches: dict[str, dict], order: list[str] | None = None):
    """DAG of named branches with dependency ordering (``⟨upstream:
    internal/impl/pure/processor_workflow.go⟩``).  ``order`` gives the
    topological order (explicit, like the reference's adjacency spec);
    default is insertion order."""
    names = order or list(branches)
    built = [(n, build_op({"op": "branch", **branches[n]})) for n in names]

    def apply(ds):
        for _, b in built:
            ds = b(ds)
        return ds

    return apply


@register_op("archive")
def build_archive(*, columns: list[str], out: str = "archived",
                  fmt: str = "json_array"):
    """Batch → one document (``archive`` processor, json_array/lines):
    each BLOCK becomes a single row whose payload is the serialized
    rows.  Vectorized via Arrow→pylist once per block."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            rows = t.select(columns).to_pylist()
            if fmt == "json_array":
                payload = json.dumps(rows, default=str, sort_keys=True)
            elif fmt == "lines":
                payload = "\n".join(
                    json.dumps(r, default=str, sort_keys=True) for r in rows
                )
            else:
                raise ValueError(f"unknown archive format {fmt!r}")
            return pa.table({out: pa.array([payload], pa.string()),
                             "n_rows": pa.array([t.num_rows], pa.int64())})

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("unarchive")
def build_unarchive(*, column: str, fmt: str = "json_array"):
    """One document → rows (``unarchive``): parse a JSON-array (or
    JSON-lines) string column and explode to one row per element, with
    element keys as columns."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            out_rows: list[dict] = []
            for payload in t.column(column).to_pylist():
                if payload is None:
                    continue
                if fmt == "json_array":
                    out_rows.extend(json.loads(payload))
                elif fmt == "lines":
                    out_rows.extend(
                        json.loads(line) for line in payload.splitlines() if line
                    )
                else:
                    raise ValueError(f"unknown unarchive format {fmt!r}")
            if not out_rows:
                return pa.table({"_empty": pa.array([], pa.int8())})
            return pa.Table.from_pylist(out_rows)

        return ds.map_batches(fn, batch_format="pyarrow")

    return apply


@register_op("parse_csv")
def build_parse_csv(*, column: str, header: bool = True,
                    delimiter: str = ",",
                    column_names: list[str] | None = None,
                    keep: list[str] | None = None):
    """CSV document → rows (``parse_csv`` processor, ``⟨upstream:
    internal/impl/pure/processor_parse_csv.go⟩``): each value of
    ``column`` is a CSV document (with a header row unless ``header``
    is false — then pass ``column_names``); every record becomes an
    output row.  Parsing is Arrow's C++ CSV reader per document;
    ``keep`` lists parent columns to replicate onto the exploded rows
    (default: all other columns)."""
    import io

    import pyarrow.csv as pacsv

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            parents = keep if keep is not None else [
                c for c in t.column_names if c != column
            ]
            parsed: list[pa.Table] = []
            parent_idx: list[int] = []
            ropts = pacsv.ReadOptions(
                column_names=None if header else column_names)
            popts = pacsv.ParseOptions(delimiter=delimiter)
            for i, payload in enumerate(t.column(column).to_pylist()):
                if payload is None or not payload.strip():
                    continue
                tbl = pacsv.read_csv(
                    io.BytesIO(payload.encode()), read_options=ropts,
                    parse_options=popts)
                parsed.append(tbl)
                parent_idx.extend([i] * tbl.num_rows)
            if not parsed:
                return pa.table({"_empty": pa.array([], pa.int8())})
            body = pa.concat_tables(parsed, promote_options="permissive")
            if parents:
                rep = t.select(parents).take(pa.array(parent_idx, pa.int64()))
                for name in rep.column_names:
                    body = body.append_column(name, rep.column(name))
            return body

        return ds.map_batches(fn, batch_format="pyarrow")

    return apply


@register_op("select_parts")
def build_select_parts(*, indices: list[int]):
    """Positional batch edit (``select_parts``, ``⟨upstream:
    internal/impl/pure/processor_select_parts.go⟩``): keep only the rows
    at the given positions OF EACH BLOCK.  The reference's "batch" maps
    to the Ray Data block here — the only ordered unit in the engine;
    negative indices count from the block's end.  Positional semantics
    are inherently block-relative (documented; pair with
    ``batch_policy`` to control block composition)."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            sel = [i if i >= 0 else n + i for i in indices]
            sel = [i for i in sel if 0 <= i < n]
            return t.take(pa.array(sel, pa.int64()))

        return ds.map_batches(fn, batch_size=None, **_PA_KW)

    return apply


@register_op("insert_part")
def build_insert_part(*, index: int, row: dict):
    """Positional insert (``insert_part``): splice a literal row into
    each block at ``index`` (negative = from the end; out-of-range =
    append).  Missing columns are null; the row's extra keys are
    ignored.  Same block-relative caveat as ``select_parts``."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            i = index if index >= 0 else max(0, n + index + 1)
            i = min(i, n)
            one = pa.table({
                name: pa.array([row.get(name)]).cast(t.schema.field(name).type)
                for name in t.column_names
            })
            return pa.concat_tables([t.slice(0, i), one, t.slice(i)])

        return ds.map_batches(fn, batch_size=None, **_PA_KW)

    return apply


@register_op("subprocess_map")
def build_subprocess_map(*, argv: list[str], column: str, out: str,
                         timeout_s: float = 60.0):
    """``subprocess`` processor (``⟨upstream:
    internal/impl/pure/processor_subprocess.go⟩``, lines codec): pipe
    each row's ``column`` value to a child process (one line per row,
    ONE child per block — not per row) and read one output line per row
    into ``out``.  A child that fails or emits the wrong line count
    marks every row of the block with ``_error`` instead of crashing
    the pipeline (dead-letter with ``catch``)."""
    import subprocess as sp

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            vals = ["" if v is None else str(v)
                    for v in t.column(column).to_pylist()]
            try:
                res = sp.run(argv, input="\n".join(vals) + "\n",
                             capture_output=True, text=True,
                             timeout=timeout_s, check=True)
                lines = res.stdout.splitlines()
                if len(lines) != len(vals):
                    raise ValueError(
                        f"subprocess emitted {len(lines)} lines for "
                        f"{len(vals)} rows")
                return t.append_column(out, pa.array(lines, pa.string())) \
                        .append_column("_error", pa.nulls(t.num_rows, pa.string()))
            except (sp.SubprocessError, ValueError, OSError) as e:
                err = pa.array([f"subprocess: {e}"] * t.num_rows, pa.string())
                return t.append_column(out, pa.nulls(t.num_rows, pa.string())) \
                        .append_column("_error", err)

        return ds.map_batches(fn, batch_format="pyarrow")

    return apply


@register_op("parse_xml")
def build_parse_xml(*, column: str, out_prefix: str = "",
                    drop_source: bool = False):
    """XML document → columns (``xml`` processor ``to_json`` operator,
    ``⟨upstream: internal/impl/pure/processor_xml.go⟩``): each value of
    ``column`` is parsed with the stdlib ElementTree; direct child
    element tags become columns (text content, as strings) and root
    attributes become ``@attr`` columns.  Repeated child tags are
    JSON-array-encoded.  Parse failures set ``_error``."""
    import xml.etree.ElementTree as ET

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            rows: list[dict] = []
            errs: list[str | None] = []
            for payload in t.column(column).to_pylist():
                if payload is None:
                    rows.append({})
                    errs.append(None)
                    continue
                try:
                    root = ET.fromstring(payload)
                except ET.ParseError as e:
                    rows.append({})
                    errs.append(f"parse_xml: {e}")
                    continue
                rec: dict = {f"@{k}": v for k, v in root.attrib.items()}
                multi: dict[str, list] = {}
                for child in root:
                    multi.setdefault(child.tag, []).append(
                        (child.text or "").strip())
                for tag, vals in multi.items():
                    rec[out_prefix + tag] = (
                        vals[0] if len(vals) == 1 else json.dumps(vals))
                rows.append(rec)
                errs.append(None)
            keys = sorted({k for r in rows for k in r})
            for k in keys:
                t = t.append_column(
                    k, pa.array([r.get(k) for r in rows], pa.string()))
            t = t.append_column("_error", pa.array(errs, pa.string()))
            if drop_source:
                t = t.drop_columns([column])
            return t

        return ds.map_batches(fn, batch_format="pyarrow")

    return apply


@register_op("batch_policy")
def build_batch_policy(*, count: int | None = None,
                       bytes_budget: int | None = None,
                       sample_rows: int = 1024):
    """Batching policy (``⟨upstream: internal/batch/policy/⟩``): re-batch
    the stream by row COUNT or by an approximate BYTE budget.  The byte
    path estimates bytes/row from the first ``sample_rows`` rows of the
    stream and converts the budget to a row count — the wide-``text``
    lake tables need byte budgets, not row counts, to keep
    batch × concurrency inside a worker's heap.  ``period``/``check``
    policies are time/content-triggered flushes that only make sense on
    an unbounded stream; on bounded replay they are documented no-ops."""

    def apply(ds):
        n = count
        if n is None and bytes_budget is not None:
            import ray

            sample = ds.limit(sample_rows).to_arrow_refs()
            tbls = [t for t in ray.get(sample)]
            tot_rows = sum(t.num_rows for t in tbls)
            tot_bytes = sum(t.nbytes for t in tbls)
            per_row = max(1, tot_bytes // max(1, tot_rows))
            n = max(1, int(bytes_budget // per_row))
        if n is None:
            raise ValueError("batch_policy: need count or bytes_budget")
        return ds.map_batches(lambda t: t, batch_size=n,
                              batch_format="pyarrow", zero_copy_batch=True)

    return apply


@register_op("grok")
def build_grok(*, column: str, pattern: str, drop_source: bool = False):
    """Regex extraction into typed columns (``grok`` / ``parse_log``):
    named groups of ``pattern`` become string columns (vectorized
    ``pc.extract_regex``); non-matching rows get nulls + ``_error``."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            extracted = pc.extract_regex(t.column(column), pattern)
            struct_type = extracted.type
            err = pc.if_else(
                pc.is_valid(extracted),
                pa.scalar(None, pa.string()),
                pa.scalar("grok: no match", pa.string()),
            )
            for field in struct_type:
                t = t.append_column(field.name, pc.struct_field(extracted, field.name))
            t = t.append_column("_error", err)
            if drop_source:
                t = t.drop_columns([column])
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("json_schema")
def build_json_schema(*, column: str, required: list[str],
                      types: dict[str, type] | None = None,
                      enums: dict[str, list] | None = None,
                      minimums: dict[str, float] | None = None,
                      maximums: dict[str, float] | None = None):
    """Validate a JSON-string column against a schema spec — required
    keys, python types, enum membership, numeric minimum/maximum (the
    ``json_schema`` processor's common constraint set, no jsonschema
    dependency).  Failures set ``_error`` (route with ``catch``)."""
    types = types or {}
    enum_sets = {k: set(v) for k, v in (enums or {}).items()}
    minimums = minimums or {}
    maximums = maximums or {}

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            errs = []
            for payload in t.column(column).to_pylist():
                err = None
                try:
                    doc = json.loads(payload) if payload is not None else None
                    if not isinstance(doc, dict):
                        err = "json_schema: not an object"
                    else:
                        for k in required:
                            if k not in doc:
                                err = f"json_schema: missing key {k}"
                                break
                        # constraints apply to every PRESENT key that
                        # declares one — required or optional
                        if err is None:
                            constrained = (set(types) | set(enum_sets)
                                           | set(minimums) | set(maximums))
                            for k in constrained:
                                if k not in doc:
                                    continue
                                v = doc[k]
                                want = types.get(k)
                                if want is not None and \
                                        not isinstance(v, want):
                                    err = f"json_schema: {k} wrong type"
                                    break
                                if k in enum_sets and v not in enum_sets[k]:
                                    err = f"json_schema: {k} not in enum"
                                    break
                                # bool is an int subclass in Python but
                                # not a number in JSON Schema terms
                                is_num = isinstance(v, (int, float)) and \
                                    not isinstance(v, bool)
                                if k in minimums and (
                                        not is_num or v < minimums[k]):
                                    err = f"json_schema: {k} below minimum"
                                    break
                                if k in maximums and (
                                        not is_num or v > maximums[k]):
                                    err = f"json_schema: {k} above maximum"
                                    break
                except (json.JSONDecodeError, TypeError):
                    err = "json_schema: invalid json"
                errs.append(err)
            return t.append_column("_error", pa.array(errs, pa.string()))

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("cache_set")
def build_cache_set(*, cache: str, key_expr: Any, value_col: str,
                    add_only: bool = False):
    """Write rows into a named cache resource (``cache`` output /
    processor set|add).  ``add_only=True`` = set-if-absent."""
    kex = key_expr if isinstance(key_expr, E.Expr) else E.parse(key_expr)

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            import ray

            from rayflow.state import get_cache

            handle = get_cache(cache)
            keys = [str(k) for k in _as_array(kex.eval(t), t.num_rows).to_pylist()]
            vals = t.column(value_col).to_pylist()
            items = dict(zip(keys, vals))
            if add_only:
                ray.get(handle.madd.remote(items))
            else:
                ray.get(handle.mset.remote(items))
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("cache_get")
def build_cache_get(*, cache: str, key_expr: Any, out: str,
                    out_type: pa.DataType | None = None):
    """Enrich rows from a named cache (``branch`` + ``cache`` get)."""
    kex = key_expr if isinstance(key_expr, E.Expr) else E.parse(key_expr)

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            import ray

            from rayflow.state import get_cache

            handle = get_cache(cache)
            keys = [str(k) for k in _as_array(kex.eval(t), t.num_rows).to_pylist()]
            vals = ray.get(handle.mget.remote(keys))
            return t.append_column(out, pa.array(vals, out_type))

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("metric")
def build_metric(*, name: str, counters: dict[str, Any], sink: str = "default"):
    """Emit counters from the stream (``metric`` processor): each counter
    is an expression summed per block and accumulated in the named
    metrics actor.  Pass-through — the data is unchanged."""
    exprs = {k: (v if isinstance(v, E.Expr) else E.parse(v))
             for k, v in counters.items()}

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            import ray

            from rayflow.state import get_metrics

            handle = get_metrics(sink)
            updates = {f"{name}.count": float(t.num_rows)}
            for k, ex in exprs.items():
                val = ex.eval(t)
                if isinstance(val, pa.Scalar):
                    updates[f"{name}.{k}"] = float(val.as_py() or 0) * t.num_rows
                else:
                    updates[f"{name}.{k}"] = float(
                        pc.sum(pc.cast(val, pa.float64())).as_py() or 0.0
                    )
            # acknowledged: fire-and-forget increments can still be in
            # flight when the driver reads the snapshot (observed)
            ray.get(handle.incr.remote(updates))
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


def read_until(make_ds, predicate, max_iters: int = 1000):
    """Bounded replay loop (``read_until`` input): keep pulling datasets
    from ``make_ds(i)`` until ``predicate(ds) → True`` or the source is
    exhausted (``make_ds`` returns None).  Driver-side control flow, like
    the reference's wrapper input terminating on a Bloblang check."""
    out = []
    for i in range(max_iters):
        ds = make_ds(i)
        if ds is None:
            break
        out.append(ds)
        if predicate(ds):
            break
    if not out:
        return None
    base = out[0]
    return base.union(*out[1:]) if len(out) > 1 else base


@register_op("cached_mapping")
def build_cached_mapping(*, key_expr: Any, fn_name: str, out: str,
                         max_items: int = 100_000):
    """Memoized scalar application (the ``cached`` processor): apply a
    registered scalar function only to key values not seen before by
    this worker process; the per-process LRU persists across batches.
    Worthwhile when the function is expensive (hashes, parses) and keys
    repeat."""
    kex = key_expr if isinstance(key_expr, E.Expr) else E.parse(key_expr)

    class CachedApply:
        def __init__(self):
            self.cache: dict[Any, Any] = {}
            from rayflow.expr import _REGISTRY

            self.fn = _REGISTRY[fn_name]

        def __call__(self, t: pa.Table) -> pa.Table:
            keys = _as_array(kex.eval(t), t.num_rows).to_pylist()
            missing = sorted({k for k in keys if k not in self.cache and k is not None})
            if missing:
                computed = self.fn(pa.array(missing)).to_pylist()
                self.cache.update(zip(missing, computed))
                if len(self.cache) > max_items:  # simple LRU-ish trim
                    for k in list(self.cache)[: len(self.cache) - max_items]:
                        del self.cache[k]
            vals = [None if k is None else self.cache.get(k) for k in keys]
            return t.append_column(out, pa.array(vals))

    def apply(ds):
        from rayflow.ops.kernels import per_process

        return ds.map_batches(per_process(CachedApply),
                              batch_format="pyarrow", zero_copy_batch=True)

    return apply


#: named log-format presets (the reference's parse_log codecs) — RE2
#: named-group patterns feeding the same vectorized grok kernel.
LOG_FORMATS: dict[str, str] = {
    "syslog_rfc3164":
        r"^(?:<(?P<pri>\d+)>)?"
        r"(?P<ts>[A-Z][a-z]{2}\s+\d{1,2} \d{2}:\d{2}:\d{2}) "
        r"(?P<host>\S+) "
        r"(?P<tag>[^:\[\s]+)(?:\[(?P<pid>\d+)\])?: "
        r"(?P<msg>.*)$",
    "syslog_rfc5424":
        r"^<(?P<pri>\d+)>(?P<ver>\d+) "
        r"(?P<ts>\S+) (?P<host>\S+) (?P<app>\S+) "
        r"(?P<procid>\S+) (?P<msgid>\S+) (?:\[[^\]]*\]|-)\s*"
        r"(?P<msg>.*)$",
    "apache_common":
        r"^(?P<ip>\S+) (?P<ident>\S+) (?P<user>\S+) "
        r"\[(?P<ts>[^\]]+)\] "
        r'"(?P<method>\S+) (?P<path>\S+) (?P<proto>[^"]+)" '
        r"(?P<status>\d{3}) (?P<bytes>\S+)",
}


@register_op("parse_log")
def build_parse_log(*, column: str = "message",
                    format: str = "syslog_rfc3164",
                    drop_source: bool = False):
    """``parse_log``: structured extraction of well-known log formats —
    a preset table over the grok kernel (same vectorized
    ``pc.extract_regex``, same ``_error`` convention for non-matching
    lines).  Formats: syslog_rfc3164, syslog_rfc5424, apache_common."""
    if format not in LOG_FORMATS:
        raise ValueError(
            f"parse_log: unknown format {format!r}; known: "
            f"{sorted(LOG_FORMATS)}")
    return build_grok(column=column, pattern=LOG_FORMATS[format],
                      drop_source=drop_source)

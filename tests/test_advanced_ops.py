"""Tests for the second-wave processor analogues (branch/workflow/
archive/grok/json_schema/cache/metric/read_until)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from rayflow import expr as E
from rayflow.ops import build_op


def _events_tbl():
    return pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "raw": pa.array([
            '{"user": "alice", "n": 3}',
            '{"user": "bob", "n": 7}',
            '{"user": "carol"}',
            "not json",
        ]),
        "log": pa.array([
            "GET /index.html 200",
            "POST /api/v1 500",
            "GET /health 200",
            "BAD",
        ]),
    })


def test_branch_result_map(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"a": pa.array([1.0, 2.0, 3.0])}))
    out = build_op({
        "op": "branch",
        "request_map": {"x": E.col("a") * 10.0},
        "processors": [{"op": "mapping", "cols": {"y": ["add", ["col", "x"], ["lit", 1.0]]}}],
        "result_map": {"enriched": "y"},
    })(ds).to_pandas().sort_values("a")
    assert out["enriched"].tolist() == [11.0, 21.0, 31.0]


def test_workflow_chains_branches(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"a": pa.array([2.0, 4.0])}))
    out = build_op({
        "op": "workflow",
        "branches": {
            "double": {
                "request_map": {"x": E.col("a")},
                "processors": [{"op": "mapping", "cols": {"x2": ["mul", ["col", "x"], ["lit", 2.0]]}}],
                "result_map": {"b": "x2"},
            },
            "plus_one": {
                "request_map": {"x": E.col("b")},
                "processors": [{"op": "mapping", "cols": {"x2": ["add", ["col", "x"], ["lit", 1.0]]}}],
                "result_map": {"c": "x2"},
            },
        },
        "order": ["double", "plus_one"],
    })(ds).to_pandas().sort_values("a")
    assert out["c"].tolist() == [5.0, 9.0]


def test_archive_unarchive_roundtrip(ray_session):
    import ray.data as rd

    tbl = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                    "v": pa.array(["x", "y", "z"])})
    ds = rd.from_arrow(tbl)
    arch = build_op({"op": "archive", "columns": ["k", "v"]})(ds)
    adf = arch.to_pandas()
    assert adf["n_rows"].sum() == 3
    back = build_op({"op": "unarchive", "column": "archived"})(arch).to_pandas()
    assert sorted(back["k"].tolist()) == [1, 2, 3]
    assert set(back["v"]) == {"x", "y", "z"}


def test_grok_extracts_named_groups(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_events_tbl())
    out = build_op({
        "op": "grok", "column": "log",
        "pattern": r"(?P<verb>GET|POST) (?P<path>\S+) (?P<status>\d+)",
    })(ds).to_pandas().sort_values("id")
    assert out["verb"].tolist()[:3] == ["GET", "POST", "GET"]
    assert out["status"].tolist()[3] is None
    assert out["_error"].tolist()[3] == "grok: no match"


def test_grok_then_catch_dead_letters(ray_session, tmp_path):
    import glob

    import ray.data as rd

    ds = rd.from_arrow(_events_tbl())
    ds = build_op({
        "op": "grok", "column": "log",
        "pattern": r"(?P<verb>GET|POST) (?P<path>\S+) (?P<status>\d+)",
    })(ds)
    dlq = str(tmp_path / "dead")
    good = build_op({"op": "catch", "dead_letter_path": dlq})(ds).to_pandas()
    assert len(good) == 3 and "_error" not in good.columns
    dead_files = glob.glob(f"{dlq}/*.parquet")
    assert dead_files
    import pyarrow.parquet as pq

    dead = pa.concat_tables([pq.read_table(f) for f in dead_files])
    assert dead.num_rows == 1


def test_json_schema_validation(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_events_tbl())
    out = build_op({
        "op": "json_schema", "column": "raw",
        "required": ["user", "n"], "types": {"n": int},
    })(ds).to_pandas().sort_values("id")
    errs = out["_error"].tolist()
    assert errs[0] is None and errs[1] is None
    assert "missing key n" in errs[2]
    assert "invalid json" in errs[3]


def test_cache_set_get_roundtrip(ray_session):
    import ray.data as rd

    from rayflow.state import drop_cache

    tbl = pa.table({"k": pa.array([10, 20], pa.int64()),
                    "v": pa.array(["a", "b"])})
    ds = rd.from_arrow(tbl)
    build_op({"op": "cache_set", "cache": "t1", "key_expr": E.col("k"),
              "value_col": "v"})(ds).take_all()
    probe = rd.from_arrow(pa.table({"k": pa.array([20, 10, 99], pa.int64())}))
    out = build_op({"op": "cache_get", "cache": "t1", "key_expr": E.col("k"),
                    "out": "v"})(probe).to_pandas().sort_values("k")
    assert out["v"].tolist() == ["a", "b", None]
    drop_cache("t1")


def test_cache_add_is_set_if_absent(ray_session):
    import ray

    from rayflow.state import drop_cache, get_cache

    c = get_cache("t2")
    assert ray.get(c.madd.remote({"x": 1})) == [True]
    assert ray.get(c.madd.remote({"x": 2})) == [False]
    assert ray.get(c.mget.remote(["x"])) == [1]
    drop_cache("t2")


def test_metric_counters(ray_session):
    import ray
    import ray.data as rd

    from rayflow.state import get_metrics

    ds = rd.from_arrow(pa.table({"v": pa.array([1.0, 2.0, 3.0])}))
    build_op({"op": "metric", "name": "stage1", "sink": "tmetrics",
              "counters": {"sum_v": E.col("v")}})(ds).take_all()
    snap = ray.get(get_metrics("tmetrics").snapshot.remote())
    assert snap["stage1.count"] == 3.0
    assert snap["stage1.sum_v"] == 6.0


def test_read_until(ray_session):
    import ray.data as rd

    from rayflow.ops.advanced import read_until

    def make(i):
        if i >= 5:
            return None
        return rd.from_arrow(pa.table({"i": pa.array([i], pa.int64())}))

    out = read_until(make, predicate=lambda ds: ds.take_all()[0]["i"] >= 2)
    assert sorted(r["i"] for r in out.take_all()) == [0, 1, 2]


def test_pipeline_from_yaml(ray_session):
    from rayflow.pipeline import from_yaml

    p = from_yaml("""
input:
  op: read_parquet
  paths: /root/testdata/sf0.001/events.parquet
  columns: [event_type, value]
steps:
  - op: filter
    predicate: [ge, [col, value], [lit, 50.0]]
  - op: group_agg
    keys: [event_type]
    aggs: [[count, null, n]]
""")
    out = p.run().to_pandas()
    assert len(out) == 5 and (out["n"] > 0).all()


def test_late_filter_global(ray_session):
    import datetime

    import ray.data as rd

    ts = [datetime.datetime(2024, 1, 1, h) for h in (0, 5, 9, 10)]
    ds = rd.from_arrow(pa.table({"ts": pa.array(ts, pa.timestamp("us"))}))
    out = build_op({"op": "late_filter", "ts_col": "ts",
                    "allowed_lateness_s": 3600.0 * 2})(ds).to_pandas()
    # watermark = 10:00, lateness 2h -> keep ts >= 08:00
    assert sorted(t.hour for t in out["ts"]) == [9, 10]


def test_late_filter_per_key(ray_session):
    import datetime

    import ray.data as rd

    rows = [("a", 0), ("a", 4), ("a", 10), ("b", 0), ("b", 1)]
    ds = rd.from_arrow(pa.table({
        "k": pa.array([r[0] for r in rows]),
        "ts": pa.array([datetime.datetime(2024, 1, 1, r[1]) for r in rows],
                       pa.timestamp("us")),
    }))
    out = build_op({"op": "late_filter", "ts_col": "ts", "keys": ["k"],
                    "allowed_lateness_s": 3600.0 * 2})(ds).to_pandas()
    kept = sorted((r.k, r.ts.hour) for r in out.itertuples())
    # a: watermark 10 -> keep >= 8 -> only hour 10; b: watermark 1 -> keep >= -1 -> both
    assert kept == [("a", 10), ("b", 0), ("b", 1)]


def test_compress_decompress_roundtrip(ray_session):
    import ray.data as rd

    tbl = pa.table({"id": pa.array([1, 2], pa.int64()),
                    "payload": pa.array(["hello world " * 50, None])})
    ds = rd.from_arrow(tbl)
    ds = build_op({"op": "compress", "column": "payload", "out": "gz"})(ds)
    out = build_op({"op": "decompress", "column": "gz", "out": "back"})(ds).to_pandas()
    assert out.sort_values("id")["back"].tolist()[0] == "hello world " * 50
    assert out.sort_values("id")["back"].tolist()[1] is None
    # compression actually shrank the repetitive payload
    comp = build_op({"op": "compress", "column": "payload", "out": "gz"})(
        rd.from_arrow(tbl)).to_pandas()
    assert len(comp["gz"].iloc[0]) < len("hello world " * 50)


def test_rename_after_map_groups(ray_session):
    """rename must survive pandas-formatted upstream blocks (Ray's
    Dataset.rename_columns does not — found via a no-op rename after a
    session-window aggregate)."""
    import pandas as pd
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": ["a", "a", "b"], "v": [1.0, 2.0, 3.0]}))
    grouped = ds.groupby("k").map_groups(
        lambda g: g.assign(s=g["v"].cumsum()), batch_format="pandas"
    )
    out = build_op({"op": "rename", "names": {"s": "running"}})(grouped).to_pandas()
    assert "running" in out.columns and "s" not in out.columns


def test_cached_mapping_memoizes(ray_session):
    import ray.data as rd

    tbl = pa.table({"s": pa.array(["abc", "abc", "xyz", "abc", None])})
    out = build_op({"op": "cached_mapping", "key_expr": E.col("s"),
                    "fn_name": "hash_md5", "out": "h"})(
        rd.from_arrow(tbl)).to_pandas()
    import hashlib

    want = hashlib.md5(b"abc").hexdigest()
    got = out[out["s"] == "abc"]["h"].tolist()
    assert got == [want] * 3
    assert out[out["s"].isna()]["h"].isna().all()


def test_stream_manager(ray_session):
    from rayflow.manager import StreamManager

    m = StreamManager()
    m.add("counts", {
        "input": {"op": "read_parquet",
                  "paths": "/root/testdata/sf0.001/events.parquet",
                  "columns": ["event_type"]},
        "steps": [{"op": "group_agg", "keys": ["event_type"],
                   "aggs": [["count", None, "n"]]}],
    })
    m.add("types", {
        "input": {"op": "read_parquet",
                  "paths": "/root/testdata/sf0.001/events.parquet",
                  "columns": ["event_type"]},
        "steps": [{"op": "dedupe", "keys": ["event_type"],
                   "order_col": "event_type", "keep": "max"}],
    })
    assert m.names() == ["counts", "types"]
    results = m.run_all()
    assert len(results["counts"].to_pandas()) == 5
    assert m.remove("types") and m.names() == ["counts"]
    import pytest as _pt

    with _pt.raises(KeyError):
        m.run("types")


def test_parse_json_struct(ray_session):
    import pyarrow.compute as pc
    import ray.data as rd

    tbl = pa.table({"j": pa.array(['{"k": 1, "s": "x"}', '{"k": 2}', "bad", None])})
    out_ds = build_op({"op": "parse_json", "column": "j", "out": "doc"})(
        rd.from_arrow(tbl))
    import ray

    out = pa.concat_tables(ray.get(out_ds.to_arrow_refs()))
    assert pa.types.is_struct(out.schema.field("doc").type)
    ks = pc.struct_field(out["doc"].combine_chunks(), "k").to_pylist()
    assert ks == [1, 2, None, None]
    errs = out["_error"].to_pylist()
    assert errs[2] == "parse_json: invalid" and errs[0] is None


def test_lint_reports_bad_steps_without_running():
    from rayflow.pipeline import lint

    good = lint("""
input: {op: read_parquet, paths: /tmp/x.parquet}
steps:
  - {op: token_count}
""")
    assert good["ok"] and good["errors"] == []
    bad = lint("""
input: {op: read_parquet, paths: /tmp/x.parquet}
steps:
  - {op: nosuch_op}
  - {op: filter}
""")
    assert not bad["ok"]
    wheres = [e["where"] for e in bad["errors"]]
    assert wheres == ["steps[0]", "steps[1]"]
    assert "unknown op" in bad["errors"][0]["error"]
    assert "predicate" in bad["errors"][1]["error"]
    assert not lint("{ not: [valid")["ok"]


def test_parse_log_syslog_and_apache(ray_session):
    import ray.data as rd

    logs = pa.table({"message": pa.array([
        "<34>Oct 11 22:14:15 web01 sshd[4123]: Failed password for root",
        "Oct  3 09:00:01 db02 cron: job started",
        "not a syslog line at all",
    ])})
    out = build_op({"op": "parse_log", "format": "syslog_rfc3164"})(
        rd.from_arrow(logs)).to_pandas()
    assert list(out["host"]) == ["web01", "db02", None]
    assert list(out["tag"]) == ["sshd", "cron", None]
    assert out["pid"][0] == "4123" and out["_error"][2] is not None

    ap = pa.table({"message": pa.array([
        '127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] '
        '"GET /apache_pb.gif HTTP/1.0" 200 2326',
    ])})
    out2 = build_op({"op": "parse_log", "format": "apache_common"})(
        rd.from_arrow(ap)).to_pandas()
    assert out2["status"][0] == "200" and out2["path"][0] == "/apache_pb.gif"

    import pytest as _pytest
    with _pytest.raises(ValueError):
        build_op({"op": "parse_log", "format": "nope"})


def test_lint_missing_file_and_no_resource_publication():
    from rayflow.pipeline import lint

    missing = lint("no/such/confg.yaml")
    assert not missing["ok"]
    assert "no such file" in missing["errors"][0]["error"]
    # decontaminate's builder normally ray.put()s its benchmark set;
    # lint must bind args without publishing (no cluster boot)
    rep = lint("""
input: {op: read_parquet, paths: /tmp/x.parquet}
steps:
  - {op: decontaminate, bench: [aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaxx]}
""")
    assert rep["ok"], rep


def test_export_partitioned_resumes(ray_session, tmp_path):
    """A failed export resumes: finished partitions (with _SUCCESS) are
    skipped before any compute; unfinished ones are (re)written."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    tbl = pa.table({
        "k": pa.array(["a"] * 4 + ["b"] * 3 + ["c"] * 2),
        "v": pa.array(range(9), pa.int64()),
    })
    out = str(tmp_path / "export")
    stats = build_op({"op": "export_partitioned", "path": out,
                      "partition_col": "k"})(rd.from_arrow(tbl)).to_pandas()
    assert sorted(stats["partition"]) == ["a", "b", "c"]
    # simulate a crash that lost partition b: remove its marker
    os.remove(os.path.join(out, "k=b", "_SUCCESS"))
    stats2 = build_op({"op": "export_partitioned", "path": out,
                       "partition_col": "k"})(rd.from_arrow(tbl)).to_pandas()
    assert sorted(stats2["partition"]) == ["b"]      # only b rewritten
    # read-back equals the input
    back = pq.read_table(out).to_pandas().sort_values("v",
                                                      ignore_index=True)
    assert list(back["v"]) == list(range(9))
    assert sorted(back["k"].astype(str).unique()) == ["a", "b", "c"]


def test_export_partitioned_rejects_null_keys(ray_session, tmp_path):
    import ray.data as rd

    tbl = pa.table({"k": pa.array(["a", None]), "v": pa.array([1, 2], pa.int64())})
    with pytest.raises(Exception, match="null values in partition column"):
        build_op({"op": "export_partitioned", "path": str(tmp_path / "x"),
                  "partition_col": "k"})(rd.from_arrow(tbl)).to_pandas()


def test_json_schema_enum_and_range(ray_session):
    import ray.data as rd

    docs = pa.table({"raw": pa.array([
        '{"lvl": "info", "n": 5}',
        '{"lvl": "nope", "n": 5}',
        '{"lvl": "warn", "n": 999}',
        '{"lvl": "info", "n": -1}',
    ])})
    out = build_op({
        "op": "json_schema", "column": "raw", "required": ["lvl", "n"],
        "enums": {"lvl": ["info", "warn", "error"]},
        "minimums": {"n": 0}, "maximums": {"n": 100},
    })(rd.from_arrow(docs)).to_pandas()
    errs = out["_error"].tolist()
    assert errs[0] is None
    assert "not in enum" in errs[1]
    assert "above maximum" in errs[2]
    assert "below minimum" in errs[3]


def test_noop_sleep_log_stage(ray_session, capsys):
    import ray.data as rd

    tbl = pa.table({"v": pa.array([1, 2, 3], pa.int64())})
    ds = rd.from_arrow(tbl)
    assert build_op({"op": "noop"})(ds).to_pandas()["v"].tolist() == [1, 2, 3]
    out = build_op({"op": "sleep", "seconds": 0.01})(ds).to_pandas()
    assert sorted(out["v"]) == [1, 2, 3]
    out2 = build_op({"op": "log_stage", "name": "t"})(ds).to_pandas()
    assert sorted(out2["v"]) == [1, 2, 3]


def test_json_schema_constraints_on_optional_keys(ray_session):
    """Constraints must apply to PRESENT optional keys too, and JSON
    booleans are not numbers."""
    import ray.data as rd

    docs = pa.table({"raw": pa.array([
        '{"id": 1, "lvl": "bogus"}',     # optional enum violated
        '{"id": 1, "n": -5}',            # optional minimum violated
        '{"id": 1, "n": true}',          # bool is not a number
        '{"id": 1}',                     # optional keys absent: fine
    ])})
    out = build_op({
        "op": "json_schema", "column": "raw", "required": ["id"],
        "enums": {"lvl": ["info", "warn"]}, "minimums": {"n": 0},
    })(rd.from_arrow(docs)).to_pandas()
    errs = out["_error"].tolist()
    assert "not in enum" in errs[0]
    assert "below minimum" in errs[1]
    assert "below minimum" in errs[2]
    assert errs[3] is None

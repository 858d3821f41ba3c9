"""The shared coarse-shard keyed exchange (``kernels.shard_exchange``)."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rayflow.ops.kernels import SHARD_COL, shard_codes, shard_exchange, \
    shard_key


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df).repartition(6)


def test_shard_key_multi_column_nulls():
    t = pa.table({"a": ["x", None, "x", None, "x"],
                  "b": [None, "x", None, "x", "y"]})
    keys = shard_key(t, ["a", "b"]).to_pylist()
    # equal keys (nulls included) build equal strings; a null in a
    # different column is a different key
    assert keys[0] == keys[2] and keys[1] == keys[3]
    assert len({keys[0], keys[1], keys[4]}) == 3
    assert None not in keys
    codes = shard_codes(shard_key(t, ["a", "b"]), 64)
    assert codes[0] == codes[2] and codes[1] == codes[3]


def test_shard_exchange_multi_column_null_keys_stay_in_one_shard(
        ray_session):
    rng = np.random.default_rng(3)
    n = 600
    a = rng.integers(0, 6, n).astype(object)
    b = rng.integers(0, 4, n).astype(float)
    a[rng.random(n) < 0.3] = None
    b[rng.random(n) < 0.3] = np.nan
    df = pd.DataFrame({"a": a, "b": b, "v": np.ones(n)})

    def count_keys(g: pa.Table) -> pa.Table:
        return g.group_by(["a", "b"], use_threads=False) \
            .aggregate([("v", "sum")])

    out = shard_exchange(_ds(df), ["a", "b"], count_keys).to_pandas()
    # each key is seen by exactly one fn call, holding all its rows
    assert not out.duplicated(["a", "b"]).any()
    ref = df.groupby(["a", "b"], dropna=False).size()
    assert len(out) == len(ref)
    assert out["v_sum"].sum() == n


def test_shard_exchange_hides_shard_column(ray_session):
    df = pd.DataFrame({"k": np.arange(200) % 7, "v": np.arange(200)})

    def fn(g: pa.Table) -> pa.Table:
        assert SHARD_COL not in g.column_names, g.column_names
        return g.append_column("w", pc.multiply(g.column("v"), 2))

    out = shard_exchange(_ds(df), "k", fn)
    assert out.schema().names == ["k", "v", "w"]
    got = out.to_pandas().sort_values("v", ignore_index=True)
    assert (got["w"] == 2 * got["v"]).all()

    def fn_pd(g: pd.DataFrame) -> pd.DataFrame:
        assert SHARD_COL not in g.columns
        return g

    out = shard_exchange(_ds(df), ["k"], fn_pd, batch_format="pandas")
    assert SHARD_COL not in out.schema().names
    assert out.count() == 200


def test_shard_exchange_empty_input_returns_fn_schema(ray_session):
    df = pd.DataFrame({"k": pd.Series([], dtype=str),
                       "v": pd.Series([], dtype="int64")})

    def fn(g: pa.Table) -> pa.Table:
        return pa.table({"k": g.column("k"),
                         "n": pa.array(np.zeros(g.num_rows), pa.float64())})

    import ray.data as rd

    out = shard_exchange(rd.from_pandas(df), "k", fn)
    assert out.count() == 0
    schema = out.schema()
    assert schema.names == ["k", "n"]
    assert schema.types[1] == pa.float64()


def _kernel_calls_outside_exempt(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bad = []
    for top in tree.body:
        if getattr(top, "name", None) == "_pagerank_partitioned":
            continue   # tags its edges once and reuses them per iteration
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else \
                    getattr(f, "id", None)
                if name in ("shard_codes", "auto_num_shards"):
                    bad.append(f"{path.name}:{node.lineno} {name}")
    return bad


def test_only_kernels_shards_keys():
    """Every coarse-shard exchange goes through ``shard_exchange``: no
    op module hashes keys into shards or sizes a fan-out itself."""
    ops_dir = pathlib.Path(__file__).resolve().parents[1] / "rayflow" / "ops"
    bad = []
    for path in sorted(ops_dir.glob("*.py")):
        if path.name != "kernels.py":
            bad += _kernel_calls_outside_exempt(path)
    assert not bad, bad


_EMPTY_CASES = [
    {"op": "group_rank", "key_col": "k", "order_col": "t"},
    {"op": "group_cumsum", "key_col": "k", "order_col": "t",
     "value_col": "v"},
    {"op": "group_lag", "key_col": "k", "order_col": "t", "value_col": "v"},
    {"op": "group_concat", "key_col": "k", "order_col": "t",
     "value_col": "text"},
    {"op": "scd2_history", "keys": ["k", "s"]},
    {"op": "funnel", "key_col": "k", "step_col": "text", "order_col": "t",
     "steps": ["a", "b"]},
    {"op": "interval_coalesce", "key_col": "k", "start_col": "s",
     "end_col": "e"},
    {"op": "group_moving_agg", "key_col": "k", "order_col": "t",
     "value_col": "v", "window": 3},
    {"op": "resample_ffill", "key_col": "k", "ts_col": "ts",
     "value_col": "v", "interval_s": 60},
    {"op": "ewma", "key_col": "k", "order_col": "t", "value_col": "v",
     "alpha": 0.5},
    {"op": "window_session", "keys": ["k"], "ts_col": "ts", "gap_s": 60},
    {"op": "group_topk", "keys": ["k", "s"], "order_col": "t", "k": 2},
    {"op": "group_approx_percentile", "keys": ["k"], "value_col": "v",
     "quantiles": [0.5], "lo": 0, "hi": 10},
    {"op": "group_hll", "keys": ["k"], "column": "t"},
    {"op": "paragraph_dedup"},
    {"op": "group_cap", "key_col": "k", "order_col": "t", "n": 2},
]


@pytest.mark.parametrize("conf", _EMPTY_CASES, ids=lambda c: c["op"])
def test_coarse_shard_ops_accept_empty_input(ray_session, conf):
    import ray.data as rd

    from rayflow.ops import build_op

    empty = pa.table({
        "k": pa.array([], pa.string()), "t": pa.array([], pa.int64()),
        "ts": pa.array([], pa.timestamp("us")),
        "v": pa.array([], pa.float64()), "s": pa.array([], pa.int64()),
        "e": pa.array([], pa.int64()), "op": pa.array([], pa.string()),
        "lsn": pa.array([], pa.int64()),
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string())})
    assert build_op(conf)(rd.from_arrow(empty)).count() == 0

"""Round-2 additions: Bloblang text syntax, JSON paths, struct methods,
parse_csv, vectorized simhash/fingerprint, Arrow broadcast join, keyed
late filter."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from rayflow import expr as E
from rayflow.bloblang import DELETED, parse_expr, parse_program
from rayflow.ops import build_op


# -- bloblang text syntax (no Ray needed) ----------------------------------

_T = pa.table({
    "a": [1.0, 2.0, 3.0],
    "s": ["x", "yy", None],
    "price": [10.0, 20.0, 30.0],
    "discount": [0.1, 0.2, 0.0],
    "props": ['{"k": 5}', '{"k": -2}', 'bad'],
})

BLOBLANG_CASES = [
    ("this.a * 2 + 1", [3.0, 5.0, 7.0]),
    ("this.a + this.price / 10", [2.0, 4.0, 6.0]),
    ("this.s.uppercase()", ["X", "YY", None]),
    ("this.price * (1 - this.discount)", [9.0, 16.0, 30.0]),
    ('this.s.length() | 0', [1, 2, 0]),
    ("this.a >= 2 && this.a < 3", [False, True, False]),
    ("this.a < 2 || this.a > 2", [True, False, True]),
    ('if(this.a > 1, "big", "small")', ["small", "big", "big"]),
    ('this.props.json("k")', ["5", "-2", None]),
    ('this.props.json_int("k") | 0', [5, -2, 0]),
    ("-this.a", [-1.0, -2.0, -3.0]),
    ("!(this.a == 2)", [True, False, True]),
    ('this.s.contains("y")', [False, True, None]),
    ("this.a % 2", [1.0, 0.0, 1.0]),
    ('concat(this.s, "!")', ["x!", "yy!", None]),
    ('this.s.has_prefix("y")', [False, True, None]),
    ('this.s.replace_all("y", "z")', ["x", "zz", None]),
    ('this.a.round(0)', [1.0, 2.0, 3.0]),
    ('this.a.string()', ["1", "2", "3"]),
    ('this.s.catch("?")', ["x", "yy", "?"]),
    ("this.a.number() * 1.5", [1.5, 3.0, 4.5]),
    ('this.props.json_path("k")', ["5", "-2", None]),
    # round-2b scalar batch reachable from the text syntax
    ('this.s.trim_prefix("y")', ["x", "y", None]),
    ('this.s.rpad(3, ".")', ["x..", "yy.", None]),
    ('this.s.repeat_str(2)', ["xx", "yyyy", None]),
    ('this.s.normalize_nfc()', ["x", "yy", None]),
    ('this.s.collapse_whitespace()', ["x", "yy", None]),
]


@pytest.mark.parametrize("src,expected", BLOBLANG_CASES)
def test_bloblang_expr(src, expected):
    got = parse_expr(src).eval(_T)
    vals = got.to_pylist() if hasattr(got, "to_pylist") else list(got)
    assert vals == expected, src


def test_bloblang_program():
    prog = parse_program("""
    # enrichment mapping
    root.rev = this.price * (1 - this.discount)
    root.up  = this.s.uppercase()
    root.tmp = deleted()
    """)
    assert list(prog) == ["rev", "up", "tmp"]
    assert prog["tmp"] is DELETED
    assert prog["rev"].eval(_T).to_pylist() == [9.0, 16.0, 30.0]


def test_bloblang_errors():
    with pytest.raises(SyntaxError):
        parse_expr("this.s.nosuchmethod()")
    with pytest.raises(SyntaxError):
        parse_expr("nosuchfn(1)")
    with pytest.raises(SyntaxError):
        parse_program("x = 1")


def test_mapping_op_text(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_T)
    out = build_op({
        "op": "mapping",
        "text": """
        root.rev = this.price * (1 - this.discount)
        root.discount = deleted()
        """,
    })(ds).to_pandas()
    assert "discount" not in out.columns
    assert list(out["rev"]) == [9.0, 16.0, 30.0]


# -- JSON paths / struct methods -------------------------------------------


def test_json_path_nested():
    t = pa.table({"js": [
        '{"a": {"b": [1, 2, {"c": "hit"}]}, "n": 7}',
        '{"a": {"b": []}}', None, 'notjson',
    ]})
    assert E.F("json_path", E.col("js"), "a.b[2].c").eval(t).to_pylist() == \
        ["hit", None, None, None]
    assert E.F("json_path_int", E.col("js"), "n").eval(t).to_pylist() == \
        [7, None, None, None]
    assert E.F("json_path", E.col("js"), "a.b").eval(t).to_pylist() == \
        ['[1, 2, {"c": "hit"}]', "[]", None, None]


def test_struct_methods():
    t = pa.table({
        "s1": pa.array([{"x": 1, "y": "a"}, {"x": 2, "y": "b"}, None]),
        "s2": pa.array([{"y": "Z", "z": 9.5}, {"y": None, "z": 8.0}, {"y": "c", "z": 1.0}]),
    })
    assert E.F("struct_get", E.col("s1"), "x").eval(t).to_pylist() == [1, 2, None]
    assert E.F("struct_without", E.col("s1"), "y").eval(t).to_pylist() == \
        [{"x": 1}, {"x": 2}, None]
    assert E.F("struct_with", E.col("s1"), "y").eval(t).to_pylist() == \
        [{"y": "a"}, {"y": "b"}, None]
    merged = E.F("struct_merge", E.col("s1"), E.col("s2")).eval(t).to_pylist()
    assert merged[0] == {"x": 1, "y": "Z", "z": 9.5}
    assert merged[1] == {"x": 2, "y": "b", "z": 8.0}  # null right y → left
    keys = E.F("map_each_key", E.col("s1"), "uppercase").eval(t).to_pylist()
    assert keys[0] == {"X": 1, "Y": "a"}


# -- parse_csv --------------------------------------------------------------


def test_parse_csv(ray_session):
    import ray.data as rd

    docs = pa.table({
        "doc": ["a,b\n1,x\n2,y", None, "a,b\n3,z"],
        "src": ["f1", "f2", "f3"],
    })
    out = build_op({"op": "parse_csv", "column": "doc"})(
        rd.from_arrow(docs)).to_pandas().sort_values("a")
    assert list(out["a"]) == [1, 2, 3]
    assert list(out["b"]) == ["x", "y", "z"]
    assert list(out["src"]) == ["f1", "f1", "f3"]


def test_parse_csv_no_header(ray_session):
    import ray.data as rd

    docs = pa.table({"doc": ["1,x\n2,y"]})
    out = build_op({
        "op": "parse_csv", "column": "doc", "header": False,
        "column_names": ["n", "ch"],
    })(rd.from_arrow(docs)).to_pandas()
    assert list(out["n"]) == [1, 2]


# -- vectorized sketches ----------------------------------------------------


def test_simhash_batch_matches_scalar():
    from rayflow.ops.dedup import simhash64, simhash_batch

    texts = ["the quick brown fox", "", "hello  world\ttab", "x", None,
             "  lead", "trail  ", " ", "a b c", "ünïcode tökens here"]
    batch = list(simhash_batch(pa.array(texts, pa.string())).astype(np.int64))
    assert batch == [simhash64(t or "") for t in texts]


def test_simhash_fits_int64():
    from rayflow.ops.dedup import simhash_batch

    vals = simhash_batch(pa.array(["word" + str(i) for i in range(50)]))
    assert (vals < np.uint64(1 << 63)).all()


def test_rolling_min_batch_matches_scalar():
    from rayflow.ops.textops import rolling_hashes, rolling_min_batch

    texts = ["hello world document", "short", "", None, "exactly8", "x" * 7]
    batch = rolling_min_batch(texts)
    expect = [None if s is None else int(rolling_hashes(s).min()) for s in texts]
    assert batch == expect


def test_rolling_hash_shift_property():
    from rayflow.ops.textops import rolling_hashes

    # k-grams shared between two strings hash identically regardless of
    # position (the point of a rolling fingerprint)
    a = rolling_hashes("abcdefghijk")
    b = rolling_hashes("XYZabcdefghijk")
    assert set(a.tolist()) <= set(b.tolist())


# -- Arrow broadcast join / keyed late filter -------------------------------


def test_broadcast_join_arrow_path(ray_session):
    import ray.data as rd

    left = pa.table({"k": [1, 2, 3, 2, None], "v": [10.0, 20.0, 30.0, 21.0, 0.0]})
    small = pa.table({"k": [1, 2], "name": ["one", "two"], "v": [0.5, 0.7]})
    out = build_op({
        "op": "broadcast_join", "small": small, "on": ["k"], "how": "left",
    })(rd.from_arrow(left)).to_pandas()
    assert list(out["name"]) == ["one", "two", None, "two", None]
    assert "v_r" in out.columns  # collision suffixed, left v intact
    assert list(out["v"]) == [10.0, 20.0, 30.0, 21.0, 0.0]

    inner = build_op({
        "op": "broadcast_join", "small": small, "on": ["k"], "how": "inner",
    })(rd.from_arrow(left)).to_pandas()
    assert len(inner) == 3


def test_broadcast_join_dup_keys_fallback(ray_session):
    import ray.data as rd

    left = pa.table({"k": [1, 2], "v": [1.0, 2.0]})
    small = pa.table({"k": [1, 1], "tag": ["a", "b"]})  # dup keys → pandas path
    out = build_op({
        "op": "broadcast_join", "small": small, "on": ["k"], "how": "inner",
    })(rd.from_arrow(left)).to_pandas()
    assert sorted(out["tag"]) == ["a", "b"]


def test_late_filter_keyed(ray_session):
    import pandas as pd
    import ray.data as rd

    t = pa.table({
        "k": ["a", "a", "a", "b", "b"],
        "ts": pa.array(pd.to_datetime([
            "2024-01-01", "2024-01-05", "2024-01-10",
            "2024-03-01", "2024-03-20",
        ]), pa.timestamp("us")),
    })
    out = build_op({
        "op": "late_filter", "ts_col": "ts", "keys": ["k"],
        "allowed_lateness_s": 6 * 86400.0,
    })(rd.from_arrow(t)).to_pandas()
    # per-key watermark: a→01-10 (keep ≥01-04), b→03-20 (keep ≥03-14)
    got = sorted(out["ts"].astype(str))
    assert got == ["2024-01-05", "2024-01-10", "2024-03-20"]


# -- partition-pruned IVF index --------------------------------------------


def test_ivf_index_prunes_and_matches(ray_session, tmp_path):
    import ray.data as rd

    from rayflow.ops.ann import IvfIndex

    rng = np.random.default_rng(11)
    n, d = 2000, 32
    m = rng.standard_normal((n, d))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    sample = m[::4]
    path = str(tmp_path / "ivf")
    idx = IvfIndex.build(ds, path, train_sample=sample, n_clusters=16,
                         seed=42, vec_col="embedding", id_col="vec_id")

    q = m[:3]
    qids = np.arange(3)
    out = idx.probe(q, qids, k=5, nprobe=4).to_pandas()
    # pruning: probe reads ≤ nprobe partitions per query (union ≤ 12 of 16)
    q_lists = np.argsort(-( (q / np.linalg.norm(q, axis=1, keepdims=True))
                           @ idx.centroids.T), axis=1)[:, :4]
    probed = idx.bytes_for(q_lists.ravel())
    total = idx.total_bytes()
    assert probed < total * 0.85, (probed, total)

    # result equals the in-stream ann_ivf op with identical parameters
    stream = build_op({
        "op": "ann_ivf", "queries": q, "query_ids": qids, "k": 5,
        "n_clusters": 16, "nprobe": 4, "train_sample": sample,
    })(ds).to_pandas()
    a = out.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = stream.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a.equals(b), (a.head(), b.head())


# -- XML / serde stubs / batch policy ---------------------------------------


def test_parse_xml(ray_session):
    import ray.data as rd

    docs = pa.table({"doc": [
        '<msg id="1"><user>ann</user><score>5</score></msg>',
        '<msg><user>bob</user><tag>a</tag><tag>b</tag></msg>',
        'not xml',
        None,
    ]})
    out = build_op({"op": "parse_xml", "column": "doc"})(
        rd.from_arrow(docs)).to_pandas()
    assert list(out["user"]) == ["ann", "bob", None, None]
    assert out["@id"][0] == "1"
    assert out["tag"][1] == '["a", "b"]'
    assert out["_error"][2].startswith("parse_xml:")


def test_serde_ops_are_registered():
    # the round-3 pure-stdlib codecs replaced the registered-unavailable
    # stubs; the three reference serde names must build real ops now
    from rayflow.ops import OPS

    for op in ("parse_msgpack", "parse_avro", "parse_protobuf",
               "format_msgpack", "format_avro", "format_protobuf"):
        assert op in OPS


def test_batch_policy_bytes(ray_session):
    import ray.data as rd

    t = pa.table({"x": list(range(1000)), "s": ["y" * 100] * 1000})
    ds = rd.from_arrow(t)
    out = build_op({"op": "batch_policy", "bytes_budget": 20_000})(ds)
    sizes = [b.num_rows for b in out.iter_batches(batch_format="pyarrow")]
    assert sum(sizes) == 1000
    assert max(sizes) < 1000  # actually re-batched into byte-bounded chunks


def test_bloblang_timestamp_aliases():
    t = pa.table({"d": ["2024-03-01 10:00:00", "2024-12-25 00:30:00"]})
    got = parse_expr('this.d.parse_timestamp("%Y-%m-%d %H:%M:%S").format_timestamp("%Y/%m/%d")').eval(t)
    assert got.to_pylist() == ["2024/03/01", "2024/12/25"]


# -- real media header probing ----------------------------------------------


def test_media_probe_headers(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import synth_png, synth_wav

    t = pa.table({
        "media_id": pa.array([0, 1, 2], pa.int64()),
        "payload": pa.array(
            [synth_png(640, 480), synth_wav(44100, 2), b"junkjunkjunkjunk"],
            pa.large_binary()),
    })
    out = build_op({"op": "media_probe"})(rd.from_arrow(t)).to_pandas()
    out = out.sort_values("media_id")
    assert list(out["probe_format"]) == ["png", "wav", None]
    assert list(out["probe_width"])[:2] == [640, 44100]
    assert list(out["probe_height"])[:2] == [480, 2]


def test_lsh_index_prunes_and_recalls(ray_session, tmp_path):
    import ray.data as rd

    from rayflow.ops.ann import LshIndex

    rng = np.random.default_rng(5)
    n, d = 1500, 32
    m = rng.standard_normal((n, d))
    # plant exact copies of the 3 query vectors
    qids = np.arange(3)
    planted = np.vstack([m, m[:3]])
    ids = np.concatenate([np.arange(n), np.arange(3) + 1_000_000])
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in planted],
                              pa.list_(pa.float32())),
    })
    path = str(tmp_path / "lsh")
    idx = LshIndex.build(rd.from_arrow(tbl), path, dim=d, n_planes=6, seed=42)
    out = idx.probe(m[:3], qids, k=5).to_pandas()
    top1 = out[out["rank"] == 1].sort_values("query_id")
    assert list(top1["vec_id"]) == [1_000_000, 1_000_001, 1_000_002]
    # pruning: the probed buckets are a strict subset of the corpus bytes
    probed = idx.bytes_for(idx.bucket_of(m[:3]))
    assert probed < idx.total_bytes() * 0.5


def test_embedding_near_dup_bucket_cap(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    n, d = 400, 16
    m = rng.standard_normal((n, d))
    planted = np.vstack([m, m[:10]])  # 10 exact dups
    ids = np.concatenate([np.arange(n), np.arange(10) + 1_000_000])
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in planted],
                              pa.list_(pa.float64())),
    })
    # n_planes=0-ish blocking: 2 planes → 4 buckets, each ~100 rows;
    # max_bucket=32 forces recursive splitting, dups must still be found
    out = build_op({
        "op": "embedding_near_dup", "threshold": 0.99, "dim": d,
        "n_planes": 2, "max_bucket": 32,
    })(rd.from_arrow(tbl)).to_pandas()
    found = set(zip(out["id_a"], out["id_b"]))
    for i in range(10):
        assert (i, i + 1_000_000) in found


def test_url_and_uuid_functions():
    t = pa.table({"u": ["https://ex.com/a/b?x=1&y=2", "http://h.io", None]})
    assert E.F("url_host", E.col("u")).eval(t).to_pylist() == \
        ["ex.com", "h.io", None]
    assert E.F("url_query_param", E.col("u"), "x").eval(t).to_pylist() == \
        ["1", None, None]
    ids = E.F("uuid_v5", E.col("u")).eval(t).to_pylist()
    assert ids == E.F("uuid_v5", E.col("u")).eval(t).to_pylist()  # deterministic
    assert ids[2] is None and len(ids[0]) == 36


# -- two-phase group_agg combiner -------------------------------------------


def _agg_fixture():
    rng = np.random.default_rng(3)
    n = 5000
    return pa.table({
        "k": pa.array((rng.integers(0, 7, n)).astype("int64")),
        "v": pa.array(rng.normal(10, 3, n)),
        "w": pa.array(rng.integers(0, 100, n).astype("int64")),
    })


@pytest.mark.parametrize("kwargs", [
    {},                              # combiner, single-block combine
    {"partial_limit": 1},            # combiner, keyed-fallback combine
    {"mode": "shuffle"},             # original Ray aggregate
])
def test_group_agg_paths_agree(ray_session, kwargs):
    import ray.data as rd

    t = _agg_fixture()
    spec = {
        "op": "group_agg", "keys": ["k"],
        "aggs": [("sum", "v", "sv"), ("mean", "v", "mv"), ("count", None, "n"),
                 ("min", "w", "minw"), ("max", "w", "maxw"), ("std", "v", "sdv")],
        **kwargs,
    }
    got = build_op(spec)(rd.from_arrow(t)).to_pandas().sort_values("k").reset_index(drop=True)
    exp = (t.to_pandas().groupby("k")
           .agg(sv=("v", "sum"), mv=("v", "mean"), n=("v", "size"),
                minw=("w", "min"), maxw=("w", "max"), sdv=("v", "std"))
           .reset_index())
    assert list(got["n"]) == list(exp["n"])
    assert np.allclose(got["sv"], exp["sv"])
    assert np.allclose(got["mv"], exp["mv"])
    assert np.allclose(got["sdv"], exp["sdv"])
    assert list(got["minw"]) == list(exp["minw"])
    assert list(got["maxw"]) == list(exp["maxw"])


def test_group_agg_null_keys(ray_session):
    # Arrow group_by handles null keys (Ray's groupby hangs on them) —
    # the combiner path must aggregate them as their own group
    import ray.data as rd

    t = pa.table({
        "k": pa.array(["a", None, "a", None, "b"]),
        "v": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    })
    got = build_op({
        "op": "group_agg", "keys": ["k"],
        "aggs": [("sum", "v", "sv"), ("count", None, "n")],
    })(rd.from_arrow(t)).to_pandas()
    bykey = {k if k is not None and k == k else None: (s, n)
             for k, s, n in zip(got["k"], got["sv"], got["n"])}
    assert bykey["a"] == (4.0, 2)
    assert bykey["b"] == (5.0, 1)
    assert bykey[None] == (6.0, 2)


def test_sharded_join_auto_broadcast(ray_session):
    import ray.data as rd

    left = pa.table({"k": [1, 2, 3, 2], "v": [1.0, 2.0, 3.0, 4.0]})
    right = pa.table({"k": [1, 2], "tag": ["a", "b"]})
    lds, rds = rd.from_arrow(left), rd.from_arrow(right)
    auto = build_op({
        "op": "sharded_join", "right": rds, "on": ["k"], "strategy": "auto",
    })(lds).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    shuf = build_op({
        "op": "sharded_join", "right": rd.from_arrow(right), "on": ["k"],
        "num_partitions": 2,
    })(lds).to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
    assert list(auto["tag"]) == list(shuf["tag"])
    assert len(auto) == 3


# -- positional batch ops + subprocess --------------------------------------


def test_select_parts_block_relative(ray_session):
    import ray.data as rd

    t = pa.table({"x": list(range(10))})
    out = build_op({"op": "select_parts", "indices": [0, 2, -1]})(
        rd.from_arrow(t)).to_pandas()
    assert sorted(out["x"]) == [0, 2, 9]


def test_insert_part(ray_session):
    import ray.data as rd

    t = pa.table({"x": [1, 2, 3], "s": ["a", "b", "c"]})
    out = build_op({"op": "insert_part", "index": 1,
                    "row": {"x": 99, "s": "Z"}})(rd.from_arrow(t)).to_pandas()
    assert list(out["x"]) == [1, 99, 2, 3]
    assert list(out["s"]) == ["a", "Z", "b", "c"]
    # negative / overflow indices
    out2 = build_op({"op": "insert_part", "index": -1,
                     "row": {"x": 7}})(rd.from_arrow(t)).to_pandas()
    assert list(out2["x"]) == [1, 2, 3, 7]
    assert out2["s"].iloc[3] is None


def test_subprocess_map(ray_session):
    import ray.data as rd

    t = pa.table({"w": ["hello", "world", "ray"]})
    out = build_op({
        "op": "subprocess_map", "argv": ["tr", "a-z", "A-Z"],
        "column": "w", "out": "up",
    })(rd.from_arrow(t)).to_pandas()
    assert list(out["up"]) == ["HELLO", "WORLD", "RAY"]
    assert out["_error"].isna().all()


def test_subprocess_map_failure_marks_error(ray_session):
    import ray.data as rd

    t = pa.table({"w": ["a", "b"]})
    out = build_op({
        "op": "subprocess_map", "argv": ["false"], "column": "w", "out": "o",
    })(rd.from_arrow(t)).to_pandas()
    assert out["o"].isna().all()
    assert out["_error"].str.startswith("subprocess:").all()


def test_media_probe_on_synth_fixture(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import synth_media_table

    t = synth_media_table(40, seed=7)
    out = build_op({"op": "media_probe"})(rd.from_arrow(t)).to_pandas()
    png = out[out["media_type"] == "image/png"]
    # probed dimensions equal the metadata columns — real header parsing
    assert (png["probe_format"] == "png").all()
    assert (png["probe_width"] == png["width"]).all()
    assert (png["probe_height"] == png["height"]).all()
    wav = out[out["media_type"] == "audio/wav"]
    assert (wav["probe_format"] == "wav").all()


# -- list methods / blobl CLI -----------------------------------------------


def test_list_methods():
    t = pa.table({
        "ls": pa.array([["a", "BB", ""], [], None, ["x", "", None]],
                       pa.list_(pa.string())),
        "ln": pa.array([[3, 1, 2], [5], [None, 2], None], pa.list_(pa.int64())),
    })
    assert E.F("list_map", E.col("ls"), "uppercase").eval(t).to_pylist() == \
        [["A", "BB", ""], [], None, ["X", "", None]]
    assert E.F("list_filter", E.col("ls"), "not_empty").eval(t).to_pylist() == \
        [["a", "BB"], [], None, ["x"]]
    assert E.F("list_unique", E.col("ln")).eval(t).to_pylist() == \
        [[1, 2, 3], [5], [2, None], None]
    assert E.F("list_sort", E.col("ln"), True).eval(t).to_pylist() == \
        [[3, 2, 1], [5], [2, None], None]


def test_blobl_cli_oneshot():
    import subprocess
    import sys as _sys

    out = subprocess.run(
        [_sys.executable, "-m", "rayflow", "blobl",
         "root.d = this.a * 2\nroot.u = this.s.uppercase()"],
        input='{"a": 2, "s": "hi"}\n{"a": 5, "s": "yo"}\n',
        capture_output=True, text=True, check=True,
        cwd="/root/repo",
    ).stdout.strip().splitlines()
    import json as _json

    rows = [_json.loads(x) for x in out]
    assert rows[0]["d"] == 4 and rows[0]["u"] == "HI"
    assert rows[1]["d"] == 10 and rows[1]["u"] == "YO"


def test_audit_lake_on_evolved_log(ray_session, tmp_path):
    """ADVICE r1: the verify-lake audit must survive a schema-evolved
    log (v1 bands lack evolved columns / carry narrower types) — the
    DuckDB read needs union_by_name."""
    from rayflow.cdc import CdcEngine, ChangeLogSpec, generate_changelog
    from rayflow.cdc.oracle import audit_lake

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(
        n_convs=60, turns_per_conv=5.0, update_ratio=0.8, delete_ratio=0.05,
        zipf_s=1.2, n_source_partitions=2, n_bands=3, seed=11,
        evolve_at_lsn=300))
    engine = CdcEngine(str(tmp_path / "lake"), num_partitions=4,
                       auto_salt=False)
    engine.replay(log)
    report = audit_lake(log, str(tmp_path / "lake"))
    assert report["match"], report
    assert report["lake_rows"] > 0


def test_bloblang_metadata_and_error():
    t = pa.table({
        "x": pa.array([1, 2], pa.int64()),
        "_meta_topic": pa.array(["a", "b"]),
        "_error": pa.array([None, "boom"], pa.string()),
    })
    assert parse_expr('@topic').eval(t).to_pylist() == ["a", "b"]
    assert parse_expr('meta("topic")').eval(t).to_pylist() == ["a", "b"]
    assert parse_expr('error()').eval(t).to_pylist() == [None, "boom"]
    assert parse_expr('errored()').eval(t).to_pylist() == [False, True]
    prog = parse_program('''
meta route = this.x.string()
root.y = @topic
''')
    assert "_meta_route" in prog
    assert prog["_meta_route"].eval(t).to_pylist() == ["1", "2"]
    assert prog["y"].eval(t).to_pylist() == ["a", "b"]


def test_bloblang_error_fns_without_error_column():
    t = pa.table({"x": pa.array([1, 2], pa.int64())})
    assert parse_expr("error()").eval(t).to_pylist() == [None, None]
    assert parse_expr("errored()").eval(t).to_pylist() == [False, False]


def test_bloblang_polymorphic_and_array_methods():
    t = pa.table({
        "s": pa.array(["abc", "xy"]),
        "l": pa.array([[3, 1, 2], [5]], pa.list_(pa.int64())),
        "w": pa.array([["b", "a"], ["c"]], pa.list_(pa.string())),
    })
    assert parse_expr("this.s.reverse()").eval(t).to_pylist() == ["cba", "yx"]
    assert parse_expr("this.l.reverse()").eval(t).to_pylist() == \
        [[2, 1, 3], [5]]
    assert parse_expr("this.s.length()").eval(t).to_pylist() == [3, 2]
    assert parse_expr("this.l.length()").eval(t).to_pylist() == [3, 1]
    assert parse_expr('this.s.contains("b")').eval(t).to_pylist() == \
        [True, False]
    assert parse_expr("this.l.contains(5)").eval(t).to_pylist() == \
        [False, True]
    assert parse_expr('this.w.join("-")').eval(t).to_pylist() == ["b-a", "c"]
    assert parse_expr("this.l.sum()").eval(t).to_pylist() == [6.0, 5.0]
    assert parse_expr("this.l.sort()").eval(t).to_pylist() == [[1, 2, 3], [5]]
    assert parse_expr("this.l.append(9)").eval(t).to_pylist() == \
        [[3, 1, 2, 9], [5, 9]]

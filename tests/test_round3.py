"""Round-3 regression tests: the four ADVICE r2 defects, then the
round-3 punch-list items (vectorized stratified rank hash, chunked
partitioned export, vectorized minhash verify, salted joins, PNG decode,
sliding-window partials, incremental windowed views)."""
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rayflow import expr as E
from rayflow.ops import build_op


# -- ADVICE r2 #1: list_filter with trailing empty/null list rows -----------


def test_list_filter_trailing_empty_rows():
    # a trailing empty row puts a reduceat start offset == len(flat mask)
    t = pa.table({"ls": pa.array([["a", "", "b"], []],
                                 pa.list_(pa.string()))})
    out = E.F("list_filter", E.col("ls"), "not_empty").eval(t).to_pylist()
    assert out == [["a", "b"], []]
    # trailing null row, and an all-empty batch
    t2 = pa.table({"ls": pa.array([["x"], None], pa.list_(pa.string()))})
    assert E.F("list_filter", E.col("ls"), "not_empty").eval(t2).to_pylist() \
        == [["x"], None]
    t3 = pa.table({"ls": pa.array([[], []], pa.list_(pa.string()))})
    assert E.F("list_filter", E.col("ls"), "not_empty").eval(t3).to_pylist() \
        == [[], []]


# -- ADVICE r2 #2: group_agg std must be NULL for n<=1 groups ----------------


@pytest.mark.parametrize("kwargs", [{}, {"partial_limit": 1}])
def test_group_agg_std_single_sample_is_null(ray_session, kwargs):
    import ray.data as rd

    t = pa.table({
        "k": pa.array(["solo", "pair", "pair", "allnull"]),
        "v": pa.array([5.0, 1.0, 3.0, None]),
    })
    out = build_op({
        "op": "group_agg", "keys": ["k"],
        "aggs": [("std", "v", "sdv")], **kwargs,
    })(rd.from_arrow(t)).to_pandas().set_index("k")["sdv"]
    assert pd.isna(out["solo"])        # single sample: stddev_samp = NULL
    assert pd.isna(out["allnull"])     # zero samples: NULL
    assert out["pair"] == pytest.approx(np.std([1.0, 3.0], ddof=1))


# -- ADVICE r2 #3: embedding_near_dup split must not drop near (non-exact)
#    duplicate pairs across a hot-bucket split ------------------------------


def test_embedding_near_dup_split_keeps_near_pairs(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(4)
    n, d = 300, 16
    base = rng.standard_normal((n, d))
    # planted NEAR (not exact) duplicates: tiny perturbation, cos > 0.999
    near = base[:12] + rng.standard_normal((12, d)) * 1e-3
    m = np.vstack([base, near])
    ids = np.concatenate([np.arange(n), np.arange(12) + 1_000_000])
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in m],
                              pa.list_(pa.float64())),
    })
    # 1 plane → 2 buckets of ~150; max_bucket=16 forces deep recursive
    # splitting where the old sign-only split could separate near-pairs
    out = build_op({
        "op": "embedding_near_dup", "threshold": 0.99, "dim": d,
        "n_planes": 1, "max_bucket": 16,
    })(rd.from_arrow(tbl)).to_pandas()
    found = set(zip(out["id_a"], out["id_b"]))
    for i in range(12):
        assert (i, i + 1_000_000) in found, f"near-pair {i} lost in split"
    # overlap assignment must not emit duplicate pairs
    assert len(out) == len(out.drop_duplicates(["id_a", "id_b"]))


# -- ADVICE r2 #4: decontaminate keeps benchmark entries shorter than
#    snip_len ----------------------------------------------------------------


def test_decontaminate_short_bench_entries(ray_session):
    import ray.data as rd

    bench = ["tiny eval", "x" * 80]          # 9 chars < snip_len=40
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["contains the tiny eval string inside",
                          "clean document with nothing to hide",
                          "x" * 200]),
    })
    out = build_op({
        "op": "decontaminate", "bench": bench, "mode": "substring",
        "snip_len": 40,
    })(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert list(out["contaminated"]) == [True, False, True]


def test_decontaminate_short_bench_hashed_path(ray_session):
    """Short entries must also survive the rolling-hash prefilter route
    (it falls back to no-pruning when a snippet is sub-window)."""
    import ray.data as rd

    bench = [f"benchmark question number {i:04d} asks about topic {i * 3}"
             for i in range(40)] + ["short q"]
    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["the short q appears here verbatim",
                          "unrelated clean text"]),
    })
    out = build_op({
        "op": "decontaminate", "bench": bench, "mode": "substring",
        "snip_len": 40, "hash_threshold": 8,
    })(rd.from_arrow(t)).to_pandas().sort_values("doc_id")
    assert list(out["contaminated"]) == [True, False]


# -- punch-list #1: vectorized md5 rank hash ---------------------------------


def test_md5_digests_matches_hashlib():
    import hashlib

    from rayflow.ops.kernels import md5_digests, md5_rank64

    cases = ["", "a", "abc", "x" * 55, "x" * 56, "x" * 300, None,
             "ünïcødé", "hello world"] + [str(i * 37) for i in range(200)]
    for got_m in (md5_digests(cases), md5_digests(pa.array(cases)),
                  md5_digests(pa.chunked_array([cases[:100], cases[100:]]))):
        for i, s in enumerate(cases):
            if s is None:
                assert got_m[i].sum() == 0
                continue
            want = np.frombuffer(
                hashlib.md5(s.encode("utf-8")).digest(), np.uint8)
            assert (got_m[i] == want).all(), (i, s)
    # (hi, lo) rank order == hexdigest string order
    ids = [str(i) for i in range(500)]
    hi, lo = md5_rank64(pa.array(ids))
    by_rank = sorted(range(500), key=lambda i: (hi[i], lo[i]))
    by_hex = sorted(range(500),
                    key=lambda i: hashlib.md5(ids[i].encode()).hexdigest())
    assert by_rank == by_hex


def test_stratified_sample_no_per_row_hashlib(ray_session):
    """The sampled rows must still be exactly the smallest-md5 rows
    per stratum (the SQL oracle's ranking)."""
    import hashlib

    import ray.data as rd

    t = pa.table({
        "doc_id": pa.array(list(range(100)), pa.int64()),
        "source": pa.array(["a", "b"] * 50),
    })
    out = build_op({
        "op": "stratified_sample", "keys": ["source"], "n": 3,
        "id_col": "doc_id",
    })(rd.from_arrow(t)).to_pandas()
    for src in ("a", "b"):
        ids = [i for i in range(100) if ("a" if i % 2 == 0 else "b") == src]
        want = sorted(ids, key=lambda v: hashlib.md5(str(v).encode())
                      .hexdigest())[:3]
        assert sorted(out[out["source"] == src]["doc_id"]) == sorted(want)


# -- punch-list #2: export_partitioned streams blocks, never materializes a
#    whole (skewed) partition in one task ------------------------------------


def test_export_partitioned_skewed_partition_streams(ray_session, tmp_path):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    # one value holds ~90% of rows; many small input blocks
    n = 3000
    tbl = pa.table({
        "k": pa.array(["hot"] * 2700 + ["c1"] * 150 + ["c2"] * 150),
        "v": pa.array(range(n), pa.int64()),
    })
    out = str(tmp_path / "export")
    ds = rd.from_arrow(tbl).repartition(20)
    stats = build_op({"op": "export_partitioned", "path": out,
                      "partition_col": "k"})(ds).to_pandas()
    assert int(stats.set_index("partition").loc["hot", "rows"]) == 2700
    # the hot partition was written as MANY part files (per input block),
    # proving no single task held the whole partition
    hot_files = [f for f in os.listdir(os.path.join(out, "k=hot"))
                 if f.endswith(".parquet")]
    assert len(hot_files) > 1
    back = pq.read_table(out).to_pandas().sort_values("v", ignore_index=True)
    assert list(back["v"]) == list(range(n))
    assert os.path.exists(os.path.join(out, "k=hot", "_SUCCESS"))


def test_export_partitioned_crash_leftovers_cleaned(ray_session, tmp_path):
    """Uncommitted part files from a crashed run must be removed before
    the redo, or redone rows would be duplicated."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    tbl = pa.table({"k": pa.array(["a"] * 5), "v": pa.array(range(5),
                                                            pa.int64())})
    out = str(tmp_path / "export")
    # simulate a crashed previous run: part file present, no _SUCCESS
    d = os.path.join(out, "k=a")
    os.makedirs(d)
    pq.write_table(pa.table({"v": pa.array([99], pa.int64())}),
                   os.path.join(d, "part-stale.parquet"))
    build_op({"op": "export_partitioned", "path": out,
              "partition_col": "k"})(rd.from_arrow(tbl)).to_pandas()
    back = pq.read_table(out).to_pandas().sort_values("v", ignore_index=True)
    assert list(back["v"]) == list(range(5))        # stale row gone


# -- punch-list #3: vectorized minhash verify --------------------------------


def test_minhash_verify_paths_agree(ray_session):
    """Broadcast verify (list-of-bytes path) and sharded-join verify
    (Arrow-buffer path) must produce identical surviving pairs, and the
    jaccard values must equal a direct per-pair set computation."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(120)]
    docs, n = [], 60
    for i in range(n):
        words = list(rng.choice(vocab, size=30))
        docs.append(" ".join(words))
    for i in range(8):   # plant near-dups: change one word
        w = docs[i].split()
        w[0] = "zzz"
        docs.append(" ".join(w))
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    kw = dict(op="minhash_lsh_dedup", threshold=0.5, shingle_k=3)
    bcast = build_op({**kw, "broadcast_bytes_limit": 1 << 30})(
        rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True)
    shard = build_op({**kw, "broadcast_bytes_limit": 0})(
        rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True)
    pd.testing.assert_frame_equal(bcast, shard)
    assert len(bcast) >= 8
    # spot-check jaccard values against direct set math
    def shingles(s, k=3):
        w = s.split()
        return {" ".join(w[i:i + k]) for i in range(len(w) - k + 1)}
    for _, r in bcast.head(10).iterrows():
        x, y = shingles(docs[int(r.doc_a)]), shingles(docs[int(r.doc_b)])
        want = len(x & y) / len(x | y)
        assert r.jaccard == pytest.approx(want, abs=1e-9)


# -- punch-list #5: hot-key salting in asof_join / interval_join -------------


def _zipf_asof_tables():
    rng = np.random.default_rng(7)
    n = 4000
    # one key holds 50% of left rows
    keys = np.where(rng.random(n) < 0.5, "HOT",
                    np.char.add("k", rng.integers(0, 50, n).astype(str)))
    left = pa.table({
        "k": pa.array(keys.tolist()),
        "t": pa.array(rng.integers(0, 10_000, n), pa.int64()),
        "v": pa.array(np.arange(n), pa.int64()),
    })
    rk, rt, rv = [], [], []
    for key in set(keys.tolist()):
        for j, tt in enumerate(sorted(rng.integers(0, 10_000, 8).tolist())):
            rk.append(key)
            rt.append(tt)
            rv.append(hash(key) % 100 + j)
    right = pa.table({"k": pa.array(rk), "t": pa.array(rt, pa.int64()),
                      "rv": pa.array(rv, pa.int64())})
    return left, right


def test_asof_join_salted_equals_unsalted(ray_session):
    import ray.data as rd

    left, right = _zipf_asof_tables()

    def run(**kw):
        out = build_op({
            "op": "asof_join", "right": rd.from_arrow(right), "on": "k",
            "time_col": "t", "strategy": "shuffle", **kw,
        })(rd.from_arrow(left)).to_pandas()
        return out.sort_values(["k", "t", "v"], ignore_index=True)

    base = run()
    salted = run(salt_keys=["HOT"], num_salts=8)
    pd.testing.assert_frame_equal(base, salted)
    auto = run(auto_salt=True, num_salts=8)
    pd.testing.assert_frame_equal(base, auto)


def test_interval_join_salted_equals_unsalted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    n = 3000
    keys = np.where(rng.random(n) < 0.5, "HOT",
                    np.char.add("k", rng.integers(0, 30, n).astype(str)))
    left = pa.table({
        "k": pa.array(keys.tolist()),
        "t": pa.array(rng.integers(0, 1000, n), pa.int64()),
        "v": pa.array(np.arange(n), pa.int64()),
    })
    rk, rs, re_ = [], [], []
    for key in sorted(set(keys.tolist())):
        for _ in range(4):
            s = int(rng.integers(0, 900))
            rk.append(key); rs.append(s); re_.append(s + 50)
    right = pa.table({"k": pa.array(rk), "s": pa.array(rs, pa.int64()),
                      "e": pa.array(re_, pa.int64())})

    def run(**kw):
        out = build_op({
            "op": "interval_join", "right": rd.from_arrow(right), "on": "k",
            "time_col": "t", "start_col": "s", "end_col": "e", **kw,
        })(rd.from_arrow(left)).to_pandas()
        return out.sort_values(list(out.columns), ignore_index=True)

    base = run()
    salted = run(salt_keys=["HOT"], num_salts=8)
    pd.testing.assert_frame_equal(base, salted)


def test_detect_hot_keys(ray_session):
    import ray.data as rd

    from rayflow.ops.joins import _detect_hot_keys

    t = pa.table({"k": pa.array(["HOT"] * 5000 + ["a", "b", "c"] * 100)})
    hot = _detect_hot_keys(rd.from_arrow(t), "k", sample_fraction=0.2)
    assert hot == ["HOT"]


# -- punch-list #6: stdlib PNG pixel decode ----------------------------------


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("channels", [1, 2, 3, 4])
def test_png_roundtrip_bit_exact(filter_type, channels):
    from rayflow.ops.multimodal import decode_png, synth_png_pixels

    rng = np.random.default_rng(filter_type * 10 + channels)
    px = rng.integers(0, 256, (13, 9, channels), dtype=np.uint8)
    payload = synth_png_pixels(px, filter_type=filter_type)
    back = decode_png(payload)
    assert back.shape == px.shape
    assert (back == px).all()


def test_png_palette_decode():
    import struct
    import zlib as _z

    from rayflow.ops.multimodal import decode_png

    # hand-build a 2x2 palette PNG: indices [[0,1],[2,0]]
    pal = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])

    def chunk(ctype, body):
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", _z.crc32(ctype + body) & 0xFFFFFFFF))

    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    raw = bytes([0, 0, 1, 0, 2, 0])
    payload = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
               + chunk(b"PLTE", pal) + chunk(b"IDAT", _z.compress(raw))
               + chunk(b"IEND", b""))
    px = decode_png(payload)
    assert px.shape == (2, 2, 3)
    assert (px[0, 0] == [255, 0, 0]).all()
    assert (px[0, 1] == [0, 255, 0]).all()
    assert (px[1, 0] == [0, 0, 255]).all()


def test_png_unsupported_raises():
    import struct
    import zlib as _z

    from rayflow.ops.multimodal import decode_png

    def chunk(ctype, body):
        return (struct.pack(">I", len(body)) + ctype + body
                + struct.pack(">I", _z.crc32(ctype + body) & 0xFFFFFFFF))

    ihdr16 = struct.pack(">IIBBBBB", 2, 2, 16, 2, 0, 0, 0)  # 16-bit depth
    p = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr16)
         + chunk(b"IDAT", _z.compress(b"\0" * 26)) + chunk(b"IEND", b""))
    with pytest.raises(NotImplementedError):
        decode_png(p)


def test_media_decode_real_png(ray_session):
    """media_decode fake=False now really decodes PNG payloads: the
    features must equal the BMP features of the same pixels (both
    routes decode to identical RGB arrays)."""
    import ray.data as rd

    from rayflow.ops.multimodal import synth_bmp, synth_png_pixels

    rng = np.random.default_rng(3)
    px = [rng.integers(0, 256, (12, 10, 3), dtype=np.uint8)
          for _ in range(4)]
    t = pa.table({
        "media_id": pa.array(range(8), pa.int64()),
        "media_type": pa.array(["image/png"] * 4 + ["image/bmp"] * 4),
        "payload": pa.array(
            [synth_png_pixels(p, filter_type=4) for p in px]
            + [synth_bmp(p) for p in px], pa.large_binary()),
    })
    out = build_op({"op": "media_decode", "fake": False})(
        rd.from_arrow(t)).to_pandas().sort_values("media_id")
    feats = np.array(out["feature"].tolist())
    assert np.allclose(feats[:4], feats[4:])        # png == bmp features


# -- punch-list #10: sliding-window partial-agg path -------------------------


def test_window_sliding_partial_path_equals_explode(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(13)
    n = 5000
    t = pa.table({
        "ts": pa.array(
            (np.datetime64("2024-01-01", "us")
             + rng.integers(0, 86_400_000_000, n).astype("timedelta64[us]")),
            pa.timestamp("us")),
        "k": pa.array(rng.choice(["x", "y"], n).tolist()),
        "v": pa.array(rng.normal(5, 2, n)),
    })
    spec = dict(op="window_sliding", ts_col="ts", size_s=3600 * 6,
                slide_s=300,  # ratio 72: the explode path replicates 72x
                keys=["k"],
                aggs=[("sum", "v", "sv"), ("count", None, "n"),
                      ("mean", "v", "mv"), ("std", "v", "sd"),
                      ("min", "v", "mn"), ("max", "v", "mx")])
    a = build_op(spec)(rd.from_arrow(t)).to_pandas() \
        .sort_values(["window_start", "k"], ignore_index=True)
    b = build_op({**spec, "mode": "explode"})(rd.from_arrow(t)).to_pandas() \
        .sort_values(["window_start", "k"], ignore_index=True)
    assert len(a) == len(b) and len(a) > 0
    pd.testing.assert_frame_equal(a, b, check_exact=False, rtol=1e-12)


def test_window_sliding_unaligned_falls_back(ray_session):
    import ray.data as rd

    t = pa.table({
        "ts": pa.array([np.datetime64("2024-01-01T00:01:10", "us")],
                       pa.timestamp("us")),
        "v": pa.array([1.0]),
    })
    # size 90s, slide 60s: windows not aligned to buckets -> explode path
    out = build_op({"op": "window_sliding", "ts_col": "ts", "size_s": 90,
                    "slide_s": 60, "aggs": [("count", None, "n")]})(
        rd.from_arrow(t)).to_pandas()
    assert out["n"].sum() == 2   # t=70s is in windows [0,90) and [60,150)


# -- GIF codec + frame extraction ------------------------------------------


def test_gif_roundtrip_single():
    from rayflow.ops.multimodal import decode_gif, synth_gif

    rng = np.random.default_rng(7)
    f = rng.integers(0, 4, (13, 17, 1), dtype=np.uint8).repeat(3, axis=2) * 60
    frames, delays = decode_gif(synth_gif([f]))
    assert len(frames) == 1 and np.array_equal(frames[0], f)


def test_gif_roundtrip_animated_with_delays():
    from rayflow.ops.multimodal import decode_gif, synth_gif

    rng = np.random.default_rng(8)
    frames_in = [np.stack([rng.integers(0, 256, (9, 11), dtype=np.uint8)] * 3,
                          axis=2) for _ in range(4)]
    g = synth_gif(frames_in, delays_ms=[100, 50, 200, 0])
    frames, delays = decode_gif(g)
    assert len(frames) == 4
    assert all(np.array_equal(a, b) for a, b in zip(frames, frames_in))
    assert delays == [100, 50, 200, 0]


def test_gif_250_distinct_colors():
    from rayflow.ops.multimodal import decode_gif, synth_gif

    rng = np.random.default_rng(9)
    pal = rng.integers(0, 256, (250, 3), dtype=np.uint8)
    f = pal[rng.integers(0, 250, (31, 29))]
    frames, _ = decode_gif(synth_gif([f]))
    assert np.array_equal(frames[0], f)


def test_gif_too_many_colors_raises():
    from rayflow.ops.multimodal import synth_gif

    rng = np.random.default_rng(10)
    f = rng.integers(0, 256, (40, 40, 3), dtype=np.uint8)  # ~>256 colors
    with pytest.raises(ValueError, match="256"):
        synth_gif([f])


def test_gif_not_a_gif_raises():
    from rayflow.ops.multimodal import decode_gif

    with pytest.raises(ValueError, match="not a GIF"):
        decode_gif(b"PNG....")


def test_gif_frames_op(ray_session):
    import ray.data as rd

    from rayflow.ops import build_op
    from rayflow.ops.multimodal import synth_real_media_table

    tbl = synth_real_media_table(18, seed=4)
    gifs = tbl.filter(
        pa.compute.equal(tbl["media_type"], "image/gif"))
    ds = rd.from_arrow(gifs)
    out = build_op({"op": "gif_frames"})(ds).to_pandas() \
        .sort_values(["media_id", "frame_idx"], ignore_index=True)
    assert len(out) > len(gifs)  # animated: >1 frame per payload
    # frame_ms is the cumulative delay, starting at 0 per media_id
    for _, grp in out.groupby("media_id"):
        assert grp["frame_idx"].tolist() == list(range(len(grp)))
        assert grp["frame_ms"].iloc[0] == 0
        assert grp["frame_ms"].is_monotonic_increasing
        w = grp["width"].iloc[0]
        assert (grp["width"] == w).all()


def test_media_decode_handles_gif(ray_session):
    import ray.data as rd

    from rayflow.ops import build_op
    from rayflow.ops.multimodal import synth_real_media_table

    tbl = synth_real_media_table(12, seed=5)
    out = build_op({"op": "media_decode", "feature_dim": 16, "fake": False,
                    "batch_size": 8})(
        rd.from_arrow(tbl)).to_pandas()
    g = out[out["media_type"] == "image/gif"]
    assert len(g) > 0
    ref = tbl.to_pandas().set_index("media_id")
    for _, row in g.iterrows():
        assert row["feature"][0] == ref.loc[row["media_id"]]["width"]
        assert row["feature"][1] == ref.loc[row["media_id"]]["height"]


# -- baseline JPEG codec (rayflow/ops/jpeg.py) --------------------------------


def _gradient_rgb(h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    return np.stack([xx * 255 / (w - 1), yy * 255 / (h - 1),
                     (xx + yy) * 255 / (w + h - 2)], axis=-1).astype(np.uint8)


@pytest.mark.parametrize("quality,tol", [(95, 1.0), (85, 2.0), (60, 4.0)])
def test_jpeg_roundtrip_rgb(quality, tol):
    """Lossy but tight: smooth gradients survive synth->decode with a
    small mean absolute error that shrinks with quality."""
    from rayflow.ops.jpeg import decode_jpeg, synth_jpeg

    img = _gradient_rgb(40, 56)
    out = decode_jpeg(synth_jpeg(img, quality=quality))
    assert out.shape == img.shape
    assert np.abs(out.astype(int) - img.astype(int)).mean() < tol


def test_jpeg_roundtrip_grayscale():
    from rayflow.ops.jpeg import decode_jpeg, synth_jpeg

    g = _gradient_rgb(33, 47)[..., 0]
    out = decode_jpeg(synth_jpeg(g, quality=90))
    assert out.shape == (33, 47, 1)
    assert np.abs(out[..., 0].astype(int) - g.astype(int)).mean() < 1.0


def test_jpeg_roundtrip_subsampled_and_restarts():
    """4:2:0 chroma (interleaved multi-block MCUs + upsampling) and
    restart markers (DC predictor resets, RSTn destuffing)."""
    from rayflow.ops.jpeg import decode_jpeg, synth_jpeg

    img = _gradient_rgb(37, 41)            # odd dims: partial edge MCUs
    out = decode_jpeg(synth_jpeg(img, quality=85, subsample=True,
                                 restart_interval=3))
    assert out.shape == img.shape
    assert np.abs(out.astype(int) - img.astype(int)).mean() < 4.0


def test_jpeg_noise_roundtrip_all_paths():
    """Random pixels stress every Huffman code length (incl. the Annex
    K.3 length-limit fold) and ZRL/EOB runs."""
    from rayflow.ops.jpeg import decode_jpeg, synth_jpeg

    rng = np.random.default_rng(3)
    noisy = rng.integers(0, 256, (29, 35, 3), dtype=np.uint8)
    out = decode_jpeg(synth_jpeg(noisy, quality=95))
    assert out.shape == noisy.shape
    # noise has no spatial coherence: q95 4:4:4 still lands close
    assert np.abs(out.astype(int) - noisy.astype(int)).mean() < 6.0


def test_jpeg_malformed_inputs_raise():
    from rayflow.ops.jpeg import decode_jpeg, synth_jpeg

    # a baseline scan mislabeled SOF2 is an INVALID progressive stream
    # (progressive DC scans must have Se=0) — loud, not garbage pixels
    data = bytearray(synth_jpeg(_gradient_rgb(16, 16)))
    sof = data.find(b"\xff\xc0")
    data[sof + 1] = 0xC2                     # rewrite SOF0 -> SOF2
    with pytest.raises(ValueError, match="Se=0"):
        decode_jpeg(bytes(data))
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"not a jpeg")
    # arithmetic-coded frames stay at the documented plug point
    data = bytearray(synth_jpeg(_gradient_rgb(16, 16)))
    sof = data.find(b"\xff\xc0")
    data[sof + 1] = 0xC9                     # SOF9: arithmetic sequential
    with pytest.raises(NotImplementedError, match="arithmetic"):
        decode_jpeg(bytes(data))


def test_media_decode_real_jpeg(ray_session):
    """media_decode fake=False decodes JPEG payloads for real: feature
    head is the true (w, h) and the histogram features sit close to the
    BMP features of the same pixels (lossy, so allclose with slack)."""
    import ray.data as rd

    from rayflow.ops.multimodal import synth_bmp
    from rayflow.ops.jpeg import synth_jpeg

    img = _gradient_rgb(24, 32)
    t = pa.table({
        "media_id": pa.array([0, 1], pa.int64()),
        "media_type": pa.array(["image/jpeg", "image/bmp"]),
        "payload": pa.array([synth_jpeg(img, quality=95), synth_bmp(img)],
                            pa.large_binary()),
    })
    out = build_op({"op": "media_decode", "fake": False})(
        rd.from_arrow(t)).to_pandas().sort_values("media_id")
    feats = np.array(out["feature"].tolist())
    assert feats[0][0] == 32.0 and feats[0][1] == 24.0
    assert abs(feats[0][2] - feats[1][2]) < 1.0       # mean intensity
    assert np.abs(feats[0][4:] - feats[1][4:]).sum() < 0.15


def test_media_fixture_includes_jpeg(ray_session):
    """synth_real_media_table now cycles JPEG in; media_probe reads its
    true dimensions from the SOF header and media_decode features it."""
    import ray.data as rd

    from rayflow.ops.multimodal import synth_real_media_table

    tbl = synth_real_media_table(16, seed=11)
    jt = tbl.filter(pc.equal(tbl["media_type"], "image/jpeg"))
    assert jt.num_rows >= 3
    probed = build_op({"op": "media_probe"})(
        rd.from_arrow(tbl)).to_pandas().set_index("media_id")
    ref = tbl.to_pandas().set_index("media_id")
    for mid in jt["media_id"].to_pylist():
        assert probed.loc[mid]["probe_format"] == "jpeg"
        assert probed.loc[mid]["probe_width"] == ref.loc[mid]["width"]
        assert probed.loc[mid]["probe_height"] == ref.loc[mid]["height"]


# -- MJPEG AVI container (rayflow/ops/avi.py) ---------------------------------


def test_avi_roundtrip():
    from rayflow.ops.avi import decode_avi, probe_avi, synth_avi

    frames = [np.clip(_gradient_rgb(24, 32).astype(int) + 10 * t,
                      0, 255).astype(np.uint8) for t in range(4)]
    data = synth_avi(frames, fps=10, quality=92)
    assert probe_avi(data) == (32, 24, 4)
    out, fps = decode_avi(data)
    assert fps == 10.0 and len(out) == 4
    for a, b in zip(frames, out):
        assert b.shape == a.shape
        assert np.abs(a.astype(int) - b.astype(int)).mean() < 2.0


def test_avi_dib_roundtrip_bit_exact():
    """Uncompressed BI_RGB streams (biCompression=0) decode natively —
    DIB rows are padded bottom-up BGR, so the round-trip is lossless."""
    from rayflow.ops.avi import decode_avi, probe_avi, synth_avi

    rng = np.random.default_rng(17)
    frames = [rng.integers(0, 256, (11, 13, 3), dtype=np.uint8)  # odd w: pad
              for _ in range(3)]
    data = synth_avi(frames, fps=8, codec="DIB")
    assert probe_avi(data) == (13, 11, 3)
    out, fps = decode_avi(data)
    assert fps == 8.0 and len(out) == 3
    for a, b in zip(frames, out):
        assert np.array_equal(a, b)


def test_avi_unknown_codec_fails_loud():
    from rayflow.ops.avi import decode_avi, synth_avi

    data = bytearray(synth_avi([np.zeros((8, 8, 3), np.uint8)], fps=5))
    i = data.find(b"vids") + 4
    data[i:i + 4] = b"H264"                       # strh handler
    j = data.find(b"strf") + 8 + 16
    data[j:j + 4] = (0x34363248).to_bytes(4, "little")   # biCompression
    with pytest.raises(NotImplementedError, match="codec library"):
        decode_avi(bytes(data))


def test_avi_grayscale_and_errors():
    from rayflow.ops.avi import decode_avi, synth_avi

    g = [_gradient_rgb(16, 16)[..., 0] for _ in range(2)]
    out, fps = decode_avi(synth_avi(g, fps=5))
    assert out[0].shape == (16, 16, 1) and fps == 5.0
    with pytest.raises(ValueError, match="RIFF/AVI"):
        decode_avi(b"RIFF\x04\x00\x00\x00WAVE")
    with pytest.raises(ValueError, match="no video frames"):
        decode_avi(b"RIFF\x04\x00\x00\x00AVI ")


def test_media_frame_sample_real_avi(ray_session):
    """media_frame_sample decodes AVI payloads for real: frame_idx
    advances with the timestamp grid and px stats come from actual
    decoded frames."""
    import ray.data as rd

    from rayflow.ops.avi import synth_avi

    # 6 frames at 5 fps = 1200 ms; sample every 200 ms -> idx 0..5
    frames = [np.full((8, 12, 3), 40 * t, np.uint8) for t in range(6)]
    t = pa.table({
        "media_id": pa.array([7], pa.int64()),
        "media_type": pa.array(["video/avi"]),
        "payload": pa.array([synth_avi(frames, fps=5)], pa.large_binary()),
    })
    out = build_op({"op": "media_frame_sample", "every_ms": 200})(
        rd.from_arrow(t)).to_pandas().sort_values("frame_ms")
    assert out["frame_idx"].tolist() == [0, 1, 2, 3, 4, 5]
    assert out["width"].tolist() == [12] * 6
    # frame t is a constant plate of 40*t (JPEG-lossy, so near)
    assert np.allclose(out["px_mean"].to_numpy(),
                       [0, 40, 80, 120, 160, 200], atol=3.0)


def test_media_frame_sample_mixed_schema(ray_session):
    """Mixed media keeps ONE schema: non-video rows carry null
    frame_idx/stats but still emit the every_ms timestamp grid."""
    import ray.data as rd

    from rayflow.ops.multimodal import synth_real_media_table

    tbl = synth_real_media_table(20, seed=13)
    out = build_op({"op": "media_frame_sample", "every_ms": 100})(
        rd.from_arrow(tbl)).to_pandas()
    vid = out[out["media_type"] == "video/avi"]
    aud = out[out["media_type"] == "audio/wav"]
    assert len(vid) > 0 and len(aud) > 0
    assert vid["frame_idx"].notna().all()
    assert aud["frame_idx"].isna().all()
    assert (out["frame_ms"] % 100 == 0).all()


def test_media_decode_and_probe_real_avi(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import synth_real_media_table

    tbl = synth_real_media_table(20, seed=17)
    vt = tbl.filter(pc.equal(tbl["media_type"], "video/avi"))
    assert vt.num_rows >= 3
    probed = build_op({"op": "media_probe"})(
        rd.from_arrow(tbl)).to_pandas().set_index("media_id")
    decoded = build_op({"op": "media_decode", "fake": False})(
        rd.from_arrow(tbl)).to_pandas().set_index("media_id")
    ref = tbl.to_pandas().set_index("media_id")
    for mid in vt["media_id"].to_pylist():
        assert probed.loc[mid]["probe_format"] == "avi"
        assert probed.loc[mid]["probe_width"] == ref.loc[mid]["width"]
        assert probed.loc[mid]["probe_height"] == ref.loc[mid]["height"]
        # decode features: head is (w, h) of the decoded first frame
        assert decoded.loc[mid]["feature"][0] == ref.loc[mid]["width"]
        assert decoded.loc[mid]["feature"][1] == ref.loc[mid]["height"]


# -- Bloblang tail: sort_by / find / find_all / exists / squash ---------------


def test_list_sort_by_and_find():
    t = pa.table({"ls": pa.array([["bb", "a", "ccc"], [], None, ["z", "yy"]],
                                 pa.list_(pa.string()))})
    assert E.F("list_sort_by", E.col("ls"), "length").eval(t).to_pylist() \
        == [["a", "bb", "ccc"], [], None, ["z", "yy"]]
    assert E.F("list_sort_by", E.col("ls"), "length", True).eval(t) \
        .to_pylist() == [["ccc", "bb", "a"], [], None, ["yy", "z"]]
    # string keys descending (rank-code path), stability on ties
    assert E.F("list_sort_by", E.col("ls"), "lowercase", True).eval(t) \
        .to_pylist() == [["ccc", "bb", "a"], [], None, ["z", "yy"]]
    t2 = pa.table({"ls": pa.array([["x1", "y1", "x2"]], pa.list_(pa.string()))})
    assert E.F("list_sort_by", E.col("ls"), "length").eval(t2).to_pylist() \
        == [["x1", "y1", "x2"]]
    # find: first match, null when no element matches / row empty / null
    got = E.F("list_find", E.col("ls"), "not_empty").eval(t).to_pylist()
    assert got == ["bb", None, None, "z"]


def test_struct_exists_and_squash():
    s = pa.table({"st": pa.array(
        [{"a": 1, "b": None}, {"a": None, "b": 2}, None],
        pa.struct([("a", pa.int64()), ("b", pa.int64())]))})
    assert E.F("struct_exists", E.col("st"), "a").eval(s).to_pylist() \
        == [True, False, False]
    assert E.F("struct_exists", E.col("st"), "missing").eval(s).to_pylist() \
        == [False, False, False]
    q = pa.table({"ls": pa.array([[{"x": 1}, {"y": 2}, {"x": 3}], None])})
    got = E.F("struct_squash", E.col("ls")).eval(q).to_pylist()
    assert got[0]["x"] == 3 and got[0]["y"] == 2 and got[1] is None


def test_bloblang_tail_method_syntax():
    from rayflow.bloblang import parse_expr

    t = pa.table({"tags": pa.array([["bb", "a", "ccc"]], pa.list_(pa.string()))})
    ex = parse_expr('this.tags.sort_by("length").find("not_empty")')
    assert ex.eval(t).to_pylist() == ["a"]


def test_parquet_payload_roundtrip(ray_session):
    """format_parquet packs a batch into one Parquet payload;
    parse_parquet explodes it back with native types and replicated
    parent columns."""
    import ray.data as rd

    t = pa.table({"a": pa.array([1, 2, 3], pa.int64()),
                  "b": pa.array(["x", "y", "z"]),
                  "f": pa.array([1.5, None, -2.25], pa.float64())})
    enc = build_op({"op": "format_parquet"})(rd.from_arrow(t))
    encd = enc.to_pandas()
    assert encd["payload"].map(len).gt(0).all()
    assert encd["n_rows"].sum() == 3
    dec = build_op({"op": "parse_parquet"})(enc).to_pandas() \
        .sort_values("a", ignore_index=True)
    assert dec["a"].tolist() == [1, 2, 3]
    assert dec["b"].tolist() == ["x", "y", "z"]
    assert dec["f"][0] == 1.5 and pd.isna(dec["f"][1])
    # parent replication: keep the source column alongside
    dec2 = build_op({"op": "parse_parquet", "drop_source": False})(enc) \
        .to_pandas()
    assert "payload" in dec2.columns and len(dec2) == 3


# -- rate_limit: shared token-bucket admission control -----------------------


def test_rate_limiter_reservation_math():
    from rayflow.state import RateLimiterImpl

    rl = RateLimiterImpl(rate=100.0, burst=50.0)
    # burst admits instantly
    assert rl.acquire(50.0) == 0.0
    # past the burst, waits queue at 1/rate per token
    w1 = rl.acquire(100.0)
    w2 = rl.acquire(100.0)
    assert 0.9 <= w1 <= 1.1
    assert 1.9 <= w2 <= 2.1  # reservations accumulate into the future


def test_rate_limit_op_caps_throughput(ray_session):
    import time

    import ray.data as rd

    from rayflow.ops import build_op
    from rayflow.state import _LOCAL_REGISTRY

    _LOCAL_REGISTRY.pop("rayflow-ratelimit-t3", None)
    ds = rd.from_arrow(pa.table({"x": pa.array(range(400), pa.int64())}))
    ds = ds.repartition(8)
    op = build_op({"op": "rate_limit", "resource": "t3", "rate": 2000.0,
                   "burst": 100.0, "batch_size": 50})
    t0 = time.monotonic()
    out = op(ds).materialize()
    elapsed = time.monotonic() - t0
    # 400 rows - 100 burst = 300 rows over the 2000/s budget => >= 0.15s;
    # ambient load only makes it slower, so the lower bound is safe
    assert elapsed >= 0.14
    assert out.count() == 400
    assert sorted(r["x"] for r in out.take_all()) == list(range(400))


# -- exact n-gram Jaccard (prefix-filtered AllPairs) --------------------------


def _ngram_corpus(seed=11, n=60, planted=8):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(120)]
    docs = [" ".join(rng.choice(vocab, size=30)) for _ in range(n)]
    for i in range(planted):  # near-dups: change one word
        w = docs[i].split()
        w[0] = "zzz"
        docs.append(" ".join(w))
    return docs


def _brute_pairs(docs, threshold, k=3):
    """Independent quadratic ground truth over the engine's crc32
    shingle sets."""
    from rayflow.ops.dedup import _token_shingles, jaccard

    sets = [_token_shingles(d, k) for d in docs]
    out = []
    for a in range(len(docs)):
        for b in range(a + 1, len(docs)):
            j = jaccard(sets[a], sets[b])
            if j >= threshold:
                out.append((a, b, j))
    return out


def test_ngram_jaccard_exact_vs_bruteforce(ray_session):
    """The exact op must return EVERY pair >= threshold (no sketch
    recall loss), with bit-identical jaccard values."""
    import ray.data as rd

    docs = _ngram_corpus()
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    got = build_op({"op": "ngram_jaccard_dedup", "threshold": 0.45,
                    "shingle_k": 3})(rd.from_arrow(t)).to_pandas()
    got = got.sort_values(["doc_a", "doc_b"], ignore_index=True)
    want = _brute_pairs(docs, 0.45)
    assert list(zip(got.doc_a, got.doc_b)) == [(a, b) for a, b, _ in want]
    for (_, r), (_, _, j) in zip(got.iterrows(), want):
        assert r.jaccard == pytest.approx(j, abs=0)  # bit-identical


def test_ngram_jaccard_sharded_path_agrees(ray_session):
    import ray.data as rd

    docs = _ngram_corpus(seed=13)
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    kw = dict(op="ngram_jaccard_dedup", threshold=0.45, shingle_k=3)
    bc = build_op({**kw, "broadcast_bytes_limit": 1 << 30})(
        rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True)
    sh = build_op({**kw, "broadcast_bytes_limit": 0})(
        rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True)
    pd.testing.assert_frame_equal(bc, sh)
    assert len(bc) >= 8


def test_ngram_jaccard_empty_docs_pair(ray_session):
    """Two empty/whitespace docs meet via the sentinel prefix row and
    report Jaccard 1.0 (both-empty defined as identical)."""
    import ray.data as rd

    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(["", "   ", "real words here now"])})
    got = build_op({"op": "ngram_jaccard_dedup", "threshold": 0.5})(
        rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True)
    assert list(zip(got.doc_a, got.doc_b)) == [(0, 1)]
    assert got.jaccard.tolist() == [1.0]


def test_ngram_jaccard_hot_run_raises(ray_session):
    """A same-shingle run larger than hot_run_limit fails LOUD (no
    silent truncation)."""
    import ray.data as rd

    docs = [f"common shingle base plus unique{i} tail{i}" for i in range(9)]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    op = build_op({"op": "ngram_jaccard_dedup", "threshold": 0.2,
                   "hot_run_limit": 4})
    with pytest.raises(Exception, match="hot_run_limit"):
        op(rd.from_arrow(t)).materialize()


def test_ngram_jaccard_low_threshold_beats_lsh_recall(ray_session):
    """At a low threshold the exact op keeps pairs whose Jaccard sits
    far below what 16-band LSH reliably detects — the reason this op
    exists next to minhash_lsh_dedup."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    base = list(rng.choice(vocab, size=40))
    docs = [" ".join(base)]
    w = list(base)
    for i in range(0, 24, 2):   # heavy edit: ~60% of shingles survive
        w[i] = f"edit{i}"
    docs.append(" ".join(w))
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(docs)})
    got = build_op({"op": "ngram_jaccard_dedup", "threshold": 0.2})(
        rd.from_arrow(t)).to_pandas()
    want = _brute_pairs(docs, 0.2)
    assert len(want) == 1 and len(got) == 1
    assert got.jaccard[0] == pytest.approx(want[0][2], abs=0)


def test_minhash_hot_band_raises(ray_session):
    """A giant identical-document clique (every band collides) fails
    LOUD with exact-dedup-first advice instead of emitting ~c^2/2
    candidate pairs."""
    import ray.data as rd

    docs = ["the very same document text repeated verbatim"] * 12
    t = pa.table({"doc_id": pa.array(range(12), pa.int64()),
                  "text": pa.array(docs)})
    op = build_op({"op": "minhash_lsh_dedup", "threshold": 0.5,
                   "hot_band_limit": 8})
    with pytest.raises(Exception, match="hot_band_limit"):
        op(rd.from_arrow(t)).materialize()


# -- corpus-trained bigram LM quality score ----------------------------------


def test_ngram_lm_score_hand_computed(ray_session):
    import math

    import ray.data as rd

    docs = ["the cat sat", "the cat ran", "x"]
    t = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                  "text": pa.array(docs)})
    out = build_op({"op": "ngram_lm_score"})(
        rd.from_arrow(t)).to_pandas().set_index("doc_id")["lm_logprob"]
    # corpus: cu = {the:2, cat:2, sat:1, ran:1, x:1}, V=5
    # cb = {"the cat":2, "cat sat":1, "cat ran":1}
    V = 5.0
    lp = lambda cb, cu: math.log((cb + 1.0) / (cu + V))
    want0 = (lp(2, 2) + lp(1, 2)) / 2   # "the cat", "cat sat"
    want1 = (lp(2, 2) + lp(1, 2)) / 2
    assert out[0] == pytest.approx(want0, rel=1e-12)
    assert out[1] == pytest.approx(want1, rel=1e-12)
    assert pd.isna(out[2])              # < 2 tokens: NULL


def test_ngram_lm_score_min_count_prunes(ray_session):
    import math

    import ray.data as rd

    docs = ["a b a b a b", "q z"]      # "a b" x3, "q z" x1
    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(docs)})
    out = build_op({"op": "ngram_lm_score", "min_count": 2})(
        rd.from_arrow(t)).to_pandas().set_index("doc_id")["lm_logprob"]
    # pruned model keeps cu(a)=3, cu(b)=3, cb("a b")=3, cb("b a")=2;
    # q/z unigrams and "q z" bigram pruned -> counts 0 at score time.
    # V stays the pre-prune distinct-unigram count? No: V = rows of the
    # PRUNED unigram table (the broadcast model) = 2.
    V = 2.0
    lp = lambda cb, cu: math.log((cb + 1.0) / (cu + V))
    want0 = (3 * lp(3, 3) + 2 * lp(2, 3)) / 5
    want1 = lp(0, 0)
    assert out[0] == pytest.approx(want0, rel=1e-12)
    assert out[1] == pytest.approx(want1, rel=1e-12)


def test_ngram_lm_score_model_size_guard(ray_session):
    import ray.data as rd

    t = pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(["many distinct tokens here now",
                                    "other words entirely different set"])})
    op = build_op({"op": "ngram_lm_score", "broadcast_bytes_limit": 1})
    with pytest.raises(ValueError, match="min_count"):
        op(rd.from_arrow(t)).materialize()


# -- media_resize --------------------------------------------------------------


def test_resize_bilinear_identity_and_average():
    from rayflow.ops.multimodal import resize_bilinear

    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (7, 5, 3), dtype=np.uint8)
    # identity: half-pixel centers align exactly -> bit-equal copy
    assert (resize_bilinear(px, 7, 5) == px).all()
    # constant image stays constant at any size
    const = np.full((4, 4, 3), 200, np.uint8)
    assert (resize_bilinear(const, 9, 3) == 200).all()
    # exact 2x downscale of a checkerboard averages the 2x2 block
    cb = np.zeros((4, 4, 3), np.uint8)
    cb[::2, 1::2] = 255
    cb[1::2, ::2] = 255
    out = resize_bilinear(cb, 2, 2)
    assert (out == 128).all()   # rint(127.5) = 128


def test_media_resize_op_end_to_end(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import (decode_png, resize_bilinear,
                                        synth_png_pixels, synth_wav)

    rng = np.random.default_rng(9)
    src = rng.integers(0, 256, (12, 10, 3), dtype=np.uint8)
    t = pa.table({
        "media_id": pa.array([1, 2], pa.int64()),
        "media_type": pa.array(["image/png", "audio/wav"]),
        "payload": pa.array([synth_png_pixels(src), synth_wav()],
                            pa.binary()),
    })
    out = build_op({"op": "media_resize", "width": 5, "height": 6})(
        rd.from_arrow(t)).to_pandas()
    assert list(out["media_id"]) == [1]          # WAV dropped
    assert list(out["media_type"]) == ["image/png"]
    got = decode_png(out["payload"][0])
    assert got.shape == (6, 5, 3)
    assert (got == resize_bilinear(src, 6, 5)).all()   # bit-exact chain
    # identity-size resize round-trips the pixels bit-exactly
    same = build_op({"op": "media_resize", "width": 10, "height": 12})(
        rd.from_arrow(t.slice(0, 1))).to_pandas()
    assert (decode_png(same["payload"][0]) == src).all()
    # error mode surfaces non-images loudly
    with pytest.raises(Exception, match="codec library"):
        build_op({"op": "media_resize", "width": 4, "height": 4,
                  "on_non_image": "error"})(
            rd.from_arrow(t)).materialize()


# -- sql_batch processor -------------------------------------------------------


def test_sql_batch_rowlevel(ray_session):
    import ray.data as rd

    t = pa.table({"k": pa.array([1, 2, 3, 4], pa.int64()),
                  "v": pa.array([10.0, 20.0, 30.0, 40.0])})
    out = build_op({"op": "sql_batch", "sql":
                    "SELECT k, v * 2 AS dbl FROM batch WHERE v >= 20"})(
        rd.from_arrow(t).repartition(3)).to_pandas().sort_values(
            "k", ignore_index=True)
    assert list(out["k"]) == [2, 3, 4]
    assert list(out["dbl"]) == [40.0, 60.0, 80.0]


def test_sql_batch_unnest_and_empty_blocks(ray_session):
    import ray.data as rd

    t = pa.table({"doc": pa.array(["a b", "", "c"]),
                  "i": pa.array([1, 2, 3], pa.int64())})
    op = build_op({"op": "sql_batch", "sql": """
        SELECT i, unnest(string_split(doc, ' ')) AS tok
        FROM batch WHERE doc <> ''
    """})
    out = op(rd.from_arrow(t).repartition(4)).to_pandas() \
        .sort_values(["i", "tok"], ignore_index=True)
    assert list(zip(out["i"], out["tok"])) == [(1, "a"), (1, "b"), (3, "c")]


# -- sharded semi/anti ---------------------------------------------------------


def test_sharded_semi_anti_agree_with_broadcast(ray_session):
    import ray.data as rd

    left = pa.table({"k": pa.array([1, 2, 3, 4, 5, 5], pa.int64()),
                     "v": pa.array(["a", "b", "c", "d", "e", "f"])})
    right = pa.table({"rk": pa.array([2, 2, 4, 9], pa.int64())})
    lds = rd.from_arrow(left).repartition(3)

    for anti in (False, True):
        sharded = build_op({
            "op": "sharded_semi", "right": rd.from_arrow(right),
            "on": "k", "right_on": "rk", "anti": anti,
            "num_partitions": 2,
        })(lds).to_pandas().sort_values(["k", "v"], ignore_index=True)
        bcast = build_op({
            "op": "broadcast_semi", "keys_ref": right["rk"].to_pylist(),
            "on": "k", "anti": anti,
        })(lds).to_pandas().sort_values(["k", "v"], ignore_index=True)
        pd.testing.assert_frame_equal(sharded, bcast)
        assert list(sharded.columns) == ["k", "v"]   # passthrough only
    # semi keeps 2,4; anti keeps 1,3,5,5


def _not_null(t: pa.Table) -> pa.Table:
    """``t`` with every field declared non-null (Parquet ``required``)."""
    return pa.Table.from_arrays(t.columns, schema=pa.schema(
        [f.with_nullable(False) for f in t.schema]))


@pytest.mark.parametrize("anti", [False, True], ids=["semi", "anti"])
@pytest.mark.parametrize("lk,rk", [
    ([1, None, 2, 3, None, 5, 5], [2, None, 5, 9, 5]),
    (["a", None, "b", "c", None, "e", "e"], ["b", None, "e", "z", "e"]),
    ([1, None, 2], pa.array([None, None], pa.int64())),
    ([1, 2, 3, 5, 5], [2, 5, 9, 5]),
], ids=["int", "str", "no-right-key", "int-not-null"])
def test_sharded_semi_broadcast_and_join_paths_agree(
        ray_session, monkeypatch, anti, lk, rk):
    """The broadcast path (small key set, the default) and the
    bloom-prefiltered or plain ``Dataset.join`` path (forced with a
    0-byte broadcast limit) both give SQL semi/anti semantics: null
    keys on either side never match, so semi drops null left keys and
    anti keeps them.  Inputs without nulls are declared non-null."""
    import ray.data as rd

    from rayflow.ops import joins
    from rayflow.ops.kernels import collect_table

    left = pa.table({"k": lk, "v": pa.array(range(len(lk)), pa.int64())})
    right = pa.table({"rk": rk})
    if None not in lk and right["rk"].null_count == 0:
        left, right = _not_null(left), _not_null(right)

    def run(bloom=None):
        # collect_table keeps the columns of an empty result (to_pandas
        # on an empty Ray dataset drops them)
        return collect_table(build_op({
            "op": "sharded_semi", "right": rd.from_arrow(right),
            "on": "k", "right_on": "rk", "anti": anti,
            "num_partitions": 2, "bloom_bits_per_key": bloom,
        })(rd.from_arrow(left).repartition(3))).to_pandas() \
            .sort_values("v", ignore_index=True)

    ldf = left.to_pandas()
    member = ldf["k"].isin(right["rk"].drop_null().to_pylist()) \
        & ldf["k"].notna()
    want = left.filter(pa.array(~member if anti else member)).to_pandas()
    bcast = run()
    monkeypatch.setattr(joins, "SEMI_BROADCAST_BYTES", 0)
    for got in (bcast, run(), run(bloom=8)):
        pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("how,bloom", [
    ("inner", None), ("inner", 8), ("left", None), ("full_outer", None),
], ids=["inner", "inner-bloom", "left", "full-outer"])
def test_sharded_join_pads_blocks_exactly(ray_session, how, bloom):
    """Ray's hash join sends a side's schema with its first block only,
    so a bloom prefilter that emptied the left side's first block
    crashed the join.  ``sharded_join`` pads every block with a
    null-key row: inputs declared non-null must still join, and no pad
    row may reach an inner, left or full outer result."""
    import ray.data as rd

    from rayflow.ops.kernels import collect_table

    left = _not_null(pa.table({"k": pa.array([1, 7, 2, 3, 8, 5, 5]),
                               "v": pa.array(range(7))}))
    right = _not_null(pa.table({"k2": pa.array([2, 5, 9]),
                                "w": pa.array([20, 50, 90])}))
    lds = rd.from_arrow(left).repartition(3).map_batches(
        lambda t: t.filter(pc.greater_equal(t["v"], 3)),
        batch_format="pyarrow")
    got = collect_table(build_op({
        "op": "sharded_join", "right": rd.from_arrow(right), "on": ["k"],
        "right_on": ["k2"], "how": how, "num_partitions": 2,
        "bloom_bits_per_key": bloom,
    })(lds))
    # Dataset.join keeps one key column, ``k``
    rows = {(r["k"], r["v"], r["w"]) for r in got.to_pylist()}
    want = {(5, 5, 50), (5, 6, 50)}
    if how in ("left", "full_outer"):
        want |= {(3, 3, None), (8, 4, None)}
    if how == "full_outer":
        want |= {(2, None, 20), (9, None, 90)}
    assert got.num_rows == len(want) and rows == want


# -- profile_columns -----------------------------------------------------------


def test_profile_columns_exact_and_approx(ray_session):
    import ray.data as rd

    t = pa.table({
        "a": pa.array([1, 2, 2, None, 5], pa.int64()),
        "b": pa.array(["x", "y", None, None, "x"]),
    })
    out = build_op({"op": "profile_columns", "columns": ["a", "b"]})(
        rd.from_arrow(t).repartition(3)).to_pandas().set_index("column")
    assert out.loc["a", "n_rows"] == 5 and out.loc["a", "n_nulls"] == 1
    assert out.loc["a", "n_distinct"] == 3
    assert out.loc["a", "min_str"] == "1" and out.loc["a", "max_str"] == "5"
    assert out.loc["b", "n_nulls"] == 2 and out.loc["b", "n_distinct"] == 2
    assert out.loc["b", "min_str"] == "x" and out.loc["b", "max_str"] == "y"

    approx = build_op({"op": "profile_columns", "columns": ["a", "b"],
                       "distinct": "approx"})(
        rd.from_arrow(t)).to_pandas().set_index("column")
    # HLL at tiny cardinality is exact
    assert approx.loc["a", "n_distinct"] == 3
    assert approx.loc["b", "n_distinct"] == 2


def test_profile_columns_int64_beyond_2_53(ray_session):
    """Extremes above 2^53 must survive the driver fold exactly (a
    pandas fold would coerce int64-with-null partials to float64);
    mixed-type column sets exercise the null-bearing partial rows."""
    import ray.data as rd

    big = 9007199254740993          # 2^53 + 1, not float64-representable
    t = pa.table({
        "id": pa.array([big, 7, big + 4], pa.int64()),
        "name": pa.array(["a", None, "b"]),
    })
    out = build_op({"op": "profile_columns", "columns": ["id", "name"]})(
        rd.from_arrow(t).repartition(2)).to_pandas().set_index("column")
    assert out.loc["id", "min_str"] == "7"
    assert out.loc["id", "max_str"] == str(big + 4)
    assert out.loc["id", "n_distinct"] == 3


# -- IO / plumbing ops roundtrip (the untested-op audit) -----------------------


def test_io_ops_roundtrip(ray_session, tmp_path):
    """read_csv/read_json/read_text sources, write_parquet/write_json/
    route_write sinks, and sample/repartition/union plumbing — every op
    the audit found without a direct test, in one roundtrip."""
    import glob
    import json as _json

    import pyarrow.parquet as pq

    csv_p = tmp_path / "in.csv"
    csv_p.write_text("k,v\n1,a\n2,b\n3,c\n")
    jsonl_p = tmp_path / "in.jsonl"
    jsonl_p.write_text('{"k": 10, "v": "x"}\n{"k": 11, "v": "y"}\n')
    txt_p = tmp_path / "in.txt"
    txt_p.write_text("alpha\nbeta\n")

    csv_ds = build_op({"op": "read_csv", "paths": str(csv_p)})()
    json_ds = build_op({"op": "read_json", "paths": str(jsonl_p)})()
    txt_ds = build_op({"op": "read_text", "paths": str(txt_p)})()
    assert csv_ds.count() == 3 and json_ds.count() == 2
    assert sorted(r["text"] for r in txt_ds.take_all()) == ["alpha", "beta"]

    # union + repartition + sample
    u = build_op({"op": "union", "others": [json_ds]})(csv_ds)
    u = build_op({"op": "repartition", "num_blocks": 2})(u)
    assert u.count() == 5
    s = build_op({"op": "sample", "fraction": 1.0})(u)
    assert s.count() == 5
    assert build_op({"op": "sample", "fraction": 1.0, "seed": 7})(
        u).count() == 5

    # sinks
    pdir = str(tmp_path / "out_parquet")
    build_op({"op": "write_parquet", "path": pdir})(u)
    back = pq.read_table(glob.glob(pdir + "/*.parquet")[0] if len(
        glob.glob(pdir + "/*.parquet")) == 1 else pdir)
    assert back.num_rows == 5

    jdir = str(tmp_path / "out_json")
    build_op({"op": "write_json", "path": jdir})(u)
    rows = []
    for f in glob.glob(jdir + "/*.json"):
        rows += [_json.loads(x) for x in open(f) if x.strip()]
    assert sorted(r["k"] for r in rows) == [1, 2, 3, 10, 11]

    rdir = str(tmp_path / "routed")
    routed = build_op({"op": "mapping",
                       "cols": {"route": E.F("if_else",
                                             E.col("k") < 10,
                                             E.lit("small"), E.lit("big"))}})(u)
    build_op({"op": "route_write", "path": rdir, "route_col": "route"})(routed)
    assert sorted(p.split("route=")[-1] for p in glob.glob(rdir + "/route=*")) \
        == ["big", "small"]
    small = pa.concat_tables([
        pq.read_table(f) for f in glob.glob(rdir + "/route=small/*.parquet")])
    assert small.num_rows == 3


# -- dup_span_pairs -------------------------------------------------------------


def test_dup_span_pairs_planted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(400)]
    base = " ".join(rng.choice(vocab, size=60))
    shared = " ".join(rng.choice(vocab, size=25))     # 25-token span
    docs = [
        base,
        " ".join(rng.choice(vocab, size=40)) + " " + shared,
        shared + " " + " ".join(rng.choice(vocab, size=40)),
        " ".join(rng.choice(vocab, size=50)),          # unrelated
        "short doc",                                   # < k tokens: no spans
    ]
    t = pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs)})
    out = build_op({"op": "dup_span_pairs", "k_tokens": 20})(
        rd.from_arrow(t)).to_pandas().sort_values(
            ["doc_a", "doc_b"], ignore_index=True)
    assert list(zip(out.doc_a, out.doc_b)) == [(1, 2)]
    # docs 1 and 2 share exactly the 25-token span: 25-20+1 = 6 windows
    assert out.n_shared.tolist() == [6]


def test_dup_span_hot_limit_raises(ray_session):
    import ray.data as rd

    span = " ".join(f"t{i}" for i in range(20))
    docs = [span + f" unique{i}" for i in range(9)]
    t = pa.table({"doc_id": pa.array(range(9), pa.int64()),
                  "text": pa.array(docs)})
    op = build_op({"op": "dup_span_pairs", "k_tokens": 20,
                   "hot_span_limit": 4})
    with pytest.raises(Exception, match="hot_span_limit"):
        op(rd.from_arrow(t)).materialize()

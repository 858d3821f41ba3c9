"""Tests for the training-data operators (dedup / ANN / text / media)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rayflow.ops import build_op
from rayflow.ops.dedup import _token_shingles, jaccard, simhash64


def _docs_with_dups():
    """Small corpus with planted near-duplicates."""
    base = "the quick brown fox jumps over the lazy dog near the river bank today"
    rows = []
    for i in range(30):
        rows.append((i, f"unique document number {i} talking about topic {i * 7} "
                        f"with content {i * 13} and details {i * 29}", "src0"))
    rows.append((100, base, "src1"))
    rows.append((101, base + " extra", "src1"))                      # near-dup of 100
    rows.append((102, base.replace("dog", "cat"), "src1"))           # near-dup of 100
    rows.append((103, "completely different text about databases and engines", "src1"))
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows]),
        "source": pa.array([r[2] for r in rows]),
    })


def test_minhash_finds_planted_dups(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_docs_with_dups())
    out = build_op({"op": "minhash_lsh_dedup", "threshold": 0.5,
                    "num_perm": 64, "num_bands": 16})(ds).to_pandas()
    pairs = {(a, b) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert (100, 101) in pairs
    assert (100, 102) in pairs
    # unrelated docs must not pair
    assert all(a >= 100 and b >= 100 for a, b in pairs)


def test_minhash_agrees_with_bruteforce(ray_session):
    """Every pair brute force finds at tau=0.6, MinHash-LSH must find too
    (bands tuned for the threshold), and vice versa for verified pairs."""
    import ray.data as rd

    tbl = _docs_with_dups()
    ds = rd.from_arrow(tbl)
    mh = build_op({"op": "minhash_lsh_dedup", "threshold": 0.6,
                   "num_perm": 64, "num_bands": 16})(ds).to_pandas()
    mh_pairs = {(a, b) for a, b in zip(mh["doc_a"], mh["doc_b"])}

    # brute force over the whole corpus (tiny)
    texts = dict(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()))
    ids = sorted(texts)
    bf_pairs = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if jaccard(_token_shingles(texts[a], 3), _token_shingles(texts[b], 3)) >= 0.6:
                bf_pairs.add((a, b))
    assert mh_pairs == bf_pairs


def test_jaccard_block_pairs(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(_docs_with_dups())
    out = build_op({"op": "jaccard_block_pairs", "block_col": "source",
                    "threshold": 0.5})(ds).to_pandas()
    pairs = {(a, b) for a, b in zip(out["doc_a"], out["doc_b"])}
    assert (100, 101) in pairs and (100, 102) in pairs


def test_simhash_properties():
    a = simhash64("the quick brown fox jumps over the lazy dog")
    b = simhash64("the quick brown fox jumps over the lazy dog")
    c = simhash64("the quick brown fox jumps over the lazy cat")
    d = simhash64("completely unrelated words about engines and rayflow")
    assert a == b  # deterministic
    ham_near = bin(a ^ c).count("1")
    ham_far = bin(a ^ d).count("1")
    assert ham_near < ham_far


def test_knn_bruteforce_exact(ray_session):
    """Distributed top-k equals a local numpy argsort ground truth."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    n, d = 300, 16
    m = rng.standard_normal((n, d))
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([row.tolist() for row in m], pa.list_(pa.float32())),
    })
    m32 = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    q = m32[:3]
    ds = rd.from_arrow(tbl)
    out = build_op({"op": "knn_bruteforce", "queries": q,
                    "query_ids": np.arange(3), "k": 5})(ds).to_pandas()

    mn = m32 / np.linalg.norm(m32, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = mn @ qn.T
    for j in range(3):
        col = sims[:, j].copy()
        col[j] = -np.inf  # exclude self
        expect = list(np.argsort(-col, kind="stable")[:5])
        got = out[out["query_id"] == j].sort_values("rank")["vec_id"].tolist()
        assert got == expect, f"query {j}: {got} vs {expect}"


def test_ann_lsh_recall(ray_session):
    """LSH ANN must achieve nonzero (and decent) recall vs brute force on
    clustered data."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    centers = rng.standard_normal((5, 32)) * 5
    pts = np.concatenate([c + rng.standard_normal((60, 32)) * 0.5 for c in centers])
    tbl = pa.table({
        "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
        "embedding": pa.array([p.tolist() for p in pts], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    q = pts[:2]
    brute = build_op({"op": "knn_bruteforce", "queries": q,
                      "query_ids": np.arange(2), "k": 10})(ds).to_pandas()
    approx = build_op({"op": "ann_lsh", "queries": q, "query_ids": np.arange(2),
                       "k": 10, "dim": 32, "n_planes": 6})(ds).to_pandas()
    recalls = []
    for j in range(2):
        b = set(brute[brute["query_id"] == j]["vec_id"])
        a = set(approx[approx["query_id"] == j]["vec_id"])
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.5, recalls


def test_lang_id_deterministic(ray_session, sf_dir):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out1 = build_op({"op": "lang_id"})(ds).to_pandas().sort_values("doc_id")
    out2 = build_op({"op": "lang_id"})(ds).to_pandas().sort_values("doc_id")
    assert (out1["lang_pred"].values == out2["lang_pred"].values).all()
    assert set(out1["lang_pred"]) <= {"en", "de", "fr", "es", "zh", "unknown"}


def test_media_decode_stub(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import MediaDecoder, synth_media_table

    tbl = synth_media_table(50, seed=42)
    ds = rd.from_arrow(tbl)
    out = build_op({"op": "media_decode", "feature_dim": 16,
                    "batch_size": 8})(ds).to_pandas()
    assert len(out) == 50
    assert all(len(f) == 16 for f in out["feature"])
    # deterministic: same payload → same features
    out2 = build_op({"op": "media_decode", "feature_dim": 16,
                     "batch_size": 8})(ds).to_pandas()
    f1 = out.sort_values("media_id")["feature"].tolist()
    f2 = out2.sort_values("media_id")["feature"].tolist()
    assert all(np.allclose(a, b) for a, b in zip(f1, f2))
    # PNG now decodes natively; a header-only (truncated) PNG is a
    # corrupt payload and raises on the real path
    from rayflow.ops.multimodal import synth_png

    png_batch = pa.table({
        "media_id": pa.array([0], pa.int64()),
        "media_type": pa.array(["image/png"]),
        "payload": pa.array([synth_png(8, 8)], pa.large_binary()),
    })
    with pytest.raises(ValueError, match="missing IHDR/IDAT"):
        MediaDecoder(fake=False)(png_batch)


def test_media_frame_sample(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import synth_media_table

    ds = rd.from_arrow(synth_media_table(10, seed=1))
    out = build_op({"op": "media_frame_sample", "every_ms": 2000})(ds).to_pandas()
    assert len(out) >= 10
    assert (out["frame_ms"] % 2000 == 0).all()


def test_fingerprint_rolling_min_stable(ray_session):
    import ray.data as rd

    tbl = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                    "text": ["hello world rolling hash fingerprint text",
                             "hello world rolling hash fingerprint text"]})
    out = build_op({"op": "fingerprint"})(rd.from_arrow(tbl)).to_pandas()
    assert out["fp_rolling_min"].iloc[0] == out["fp_rolling_min"].iloc[1]
    assert out["fp_md5"].iloc[0] == out["fp_md5"].iloc[1]


def test_embedding_near_dup_finds_planted(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    base = rng.standard_normal((40, 16))
    # plant: 100≈101 (tiny perturbation), 102 = exact copy of 100
    vecs = np.concatenate([base, [base[0] + 0.01 * rng.standard_normal(16)],
                           [base[0]]])
    ids = np.concatenate([np.arange(40), [100], [101]])
    tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    })
    out = build_op({"op": "embedding_near_dup", "threshold": 0.98, "dim": 16,
                    "n_planes": 6})(rd.from_arrow(tbl)).to_pandas()
    pairs = {(a, b) for a, b in zip(out["id_a"], out["id_b"])}
    assert (0, 101) in pairs      # exact copy always lands in same bucket
    assert (0, 100) in pairs or (100, 101) in pairs  # near-copy found


def test_session_windows(ray_session):
    import datetime

    import ray.data as rd

    rows = [
        ("u1", 0), ("u1", 1), ("u1", 50), ("u1", 51),   # two sessions (gap 49h > 24h)
        ("u2", 5),
    ]
    ds = rd.from_arrow(pa.table({
        "k": pa.array([r[0] for r in rows]),
        "ts": pa.array([datetime.datetime(2024, 1, 1) + datetime.timedelta(hours=r[1])
                        for r in rows], pa.timestamp("us")),
        "v": pa.array([1.0] * len(rows)),
    }))
    out = build_op({
        "op": "window_session", "keys": ["k"], "ts_col": "ts", "gap_s": 86400.0,
        "aggs": [("count", None, "n")],
    })(ds).to_pandas().sort_values(["k", "session_start"]).reset_index(drop=True)
    assert len(out) == 3
    assert out["n"].tolist() == [2, 2, 1]


def test_ann_ivf_recall_beats_random(ray_session):
    """IVF (k-means quantizer + multi-probe) recall vs brute force on
    clustered data; trained on a corpus sample."""
    import ray.data as rd

    rng = np.random.default_rng(9)
    centers = rng.standard_normal((6, 24)) * 4
    pts = np.concatenate([c + rng.standard_normal((50, 24)) * 0.4 for c in centers])
    tbl = pa.table({
        "vec_id": pa.array(np.arange(len(pts), dtype=np.int64)),
        "embedding": pa.array([p.tolist() for p in pts], pa.list_(pa.float32())),
    })
    ds = rd.from_arrow(tbl)
    q = pts[:3]
    train = pts[rng.choice(len(pts), 80, replace=False)]
    brute = build_op({"op": "knn_bruteforce", "queries": q,
                      "query_ids": np.arange(3), "k": 10})(ds).to_pandas()
    ivf = build_op({"op": "ann_ivf", "queries": q, "query_ids": np.arange(3),
                    "k": 10, "n_clusters": 12, "nprobe": 3,
                    "train_sample": train})(ds).to_pandas()
    recalls = []
    for j in range(3):
        b = set(brute[brute["query_id"] == j]["vec_id"])
        a = set(ivf[ivf["query_id"] == j]["vec_id"])
        recalls.append(len(a & b) / len(b))
    assert np.mean(recalls) >= 0.7, recalls


def test_kmeans_deterministic():
    from rayflow.ops.ann import kmeans_fit

    rng = np.random.default_rng(2)
    x = rng.standard_normal((100, 8))
    c1 = kmeans_fit(x, 5, seed=7)
    c2 = kmeans_fit(x, 5, seed=7)
    assert np.allclose(c1, c2)


def test_bmp_roundtrip_bit_exact():
    from rayflow.ops.multimodal import decode_bmp, synth_bmp

    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (13, 7, 3), dtype=np.uint8)  # odd width: padding
    assert np.array_equal(decode_bmp(synth_bmp(px)), px)


def test_wav_roundtrip_bit_exact():
    from rayflow.ops.multimodal import decode_wav, synth_wav

    rng = np.random.default_rng(4)
    pcm = rng.integers(-32768, 32767, (1001, 2), dtype=np.int16)
    out, rate = decode_wav(synth_wav(22050, 2, pcm))
    assert rate == 22050
    assert np.array_equal(out, pcm)


def test_media_decode_real_path(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import synth_real_media_table

    tbl = synth_real_media_table(20, seed=9)
    ds = rd.from_arrow(tbl)
    out = build_op({"op": "media_decode", "feature_dim": 16, "fake": False,
                    "batch_size": 8})(ds).to_pandas() \
        .sort_values("media_id", ignore_index=True)
    assert len(out) == 20
    assert all(len(f) == 16 for f in out["feature"])
    # image features start [w, h, mean, std] — check against the fixture
    img = out[out["media_type"] == "image/bmp"].iloc[0]
    row = tbl.to_pandas().set_index("media_id").loc[img["media_id"]]
    assert img["feature"][0] == row["width"]
    assert img["feature"][1] == row["height"]
    # audio features start [rate, channels, rms, zcr]
    aud = out[out["media_type"] == "audio/wav"].iloc[0]
    assert aud["feature"][0] == 16000.0
    assert aud["feature"][1] == 1.0
    assert aud["feature"][2] > 0.0


def test_media_decode_fallback_pseudo(ray_session):
    import ray.data as rd

    from rayflow.ops.multimodal import synth_media_table

    # the fixture's pngs are header-only (corrupt); fallback keeps the
    # pipe flowing for corrupt payloads and absent codecs alike
    ds = rd.from_arrow(synth_media_table(10, seed=2))
    out = build_op({"op": "media_decode", "feature_dim": 8, "fake": False,
                    "fallback_pseudo": True, "batch_size": 8})(
        ds).to_pandas()
    assert len(out) == 10
    assert all(len(f) == 8 for f in out["feature"])


def test_shingle_hash_batch_matches_scalar_reference():
    """Vectorized shingle kernel == _token_shingles per doc, bit for
    bit, across k and messy whitespace/unicode/empty inputs."""
    import random
    import string

    import pyarrow as pa

    from rayflow.ops.dedup import shingle_hash_batch

    rng = random.Random(7)

    def rand_text():
        n = rng.randrange(0, 40)
        toks = ["".join(rng.choices(string.ascii_letters + "αβγ",
                                    k=rng.randrange(1, 8)))
                for _ in range(n)]
        out = ""
        for t in toks:
            out += t + rng.choice([" ", "  ", "\t", "\n", " \t "])
        return (rng.choice([" ", ""]) + out)

    fixed = ["", "   ", "one", "a b", "x y z", "x y z w x y z", None,
             "tab\tsep\nnewline  multi   space", "üñí çødé tokens"]
    for k in (1, 2, 3, 5, 20):
        texts = fixed + [rand_text() for _ in range(200)]
        flat, cnts = shingle_hash_batch(pa.array(texts, pa.string()), k)
        offs = np.concatenate(([0], np.cumsum(cnts)))
        for i, tx in enumerate(texts):
            seg = flat[offs[i]:offs[i + 1]]
            assert _token_shingles(tx or "", k) == set(seg.tolist())
            if len(seg) > 1:          # sorted unique within each doc
                assert np.all(np.diff(seg) > 0)


def test_minhash_flat_matches_set_path():
    from rayflow.ops.dedup import minhash_batch, minhash_flat, \
        shingle_hash_batch
    import pyarrow as pa

    texts = ["a b c d e", "", "a b", "z y x w v u t", "a b c d e"]
    rng = np.random.default_rng(3)
    a = rng.integers(1, (1 << 61) - 1, 32, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, 32, dtype=np.uint64)
    flat, cnts = shingle_hash_batch(pa.array(texts), 3)
    sets = [_token_shingles(t, 3) for t in texts]
    assert np.array_equal(minhash_batch(sets, a, b),
                          minhash_flat(flat, cnts, a, b))

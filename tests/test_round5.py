"""Round-5 regression tests: judge/advisor findings.

Covers: pagerank over directed graphs with sink nodes (node universe =
src ∪ dst + dangling-mass redistribution), the co-partitioned pagerank
plan, the join-partition CPU clamp, set_op type validation, and the
empty-input guards on the driver-pull ops (group_zscore / tfidf /
pagerank).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from rayflow.ops import build_op


def _ds(df):
    import ray.data as rd

    return rd.from_pandas(df)


# ---------------------------------------------------------------- pagerank

def _pagerank_reference(edges, n_iter, damping=0.85, undirected=True):
    """Dense power iteration with the standard dangling-node term."""
    if undirected:
        edges = edges + [(d, s) for s, d in edges]
    nodes = sorted({s for s, _ in edges} | {d for _, d in edges})
    deg = {x: 0 for x in nodes}
    for s, _ in edges:
        deg[s] += 1
    n = len(nodes)
    rank = {x: 1.0 / n for x in nodes}
    for _ in range(n_iter):
        dm = sum(rank[x] for x in nodes if deg[x] == 0)
        contrib = {x: 0.0 for x in nodes}
        for s, d in edges:
            contrib[d] += rank[s] / deg[s]
        rank = {x: (1 - damping) / n + damping * (contrib[x] + dm / n)
                for x in nodes}
    return rank


def test_pagerank_directed_sink_node(ray_session):
    # c is dst-only (a sink): previously crashed with invalid bincount
    # indices; now it receives rank and its mass redistributes
    df = pd.DataFrame({"src": ["a", "b"], "dst": ["b", "c"]})
    out = build_op({"op": "pagerank", "n_iter": 20,
                    "undirected": False})(_ds(df)) \
        .to_pandas().set_index("node")["rank"]
    ref = _pagerank_reference([("a", "b"), ("b", "c")], 20,
                              undirected=False)
    assert set(out.index) == set(ref)
    for x, v in ref.items():
        assert abs(out[x] - v) < 1e-9
    assert abs(out.sum() - 1.0) < 1e-9  # dangling mass conserved


def test_pagerank_partitioned_matches_broadcast(ray_session):
    df = pd.DataFrame({"src": ["h"] * 5,
                       "dst": [f"l{i}" for i in range(5)]})
    rb = build_op({"op": "pagerank", "n_iter": 5})(_ds(df)) \
        .to_pandas().set_index("node")["rank"]
    rp = build_op({"op": "pagerank", "n_iter": 5, "mode": "partition",
                   "num_partitions": 4})(_ds(df)) \
        .to_pandas().set_index("node")["rank"]
    assert float((rb - rp.reindex(rb.index)).abs().max()) < 1e-12


def test_pagerank_auto_switches_to_partition_under_tiny_limit(ray_session):
    # broadcast_limit below the node count: auto must route to the
    # co-partitioned plan instead of failing loud, identical ranks
    df = pd.DataFrame({"src": ["h"] * 5,
                       "dst": [f"l{i}" for i in range(5)]})
    rb = build_op({"op": "pagerank", "n_iter": 3})(_ds(df)) \
        .to_pandas().set_index("node")["rank"]
    ra = build_op({"op": "pagerank", "n_iter": 3, "broadcast_limit": 2,
                   "num_partitions": 4})(_ds(df)) \
        .to_pandas().set_index("node")["rank"]
    assert float((rb - ra.reindex(rb.index)).abs().max()) < 1e-12


def test_pagerank_partitioned_directed_sink(ray_session):
    df = pd.DataFrame({"src": ["a", "b"], "dst": ["b", "c"]})
    out = build_op({"op": "pagerank", "n_iter": 8, "undirected": False,
                    "mode": "partition", "num_partitions": 4})(_ds(df)) \
        .to_pandas().set_index("node")["rank"]
    ref = _pagerank_reference([("a", "b"), ("b", "c")], 8,
                              undirected=False)
    for x, v in ref.items():
        assert abs(out[x] - v) < 1e-9


def test_pagerank_empty_input(ray_session):
    df = pd.DataFrame({"src": pd.Series([], dtype=str),
                       "dst": pd.Series([], dtype=str)})
    out = build_op({"op": "pagerank"})(_ds(df))
    assert out.count() == 0
    assert set(out.schema().names) == {"node", "rank"}


# ------------------------------------------------------- join clamp

def test_clamp_join_partitions(ray_session):
    import ray

    from rayflow.ops.kernels import clamp_join_partitions

    cpus = int(ray.cluster_resources().get("CPU", 4))
    assert clamp_join_partitions(2 * cpus + 64) == cpus
    assert clamp_join_partitions(2) == 2
    assert clamp_join_partitions(1) == 2  # floor


def test_sharded_join_survives_oversized_partition_request(ray_session):
    # 128 partitions on a 4-CPU cluster hangs Ray's hash-shuffle
    # aggregator pool without the clamp
    left = pd.DataFrame({"k": ["a", "b", "c"] * 5, "v": range(15)})
    right = pd.DataFrame({"k2": ["a", "b"], "w": [1, 2]})
    out = build_op({"op": "sharded_join", "right": _ds(right),
                    "on": ["k"], "right_on": ["k2"], "how": "inner",
                    "num_partitions": 128})(_ds(left)).to_pandas()
    assert len(out) == 10


# ------------------------------------------------------- set_op types

def test_set_op_rejects_mismatched_column_types(ray_session):
    a = pd.DataFrame({"x": pd.Series([1, 2, 3], dtype="int64")})
    b = pd.DataFrame({"x": pd.Series([1.0, 2.0], dtype="float64")})
    with pytest.raises(Exception, match="types differ"):
        build_op({"op": "set_op", "other": _ds(b),
                  "how": "intersect"})(_ds(a)).to_pandas()


# ------------------------------------------------- empty-input guards

def test_group_zscore_empty_input(ray_session):
    df = pd.DataFrame({"k": pd.Series([], dtype=str),
                       "v": pd.Series([], dtype=float)})
    out = build_op({"op": "group_zscore", "keys": ["k"],
                    "value_col": "v"})(_ds(df))
    assert out.count() == 0


def test_tfidf_empty_input(ray_session):
    df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                       "text": pd.Series([], dtype=str)})
    out = build_op({"op": "tfidf"})(_ds(df))
    assert out.count() == 0

# ------------------------------------------- byte-sized shard fan-out

def test_auto_num_shards_scales_with_bytes(ray_session):
    import ray.data as rd

    from rayflow.ops.kernels import auto_num_shards

    small = rd.range(1000)
    n_small, _ = auto_num_shards(small)
    assert n_small == 64  # floor: small inputs keep the old fan-out

    # ~16 MB of rows with a 100 KB budget must fan out well past 64 —
    # the 10x-inflation criterion: shard count tracks bytes, so peak
    # per-shard bytes stay under budget instead of growing with data
    big = rd.range(200_000).map_batches(
        lambda b: {"id": b["id"], "pad": np.full(len(b["id"]), "x" * 80)})
    n_big, m = auto_num_shards(big, target_shard_bytes=100_000)
    sz = m.size_bytes()
    assert n_big > 64
    import math
    assert n_big == min(65536, max(64, math.ceil(sz / 100_000)))


def test_asof_shuffle_matches_merge_asof_randomized(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(7)
    n_l, n_r = 400, 150
    left = pd.DataFrame({
        "k": rng.integers(0, 12, n_l).astype(str),
        "t": rng.integers(0, 1000, n_l).astype(np.int64),
        "lv": rng.normal(size=n_l)})
    right = pd.DataFrame({
        "k": rng.integers(0, 12, n_r).astype(str),
        "t": rng.integers(0, 1000, n_r).astype(np.int64),
        "rv": rng.normal(size=n_r)})
    # pre-dedupe (k, t) on the right: the documented determinism rule
    right = right.drop_duplicates(["k", "t"], keep="last",
                                  ignore_index=True)
    for direction in ("backward", "forward"):
        out = build_op({"op": "asof_join", "right": _ds(right), "on": "k",
                        "time_col": "t", "direction": direction,
                        "strategy": "shuffle"})(
            _ds(left)).to_pandas() \
            .sort_values(["k", "t", "lv"], ignore_index=True)
        ref_parts = []
        for k, lg in left.groupby("k"):
            lg = lg.sort_values("t", kind="stable", ignore_index=True)
            rg = right[right.k == k][["t", "rv"]] \
                .sort_values("t", kind="stable", ignore_index=True)
            if rg.empty:
                m = lg.assign(rv=np.nan)
            else:
                m = pd.merge_asof(lg, rg, on="t", direction=direction)
            ref_parts.append(m)
        ref = pd.concat(ref_parts, ignore_index=True) \
            .sort_values(["k", "t", "lv"], ignore_index=True)
        assert len(out) == len(ref), direction
        np.testing.assert_allclose(
            out["rv"].to_numpy(float), ref["rv"].to_numpy(float),
            rtol=1e-12, equal_nan=True, err_msg=direction)


def test_interval_join_interval_heavy_key(ray_session):
    # 10^4 intervals on ONE key: the per-interval Python loop this
    # replaced was quadratic; the batched searchsorted must finish fast
    # and exactly
    m = 10_000
    right = pd.DataFrame({
        "k": ["hot"] * m,
        "s": np.arange(m, dtype=np.int64) * 10,
        "e": np.arange(m, dtype=np.int64) * 10 + 4})
    left = pd.DataFrame({
        "k": ["hot"] * 500,
        "t": np.arange(500, dtype=np.int64) * 200 + 2})
    out = build_op({"op": "interval_join", "right": _ds(right),
                    "on": "k", "time_col": "t", "start_col": "s",
                    "end_col": "e"})(
        _ds(left)).to_pandas()
    # each left t = 200*i + 2 lands in exactly one interval [200i, 200i+4]
    assert len(out) == 500
    assert (out["t"] - out["s"] == 2).all()


def test_window_hash_positions_has_two_independent_lanes():
    from rayflow.ops.dedup import _window_hash_positions

    col = pa.array([" ".join(f"w{i}" for i in range(30))])
    sh, sh2, d, p = _window_hash_positions(col, 20)
    assert len(sh) == len(sh2) == 11 and len(d) == len(p) == 11
    # the second Horner lane must not mirror the first
    assert (np.asarray(sh) != np.asarray(sh2)).any()


# ---------------------------------------------------- ANN recall@10

def _recall_at_k(approx: pd.DataFrame, exact: pd.DataFrame, k: int = 10):
    """Mean |approx∩exact| / |exact| per query (exact may have < k
    rows for tiny corpora)."""
    ex = exact.groupby("query_id")["vec_id"].apply(set)
    ap = approx.groupby("query_id")["vec_id"].apply(set)
    vals = []
    for qid, truth in ex.items():
        got = ap.get(qid, set())
        vals.append(len(got & truth) / max(1, len(truth)))
    return float(np.mean(vals))


def test_ann_recall_at_10_vs_bruteforce(ray_session, sf_dir):
    """VERDICT r4 item #7: the planted oracles prove rank-1 only — this
    records recall@10 for BOTH index families against knn_bruteforce on
    the fixture embeddings and asserts a floor at default-ish probe
    settings (ivf nprobe=8/32 lists; lsh 6 planes)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    qt = emb.filter(pa.compute.less(emb["vec_id"], 20))
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    dim = queries.shape[1]

    def run(spec):
        ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
        return build_op(spec)(ds).to_pandas()

    exact = run({"op": "knn_bruteforce", "queries": queries,
                 "query_ids": qids, "k": 10})
    lsh = run({"op": "ann_lsh", "queries": queries, "query_ids": qids,
               "k": 10, "dim": dim, "n_planes": 6, "hamming_probes": 2,
               "index_above_bytes": None})
    ivf = run({"op": "ann_ivf", "queries": queries, "query_ids": qids,
               "k": 10, "n_clusters": 32, "nprobe": 8,
               "index_above_bytes": None})
    r_lsh = _recall_at_k(lsh, exact)
    r_ivf = _recall_at_k(ivf, exact)
    print(f"\nANN recall@10 vs bruteforce: lsh={r_lsh:.3f} ivf={r_ivf:.3f}")
    # Floors measured on the fixture (recorded in COVERAGE.md).  The
    # fixture embeddings are near-ISOTROPIC (64-dim, weak cosine
    # locality), so sign-LSH recall ≈ probe fraction regardless of
    # planes (measured 0.25/0.55/0.83 at probe fractions
    # 0.11/0.34/0.66) — a data property, not an engine defect; the
    # data-adaptive IVF quantizer concentrates the same neighbors at
    # 0.94 recall reading nprobe/n_clusters = 1/4 of the corpus.
    assert r_ivf >= 0.9, f"ivf recall@10 {r_ivf:.3f} < 0.9"
    assert r_lsh >= 0.4, f"lsh recall@10 {r_lsh:.3f} < 0.4"


# ---------------------------------------------------------------------------
# AVI codec widening (round 5): RLE8 + raw YUV (YUY2 / I420)
# ---------------------------------------------------------------------------

def test_avi_rle8_roundtrip_bit_exact_gray():
    from rayflow.ops.avi import decode_avi, probe_avi, synth_avi

    rng = np.random.default_rng(5)
    # runs of flat regions (RLE-friendly) + noise patches
    frames = []
    for _ in range(3):
        g = np.zeros((24, 32), np.uint8)
        g[:12] = 200
        g[12:, :16] = 37
        g[20:, 28:] = rng.integers(0, 256, (4, 4), np.uint8)
        frames.append(g)
    data = synth_avi(frames, fps=6, codec="RLE8")
    assert probe_avi(data) == (32, 24, 3)
    out, fps = decode_avi(data)
    assert abs(fps - 6) < 0.1 and len(out) == 3
    for f, o in zip(frames, out):
        assert o.shape == (24, 32, 3)
        np.testing.assert_array_equal(o[:, :, 0], f)   # gray bit-exact
        np.testing.assert_array_equal(o[:, :, 1], f)


def test_avi_yuy2_and_i420_roundtrip_close():
    from rayflow.ops.avi import decode_avi, synth_avi

    rng = np.random.default_rng(7)
    # smooth gradients — chroma subsampling error stays tiny
    y, x = np.mgrid[0:16, 0:24]
    base = ((x * 7 + y * 5) % 200 + 20).astype(np.uint8)
    frames = [np.stack([base, base[::-1], np.roll(base, 5, axis=1)],
                       axis=2),
              np.repeat(rng.integers(40, 200, (16, 1), np.uint8),
                        24, axis=1)[..., None].repeat(3, axis=2)]
    for codec in ("YUY2", "I420"):
        data = synth_avi(frames, fps=12, codec=codec)
        out, fps = decode_avi(data)
        assert abs(fps - 12) < 0.1 and len(out) == 2
        for f, o in zip(frames, out):
            assert o.shape == f.shape
            err = np.abs(o.astype(int) - f.astype(int)).mean()
            # chroma-busy fixture: 4:2:2 stays tight, 4:2:0 box-averages
            # vertically too (measured 7.2 here) — codec loss, not error;
            # the grayscale test below pins conversion exactness
            assert err < (6.0 if codec == "YUY2" else 9.0), (codec, err)


def test_avi_yuv_gray_is_near_exact():
    """Grayscale content has constant chroma — YUV round-trip error is
    pure Y-quantization (≤1 LSB after limited-range scaling)."""
    from rayflow.ops.avi import decode_avi, synth_avi

    g = (np.arange(20 * 20, dtype=np.uint16).reshape(20, 20)
         % 220 + 18).astype(np.uint8)
    for codec in ("YUY2", "I420"):
        out, _ = decode_avi(synth_avi([g], fps=5, codec=codec))
        err = np.abs(out[0][:, :, 0].astype(int) - g.astype(int)).max()
        assert err <= 2, (codec, err)


def test_write_csv_roundtrip(ray_session, tmp_path):
    import ray.data as rd

    ds = rd.from_items([{"a": i, "b": f"s{i}"} for i in range(10)])
    out = str(tmp_path / "csvout")
    build_op({"op": "write_csv", "path": out})(ds)
    back = build_op({"op": "read_csv", "paths": out})().to_pandas()
    assert sorted(back["a"].tolist()) == list(range(10))
    assert set(back.columns) == {"a", "b"}


# ---------------------------------------------------------------- bm25

def _bm25_reference(docs, terms, k1=1.2, b=0.75):
    """Scalar Okapi BM25 (Lucene idf) over lowercase space tokens."""
    import math

    toks = [[w for w in t.lower().split(" ") if w] for t in docs]
    n = len(docs)
    avgdl = sum(len(x) for x in toks) / n
    scores = {}
    for term in set(t.lower() for t in terms):
        df = sum(1 for x in toks if term in x)
        if df == 0:
            continue
        idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
        for i, x in enumerate(toks):
            tf = x.count(term)
            if tf:
                scores[i] = scores.get(i, 0.0) + idf * tf * (k1 + 1) / (
                    tf + k1 * (1 - b + b * len(x) / avgdl))
    return scores


def test_bm25_topk_matches_scalar_reference(ray_session):
    docs = ["merge sort beats bubble sort",
            "window functions over a merge window",
            "vector scan vector merge vector",
            "nothing relevant here at all",
            "a b c d e f g h"]
    df = pd.DataFrame({"doc_id": range(5), "text": docs})
    out = build_op({"op": "bm25_topk", "terms": ["merge", "vector"],
                    "k": 5})(_ds(df)).to_pandas()
    ref = _bm25_reference(docs, ["merge", "vector"])
    got = dict(zip(out["doc_id"], out["score"]))
    assert set(got) == set(ref)
    for d in ref:
        assert abs(got[d] - ref[d]) < 1e-12
    # descending order, doc_id tiebreak
    assert list(out["score"]) == sorted(out["score"], reverse=True)


def test_bm25_topk_no_matching_terms(ray_session):
    df = pd.DataFrame({"doc_id": [0, 1], "text": ["aa bb", "cc dd"]})
    out = build_op({"op": "bm25_topk", "terms": ["zz"], "k": 3})(_ds(df))
    assert out.count() == 0
    # schema survives the empty path (to_pandas on an empty Ray dataset
    # drops columns — a Ray quirk, so assert on the dataset schema)
    assert sorted(out.schema().names) == ["doc_id", "score"]


def test_bm25_topk_k_cuts_and_case_folds(ray_session):
    df = pd.DataFrame({"doc_id": range(4),
                       "text": ["Alpha alpha", "alpha", "ALPHA beta",
                                "beta only"]})
    out = build_op({"op": "bm25_topk", "terms": ["Alpha"], "k": 2})(
        _ds(df)).to_pandas()
    assert len(out) == 2           # k cut
    assert set(out["doc_id"]) <= {0, 1, 2}


# ---------------------------------------------------- PQ/ADC ann

def test_ann_pq_recall_and_planted(ray_session, sf_dir):
    """PQ/ADC with exact re-rank: recall@10 vs bruteforce on the
    fixture embeddings, plus the planted-copy rank-1 invariant
    (identical vector ⇒ identical codes ⇒ shortlist ⇒ cos 1.0)."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    qt = emb.filter(pa.compute.less(emb["vec_id"], 20))
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    sample = np.asarray(
        emb.take(pa.array(range(0, emb.num_rows,
                                max(1, emb.num_rows // 400))))
        ["embedding"].to_pylist(), dtype=np.float64)

    def run(spec, table=None):
        ds = rd.from_arrow(table) if table is not None else \
            rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
        return build_op(spec)(ds).to_pandas()

    exact = run({"op": "knn_bruteforce", "queries": queries,
                 "query_ids": qids, "k": 10})
    pq_res = run({"op": "ann_pq", "queries": queries, "query_ids": qids,
                  "k": 10, "m_sub": 8, "k_sub": 64, "rerank": 8,
                  "train_sample": sample})
    from tests.test_round5 import _recall_at_k  # same module, explicit
    r_pq = _recall_at_k(pq_res, exact)
    print(f"\nPQ recall@10 vs bruteforce: {r_pq:.3f}")
    assert r_pq >= 0.85

    # planted twin: corpus ∪ exact copies of the queries (ids +1e6)
    planted = qt.set_column(0, "vec_id",
                            pa.compute.add(qt["vec_id"], 1_000_000))
    aug = pa.concat_tables([emb, planted])
    res = run({"op": "ann_pq", "queries": queries, "query_ids": qids,
               "k": 10, "m_sub": 8, "k_sub": 64, "rerank": 4,
               "train_sample": sample}, table=aug)
    r1 = res[res["rank"] == 1]
    assert len(r1) == len(qids)
    assert (r1["vec_id"].to_numpy()
            == r1["query_id"].to_numpy() + 1_000_000).all()


def test_ann_pq_rerank_zero_keeps_a_full_shortlist(ray_session):
    """``rerank=0`` (ADC only) must not shrink the streaming scan's
    shortlist to one candidate per batch: it returns k rows per query,
    the same as ``rerank=1``, as the index probe already does."""
    import ray.data as rd

    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(300, 16))
    corpus = pa.table({"vec_id": np.arange(300, dtype=np.int64),
                       "embedding": list(vecs)})

    def run(rerank):
        return build_op({
            "op": "ann_pq", "queries": vecs[:5], "query_ids": np.arange(5),
            "k": 5, "m_sub": 4, "k_sub": 16, "rerank": rerank,
            "train_sample": vecs, "index_above_bytes": None,
        })(rd.from_arrow(corpus)).to_pandas() \
            .sort_values(["query_id", "rank"], ignore_index=True)

    adc_only = run(0)
    assert (adc_only.groupby("query_id").size() == 5).all()
    pd.testing.assert_frame_equal(adc_only, run(1))


def test_pq_encode_artifact(ray_session, sf_dir):
    """pq_encode appends fixed_size_binary(m_sub) codes: m_sub bytes
    per vector, deterministic across runs, identical vectors get
    identical codes."""
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    sample = np.asarray(emb["embedding"].to_pylist()[:200],
                        dtype=np.float64)
    spec = {"op": "pq_encode", "train_sample": sample, "m_sub": 8,
            "k_sub": 64}
    a = build_op(spec)(rd.from_arrow(emb)).to_pandas()
    b = build_op(spec)(rd.from_arrow(emb)).to_pandas()
    assert all(len(c) == 8 for c in a["pq_code"])
    pd.testing.assert_series_equal(
        a.sort_values("vec_id")["pq_code"].reset_index(drop=True),
        b.sort_values("vec_id")["pq_code"].reset_index(drop=True))
    # 8 bytes/vector vs 8*64 raw float64 = 64x compression
    dup = emb.slice(0, 1)
    two = pa.concat_tables([dup, dup.set_column(0, "vec_id",
                                                pa.array([999_999]))])
    c = build_op(spec)(rd.from_arrow(two)).to_pandas()
    assert c["pq_code"].iloc[0] == c["pq_code"].iloc[1]


def test_bm25_index_probe_matches_streaming(ray_session, sf_dir, tmp_path):
    """On-disk inverted index: probe result == streaming bm25_topk on
    the same corpus, and the probe reads ONLY the query terms' hash
    partitions (bytes pruning, same invariant as IvfIndex)."""
    import glob
    import os

    import ray.data as rd

    from rayflow.ops.textops import Bm25Index

    docs_path = os.path.join(sf_dir, "documents.parquet")
    terms = ["merge", "window", "vector"]
    stream = build_op({"op": "bm25_topk", "terms": terms, "k": 10})(
        rd.read_parquet(docs_path, columns=["doc_id", "text"])).to_pandas()

    idx_path = str(tmp_path / "bm25idx")
    idx = Bm25Index.build(
        rd.read_parquet(docs_path, columns=["doc_id", "text"]),
        idx_path, n_parts=16)
    probe = idx.probe(terms, k=10).to_pandas()

    pd.testing.assert_frame_equal(
        stream.reset_index(drop=True), probe.reset_index(drop=True),
        check_dtype=False)

    # pruning: selected files are a strict subset of the index
    sel = idx.part_files(terms)
    all_files = glob.glob(os.path.join(idx_path, "postings", "part=*",
                                       "*.parquet"))
    assert 0 < len(sel) < len(all_files)
    sel_bytes = sum(os.path.getsize(f) for f in sel)
    all_bytes = sum(os.path.getsize(f) for f in all_files)
    assert sel_bytes < 0.5 * all_bytes

    # reload from disk (fresh handle, meta-driven) — same result
    probe2 = Bm25Index(idx_path).probe(terms, k=10).to_pandas()
    pd.testing.assert_frame_equal(probe.reset_index(drop=True),
                                  probe2.reset_index(drop=True),
                                  check_dtype=False)


# ---------------------------------------------------------------- t-digest

def test_td_compress_and_quantile_exact_small(ray_session):
    """With delta far above n, every value stays its own centroid and
    td_quantile is plain midpoint interpolation — checkable by hand."""
    from rayflow.ops.sketch import td_compress, td_quantile

    v = np.array([1.0, 2.0, 3.0, 4.0])
    m, w = td_compress(v, np.ones(4), delta=1000.0)
    assert len(m) >= 2 and np.isclose(w.sum(), 4.0)
    assert np.isclose(td_quantile(m, w, np.array([0.5])), 2.5)
    assert td_quantile(m, w, np.array([0.0]))[0] <= 1.5
    assert td_quantile(m, w, np.array([1.0]))[0] >= 3.5


def test_tdigest_rank_error_bound(ray_session):
    """Rank error vs exact quantiles on a heavy-tailed sample, through
    the full distributed plan (multi-block partials + merge)."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    n = 60_000
    df = pd.DataFrame({
        "k": rng.integers(0, 3, n).astype(str),
        "v": np.exp(rng.normal(0, 2, n)),     # lognormal: brutal tail
    })
    out = build_op({"op": "group_tdigest", "keys": ["k"],
                    "value_col": "v",
                    "quantiles": [0.01, 0.5, 0.99],
                    "delta": 200.0})(
        rd.from_pandas(df).repartition(8)).to_pandas()
    assert len(out) == 3
    for _, row in out.iterrows():
        vals = np.sort(df.loc[df["k"] == row["k"], "v"].to_numpy())
        for q, col in [(0.01, "p1"), (0.5, "p50"), (0.99, "p99")]:
            est = row[col]
            # achieved rank of the estimate
            rank = np.searchsorted(vals, est) / len(vals)
            err = abs(rank - q)
            # k1 cluster q-width ~ 4π·sqrt(q(1−q))/δ (asin derivative)
            bound = 4.0 * np.pi * np.sqrt(q * (1 - q)) / 200.0 + 2e-3
            assert err <= bound, (row["k"], q, est, rank, err, bound)


def test_tdigest_merge_invariance_bound(ray_session):
    """Different block splits give (slightly) different digests — both
    must satisfy the rank bound, and the medians must agree closely."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"k": ["a"] * 20_000,
                       "v": rng.gamma(2.0, 3.0, 20_000)})
    spec = {"op": "group_tdigest", "keys": ["k"], "value_col": "v",
            "quantiles": [0.5]}
    a = build_op(spec)(rd.from_pandas(df).repartition(1)).to_pandas()
    b = build_op(spec)(rd.from_pandas(df).repartition(16)).to_pandas()
    exact = np.quantile(df["v"], 0.5)
    assert abs(a["p50"][0] - exact) / exact < 0.02
    assert abs(b["p50"][0] - exact) / exact < 0.02


def test_tdigest_nan_and_null_dropped(ray_session):
    df = pd.DataFrame({"k": ["a"] * 5, "v": [1.0, np.nan, 3.0, None, 2.0]})
    out = build_op({"op": "group_tdigest", "keys": ["k"],
                    "value_col": "v", "quantiles": [0.5],
                    "delta": 500.0})(_ds(df)).to_pandas()
    assert np.isclose(out["p50"][0], 2.0)


# --------------------------------------------------------------- triangles

def _ref_triangles(edges):
    """Brute-force per-node triangle counts (string-canonical nodes)."""
    from itertools import combinations

    es, adj = set(), {}
    for s, d in edges:
        a, b = sorted((str(s), str(d)))
        if a == b:
            continue
        es.add((a, b))
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    tri = {n: 0 for n in adj}
    for trio in combinations(sorted(adj), 3):
        if all(tuple(sorted(p)) in es for p in combinations(trio, 2)):
            for n in trio:
                tri[n] += 1
    return {n: c for n, c in tri.items() if c}


def test_triangle_count_random_graph(ray_session):
    rng = np.random.default_rng(3)
    edges = [(int(a), int(b))
             for a, b in rng.integers(0, 25, size=(200, 2))]
    df = pd.DataFrame(edges, columns=["src", "dst"])
    out = build_op({"op": "triangle_count"})(_ds(df)).to_pandas()
    got = dict(zip(out["node"], out["triangles"]))
    assert got == _ref_triangles(edges)


def test_triangle_count_bipartite_is_empty(ray_session):
    # bipartite graphs have no odd cycles — and multi-edges/self-loops
    # must collapse/drop before counting
    df = pd.DataFrame({"src": [f"a{i % 5}" for i in range(40)] + ["x"],
                       "dst": [f"b{i % 7}" for i in range(40)] + ["x"]})
    out = build_op({"op": "triangle_count"})(_ds(df))
    assert out.count() == 0


def test_triangle_count_single_triangle_with_dups(ray_session):
    df = pd.DataFrame({"src": ["a", "b", "c", "a", "b"],
                       "dst": ["b", "c", "a", "b", "a"]})
    out = build_op({"op": "triangle_count"})(_ds(df)).to_pandas()
    assert dict(zip(out["node"], out["triangles"])) == \
        {"a": 1, "b": 1, "c": 1}


# ----------------------------------------------------------------- CLI

def test_cli_build_index_and_search(sf_dir, tmp_path):
    """`rayflow build-index --kind bm25` + `search-text` end-to-end in a
    subprocess (the CLI owns its own Ray session)."""
    import json
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH="/root/repo")
    idx = str(tmp_path / "idx")
    r = subprocess.run(
        [sys.executable, "-m", "rayflow", "build-index", "--kind", "bm25",
         "--input", os.path.join(sf_dir, "documents.parquet"),
         "--path", idx, "--n-parts", "8", "--num-cpus", "4"],
        capture_output=True, text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr[-800:]
    meta = json.loads(r.stdout.strip().splitlines()[-1])
    assert meta["kind"] == "bm25" and meta["n_docs"] > 0
    s = subprocess.run(
        [sys.executable, "-m", "rayflow", "search-text", "--index", idx,
         "--k", "5", "--num-cpus", "4", "merge", "vector"],
        capture_output=True, text=True, env=env, timeout=300)
    assert s.returncode == 0, s.stderr[-800:]
    rows = [json.loads(x) for x in s.stdout.strip().splitlines()]
    assert len(rows) == 5 and all("score" in r_ for r_ in rows)
    assert rows[0]["score"] >= rows[-1]["score"]


# --------------------------------------------------------------- bucketize

def test_bucketize_width_bucket_semantics(ray_session):
    df = pd.DataFrame({"v": [-5.0, 0.0, 0.5, 1.0, 2.0, 3.0, np.nan]})
    out = build_op({"op": "bucketize", "value_col": "v",
                    "edges": [0.0, 1.0, 2.0]})(_ds(df)).to_pandas()
    # left-closed: x == edge goes UP
    assert list(out.sort_values("v", na_position="last")["bucket"]) == \
        [0, 1, 1, 2, 3, 3, -1]
    r = build_op({"op": "bucketize", "value_col": "v",
                  "edges": [0.0, 1.0, 2.0], "right": True})(
        _ds(df)).to_pandas()
    assert list(r.sort_values("v", na_position="last")["bucket"]) == \
        [0, 0, 1, 1, 2, 3, -1]


def test_bucketize_rejects_bad_edges(ray_session):
    df = pd.DataFrame({"v": [1.0]})
    with pytest.raises(ValueError, match="ascending"):
        build_op({"op": "bucketize", "value_col": "v",
                  "edges": [1.0, 1.0]})(_ds(df))
    with pytest.raises(ValueError, match="non-empty"):
        build_op({"op": "bucketize", "value_col": "v", "edges": []})(_ds(df))


# --------------------------------------------------------------- testkit

def test_config_test_runner(ray_session):
    """The `benthos test` analogue: literal rows through the config's
    steps, multiset/count/columns/error assertions."""
    from rayflow.testkit import run_config_tests

    doc = {
        "pipeline": {"steps": [
            {"op": "filter",
             "predicate": ["ge", ["col", "x"], ["lit", 3]]},
            {"op": "mapping", "cols": {"y": ["mul", ["col", "x"],
                                             ["lit", 2]]}},
        ]},
        "cases": [
            {"name": "pass rows", "input": [{"x": 1}, {"x": 5}],
             "expect": {"rows": [{"x": 5, "y": 10}]}},
            {"name": "pass count", "input": [{"x": 4}],
             "expect": {"count": 1}},
            {"name": "pass columns", "input": [{"x": 4}],
             "expect": {"columns": ["x", "y"]}},
            {"name": "fail rows", "input": [{"x": 4}],
             "expect": {"rows": [{"x": 4, "y": 9}]}},
        ],
    }
    res = run_config_tests(doc)
    assert [r["ok"] for r in res] == [True, True, True, False]
    assert "mismatch" in res[3]["detail"]


def test_config_test_runner_columns_checked_on_empty_output(ray_session):
    # every row filtered out: the columns come from the output schema,
    # so a wrong expectation still fails
    from rayflow.testkit import run_config_tests

    doc = {
        "pipeline": {"steps": [
            {"op": "filter",
             "predicate": ["ge", ["col", "x"], ["lit", 100]]},
        ]},
        "cases": [
            {"name": "right columns", "input": [{"x": 1}, {"x": 5}],
             "expect": {"count": 0, "columns": ["x"]}},
            {"name": "wrong columns", "input": [{"x": 1}, {"x": 5}],
             "expect": {"count": 0, "columns": ["x", "y"]}},
        ],
    }
    res = run_config_tests(doc)
    assert [r["ok"] for r in res] == [True, False], res
    assert "columns" in res[1]["detail"]
    # a step after the filter never sees a batch, so Ray keeps no
    # schema: the check reports that instead of passing
    doc["pipeline"]["steps"].append(
        {"op": "mapping", "cols": {"y": ["mul", ["col", "x"], ["lit", 2]]}})
    res = run_config_tests(doc)
    assert [r["ok"] for r in res] == [False, False], res
    assert "unknown" in res[0]["detail"]


def test_config_test_runner_approx_and_error(ray_session):
    from rayflow.testkit import run_config_tests

    doc = {
        "pipeline": {"steps": [
            {"op": "mapping",
             "cols": {"z": ["div", ["col", "x"], ["lit", 3.0]]}},
        ]},
        "cases": [
            {"name": "approx", "input": [{"x": 1.0}],
             "expect": {"rows": [{"x": 1.0, "z": 0.3333}],
                        "approx": 0.001}},
        ],
    }
    res = run_config_tests(doc)
    assert res[0]["ok"], res[0]["detail"]
    # unknown op fails loudly at build time, not silently per-case
    import pytest as _pytest

    with _pytest.raises(KeyError):
        run_config_tests({"pipeline": {"steps": [{"op": "nope"}]},
                          "cases": []})


def test_ivfpq_index_recall_planted_and_pruned_bytes(ray_session, sf_dir,
                                                     tmp_path):
    """IVF-PQ on-disk index: recall@10 floor vs bruteforce, planted
    rank-1 through the full disk path, and the ADC read is provably
    cheap — the pq_code column occupies a small fraction of the
    embedding column's bytes in the same files."""
    import os

    import pyarrow.parquet as pqt
    import ray.data as rd

    from rayflow.ops.ann import IvfPqIndex

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pqt.read_table(emb_path, columns=["vec_id", "embedding"])
    qt = emb.filter(pa.compute.less(emb["vec_id"], 10))
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    planted = qt.set_column(0, "vec_id",
                            pa.compute.add(qt["vec_id"], 1_000_000))
    aug = pa.concat_tables([emb, planted])
    sample = np.asarray(emb["embedding"].to_pylist()[::3],
                        dtype=np.float64)

    idx = IvfPqIndex.build(rd.from_arrow(aug), str(tmp_path / "ivfpq"),
                           train_sample=sample, n_clusters=16,
                           m_sub=8, k_sub=64)
    res = idx.probe(queries, qids, k=10, nprobe=6, rerank=8).to_pandas()
    r1 = res[res["rank"] == 1]
    assert len(r1) == len(qids)
    assert (r1["vec_id"].to_numpy()
            == r1["query_id"].to_numpy() + 1_000_000).all()

    # recall vs bruteforce over the same augmented corpus
    exact = build_op({"op": "knn_bruteforce", "queries": queries,
                      "query_ids": qids, "k": 10})(
        rd.from_arrow(aug)).to_pandas()
    rec = _recall_at_k(res, exact)
    print(f"\nIVF-PQ recall@10 (nprobe=6/16, rerank): {rec:.3f}")
    assert rec >= 0.7

    # ADC-only path also works
    res0 = idx.probe(queries, qids, k=10, nprobe=6, rerank=0).to_pandas()
    assert len(res0[res0["rank"] == 1]) == len(qids)

    # bytes: pq_code column ≪ embedding column in the SAME files
    code_b = emb_b = 0
    for f in idx.list_files(range(16)):
        md = pqt.ParquetFile(f).metadata
        for rg in range(md.num_row_groups):
            for ci in range(md.num_columns):
                col = md.row_group(rg).column(ci)
                if col.path_in_schema.startswith("pq_code"):
                    code_b += col.total_compressed_size
                elif col.path_in_schema.startswith("embedding"):
                    emb_b += col.total_compressed_size
    assert code_b > 0 and emb_b > 0
    assert code_b < emb_b / 8, (code_b, emb_b)


def test_ann_pq_auto_routes_to_disk_index(ray_session, sf_dir, tmp_path):
    """Forced tiny index_above_bytes: ann_pq must build + probe the
    IvfPqIndex at index_path (file-backed input) and keep the recall
    floor; the index artifact persists for reuse."""
    import os

    import pyarrow.parquet as pqt
    import ray.data as rd

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    emb = pqt.read_table(emb_path, columns=["vec_id", "embedding"])
    qt = emb.filter(pa.compute.less(emb["vec_id"], 10))
    queries = np.asarray(qt["embedding"].to_pylist(), dtype=np.float64)
    qids = qt["vec_id"].to_numpy()
    sample = np.asarray(emb["embedding"].to_pylist()[::3],
                        dtype=np.float64)
    idx_path = str(tmp_path / "auto_ivfpq")
    spec = {"op": "ann_pq", "queries": queries, "query_ids": qids,
            "k": 10, "m_sub": 8, "k_sub": 64, "rerank": 8,
            "train_sample": sample, "index_above_bytes": 1,
            "index_path": idx_path, "n_clusters": 16, "nprobe": 6}
    res = build_op(spec)(
        rd.read_parquet(emb_path,
                        columns=["vec_id", "embedding"])).to_pandas()
    assert os.path.exists(os.path.join(idx_path, "meta.json"))
    exact = build_op({"op": "knn_bruteforce", "queries": queries,
                      "query_ids": qids, "k": 10})(
        rd.read_parquet(emb_path,
                        columns=["vec_id", "embedding"])).to_pandas()
    assert _recall_at_k(res, exact) >= 0.7


def test_tdigest_weighted_matches_kernel(ray_session):
    """Weighted digest through the full distributed plan equals the
    kernel applied directly to the (value, weight) multiset (delta high
    enough that nothing merges — note weighted mass interpolates
    CONTINUOUSLY between centroid midpoints, which deliberately differs
    from integer replication's discrete steps)."""
    from rayflow.ops.sketch import td_compress, td_quantile

    vals = np.array([1.0, 2.0, 3.0, 4.0])
    wts = np.array([1.0, 3.0, 1.0, 2.0])
    qs = np.array([0.25, 0.5, 0.9])
    m, w = td_compress(vals, wts, delta=10_000.0)
    want = td_quantile(m, w, qs)
    df_w = pd.DataFrame({"k": ["a"] * 4, "v": vals, "w": wts})
    spec = dict(op="group_tdigest", keys=["k"], value_col="v",
                quantiles=[0.25, 0.5, 0.9], delta=10_000.0,
                weight_col="w")
    a = build_op(spec)(_ds(df_w)).to_pandas()
    for c, exp in zip(("p25", "p50", "p90"), want):
        assert np.isclose(a[c][0], exp), (c, a[c][0], exp)
    # non-positive / NaN weights drop
    df_bad = pd.DataFrame({"k": ["a"] * 3, "v": [1.0, 100.0, 2.0],
                           "w": [1.0, 0.0, 1.0]})
    out = build_op({**spec, "quantiles": [1.0]})(_ds(df_bad)).to_pandas()
    assert out["p100"][0] <= 2.0


# ------------------------------------------------------------------ ewma

def test_ewma_matches_pandas_ewm(ray_session):
    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "k": rng.integers(0, 5, 500).astype(str),
        "t": np.arange(500, dtype=np.int64),
        "v": rng.normal(size=500)})
    for alpha in (0.01, 0.3, 0.95, 1.0):
        out = build_op({"op": "ewma", "key_col": "k", "order_col": "t",
                        "value_col": "v", "alpha": alpha})(
            _ds(df)).to_pandas().sort_values("t").reset_index(drop=True)
        ref = df.sort_values("t").groupby("k")["v"].transform(
            lambda s: s.ewm(alpha=alpha, adjust=False).mean()).to_numpy()
        assert np.abs(out["ewma"].to_numpy() - ref).max() < 1e-10, alpha


def test_ewma_large_values_stay_finite(ray_session):
    # |x| ~ 1e12 at alpha 0.9: the block factor beta^-(B-1) reaches
    # ~1e298, so an unscaled run overflows to inf
    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": np.repeat(["a", "b"], 1000),
        "t": np.arange(2000, dtype=np.int64),
        "v": 1e12 * (1.0 + rng.random(2000))})
    for alpha in (0.9, 0.01):
        out = build_op({"op": "ewma", "key_col": "k", "order_col": "t",
                        "value_col": "v", "alpha": alpha})(
            _ds(df)).to_pandas().sort_values("t").reset_index(drop=True)
        ref = df.groupby("k")["v"].transform(
            lambda s: s.ewm(alpha=alpha, adjust=False).mean()).to_numpy()
        got = out["ewma"].to_numpy()
        assert np.isfinite(got).all(), alpha
        np.testing.assert_allclose(got, ref, rtol=1e-9, err_msg=str(alpha))


def test_ewma_rejects_bad_alpha(ray_session):
    df = pd.DataFrame({"k": ["a"], "t": [0], "v": [1.0]})
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            build_op({"op": "ewma", "key_col": "k", "order_col": "t",
                      "value_col": "v", "alpha": bad})(_ds(df))


def test_triangle_count_sharded_fallback_matches(ray_session):
    rng = np.random.default_rng(4)
    edges = [(int(a), int(b))
             for a, b in rng.integers(0, 20, size=(150, 2))]
    df = pd.DataFrame(edges, columns=["src", "dst"])
    a = build_op({"op": "triangle_count"})(_ds(df)).to_pandas()
    b = build_op({"op": "triangle_count",
                  "broadcast_bytes_limit": 0})(_ds(df)).to_pandas()
    ga = dict(zip(a["node"], a["triangles"]))
    gb = dict(zip(b["node"], b["triangles"]))
    assert ga == gb == _ref_triangles(edges)

"""Similarity search over embedding columns (``list<float>``).

- :func:`build_knn_bruteforce` — exact cosine top-k: the query matrix is
  broadcast (``ray.put`` once, fetched once per worker process), each
  batch does one numpy matmul, emits only its per-batch top-k partials,
  and a final tiny per-query reduce keeps the global top-k.  The full
  similarity matrix never materializes.
- :func:`build_ann_lsh` — the scale path: random-hyperplane LSH buckets
  (signed projections, fixed seed); queries probe only their own bucket
  (plus optional multi-probe neighbors).  Approximate; recall is
  measured against brute force in tests.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op
from rayflow.ops.joins import _fetch


def _clamped(c: int) -> int:
    from rayflow.ops.kernels import clamp_actor_concurrency

    return clamp_actor_concurrency(c)


_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)


def _mat(col: pa.ChunkedArray) -> np.ndarray:
    """list<float> column → (n, d) float64 matrix, zero-copy-ish."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(arr)
    if n == 0:
        # numpy cannot infer -1 from size 0; upstream filters can produce
        # empty blocks — callers early-return on num_rows == 0, this is a
        # second line of defence
        return np.empty((0, 0), dtype=np.float64)
    flat = arr.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    return flat.reshape(n, -1)


def _empty_topk(id_col: str) -> pa.Table:
    return pa.table({
        "query_id": pa.array([], pa.int64()),
        id_col: pa.array([], pa.int64()),
        "cos": pa.array([], pa.float64()),
    })


def finalize_topk(partials, *, id_col: str, k: int,
                  exclude_self: bool = True,
                  partial_limit: int = 2_000_000):
    """Per-query global top-k over per-batch partials, size-adaptive:
    the partial set is tiny by construction (num_blocks × queries ×
    (k+1) rows), so the normal path is repartition(1) + one in-task
    reduce — no keyed shuffle (Ray's groupby costs ~1s fixed, pure
    overhead at this size).  A keyed fallback remains for gigantic
    partial sets (cloud-scale block counts)."""

    def reduce_all(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64()),
            })
        df = t.to_pandas()
        qs, vs, rs = [], [], []
        for qid, g in df.groupby("query_id"):
            if exclude_self:
                g = g[g[id_col] != qid]
            g = g.sort_values(["cos", id_col], ascending=[False, True]).head(k)
            n = len(g)
            qs.append(np.full(n, int(qid), dtype=np.int64))
            vs.append(g[id_col].to_numpy(dtype=np.int64))
            rs.append(np.arange(1, n + 1, dtype=np.int64))
        return pa.table({
            "query_id": pa.array(np.concatenate(qs) if qs else []),
            id_col: pa.array(np.concatenate(vs) if vs else []),
            "rank": pa.array(np.concatenate(rs) if rs else []),
        })

    p = partials.materialize()
    if p.count() <= partial_limit:
        return p.repartition(1).map_batches(
            reduce_all, batch_size=None,
            batch_format="pyarrow", zero_copy_batch=True)

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        qid = int(g["query_id"].iloc[0])
        if exclude_self:
            g = g[g[id_col] != qid]
        g = g.sort_values(["cos", id_col], ascending=[False, True]).head(k)
        return pd.DataFrame({
            "query_id": qid,
            id_col: g[id_col].astype(np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        })

    return p.groupby("query_id").map_groups(per_group, batch_format="pandas")


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _corpus_bytes_estimate(ds) -> int | None:
    """Cheap (metadata-only, never executes the plan) corpus size: the
    sum of the dataset's input-file sizes.  None when the input isn't
    file-backed or a file is remote — auto-routing then stays on the
    streaming path rather than forcing execution to find out."""
    import os

    try:
        files = ds.input_files()
    except Exception:
        return None
    if not files:
        return None
    total = 0
    for f in files:
        if not os.path.exists(f):
            return None
        total += os.path.getsize(f)
    return total


@register_op("knn_bruteforce")
def build_knn_bruteforce(*, queries, query_ids, k: int = 10,
                         vec_col: str = "embedding", id_col: str = "vec_id",
                         exclude_self: bool = True):
    """Exact cosine top-k for each query vector.

    ``queries``: (q, d) array-like; ``query_ids``: length-q ids.
    Returns rows (query_id, vec_id, rank) — rank 1 = most similar.
    Ids (not raw cosines) are returned so results are robust to
    floating-point summation-order noise across engines.
    """
    import ray

    q = _normalize_rows(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    q_ref = ray.put((q, qids))

    def partial_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_topk(id_col)
        qm, qi = _fetch(q_ref, lambda v: v)
        m = _normalize_rows(_mat(t.column(vec_col)))
        ids = t.column(id_col).to_numpy()
        sims = m @ qm.T  # (n, q) — one batch at a time, never the full matrix
        rows_q, rows_v, rows_s = [], [], []
        kk = min(k + (1 if exclude_self else 0), sims.shape[0])
        for j in range(sims.shape[1]):
            col = sims[:, j]
            top = np.argpartition(-col, kk - 1)[:kk] if kk < len(col) else np.arange(len(col))
            rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
            rows_v.append(ids[top].astype(np.int64))
            rows_s.append(col[top])
        return pa.table({
            "query_id": pa.array(np.concatenate(rows_q)),
            id_col: pa.array(np.concatenate(rows_v)),
            "cos": pa.array(np.concatenate(rows_s), pa.float64()),
        })

    def apply(ds):
        partials = ds.map_batches(partial_topk, **_PA_KW)
        return finalize_topk(partials, id_col=id_col, k=k,
                             exclude_self=exclude_self)

    return apply


def _hamming_probe_sets(buckets: np.ndarray, n_planes: int,
                        radius: int) -> np.ndarray:
    """Multiprobe LSH probe sets: for each query bucket, every bucket
    id within Hamming distance ≤ ``radius`` (the query's own bucket
    first).  Returns (q, n_probes) int64.  Standard multiprobe — near
    neighbors that land one sign-flip away are recovered without
    rebuilding the index; probe count = Σ C(n_planes, r)."""
    from itertools import combinations

    flips = [0]
    for r in range(1, max(0, int(radius)) + 1):
        for comb in combinations(range(n_planes), r):
            m = 0
            for c in comb:
                m |= 1 << c
            flips.append(m)
    return buckets[:, None] ^ np.array(flips, dtype=np.int64)[None, :]


class LshIndexStage:
    """Actor stage: hyperplanes drawn once per actor from a fixed seed."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 42,
                 vec_col: str = "embedding"):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))
        self.vec_col = vec_col

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes) > 0
        return (bits @ (1 << np.arange(bits.shape[1]))).astype(np.int64)

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("lsh_bucket", pa.array([], pa.int64()))
        m = _mat(t.column(self.vec_col))
        return t.append_column("lsh_bucket", pa.array(self.bucket_of(m)))


@register_op("ann_lsh")
def build_ann_lsh(*, queries, query_ids, k: int = 10, dim: int = 64,
                  n_planes: int = 10, seed: int = 42,
                  vec_col: str = "embedding", id_col: str = "vec_id",
                  concurrency: int = 2,
                  index_above_bytes: int | None = 256 << 20,
                  index_path: str | None = None,
                  hamming_probes: int = 1):
    """Approximate top-k: bucket the corpus by hyperplane signs, search
    each query's probe buckets with exact cosine.  ``hamming_probes``
    is the MULTIPROBE radius — every bucket within that Hamming
    distance of the query's bucket is searched (radius 0 = classic
    single-probe; the default 1 probes ``n_planes + 1`` of the
    ``2^n_planes`` buckets, recovering neighbors that fall one sign
    flip away at a linear, not exponential, probe cost).

    AUTO-ROUTED scale path: when the corpus's input files exceed
    ``index_above_bytes`` (metadata-only estimate; None disables), the
    op builds / reuses the bucket-partitioned on-disk
    :class:`LshIndex` at ``index_path`` and probes it — each query
    then READS only its probe buckets' partitions (bytes pruned by
    the probe-count / 2^n_planes factor) instead of streaming the
    whole corpus per probe batch.  Identical results by construction:
    same seed → same hyperplanes → same buckets → same exact-cosine
    top-k.  On a multi-node cluster pass an ``index_path`` on shared
    storage; the tempdir default is single-node."""
    import ray

    q = np.asarray(queries, dtype=np.float64)
    qids = np.asarray(query_ids, dtype=np.int64)
    stage_probe = LshIndexStage(dim, n_planes, seed, vec_col)
    q_probes = _hamming_probe_sets(stage_probe.bucket_of(q), n_planes,
                                   hamming_probes)
    q_ref = ray.put((_normalize_rows(q), qids, q_probes))

    def bucket_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_topk(id_col)
        qm, qi, qb = _fetch(q_ref, lambda v: v)
        m = _normalize_rows(_mat(t.column(vec_col)))
        ids = t.column(id_col).to_numpy()
        buckets = t.column("lsh_bucket").to_numpy()
        rows_q, rows_v, rows_s = [], [], []
        for j in range(len(qi)):
            mask = np.isin(buckets, qb[j])
            if not mask.any():
                continue
            sims = m[mask] @ qm[j]
            sel_ids = ids[mask]
            kk = min(k + 1, len(sims))
            top = np.argpartition(-sims, kk - 1)[:kk] if kk < len(sims) else np.arange(len(sims))
            rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
            rows_v.append(sel_ids[top].astype(np.int64))
            rows_s.append(sims[top])
        if not rows_q:
            return pa.table({
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "cos": pa.array([], pa.float64()),
            })
        return pa.table({
            "query_id": pa.array(np.concatenate(rows_q)),
            id_col: pa.array(np.concatenate(rows_v)),
            "cos": pa.array(np.concatenate(rows_s), pa.float64()),
        })

    def apply(ds):
        if index_above_bytes is not None:
            est = _corpus_bytes_estimate(ds)
            if est is not None and est > index_above_bytes:
                import os
                import tempfile

                path = index_path or tempfile.mkdtemp(
                    prefix="rayflow_lsh_idx_")
                if not os.path.exists(os.path.join(path, "meta.json")):
                    LshIndex.build(ds, path, dim=dim, n_planes=n_planes,
                                   seed=seed, vec_col=vec_col,
                                   id_col=id_col, concurrency=concurrency)
                return LshIndex(path).probe(queries, query_ids, k=k,
                                            hamming_probes=hamming_probes)
        indexed = ds.map_batches(
            LshIndexStage,
            fn_constructor_kwargs=dict(dim=dim, n_planes=n_planes, seed=seed,
                                       vec_col=vec_col),
            concurrency=_clamped(concurrency), batch_format="pyarrow",
            zero_copy_batch=True, num_cpus=1,
        )
        partials = indexed.map_batches(bucket_topk, **_PA_KW)
        return finalize_topk(partials, id_col=id_col, k=k)

    return apply


class LshIndex:
    """On-disk LSH index: the corpus written once as Parquet partitioned
    by hyperplane-sign bucket; a probe reads only its queries' bucket
    partitions (2^n_planes total buckets — bytes read drop by the
    bucket-count factor).  Mirror of :class:`IvfIndex` for the LSH
    family; the in-stream ``ann_lsh`` op approximates this with a
    filter."""

    def __init__(self, path: str):
        import json
        import os

        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)
        self.planes = np.load(os.path.join(path, "planes.npy"))

    @classmethod
    def build(cls, ds, path: str, *, dim: int, n_planes: int = 8,
              seed: int = 42, vec_col: str = "embedding",
              id_col: str = "vec_id", concurrency: int = 2) -> "LshIndex":
        import json
        import os

        def assign(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column("part", pa.array([], pa.int64()))
            stage = LshIndexStage(dim, n_planes, seed, vec_col)
            t = stage(t)
            return t.append_column("part", t.column("lsh_bucket"))

        os.makedirs(path, exist_ok=True)
        ds.map_batches(assign, **_PA_KW).write_parquet(
            os.path.join(path, "corpus"), partition_cols=["part"])
        rng = np.random.default_rng(seed)
        np.save(os.path.join(path, "planes.npy"),
                rng.standard_normal((dim, n_planes)))
        with open(os.path.join(path, "meta.json"), "w") as f:
            json.dump({"dim": int(dim), "n_planes": int(n_planes),
                       "seed": int(seed), "vec_col": vec_col,
                       "id_col": id_col}, f)
        return cls(path)

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes) > 0
        return (bits @ (1 << np.arange(bits.shape[1]))).astype(np.int64)

    def list_files(self, buckets) -> list[str]:
        import glob
        import os

        out = []
        for b in sorted(set(int(x) for x in buckets)):
            d = os.path.join(self.path, "corpus", f"part={b}")
            if os.path.isdir(d):
                out.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
        return out

    def probe(self, queries, query_ids, *, k: int = 10,
              hamming_probes: int = 1):
        import ray
        import ray.data as rd

        q = np.asarray(queries, dtype=np.float64)
        qids = np.asarray(query_ids, dtype=np.int64)
        qb = _hamming_probe_sets(self.bucket_of(q),
                                 self.meta["n_planes"], hamming_probes)
        files = self.list_files(qb.ravel())
        vec_col, id_col = self.meta["vec_col"], self.meta["id_col"]
        ds = rd.read_parquet(files, columns=[id_col, vec_col, "lsh_bucket"])
        qn = _normalize_rows(q)
        q_ref = ray.put((qn, qids, qb))

        def bucket_topk(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _empty_topk(id_col)
            qm, qi, qbs = _fetch(q_ref, lambda v: v)
            m = _normalize_rows(_mat(t.column(vec_col)))
            ids = t.column(id_col).to_numpy()
            buckets = t.column("lsh_bucket").to_numpy()
            rows_q, rows_v, rows_s = [], [], []
            for j in range(len(qi)):
                mask = np.isin(buckets, qbs[j])
                if not mask.any():
                    continue
                sims = m[mask] @ qm[j]
                sel = ids[mask]
                kk = min(k + 1, len(sims))
                top = np.argpartition(-sims, kk - 1)[:kk] if kk < len(sims) else np.arange(len(sims))
                rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
                rows_v.append(sel[top].astype(np.int64))
                rows_s.append(sims[top])
            if not rows_q:
                return _empty_topk(id_col)
            return pa.table({
                "query_id": pa.array(np.concatenate(rows_q)),
                id_col: pa.array(np.concatenate(rows_v)),
                "cos": pa.array(np.concatenate(rows_s), pa.float64()),
            })

        partials = ds.map_batches(bucket_topk, **_PA_KW)
        return finalize_topk(partials, id_col=id_col, k=k)

    def bytes_for(self, buckets) -> int:
        import os

        return sum(os.path.getsize(f) for f in self.list_files(buckets))

    def total_bytes(self) -> int:
        return self.bytes_for(range(1 << self.meta["n_planes"]))


@register_op("embedding_near_dup")
def build_embedding_near_dup(*, threshold: float = 0.9, dim: int = 64,
                             n_planes: int = 10, seed: int = 42,
                             vec_col: str = "embedding", id_col: str = "vec_id",
                             concurrency: int = 2, max_bucket: int = 4096,
                             max_split_depth: int = 16):
    """Embedding-cosine near-duplicate pairs: LSH-bucket the corpus
    (random hyperplanes, fixed seed), compute exact pairwise cosine only
    WITHIN buckets, keep pairs with cosine ≥ threshold.

    The blocking trick mirrors MinHash-LSH for text: the only all-to-all
    movement is the bucket groupby over (id, bucket) pairs; the quadratic
    verify runs per bucket.  High thresholds want more planes (smaller
    buckets); near-identical vectors agree on all plane signs with high
    probability, so recall stays high where it matters."""

    def apply(ds):
        import pandas as pd

        indexed = ds.map_batches(
            LshIndexStage,
            fn_constructor_kwargs=dict(dim=dim, n_planes=n_planes, seed=seed,
                                       vec_col=vec_col),
            concurrency=_clamped(concurrency), batch_format="pyarrow",
            zero_copy_batch=True, num_cpus=1,
        )

        # unit vectors a,b with cos(a,b) >= t satisfy |a-b| <= sqrt(2-2t);
        # a unit hyperplane can only separate them if their projections
        # differ by > 2*margin, so assigning every vector within ±margin
        # of the plane to BOTH sides loses NO pair above the threshold.
        margin = float(np.sqrt(max(0.0, 2.0 - 2.0 * threshold)) / 2.0)

        def pairs_of(ids: np.ndarray, m: np.ndarray, depth: int) -> list:
            """Quadratic verify, but buckets above ``max_bucket`` are
            recursively split by an extra seeded hyperplane first — the
            cap that keeps the per-bucket O(n²) bounded when a hot
            bucket swallows a large slice of the corpus.  The split is
            LOSSLESS: near-boundary vectors (|proj| <= margin, derived
            from the threshold above) go to both sides, so every
            above-threshold pair lands together on at least one side
            (duplicates are dropped in per_bucket).  If the margin
            swallows the bucket (one tight cluster), splitting cannot
            make progress and the quadratic runs regardless
            (correctness over cost)."""
            if len(ids) > max_bucket and depth < max_split_depth:
                rng = np.random.default_rng(seed + 1000 + depth)
                plane = rng.standard_normal(m.shape[1])
                plane /= np.linalg.norm(plane)
                proj = m @ plane
                left = proj <= margin
                right = proj >= -margin
                if max(left.sum(), right.sum()) < len(ids):
                    out = []
                    for sel in (left, right):
                        if sel.sum() >= 2:
                            out.extend(pairs_of(ids[sel], m[sel], depth + 1))
                    return out
            sims = m @ m.T
            ia, ib = np.triu_indices(len(ids), k=1)
            mask = sims[ia, ib] >= threshold
            a, b = ids[ia[mask]], ids[ib[mask]]
            lo, hi_ = np.minimum(a, b), np.maximum(a, b)
            return list(zip(lo.astype(np.int64), hi_.astype(np.int64),
                            np.round(sims[ia[mask], ib[mask]], 6)))

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            if len(g) < 2:
                return pd.DataFrame({"id_a": [], "id_b": [], "cos": []})
            ids = g[id_col].to_numpy()
            m = _normalize_rows(np.asarray(g[vec_col].tolist(), dtype=np.float64))
            rows = pairs_of(ids, m, 0)
            if not rows:
                return pd.DataFrame({"id_a": [], "id_b": [], "cos": []})
            # margin-overlap splitting may emit a fully-in-margin pair
            # from both sides — dedupe on the canonical (id_a, id_b)
            return (pd.DataFrame(rows, columns=["id_a", "id_b", "cos"])
                    .drop_duplicates(["id_a", "id_b"])
                    .astype({"id_a": np.int64, "id_b": np.int64,
                             "cos": np.float64}))

        return indexed.groupby("lsh_bucket").map_groups(
            per_bucket, batch_format="pandas"
        )

    return apply


def kmeans_fit(sample: np.ndarray, n_clusters: int, seed: int = 42,
               n_iter: int = 12) -> np.ndarray:
    """Seeded Lloyd's k-means on normalized vectors (numpy only,
    deterministic).  Used as the IVF coarse quantizer; a small sample is
    plenty — centroids only need to partition the space."""
    rng = np.random.default_rng(seed)
    x = _normalize_rows(sample)
    centroids = x[rng.choice(len(x), size=min(n_clusters, len(x)), replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(x @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = x[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize_rows(centroids)
    return centroids


@register_op("kmeans")
def build_kmeans(*, n_clusters: int = 8, n_iter: int = 0,
                 init_ids: list | None = None, seed: int = 42,
                 sample_n: int = 4096, vec_col: str = "embedding",
                 id_col: str = "vec_id", out: str = "cluster"):
    """Distributed Lloyd's k-means over an embedding column (cosine).

    Fit: each iteration is ONE streaming pass — every batch emits a
    k×(d+1) partial (per-cluster vector sums + counts, a few KB), the
    driver reduces the tiny partials and re-broadcasts the centroids
    (``ray.put`` per iteration).  The corpus itself never leaves the
    workers, so the shape holds at 100 TB: bytes exchanged per
    iteration = O(batches × k × d), independent of corpus size.

    Init: ``init_ids`` pins the initial centroids to specific rows
    (deterministic and SQL-expressible — the ``kmeans_assign_seeded``
    oracle uses ``init_ids=range(k), n_iter=0``); otherwise a seeded
    choice from the first ``sample_n`` rows.

    Ties in the final assignment resolve to the LOWEST cluster index
    (np.argmax keeps the first max), mirroring the oracle's
    ``ORDER BY cos DESC, cid``.
    """
    import ray

    def apply(ds):
        if init_ids is not None:
            wanted = pa.array(sorted(int(i) for i in init_ids), pa.int64())
            small = ds.map_batches(
                lambda t: t.filter(
                    pc.is_in(t.column(id_col), value_set=wanted)),
                **_PA_KW,
            ).take_all()
            small.sort(key=lambda r: int(r[id_col]))
            cent = _normalize_rows(np.asarray(
                [r[vec_col] for r in small], dtype=np.float64))
        else:
            # k-means++ init on a driver-side sample (sample_n rows, not
            # the corpus): D²-weighted picks avoid the two-centroids-in-
            # one-blob local minimum plain random choice falls into
            rows = ds.limit(sample_n).take_all()
            sample = _normalize_rows(np.asarray(
                [r[vec_col] for r in rows], dtype=np.float64))
            rng = np.random.default_rng(seed)
            kk = min(n_clusters, len(sample))
            picks = [int(rng.integers(len(sample)))]
            for _ in range(1, kk):
                d2 = 1.0 - np.max(sample @ sample[picks].T, axis=1)
                d2 = np.clip(d2, 0.0, None)
                tot = d2.sum()
                if tot <= 0:
                    cand = int(rng.integers(len(sample)))
                else:
                    cand = int(rng.choice(len(sample), p=d2 / tot))
                picks.append(cand)
            cent = sample[picks]

        k, d = cent.shape

        for _ in range(n_iter):
            ref = ray.put(cent)

            def partial(t: pa.Table, _ref=ref) -> pa.Table:
                c = _fetch(_ref, lambda v: v)
                if t.num_rows == 0:
                    return pa.table({
                        "cluster": pa.array([], pa.int64()),
                        "n": pa.array([], pa.int64()),
                        "vsum": pa.array([], pa.list_(pa.float64())),
                    })
                m = _normalize_rows(_mat(t.column(vec_col)))
                a = np.argmax(m @ c.T, axis=1)
                n_c = np.bincount(a, minlength=len(c))
                sums = np.zeros_like(c)
                np.add.at(sums, a, m)
                return pa.table({
                    "cluster": pa.array(np.arange(len(c), dtype=np.int64)),
                    "n": pa.array(n_c.astype(np.int64)),
                    "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                })

            # partials are k rows per block — materializing them is the
            # tiny-result exception, not a corpus materialization
            pt = ds.map_batches(partial, **_PA_KW).take_all()
            tot_n = np.zeros(k, dtype=np.int64)
            tot_s = np.zeros((k, d), dtype=np.float64)
            for r in pt:
                tot_n[r["cluster"]] += r["n"]
                tot_s[r["cluster"]] += np.asarray(r["vsum"])
            nz = tot_n > 0
            cent = cent.copy()
            cent[nz] = tot_s[nz] / tot_n[nz, None]
            cent = _normalize_rows(cent)

        final_ref = ray.put(cent)

        def assign(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column(out, pa.array([], pa.int64()))
            c = _fetch(final_ref, lambda v: v)
            m = _normalize_rows(_mat(t.column(vec_col)))
            a = np.argmax(m @ c.T, axis=1).astype(np.int64)
            return t.append_column(out, pa.array(a))

        return ds.map_batches(assign, **_PA_KW)

    return apply


class IvfAssignStage:
    """Actor stage: centroids fetched once per actor (broadcast ref)."""

    def __init__(self, centroids_ref, vec_col: str = "embedding"):
        self.centroids = _fetch(centroids_ref, lambda v: v)
        self.vec_col = vec_col

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column("ivf_list", pa.array([], pa.int64()))
        m = _normalize_rows(_mat(t.column(self.vec_col)))
        lists = np.argmax(m @ self.centroids.T, axis=1).astype(np.int64)
        return t.append_column("ivf_list", pa.array(lists))


class IvfIndex:
    """On-disk IVF index: the corpus written ONCE as Parquet partitioned
    by inverted list (``part=<list>`` hive directories) plus the
    centroid matrix.  A probe reads ONLY its ``nprobe`` list partitions
    — bytes read drop by ~n_clusters/nprobe versus streaming the corpus
    (asserted from Parquet metadata in tests).  This is the scale path
    the in-stream ``ann_ivf`` op approximates with a filter."""

    def __init__(self, path: str):
        import json
        import os

        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)
        self.centroids = np.load(os.path.join(path, "centroids.npy"))

    # -- build -------------------------------------------------------------
    @classmethod
    def build(cls, ds, path: str, *, train_sample, n_clusters: int = 32,
              seed: int = 42, vec_col: str = "embedding",
              id_col: str = "vec_id", concurrency: int = 2) -> "IvfIndex":
        import json
        import os

        import ray

        centroids = kmeans_fit(
            _normalize_rows(np.asarray(train_sample, dtype=np.float64)),
            n_clusters, seed=seed)
        cent_ref = ray.put(centroids)

        def assign(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column("part", pa.array([], pa.int64()))
            stage = IvfAssignStage(cent_ref, vec_col)
            t = stage(t)
            # keep ivf_list as a data column too — write_parquet moves
            # partition_cols into directory names only
            return t.append_column("part", t.column("ivf_list"))

        os.makedirs(path, exist_ok=True)
        ds.map_batches(assign, **_PA_KW).write_parquet(
            os.path.join(path, "corpus"), partition_cols=["part"])
        np.save(os.path.join(path, "centroids.npy"), centroids)
        with open(os.path.join(path, "meta.json"), "w") as f:
            json.dump({"n_clusters": int(n_clusters), "seed": int(seed),
                       "vec_col": vec_col, "id_col": id_col}, f)
        return cls(path)

    # -- probe -------------------------------------------------------------
    def list_dirs(self, lists) -> list[str]:
        import glob
        import os

        out = []
        for li in sorted(set(int(x) for x in lists)):
            d = os.path.join(self.path, "corpus", f"part={li}")
            if os.path.isdir(d):
                out.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
        return out

    def probe(self, queries, query_ids, *, k: int = 10, nprobe: int = 4):
        """Top-k per query reading only the probed partitions."""
        import ray.data as rd

        q = _normalize_rows(np.asarray(queries, dtype=np.float64))
        qids = np.asarray(query_ids, dtype=np.int64)
        q_lists = np.argsort(-(q @ self.centroids.T), axis=1)[:, :nprobe]
        dirs = self.list_dirs(q_lists.ravel())
        vec_col, id_col = self.meta["vec_col"], self.meta["id_col"]
        ds = rd.read_parquet(dirs, columns=[id_col, vec_col, "ivf_list"])
        op = build_ann_ivf_probe_stage(q, qids, q_lists, k=k,
                                       vec_col=vec_col, id_col=id_col)
        return op(ds)

    def bytes_for(self, lists) -> int:
        import os

        return sum(os.path.getsize(f) for f in self.list_dirs(lists))

    def total_bytes(self) -> int:
        return self.bytes_for(range(self.meta["n_clusters"]))


def build_ann_ivf_probe_stage(q, qids, q_lists, *, k: int,
                              vec_col: str, id_col: str):
    """Shared probe: per-batch partial top-k within each query's lists,
    then per-query final reduce (same shape as the in-stream op)."""
    import ray

    q_ref = ray.put((q, qids, q_lists))

    def probe_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_topk(id_col)
        qm, qi, ql = _fetch(q_ref, lambda v: v)
        m = _normalize_rows(_mat(t.column(vec_col)))
        ids = t.column(id_col).to_numpy()
        lists = t.column("ivf_list").to_numpy()
        rows_q, rows_v, rows_s = [], [], []
        for j in range(len(qi)):
            mask = np.isin(lists, ql[j])
            if not mask.any():
                continue
            sims = m[mask] @ qm[j]
            sel = ids[mask]
            kk = min(k + 1, len(sims))
            top = np.argpartition(-sims, kk - 1)[:kk] if kk < len(sims) else np.arange(len(sims))
            rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
            rows_v.append(sel[top].astype(np.int64))
            rows_s.append(sims[top])
        if not rows_q:
            return _empty_topk(id_col)
        return pa.table({
            "query_id": pa.array(np.concatenate(rows_q)),
            id_col: pa.array(np.concatenate(rows_v)),
            "cos": pa.array(np.concatenate(rows_s), pa.float64()),
        })

    def apply(ds):
        partials = ds.map_batches(probe_topk, **_PA_KW)
        return finalize_topk(partials, id_col=id_col, k=k)

    return apply


@register_op("ann_ivf")
def build_ann_ivf(*, queries, query_ids, k: int = 10, n_clusters: int = 32,
                  nprobe: int = 4, seed: int = 42, train_sample: np.ndarray | None = None,
                  vec_col: str = "embedding", id_col: str = "vec_id",
                  concurrency: int = 2,
                  index_above_bytes: int | None = 256 << 20,
                  index_path: str | None = None):
    """IVF approximate top-k: k-means coarse quantizer assigns every
    vector to an inverted list; each query probes its ``nprobe`` closest
    lists with exact cosine.  Train sample defaults to the query matrix
    ∪ whatever the caller passes — at corpus scale, pass a seeded
    sample of the corpus.

    AUTO-ROUTED scale path (mirror of ``ann_lsh``): above
    ``index_above_bytes`` of input files the op builds / reuses the
    list-partitioned on-disk :class:`IvfIndex` at ``index_path`` and
    probes it — a query READS only its ``nprobe`` list partitions
    (~nprobe/n_clusters of the corpus bytes) instead of streaming
    everything.  Same centroids (same train sample + seed) → identical
    list assignment and results."""
    import ray

    q = _normalize_rows(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    train = q if train_sample is None else _normalize_rows(
        np.asarray(train_sample, dtype=np.float64))
    centroids = kmeans_fit(train, n_clusters, seed=seed)
    # per-query probe set
    q_lists = np.argsort(-(q @ centroids.T), axis=1)[:, :nprobe]
    cent_ref = ray.put(centroids)
    q_ref = ray.put((q, qids, q_lists))

    def probe_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_topk(id_col)
        qm, qi, ql = _fetch(q_ref, lambda v: v)
        m = _normalize_rows(_mat(t.column(vec_col)))
        ids = t.column(id_col).to_numpy()
        lists = t.column("ivf_list").to_numpy()
        rows_q, rows_v, rows_s = [], [], []
        for j in range(len(qi)):
            mask = np.isin(lists, ql[j])
            if not mask.any():
                continue
            sims = m[mask] @ qm[j]
            sel = ids[mask]
            kk = min(k + 1, len(sims))
            top = np.argpartition(-sims, kk - 1)[:kk] if kk < len(sims) else np.arange(len(sims))
            rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
            rows_v.append(sel[top].astype(np.int64))
            rows_s.append(sims[top])
        if not rows_q:
            return pa.table({"query_id": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64()),
                             "cos": pa.array([], pa.float64())})
        return pa.table({
            "query_id": pa.array(np.concatenate(rows_q)),
            id_col: pa.array(np.concatenate(rows_v)),
            "cos": pa.array(np.concatenate(rows_s), pa.float64()),
        })

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        qid = int(g["query_id"].iloc[0])
        g = g[g[id_col] != qid]
        g = g.sort_values(["cos", id_col], ascending=[False, True]).head(k)
        return pd.DataFrame({
            "query_id": qid,
            id_col: g[id_col].astype(np.int64),
            "rank": np.arange(1, len(g) + 1, dtype=np.int64),
        })

    def apply(ds):
        if index_above_bytes is not None:
            est = _corpus_bytes_estimate(ds)
            if est is not None and est > index_above_bytes:
                import os
                import tempfile

                path = index_path or tempfile.mkdtemp(
                    prefix="rayflow_ivf_idx_")
                if not os.path.exists(os.path.join(path, "meta.json")):
                    IvfIndex.build(ds, path, train_sample=train,
                                   n_clusters=n_clusters, seed=seed,
                                   vec_col=vec_col, id_col=id_col,
                                   concurrency=concurrency)
                return IvfIndex(path).probe(queries, query_ids, k=k,
                                            nprobe=nprobe)
        indexed = ds.map_batches(
            IvfAssignStage,
            fn_constructor_kwargs=dict(centroids_ref=cent_ref, vec_col=vec_col),
            concurrency=_clamped(concurrency), batch_format="pyarrow",
            zero_copy_batch=True, num_cpus=1,
        )
        partials = indexed.map_batches(probe_topk, **_PA_KW)
        return partials.groupby("query_id").map_groups(
            final_topk, batch_format="pandas"
        )

    return apply


@register_op("semdedup")
def build_semdedup(*, threshold: float = 0.95, n_clusters: int = 1,
                   n_iter: int = 8, seed: int = 42, sample_n: int = 4096,
                   vec_col: str = "embedding", id_col: str = "vec_id",
                   max_cluster: int = 4096, max_split_depth: int = 16):
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic
    deduplication over an embedding column.  k-means partitions the
    embedding space; WITHIN each cluster an item is dropped when its
    cosine similarity to any lower-id item of the same cluster is
    >= ``threshold`` (lowest id is the kept representative — the
    deterministic, order-independent keep rule used by the public
    implementations).  Returns the surviving ``(id_col, cluster)``
    rows — ids only, so the shuffled payload and the result stay
    small; join survivors back to the corpus with ``broadcast_semi``
    / ``sharded_semi`` when the full rows are needed.

    Plan shape (scale notes):

    - k-means fit is the bounded-partials loop of the ``kmeans`` op
      (k x d sums per batch, centroids re-broadcast per iteration);
      assignment is one streaming pass.  Corpus never drives.
    - the ONLY all-to-all exchange is ``groupby(cluster)`` carrying
      (id, vector); at 100 TB ``n_clusters`` is sized so a cluster
      ~ corpus/n_clusters fits one task (the paper uses ~100k
      clusters for LAION-scale corpora).
    - inside a cluster the O(n^2) verify is bounded by the same
      lossless margin-split used by ``embedding_near_dup``: clusters
      above ``max_cluster`` recursively split on a seeded hyperplane,
      vectors within ``margin = sqrt(2-2t)/2`` of the plane go to
      BOTH sides, so every above-threshold pair co-locates on at
      least one side and the union of per-side drop sets is exactly
      the unsplit drop set (a drop needs one witness pair; no side
      can invent a witness).

    ``n_clusters=1`` (single cluster, exact global semantics) is the
    oracle mode — SQL-expressible as NOT EXISTS over a cosine
    cross-join; the clustered mode is property-tested against a
    brute-force reference and against the k=1 mode on planted
    duplicates."""

    def apply(ds):
        if n_clusters > 1:
            clustered = build_kmeans(
                n_clusters=n_clusters, n_iter=n_iter, seed=seed,
                sample_n=sample_n, vec_col=vec_col, id_col=id_col,
                out="_sd_cluster")(ds)
        else:
            clustered = ds.map_batches(
                lambda t: t.append_column(
                    "_sd_cluster",
                    pa.array(np.zeros(t.num_rows, dtype=np.int64))),
                **_PA_KW)

        margin = float(np.sqrt(max(0.0, 2.0 - 2.0 * threshold)) / 2.0)

        def drops_of(ids: np.ndarray, m: np.ndarray, depth: int) -> set:
            if len(ids) > max_cluster and depth < max_split_depth:
                rng = np.random.default_rng(seed + 7000 + depth)
                plane = rng.standard_normal(m.shape[1])
                plane /= np.linalg.norm(plane)
                proj = m @ plane
                left = proj <= margin
                right = proj >= -margin
                if max(left.sum(), right.sum()) < len(ids):
                    dropped: set = set()
                    for sel in (left, right):
                        if sel.sum() >= 2:
                            dropped |= drops_of(ids[sel], m[sel], depth + 1)
                    return dropped
            order = np.argsort(ids, kind="stable")
            hits = (m[order] @ m[order].T) >= threshold
            drop_sorted = np.tril(hits, k=-1).any(axis=1)
            return set(int(i) for i in ids[order][drop_sorted])

        def per_cluster(g: pd.DataFrame) -> pd.DataFrame:
            ids = g[id_col].to_numpy(dtype=np.int64)
            if len(ids) < 2:
                return pd.DataFrame({
                    id_col: ids,
                    "cluster": g["_sd_cluster"].to_numpy(dtype=np.int64),
                })
            m = _normalize_rows(
                np.asarray(g[vec_col].tolist(), dtype=np.float64))
            dropped = drops_of(ids, m, 0)
            keep = ~np.isin(ids, np.fromiter(dropped, dtype=np.int64,
                                             count=len(dropped))) \
                if dropped else np.ones(len(ids), dtype=bool)
            return pd.DataFrame({
                id_col: ids[keep],
                "cluster": g["_sd_cluster"].to_numpy(dtype=np.int64)[keep],
            })

        return clustered.groupby("_sd_cluster").map_groups(
            per_cluster, batch_format="pandas")

    return apply


# --------------------------------------------------------------------------
# product quantization: the compressed-domain ANN scale path
# --------------------------------------------------------------------------

def _kmeans_l2(sample: np.ndarray, k: int, seed: int = 42,
               n_iter: int = 15) -> np.ndarray:
    """Seeded Lloyd's k-means under plain L2 on RAW subvectors (no row
    normalization — PQ subspaces must preserve magnitude so the ADC
    inner products add up).  Deterministic; empty clusters keep their
    previous centroid."""
    rng = np.random.default_rng(seed)
    k = min(k, len(sample))
    cent = sample[rng.choice(len(sample), size=k, replace=False)].copy()
    for _ in range(n_iter):
        d2 = (np.einsum("ij,ij->i", sample, sample)[:, None]
              - 2.0 * sample @ cent.T
              + np.einsum("ij,ij->i", cent, cent)[None, :])
        assign = np.argmin(d2, axis=1)
        for c in range(k):
            members = sample[assign == c]
            if len(members):
                cent[c] = members.mean(axis=0)
    return cent


def pq_train_codebooks(train: np.ndarray, m_sub: int, k_sub: int,
                       seed: int = 42) -> np.ndarray:
    """Train per-subspace codebooks on (already normalized) vectors:
    returns (m_sub, k_sub, d/m_sub).  Classic PQ (Jégou et al., TPAMI
    2011 — public method): split the dimension into contiguous
    subspaces, independent k-means per subspace."""
    n, d = train.shape
    if d % m_sub:
        raise ValueError(f"ann_pq: dim {d} not divisible by m_sub {m_sub}")
    dsub = d // m_sub
    return np.stack([
        _kmeans_l2(np.ascontiguousarray(train[:, m * dsub:(m + 1) * dsub]),
                   k_sub, seed=seed + m)
        for m in range(m_sub)])


def _pq_encode(x: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """(n, d) normalized vectors → (n, m_sub) uint8 codes (L2 argmin
    per subspace, vectorized)."""
    m_sub, _, dsub = codebooks.shape
    codes = np.empty((len(x), m_sub), dtype=np.uint8)
    for m in range(m_sub):
        sub = x[:, m * dsub:(m + 1) * dsub]
        cb = codebooks[m]
        d2 = (-2.0 * sub @ cb.T
              + np.einsum("ij,ij->i", cb, cb)[None, :])  # ||sub||² constant per row
        codes[:, m] = np.argmin(d2, axis=1)
    return codes


@register_op("pq_encode")
def build_pq_encode(*, train_sample, m_sub: int = 8, k_sub: int = 256,
                    seed: int = 42, vec_col: str = "embedding",
                    id_col: str = "vec_id", out: str = "pq_code",
                    concurrency: int = 2):
    """Materialize the PQ index artifact: append a ``fixed_size_binary
    (m_sub)`` code column — m_sub BYTES per vector versus 8·d for the
    raw float64 list (a 64× compression at d=64, m_sub=8), the form a
    100 TB embedding corpus actually stores for first-pass retrieval.
    Codebooks train once on the driver from ``train_sample`` (seeded,
    tiny) and broadcast via ``ray.put``; encoding is an actor-pool
    stage (codebooks fetched once per actor)."""
    import ray

    if k_sub > 256:
        raise ValueError("pq_encode: k_sub > 256 won't fit uint8 codes")
    codebooks = pq_train_codebooks(
        _normalize_rows(np.asarray(train_sample, dtype=np.float64)),
        m_sub, k_sub, seed=seed)
    cb_ref = ray.put(codebooks)

    class Encode:
        def __init__(self):
            self.cb = _fetch(cb_ref, lambda v: v)

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column(
                    out, pa.array([], pa.binary(self.cb.shape[0])))
            codes = _pq_encode(_normalize_rows(_mat(t.column(vec_col))),
                               self.cb)
            return t.append_column(
                out, pa.array([r.tobytes() for r in codes],
                              pa.binary(codes.shape[1])))

    def apply(ds):
        return ds.map_batches(Encode, concurrency=_clamped(concurrency),
                              **_PA_KW)

    return apply


@register_op("ann_pq")
def build_ann_pq(*, queries, query_ids, k: int = 10, m_sub: int = 8,
                 k_sub: int = 256, rerank: int = 4, seed: int = 42,
                 train_sample: np.ndarray | None = None,
                 vec_col: str = "embedding", id_col: str = "vec_id",
                 index_above_bytes: int | None = 256 << 20,
                 index_path: str | None = None, n_clusters: int = 32,
                 nprobe: int = 4):
    """PQ/ADC approximate top-k with exact re-rank: per batch the
    corpus is PQ-encoded (m_sub uint8 codes), every query scores ALL
    rows from an m_sub × k_sub inner-product lookup table (asymmetric
    distance computation — one fancy-index gather per subspace, no
    per-row Python), keeps a ``k·rerank`` ADC shortlist, and re-scores
    ONLY the shortlist with exact cosine.  Per-batch partials then the
    shared ``finalize_topk``.

    Scale shape: the compressed scan touches m_sub bytes per vector
    (vs 8·d raw), the exact math touches k·rerank rows per (query,
    batch) — so at 100 TB the scan cost is the compressed bytes, not
    the embeddings.  Identical vectors encode to identical codes ⇒ a
    planted copy always tops its query's ADC shortlist and re-ranks to
    cos 1.0, rank 1 (the planted-oracle invariant, same as LSH/IVF)."""
    import ray

    q = _normalize_rows(np.asarray(queries, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    train = q if train_sample is None else _normalize_rows(
        np.asarray(train_sample, dtype=np.float64))
    codebooks = pq_train_codebooks(train, m_sub, k_sub, seed=seed)
    dsub = codebooks.shape[2]
    # per-query ADC lookup tables: (n_q, m_sub, k_sub) inner products
    luts = np.stack([q[:, m * dsub:(m + 1) * dsub] @ codebooks[m].T
                     for m in range(codebooks.shape[0])], axis=1)
    ref = ray.put((q, qids, codebooks, luts))

    def scan(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_topk(id_col)
        qm, qi, cb, lut = _fetch(ref, lambda v: v)
        x = _normalize_rows(_mat(t.column(vec_col)))
        ids = t.column(id_col).to_numpy()
        codes = _pq_encode(x, cb)                      # (n, m_sub)
        n = len(x)
        short = min(max(k * max(rerank, 1), k) + 1, n)
        rows_q, rows_v, rows_s = [], [], []
        for j in range(len(qi)):
            # ADC: sum over subspaces of lut[j, m, code[:, m]]
            adc = lut[j, 0, codes[:, 0]].copy()
            for m in range(1, codes.shape[1]):
                adc += lut[j, m, codes[:, m]]
            if short < n:
                cand = np.argpartition(-adc, short - 1)[:short]
            else:
                cand = np.arange(n)
            sims = x[cand] @ qm[j]                     # exact re-rank
            kk = min(k + 1, len(sims))
            top = np.argpartition(-sims, kk - 1)[:kk] if kk < len(sims) \
                else np.arange(len(sims))
            rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
            rows_v.append(ids[cand[top]].astype(np.int64))
            rows_s.append(sims[top])
        return pa.table({
            "query_id": pa.array(np.concatenate(rows_q)),
            id_col: pa.array(np.concatenate(rows_v)),
            "cos": pa.array(np.concatenate(rows_s), pa.float64()),
        })

    def apply(ds):
        # AUTO-ROUTED scale path (mirror of ann_lsh/ann_ivf): above
        # index_above_bytes of input files, build / reuse the
        # list-partitioned IvfPqIndex and probe it — the ADC pass then
        # reads only the (id, pq_code) columns of nprobe partitions
        if index_above_bytes is not None:
            est = _corpus_bytes_estimate(ds)
            if est is not None and est > index_above_bytes:
                import os
                import tempfile

                path = index_path or tempfile.mkdtemp(
                    prefix="rayflow_ivfpq_idx_")
                if not os.path.exists(os.path.join(path, "meta.json")):
                    IvfPqIndex.build(ds, path, train_sample=train,
                                     n_clusters=n_clusters, m_sub=m_sub,
                                     k_sub=k_sub, seed=seed,
                                     vec_col=vec_col, id_col=id_col)
                return IvfPqIndex(path).probe(q, qids, k=k,
                                              nprobe=nprobe, rerank=rerank)
        partials = ds.map_batches(scan, **_PA_KW)
        return finalize_topk(partials, id_col=id_col, k=k)

    return apply


class IvfPqIndex:
    """On-disk IVF-PQ index (the FAISS ``IVFx,PQy`` analogue, public
    method — Jégou et al. TPAMI 2011): the corpus written ONCE as
    Parquet partitioned by inverted list, each row carrying BOTH its
    ``pq_code`` (m_sub bytes) and its raw vector; centroids + codebooks
    in sidecar files.

    Probe cost model (why this beats :class:`IvfIndex` at 100 TB): the
    ADC pass reads ONLY the ``(id, pq_code)`` columns of the ``nprobe``
    list partitions — Parquet column pruning makes that ~m_sub/(8·d) of
    the partition bytes (64× smaller at d=64, m_sub=8).  Only the
    re-rank (optional, ``rerank > 0``) touches the vector column, and
    only for the partitions that produced the shortlist.  Identical
    vectors encode identically, so the planted-copy rank-1 invariant
    holds end-to-end."""

    def __init__(self, path: str):
        import json
        import os

        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)
        self.centroids = np.load(os.path.join(path, "centroids.npy"))
        self.codebooks = np.load(os.path.join(path, "codebooks.npy"))

    @classmethod
    def build(cls, ds, path: str, *, train_sample, n_clusters: int = 32,
              m_sub: int = 8, k_sub: int = 256, seed: int = 42,
              vec_col: str = "embedding", id_col: str = "vec_id",
              concurrency: int = 2) -> "IvfPqIndex":
        import json
        import os

        import ray

        train = _normalize_rows(np.asarray(train_sample, dtype=np.float64))
        centroids = kmeans_fit(train, n_clusters, seed=seed)
        codebooks = pq_train_codebooks(train, m_sub, k_sub, seed=seed)
        ref = ray.put((centroids, codebooks))

        def assign_encode(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column(
                    "pq_code", pa.array([], pa.binary(m_sub))) \
                    .append_column("part", pa.array([], pa.int64()))
            cent, cb = _fetch(ref, lambda v: v)
            x = _normalize_rows(_mat(t.column(vec_col)))
            lists = np.argmax(x @ cent.T, axis=1).astype(np.int64)
            codes = _pq_encode(x, cb)
            return t.append_column(
                "pq_code", pa.array([r.tobytes() for r in codes],
                                    pa.binary(m_sub))) \
                .append_column("part", pa.array(lists, pa.int64()))

        os.makedirs(path, exist_ok=True)
        ds.map_batches(assign_encode,
                       concurrency=_clamped(concurrency), **_PA_KW) \
            .write_parquet(os.path.join(path, "corpus"),
                           partition_cols=["part"])
        np.save(os.path.join(path, "centroids.npy"), centroids)
        np.save(os.path.join(path, "codebooks.npy"), codebooks)
        with open(os.path.join(path, "meta.json"), "w") as f:
            json.dump({"n_clusters": int(n_clusters), "m_sub": int(m_sub),
                       "k_sub": int(k_sub), "seed": int(seed),
                       "vec_col": vec_col, "id_col": id_col}, f)
        return cls(path)

    def list_files(self, lists) -> list[str]:
        import glob
        import os

        out = []
        for li in sorted(set(int(x) for x in lists)):
            d = os.path.join(self.path, "corpus", f"part={li}")
            if os.path.isdir(d):
                out.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
        return out

    def probe(self, queries, query_ids, *, k: int = 10, nprobe: int = 4,
              rerank: int = 4):
        """ADC scan over the codes column of the ``nprobe`` partitions,
        then (``rerank > 0``) exact-cosine re-rank of the per-batch
        shortlist from the vector column of the SAME pruned files."""
        import ray
        import ray.data as rd

        id_col, vec_col = self.meta["id_col"], self.meta["vec_col"]
        m_sub = int(self.meta["m_sub"])
        q = _normalize_rows(np.asarray(queries, dtype=np.float64))
        qids = np.asarray(query_ids, dtype=np.int64)
        dsub = self.codebooks.shape[2]
        luts = np.stack([q[:, m * dsub:(m + 1) * dsub] @ self.codebooks[m].T
                         for m in range(self.codebooks.shape[0])], axis=1)
        q_lists = np.argsort(-(q @ self.centroids.T), axis=1)[:, :nprobe]
        files = self.list_files(q_lists.ravel())
        if not files:
            import pandas as pd  # noqa: F811

            return rd.from_arrow(pa.table({
                "query_id": pa.array([], pa.int64()),
                id_col: pa.array([], pa.int64()),
                "rank": pa.array([], pa.int64())}))
        ref = ray.put((q, qids, luts))

        def adc_scan(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _empty_topk(id_col)
            qm, qi, lut = _fetch(ref, lambda v: v)
            raw = t.column("pq_code").combine_chunks() \
                if isinstance(t.column("pq_code"), pa.ChunkedArray) \
                else t.column("pq_code")
            codes = np.frombuffer(
                b"".join(raw.to_pylist()), dtype=np.uint8
            ).reshape(t.num_rows, m_sub)
            ids = t.column(id_col).to_numpy()
            n = t.num_rows
            short = min(max(k * max(rerank, 1), k) + 1, n)
            rows_q, rows_v, rows_s = [], [], []
            for j in range(len(qi)):
                adc = lut[j, 0, codes[:, 0]].copy()
                for m in range(1, m_sub):
                    adc += lut[j, m, codes[:, m]]
                top = np.argpartition(-adc, short - 1)[:short] \
                    if short < n else np.arange(n)
                rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
                rows_v.append(ids[top].astype(np.int64))
                rows_s.append(adc[top])
            return pa.table({
                "query_id": pa.array(np.concatenate(rows_q)),
                id_col: pa.array(np.concatenate(rows_v)),
                "cos": pa.array(np.concatenate(rows_s), pa.float64())})

        # ADC pass: codes column ONLY (the pruned-bytes read)
        shortlist = rd.read_parquet(files, columns=[id_col, "pq_code"]) \
            .map_batches(adc_scan, **_PA_KW)
        if rerank <= 0:
            return finalize_topk(shortlist, id_col=id_col, k=k)
        from rayflow.ops.kernels import collect_table

        short_tbl = collect_table(shortlist.materialize())
        want = pa.compute.unique(short_tbl.column(id_col))
        want_ref = ray.put((q, qids, want))

        def exact_rerank(t: pa.Table) -> pa.Table:
            qm, qi, w = _fetch(want_ref, lambda v: v)
            t = t.filter(pc.is_in(t.column(id_col), value_set=w))
            if t.num_rows == 0:
                return _empty_topk(id_col)
            x = _normalize_rows(_mat(t.column(vec_col)))
            ids = t.column(id_col).to_numpy()
            sims = x @ qm.T
            kk = min(k + 1, sims.shape[0])
            rows_q, rows_v, rows_s = [], [], []
            for j in range(sims.shape[1]):
                col = sims[:, j]
                top = np.argpartition(-col, kk - 1)[:kk] \
                    if kk < len(col) else np.arange(len(col))
                rows_q.append(np.full(len(top), qi[j], dtype=np.int64))
                rows_v.append(ids[top].astype(np.int64))
                rows_s.append(col[top])
            return pa.table({
                "query_id": pa.array(np.concatenate(rows_q)),
                id_col: pa.array(np.concatenate(rows_v)),
                "cos": pa.array(np.concatenate(rows_s), pa.float64())})

        rer = rd.read_parquet(files, columns=[id_col, vec_col]) \
            .map_batches(exact_rerank, **_PA_KW)
        return finalize_topk(rer, id_col=id_col, k=k)

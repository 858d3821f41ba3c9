"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference's only dedup primitive is the cache-backed ``dedupe``
processor (exact keys).  A training-data engine needs near-duplicate
detection at corpus scale; these follow the standard sketch pipeline
(Broder MinHash / Charikar SimHash, public literature):

- **exact**: content hash → keyed reduce (no shuffle of full text).
- **MinHash+LSH**: per-doc shingle set → ``num_perm`` minhashes → band
  into ``(band_id, band_hash)`` keys → ``groupby`` the bands → candidate
  pairs → exact-Jaccard verification.  The only all-to-all exchange
  carries (doc_id, band_hash) pairs — tiny next to the corpus.
- **SimHash**: 64-bit fingerprint; near-dups block on bit-band equality.
- **blocked n-gram Jaccard**: exact pairwise within small blocks (a
  pre-existing blocking key, e.g. ``source``) — the brute-force oracle
  for the sketch methods at test scale.

All hashing is deterministic (crc32 / fixed-seed mixing), never
Python's salted ``hash``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op
from rayflow.ops.kernels import shard_exchange


_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)

_MERSENNE = (1 << 61) - 1


_FNV = 1099511628211  # FNV-1a prime, the window-combine base
_M64 = (1 << 64) - 1
_M32 = np.uint64(0xFFFFFFFF)


def _token_shingles(text: str, k: int) -> set[int]:
    """Per-doc token-shingle hash set — scalar REFERENCE implementation.

    Token hash = crc32(token); window hash = Horner polynomial combine
    of the k token hashes in Z_2^64 (base = FNV prime), masked to 32
    bits so ``pair_jaccard``'s packed (pair << 32 | value) fast path
    applies.  Docs with 0 < t < k tokens get ONE shingle combining all
    t tokens.  ``shingle_hash_batch`` below is the vectorized hot path
    and must agree bit-for-bit (property-tested)."""
    toks = text.split()
    if not toks:
        return set()
    hs = [zlib.crc32(t.encode("utf-8", "surrogatepass")) for t in toks]
    wins = [hs] if len(hs) < k else [
        hs[i: i + k] for i in range(len(hs) - k + 1)]
    out = set()
    for w in wins:
        h = 0
        for x in w:
            h = (h * _FNV + x) & _M64
        out.add(h & 0xFFFFFFFF)
    return out


def shingle_hash_batch(col, k: int, *, short_whole_doc: bool = True,
                       hash_bits: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-doc SORTED-UNIQUE shingle hashes for a whole
    batch: returns ``(flat int64 hashes, per-doc counts int64)``.

    One Arrow whitespace split, dictionary-encode so crc32 runs once
    per UNIQUE token, polynomial window combine in k shifted vectorized
    passes (the flat-window trick shared with curation._ngram_hashes),
    then per-doc unique via a single packed ``(doc << 32 | hash)``
    sort (lexsort when ``hash_bits`` > 32).  Bit-identical to
    ``_token_shingles`` per doc at the defaults; no per-row Python
    beyond the unique-token crc32 loop.

    ``short_whole_doc``: hash docs with 0 < t < k tokens as ONE
    whole-doc shingle (the Jaccard-dedup convention) vs dropping them
    (the span-duplication convention).  ``hash_bits``: 32 keeps
    ``pair_jaccard``'s packed fast path; 64 (stored wrapped in int64)
    makes collisions negligible for UNVERIFIED consumers like
    ``dup_span_pairs``."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    import pyarrow.compute as _pc

    toks = _pc.utf8_split_whitespace(_pc.fill_null(col, ""))
    raw_counts = _pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = _pc.list_flatten(toks)
    denc = _pc.dictionary_encode(flat)
    denc = denc.combine_chunks() if isinstance(denc, pa.ChunkedArray) else denc
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    values = denc.dictionary
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), raw_counts)
    if len(values):
        # Arrow's whitespace split emits empty edge tokens — drop them
        # (str.split() never yields empties)
        nonempty = _pc.not_equal(values, "").to_numpy(zero_copy_only=False)
        keep = nonempty[codes]
        codes, doc_idx = codes[keep], doc_idx[keep]
    tok_hash = np.array(
        [zlib.crc32(v.encode("utf-8", "surrogatepass"))
         for v in values.to_pylist()],
        dtype=np.uint64)
    h_tok = tok_hash[codes] if len(codes) else np.empty(0, np.uint64)
    tcnt = np.bincount(doc_idx, minlength=n)
    pow_k = np.array([pow(_FNV, j, 1 << 64) for j in range(max(k, 1))],
                     dtype=np.uint64)
    parts_h, parts_d = [], []
    m = len(h_tok) - k + 1
    if m > 0:
        wh = np.zeros(m, np.uint64)
        for j in range(k):
            wh += h_tok[j: j + m] * pow_k[k - 1 - j]
        same = doc_idx[:m] == doc_idx[k - 1:]
        parts_h.append(wh[same])
        parts_d.append(doc_idx[:m][same])
    short = (tcnt > 0) & (tcnt < k) if short_whole_doc \
        else np.zeros(n, bool)
    if short.any():
        smask = short[doc_idx]
        sd = doc_idx[smask]
        starts = np.concatenate(([0], np.cumsum(tcnt)))[:-1]
        local = np.nonzero(smask)[0] - starts[sd]
        contrib = h_tok[smask] * pow_k[tcnt[sd] - 1 - local]
        rstarts = np.nonzero(np.concatenate(([True], sd[1:] != sd[:-1])))[0]
        parts_h.append(np.add.reduceat(contrib, rstarts))
        parts_d.append(sd[rstarts])
    if not parts_h:
        return np.zeros(0, np.int64), np.zeros(n, np.int64)
    if hash_bits <= 32:
        key = (np.concatenate(parts_d).astype(np.uint64) << np.uint64(32)) \
            | (np.concatenate(parts_h) & _M32)
        key.sort()
        um = np.empty(len(key), bool)
        um[0] = True
        np.not_equal(key[1:], key[:-1], out=um[1:])
        ukey = key[um]
        return ((ukey & _M32).astype(np.int64),
                np.bincount((ukey >> np.uint64(32)).astype(np.int64),
                            minlength=n))
    h = np.concatenate(parts_h).view(np.int64)   # wrap to signed 64-bit
    d = np.concatenate(parts_d)
    order = np.lexsort((h, d))
    h, d = h[order], d[order]
    um = np.empty(len(h), bool)
    um[0] = True
    um[1:] = (h[1:] != h[:-1]) | (d[1:] != d[:-1])
    return h[um], np.bincount(d[um], minlength=n)


def minhash_signature(shingles: set[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minhashes via universal hashing (a*x+b mod p)."""
    if not shingles:
        return np.full(len(a), _MERSENNE, dtype=np.uint64)
    x = np.fromiter(shingles, dtype=np.uint64, count=len(shingles))
    sig = np.empty(len(a), dtype=np.uint64)
    for i in range(len(a)):
        sig[i] = ((a[i] * x + b[i]) % _MERSENNE).min()
    return sig


def minhash_batch(shingle_sets: list[set[int]], a: np.ndarray,
                  b: np.ndarray) -> np.ndarray:
    """Minhash for a batch given per-doc shingle SETS (reference /
    small-group path) — delegates to the flat kernel."""
    counts = np.array([len(s) for s in shingle_sets], dtype=np.int64)
    flat = (np.concatenate([
        np.fromiter(s, dtype=np.uint64, count=len(s))
        for s in shingle_sets if s
    ]) if counts.sum() else np.zeros(0, np.uint64))
    return minhash_flat(flat, counts, a, b)


def minhash_flat(flat: np.ndarray, counts: np.ndarray, a: np.ndarray,
                 b: np.ndarray) -> np.ndarray:
    """Vectorized minhash over a flat per-doc-segmented shingle-hash
    stream (``shingle_hash_batch`` output): ``np.minimum.reduceat``
    segment-min per doc, one pass per permutation — ~50x faster than
    any per-doc loop at corpus scale.  Returns ``(n_docs, num_perm)``
    uint64."""
    n_docs, n_perm = len(counts), len(a)
    out = np.full((n_docs, n_perm), _MERSENNE, dtype=np.uint64)
    nz = counts > 0
    if not nz.any():
        return out
    flat = flat.astype(np.uint64, copy=False)
    offsets = np.concatenate(([0], np.cumsum(counts[nz])))[:-1]
    # one pass per permutation over the flat shingle vector: identical
    # values to the (total, perm) matrix formulation, but no multi-
    # hundred-MB intermediate and no 2-D axis-0 reduceat (which runs a
    # strided inner loop ~50x slower than these 1-D passes)
    mins = np.empty((nz.sum(), n_perm), dtype=np.uint64)
    for i in range(n_perm):
        h = (flat * a[i] + b[i]) % np.uint64(_MERSENNE)
        mins[:, i] = np.minimum.reduceat(h, offsets)
    out[nz] = mins
    return out


class MinHasher:
    """Signature stage: permutation coefficients drawn once on the
    driver from a fixed seed; the instance (2 × ``num_perm`` uint64)
    rides each stateless ``map_batches`` task's closure."""

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 42,
                 text_col: str = "text", id_col: str = "doc_id"):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, num_perm, dtype=np.uint64)
        self.k = shingle_k
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pa.Table:
        ids = t.column(self.id_col).to_numpy()
        flat, cnts = shingle_hash_batch(t.column(self.text_col), self.k)
        sigs = minhash_flat(flat, cnts, self.a, self.b).astype(np.int64)
        return pa.table({
            self.id_col: pa.array(ids),
            "sig": pa.array(list(sigs), type=pa.list_(pa.int64())),
        })


def explode_bands(t: pa.Table, num_bands: int, id_col: str = "doc_id") -> pa.Table:
    """Signature → (doc_id, band_id, band_hash) rows, vectorized."""
    ids = t.column(id_col).to_numpy()
    sigs = t.column("sig").to_pylist()
    if not sigs:
        return pa.table({
            id_col: pa.array([], pa.int64()),
            "band_id": pa.array([], pa.int32()),
            "band_key": pa.array([], pa.int64()),
        })
    sig_mat = np.asarray(sigs, dtype=np.uint64)  # (n_docs, num_perm)
    rows_per_band = sig_mat.shape[1] // num_bands
    out_ids, out_bands, out_keys = [], [], []
    mix = np.uint64(0x9E3779B97F4A7C15)
    for b in range(num_bands):
        chunk = sig_mat[:, b * rows_per_band : (b + 1) * rows_per_band]
        h = np.full(len(ids), np.uint64(b + 1), dtype=np.uint64)  # band id mixed in
        for j in range(chunk.shape[1]):
            h = (h ^ chunk[:, j]) * mix
        out_ids.append(ids)
        out_bands.append(np.full(len(ids), b, dtype=np.int32))
        out_keys.append((h >> np.uint64(1)).astype(np.int64))
    return pa.table({
        id_col: pa.array(np.concatenate(out_ids)),
        "band_id": pa.array(np.concatenate(out_bands)),
        "band_key": pa.array(np.concatenate(out_keys)),
    })


def _pairs_from_ids(ids: np.ndarray) -> pd.DataFrame:
    ids = np.sort(ids)
    if len(ids) < 2:
        return pd.DataFrame({"doc_a": [], "doc_b": []}, dtype=np.int64)
    ia, ib = np.triu_indices(len(ids), k=1)
    return pd.DataFrame({"doc_a": ids[ia], "doc_b": ids[ib]})


def jaccard(sa: set, sb: set) -> float:
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _empty_pairs() -> pa.Table:
    return pa.table({
        "doc_a": pa.array([], pa.int64()),
        "doc_b": pa.array([], pa.int64()),
        "jaccard": pa.array([], pa.float64()),
    })


@register_op("minhash_lsh_dedup")
def build_minhash_lsh(*, threshold: float = 0.7, num_perm: int = 64,
                      num_bands: int = 16, shingle_k: int = 3, seed: int = 42,
                      text_col: str = "text", id_col: str = "doc_id",
                      n_buckets: int = 256,
                      join_partitions: int = 8,
                      driver_pair_limit: int = 2_000_000,
                      broadcast_bytes_limit: int = 64 << 20,
                      hot_band_limit: int = 20_000):
    """Near-duplicate pair detection.  Returns (doc_a, doc_b, jaccard)
    for verified pairs with token-shingle Jaccard >= threshold.

    Fully distributed with exactly ONE keyed shuffle on the hot path:

    1. signatures + band explosion — ``map_batches`` as stateless
       tasks (no actor pool, no exchange); each band row also carries
       ``bucket = band_key mod n_buckets``.
    2. candidate pairs — ``groupby("bucket").map_groups``: ~n_buckets
       groups total (NOT one per band key, which would pay the ~50us
       per-group callback cost on millions of singleton bands); inside a
       bucket the rows are sorted by band_key and multi-doc runs found
       vectorized with ``np.unique`` — singleton bands cost nothing.
       The exchange carries only (doc_id, band_key) ints.
    3. exact-Jaccard verify — the corpus is filtered to candidate docs
       (broadcast id set), each candidate's shingle set is computed
       distributed, and pairs meet shingle sets either by
       **broadcast** (candidate table re-read from the object store by
       every verify task — chosen when the materialized candidate table
       is under ``broadcast_bytes_limit``) or by **sharded join**
       (``Dataset.join`` on doc_a then doc_b — the 100 TB path, no
       size assumption).  Texts/shingles never land on the driver;
       the only driver materializations are pair-id lists (ints) and
       only when under ``driver_pair_limit``, else pair dedup runs as a
       distributed groupby.

    The reported ``jaccard`` is the raw double ``|A&B| / |A|B|`` (no
    rounding) so a SQL oracle computing the same integer ratio is
    bit-identical."""

    def apply(ds):
        from rayflow.ops import prefer_push_shuffle

        prefer_push_shuffle()

        # 1. signature + banding (stateless tasks, no exchange)
        sigs = ds.map_batches(
            MinHasher(num_perm=num_perm, shingle_k=shingle_k, seed=seed,
                      text_col=text_col, id_col=id_col),
            batch_size=2048,  # bounds the (shingles x perms) hash matrix
            **_PA_KW,
        )

        def bands_with_bucket(t: pa.Table) -> pa.Table:
            b = explode_bands(t, num_bands, id_col)
            bucket = pc.cast(
                pc.bit_wise_and(b["band_key"], n_buckets - 1), pa.int32()
            ) if (n_buckets & (n_buckets - 1)) == 0 else pc.cast(
                pc.subtract(b["band_key"],
                            pc.multiply(pc.divide(b["band_key"], n_buckets),
                                        n_buckets)), pa.int32())
            return b.append_column("bucket", bucket)

        bands = sigs.map_batches(bands_with_bucket, **_PA_KW)

        # 2. ONE keyed shuffle: bucket groupby, vectorized run detection
        def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
            keys = g["band_key"].to_numpy()
            ids = g[id_col].to_numpy()
            order = np.argsort(keys, kind="stable")
            keys, ids = keys[order], ids[order]
            _, starts, counts = np.unique(keys, return_index=True,
                                          return_counts=True)
            frames = []
            for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
                if c > hot_band_limit:
                    raise ValueError(
                        f"minhash_lsh_dedup: {c} documents share one band "
                        f"hash (> hot_band_limit={hot_band_limit}) — almost "
                        f"always a large EXACT-duplicate clique; run exact "
                        f"dedup (content-hash keyed reduce) first, or raise "
                        f"the limit. Refusing to emit ~c^2/2 pairs silently")
                frames.append(_pairs_from_ids(ids[s:s + c]))
            if not frames:
                return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                     "doc_b": pd.Series([], dtype=np.int64)})
            out = pd.concat(frames, ignore_index=True)
            return out.drop_duplicates(ignore_index=True)

        raw_pairs = bands.groupby("bucket").map_groups(
            bucket_pairs, batch_format="pandas"
        ).map_batches(lambda t: t, **_PA_KW).materialize()
        return verify_candidate_pairs(
            ds, raw_pairs, threshold=threshold, shingle_k=shingle_k,
            text_col=text_col, id_col=id_col,
            driver_pair_limit=driver_pair_limit,
            broadcast_bytes_limit=broadcast_bytes_limit,
            join_partitions=join_partitions)

    return apply


def _flatpack(col):
    """(flat int64 values, per-row lengths) from packed-binary
    shingle sets — zero-copy off the Arrow buffers when given an
    Array, one C-level join for a list of bytes."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, pa.Array):
        off = np.frombuffer(col.buffers()[1], np.int32,
                            count=len(col) + 1,
                            offset=4 * col.offset).astype(np.int64)
        data = col.buffers()[2]
        flat = (np.frombuffer(data, np.int64) if data is not None
                else np.zeros(0, np.int64))
        # binary rows are laid out back-to-back between offsets
        return flat[off[0] // 8: off[-1] // 8], \
            (off[1:] - off[:-1]) // 8
    lens = np.fromiter((len(b) for b in col), np.int64,
                       len(col)) // 8
    return np.frombuffer(b"".join(col), np.int64), lens

def pair_jaccard(sa, sb) -> np.ndarray:
    """Vectorized per-pair Jaccard over packed sorted-unique
    int64 shingle sets: within a pair an element occurs at most
    once per side, so |intersection| = number of equal-adjacent
    entries after ONE sort of (pair, value) over both sides
    concatenated — no Python per pair.

    Shingles are crc32 values (< 2^32), so (pair, value) packs
    into a single uint64 and a plain ``np.sort`` replaces
    ``np.lexsort`` — measured 235 s -> ~6 s on a 64M-element
    verify at sf0.1 (lexsort's two stable merge passes are the
    difference).  Falls back to lexsort for out-of-range values.

    ALLOCATION-LEAN on purpose: the fast path touches ONE fresh
    uint64 buffer (segment ids built by in-place marker cumsum,
    values OR-ed in from zero-copy views of the Arrow/bytes
    payload) instead of the seg/vals/casts temporaries — ~5x less
    fresh memory, which is also ~5x less exposure to first-touch
    page-fault stalls on memory-pressured hosts (BASELINE.md)."""
    fx, lx = _flatpack(sa)
    fy, ly = _flatpack(sb)
    npair = len(lx)
    nx, m = len(fx), len(fx) + len(fy)
    in_range = (
        m > 0 and npair < (1 << 31)
        and 0 <= int(fx.min(initial=0)) and int(fx.max(initial=0)) < (1 << 32)
        and 0 <= int(fy.min(initial=0)) and int(fy.max(initial=0)) < (1 << 32)
    )
    if m == 0:
        inter = np.zeros(npair, np.int64)
    elif in_range:
        key = np.zeros(m, np.uint64)
        # segment ids via boundary markers + in-place cumsum, one half
        # at a time (each half restarts at pair 0); markers at/past a
        # half's end belong to element-less segments and are dropped
        bx = np.cumsum(lx)[:-1]
        bx = bx[bx < nx]
        np.add.at(key, bx, 1)                      # empty segs stack
        np.cumsum(key[:nx], out=key[:nx])
        by = np.cumsum(ly)[:-1] + nx
        by = by[by < m]
        np.add.at(key, by, 1)
        np.cumsum(key[nx:], out=key[nx:])
        key <<= np.uint64(32)
        key[:nx] |= fx.view(np.uint64)             # zero-copy payload views
        key[nx:] |= fy.view(np.uint64)
        key.sort()
        dup = key[1:] == key[:-1]
        seg_dup = (key[1:][dup] >> np.uint64(32)).astype(np.int64)
        inter = np.bincount(seg_dup, minlength=npair)
    else:
        idxs = np.arange(npair)
        seg = np.concatenate([np.repeat(idxs, lx), np.repeat(idxs, ly)])
        vals = np.concatenate([fx, fy])
        order = np.lexsort((vals, seg))
        seg_s, val_s = seg[order], vals[order]
        dup = (seg_s[1:] == seg_s[:-1]) & (val_s[1:] == val_s[:-1])
        inter = np.bincount(seg_s[1:][dup], minlength=npair)
    union = lx + ly - inter
    # both-empty pair: defined as identical (J = 1)
    return np.where(union > 0, inter / np.maximum(union, 1), 1.0)


def verify_candidate_pairs(ds, raw_pairs, *, threshold: float,
                           shingle_k: int, text_col: str, id_col: str,
                           driver_pair_limit: int,
                           broadcast_bytes_limit: int,
                           join_partitions: int):
    """Exact-Jaccard verification shared by the sketch dedup ops.

    ``raw_pairs`` is a Dataset of candidate (doc_a, doc_b) int64 rows
    (duplicates allowed); returns a Dataset of (doc_a, doc_b, jaccard)
    for pairs whose token-shingle Jaccard >= threshold.  Pair dedup is
    driver-side numpy below ``driver_pair_limit`` else a distributed
    groupby; shingle sets for candidate docs are computed distributed
    and met either by broadcast (small candidate table) or by sharded
    ``Dataset.join`` (the no-size-assumption path)."""
    import ray
    import ray.data as rd

    from rayflow.ops.kernels import _fetch

    n_raw = raw_pairs.count()
    if n_raw == 0:
        return rd.from_arrow(_empty_pairs())

    # distinct pairs across buckets (same pair can collide in several
    # bands landing in different buckets): driver numpy dedup while
    # the pair list is metadata-sized, distributed groupby otherwise
    if n_raw <= driver_pair_limit:
        from rayflow.ops.kernels import collect_table

        pt = collect_table(raw_pairs)
        ab = np.stack([pt["doc_a"].to_numpy(), pt["doc_b"].to_numpy()], axis=1)
        ab = np.unique(ab, axis=0)
        # multiple blocks so the verify stage fans out across the
        # cluster instead of running one giant single-task sort
        chunk = 65536
        tables = [pa.table({
            "doc_a": pa.array(ab[i:i + chunk, 0], pa.int64()),
            "doc_b": pa.array(ab[i:i + chunk, 1], pa.int64()),
        }) for i in range(0, max(len(ab), 1), chunk)]
        pairs = rd.from_arrow(tables)
        ids_needed = np.unique(ab)
    else:
        pairs = (
            raw_pairs.groupby(["doc_a", "doc_b"]).count()
            .drop_columns(["count()"])
            .map_batches(lambda t: t, **_PA_KW)
            .materialize()
        )
        acc: set[int] = set()
        for b in pairs.iter_batches(batch_size=1 << 20, batch_format="pyarrow"):
            acc.update(b["doc_a"].to_pylist())
            acc.update(b["doc_b"].to_pylist())
        ids_needed = np.sort(np.fromiter(acc, np.int64, len(acc)))
    need_ref = ray.put(pa.array(ids_needed))

    # 3. distributed shingle computation for candidate docs only
    def cand_shingles(t: pa.Table) -> pa.Table:
        need = _fetch(need_ref, lambda v: v)
        t = t.filter(pc.is_in(t.column(id_col), value_set=need))
        # packed as int64-LE bytes: Arrow's hash join rejects list<>
        # payload columns, binary passes through fine.  The kernel
        # already emits per-doc sorted-unique hashes, so the binary
        # array is built zero-copy from (offsets, flat buffer).
        flat, cnts = shingle_hash_batch(t.column(text_col), shingle_k)
        offs = np.zeros(len(cnts) + 1, np.int64)
        np.cumsum(cnts * 8, out=offs[1:])
        sh = pa.Array.from_buffers(
            pa.binary(), len(cnts),
            [None, pa.py_buffer(offs.astype(np.int32).tobytes()),
             pa.py_buffer(flat.tobytes())])
        return pa.table({
            id_col: t.column(id_col),
            "sh": sh,
        })

    cand_docs = ds.map_batches(cand_shingles, **_PA_KW).materialize()

    if (cand_docs.size_bytes() or 0) <= broadcast_bytes_limit:
        # broadcast verify: candidate shingle table flows object
        # store -> workers (driver holds only block refs); each
        # verify task builds the id->shingles dict once per process
        blocks = cand_docs.to_arrow_refs()
        key = tuple(r.hex() for r in blocks)

        def build_index(_):
            got = ray.get(list(blocks))
            if not got:
                return {}
            tbl = pa.concat_tables(got)
            return dict(zip(tbl[id_col].to_pylist(), tbl["sh"].to_pylist()))

        def verify_bcast(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return _empty_pairs()
            from rayflow.ops.kernels import memo

            idx = memo(key, lambda: build_index(None))
            a_ids = t["doc_a"].to_pylist()
            b_ids = t["doc_b"].to_pylist()
            empty = b""
            ja = pair_jaccard([idx.get(a, empty) for a in a_ids],
                              [idx.get(b, empty) for b in b_ids])
            keep = ja >= threshold
            return pa.table({
                "doc_a": t["doc_a"].filter(pa.array(keep)),
                "doc_b": t["doc_b"].filter(pa.array(keep)),
                "jaccard": pa.array(ja[keep], pa.float64()),
            })

        return pairs.map_batches(verify_bcast, **_PA_KW)

    # sharded-join verify (the no-size-assumption 100 TB path)
    from rayflow.ops.kernels import clamp_join_partitions

    join_partitions = clamp_join_partitions(join_partitions)
    j1 = pairs.join(cand_docs, join_type="inner",
                    num_partitions=join_partitions,
                    on=("doc_a",), right_on=(id_col,))
    # canonical column ORDER as well as names: the hash-join emits
    # per-partition blocks whose field order is not guaranteed
    # stable, and j2's shuffle aggregator concatenates our output
    # blocks — differing field order there is an ArrowInvalid.
    j1 = j1.map_batches(
        lambda t: t.rename_columns(
            ["sh_a" if c == "sh" else c for c in t.column_names]
        ).select(["doc_a", "doc_b", "sh_a"]),
        **_PA_KW,
    )
    j2 = j1.join(cand_docs, join_type="inner",
                 num_partitions=join_partitions,
                 on=("doc_b",), right_on=(id_col,))

    def verify_join(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_pairs()
        ja = pair_jaccard(t.column("sh_a"), t.column("sh"))
        keep = ja >= threshold
        return pa.table({
            "doc_a": t.column("doc_a").filter(pa.array(keep)),
            "doc_b": t.column("doc_b").filter(pa.array(keep)),
            "jaccard": pa.array(ja[keep], pa.float64()),
        })

    return j2.map_batches(verify_join, **_PA_KW)


# -- exact n-gram Jaccard (prefix-filtered AllPairs) -------------------------


def _pairs_lenfiltered(ids: np.ndarray, lens: np.ndarray,
                       threshold: float,
                       pos: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """All (doc_a < doc_b) pairs of a same-shingle run that survive

    1. the LENGTH filter: J(A,B) >= t implies |A∩B| >= t·|A∪B| with
       |A∩B| <= min(|A|,|B|) and |A∪B| >= max(|A|,|B|), so
       min >= t·max is necessary; and
    2. the POSITIONAL upper bound (PPJoin, Xiao et al. WWW'08) when
       ``pos`` (the shared shingle's index in each doc's sorted set)
       is given: elements before the collision cannot intersect on
       either side once the collision is the pair's SMALLEST common
       element, so |A∩B| <= 1 + min(La-1-pa, Lb-1-pb), which must
       reach the Jaccard-equivalent overlap ceil(t/(1+t)·(La+Lb)).
       A true pair always survives at its smallest common element's
       run (both positions are inside the prefixes there), so pruning
       the other collisions is lossless — duplicates are merged later
       anyway.

    Vectorized over the run, in ANCHOR CHUNKS: the full triangle of a
    near-``hot_run_limit`` run would transiently allocate O(c^2) index
    arrays (~GBs at c=20k) just to filter most of it away; bounding the
    first-index block keeps peak memory at chunk×c while survivors —
    typically a tiny fraction — accumulate."""
    order = np.argsort(ids)
    ids, lens = ids[order], lens[order]
    p = pos[order] if pos is not None else None
    n = len(ids)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    chunk = 1024
    for s in range(0, n - 1, chunk):
        e = min(s + chunk, n - 1)
        anchors = np.arange(s, e)
        reps = n - 1 - anchors                       # partners per anchor
        ia = np.repeat(anchors, reps)
        ib = (np.arange(len(ia))
              - np.repeat(np.cumsum(reps) - reps, reps)
              + np.repeat(anchors, reps) + 1)
        la, lb = lens[ia], lens[ib]
        # epsilon keeps the filter a NECESSARY condition under float
        # rounding (0.7*10 -> 6.999..7.001); verify re-checks exactly
        keep = np.minimum(la, lb) >= threshold * np.maximum(la, lb) - 1e-9
        if p is not None:
            pa_, pb_ = p[ia], p[ib]
            ubound = 1 + np.minimum(la - 1 - pa_, lb - 1 - pb_)
            need = threshold / (1.0 + threshold) * (la + lb)
            keep &= ubound >= need - 1e-9
        if keep.any():
            out_a.append(ids[ia[keep]])
            out_b.append(ids[ib[keep]])
    if not out_a:
        z = np.zeros(0, ids.dtype)
        return z, z
    return np.concatenate(out_a), np.concatenate(out_b)


@register_op("ngram_jaccard_dedup")
def build_ngram_jaccard(*, threshold: float = 0.7, shingle_k: int = 3,
                        text_col: str = "text", id_col: str = "doc_id",
                        n_buckets: int = 256, hot_run_limit: int = 20_000,
                        driver_pair_limit: int = 2_000_000,
                        broadcast_bytes_limit: int = 64 << 20,
                        join_partitions: int = 8,
                        prefix_order: str = "hash", min_df: int = 2,
                        df_broadcast_limit: int = 64 << 20,
                        stats_out: dict | None = None):
    """EXACT near-duplicate pairs by token-shingle Jaccard — no sketch,
    no recall loss.  Returns every (doc_a, doc_b, jaccard) with
    Jaccard >= threshold, unlike ``minhash_lsh_dedup`` which can miss
    pairs near the threshold with banding probability.

    Prefix-filtered AllPairs plan (Bayardo et al., WWW'07 / Chaudhuri
    et al., ICDE'06 — public literature), ONE keyed shuffle:

    1. ``map_batches``: per doc, the sorted crc32 shingle set; only the
       PREFIX — the first ``floor((1-t)·L) + 1`` smallest shingles —
       is emitted as (shingle, doc_id, set_len) rows.  Two sets with
       J >= t under any fixed global order must share a prefix element
       (if the smallest common element x were outside A's prefix, the
       intersection would fit in A's last ceil(t·L)-1 slots — smaller
       than the t·L the threshold requires).  The exchange therefore
       carries ~(1-t) of the corpus shingle volume, not all of it.
       Empty shingle sets emit one sentinel row so two empty docs still
       meet (their Jaccard is defined as 1).
    2. ``groupby(bucket)``: same ~n_buckets-group trick as MinHash LSH
       (singleton shingles cost nothing); within a same-shingle run,
       candidate pairs survive the length filter min >= t·max.
    3. shared exact-Jaccard verify (`verify_candidate_pairs`):
       broadcast or sharded-join, identical to the MinHash path.

    Hash-value order is the DEFAULT global shingle order (needs no
    statistics pass).  ``prefix_order="df"`` opts into the classic
    candidate-minimizing refinement (df-ascending AllPairs, Bayardo
    WWW'07 §3): one extra aggregation pass builds a shingle →
    document-frequency table pruned to ``df >= min_df`` (df-1 shingles
    can't generate candidates, so they need no table entry and sort
    FIRST as the rarest), every doc re-ranks its shingle set by
    ``(df asc, hash asc)``, and prefixes then lead with the rarest
    shingles — same exact output, fewer candidate pairs to verify.
    The pruned table must fit ``df_broadcast_limit`` (loud failure —
    raise ``min_df`` on skewed corpora); ``stats_out`` (a dict)
    receives ``candidate_pairs`` for measuring the reduction.  A
    same-shingle run larger than ``hot_run_limit`` raises (quadratic
    pair blowup) rather than silently truncating — raise the
    threshold, enlarge the limit, or use ``minhash_lsh_dedup`` for
    that corpus."""
    if prefix_order not in ("hash", "df"):
        raise ValueError(
            f"ngram_jaccard_dedup: prefix_order must be 'hash' or 'df', "
            f"got {prefix_order!r}")

    def apply(ds):
        import ray
        import ray.data as rd

        from rayflow.ops import prefer_push_shuffle

        prefer_push_shuffle()

        df_ref = None
        if prefix_order == "df":
            from rayflow.ops import build_op as _build_op
            from rayflow.ops.kernels import collect_table

            def df_partial(t: pa.Table) -> pa.Table:
                flat, _c = shingle_hash_batch(t.column(text_col), shingle_k)
                u, c = np.unique(flat, return_counts=True)
                return pa.table({"sh": pa.array(u, pa.int64()),
                                 "n": pa.array(c, pa.int64())})

            dft = _build_op({
                "op": "group_agg", "keys": ["sh"],
                "aggs": [("sum", "n", "df")],
            })(ds.map_batches(df_partial, **_PA_KW))
            dft = dft.map_batches(
                lambda t: t.filter(pc.greater_equal(t["df"], min_df)),
                **_PA_KW).materialize()
            size = dft.size_bytes() or 0
            if size > df_broadcast_limit:
                raise ValueError(
                    f"ngram_jaccard_dedup: df table is {size >> 20} MB "
                    f"(> df_broadcast_limit={df_broadcast_limit >> 20} MB); "
                    f"raise min_df (currently {min_df}) or use "
                    f"prefix_order='hash'")
            dt = collect_table(dft)
            keys = dt["sh"].to_numpy()
            dfs = dt["df"].to_numpy()
            o = np.argsort(keys)
            df_ref = ray.put((keys[o], dfs[o]))

        def prefix_rows(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).to_numpy()
            # kernel output is per-doc sorted-unique — exactly the fixed
            # global (hash) order AllPairs prefixes need
            flat, cnts = shingle_hash_batch(t.column(text_col), shingle_k)
            if df_ref is not None and len(flat):
                # re-rank each doc's set by (df asc, hash asc): absent
                # shingles are df=1 (the rarest — lookup misses sort
                # first); df clipped to 20 bits for the packed key,
                # which keeps the total order FIXED across docs
                from rayflow.ops.kernels import _fetch

                dk, dv = _fetch(df_ref, lambda v: v)
                if len(dk):
                    ix = np.clip(np.searchsorted(dk, flat), 0, len(dk) - 1)
                    dfv = np.where(dk[ix] == flat, dv[ix], 1)
                else:
                    dfv = np.ones(len(flat), np.int64)
                key = (np.minimum(dfv, (1 << 20) - 1).astype(np.uint64)
                       << np.uint64(32)) | flat.astype(np.uint64)
                doc_of = np.repeat(np.arange(len(cnts)), cnts)
                flat = flat[np.lexsort((key, doc_of))]
            # +1e-9 so float rounding can only LENGTHEN the prefix
            # (0.3*10 -> 2.999..; a short prefix would lose recall)
            plen = ((1.0 - threshold) * cnts + 1e-9).astype(np.int64) + 1
            starts = np.concatenate(([0], np.cumsum(cnts)))[:-1]
            # position of each prefix shingle within its doc's sorted
            # set: feeds the PPJoin positional bound at pair-gen time
            local = np.arange(len(flat), dtype=np.int64) \
                - np.repeat(starts, cnts)
            keep = local < np.repeat(plen, cnts)
            sh = flat[keep]
            pos = local[keep]
            out_ids = np.repeat(ids, cnts)[keep]
            nsh = np.repeat(cnts, cnts)[keep]
            empty = cnts == 0
            if empty.any():
                # empty shingle sets emit one sentinel row so two empty
                # docs still meet (their Jaccard is defined as 1)
                ne = int(empty.sum())
                sh = np.concatenate([sh, np.full(ne, -1, np.int64)])
                pos = np.concatenate([pos, np.zeros(ne, np.int64)])
                out_ids = np.concatenate([out_ids, ids[empty]])
                nsh = np.concatenate([nsh, np.zeros(ne, np.int64)])
            return pa.table({
                "sh": pa.array(sh, pa.int64()),
                id_col: pa.array(out_ids),
                "nsh": pa.array(nsh, pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "bucket": pa.array((sh % n_buckets).astype(np.int32)),
            })

        rows = ds.map_batches(prefix_rows, **_PA_KW)

        def bucket_prefix_pairs(g: pd.DataFrame) -> pd.DataFrame:
            sh = g["sh"].to_numpy()
            ids = g[id_col].to_numpy()
            ls = g["nsh"].to_numpy()
            ps = g["pos"].to_numpy()
            order = np.argsort(sh, kind="stable")
            sh, ids, ls, ps = sh[order], ids[order], ls[order], ps[order]
            _, starts, counts = np.unique(sh, return_index=True,
                                          return_counts=True)
            frames = []
            for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
                if c > hot_run_limit:
                    raise ValueError(
                        f"ngram_jaccard_dedup: shingle {sh[s]} occurs in "
                        f"{c} document prefixes (> hot_run_limit="
                        f"{hot_run_limit}); raise the threshold or the "
                        f"limit, or use minhash_lsh_dedup for this corpus")
                a, b = _pairs_lenfiltered(ids[s:s + c], ls[s:s + c],
                                          threshold, pos=ps[s:s + c])
                if len(a):
                    frames.append(pd.DataFrame({"doc_a": a, "doc_b": b}))
            if not frames:
                return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                     "doc_b": pd.Series([], dtype=np.int64)})
            return pd.concat(frames, ignore_index=True).drop_duplicates(
                ignore_index=True)

        raw_pairs = rows.groupby("bucket").map_groups(
            bucket_prefix_pairs, batch_format="pandas"
        ).map_batches(lambda t: t, **_PA_KW).materialize()
        if stats_out is not None:
            stats_out["candidate_pairs"] = raw_pairs.count()
        return verify_candidate_pairs(
            ds, raw_pairs, threshold=threshold, shingle_k=shingle_k,
            text_col=text_col, id_col=id_col,
            driver_pair_limit=driver_pair_limit,
            broadcast_bytes_limit=broadcast_bytes_limit,
            join_partitions=join_partitions)

    return apply


# -- SimHash ---------------------------------------------------------------


_SIMHASH_BITS = 63  # fits int64; bit i of h(token) = (md5_prefix >> i) & 1


def _md5_prefix64(token: str) -> int:
    """First 8 bytes of md5(token), big-endian — the token hash.

    Chosen over crc32 because a SQL oracle can reproduce it exactly:
    DuckDB ``CAST('0x' || substring(md5(t), 1, 16) AS UBIGINT)``."""
    import hashlib

    return int.from_bytes(hashlib.md5(token.encode()).digest()[:8], "big")


def simhash64(text: str) -> int:
    """Charikar simhash over whitespace tokens (63-bit, md5-prefix token
    hash).  Scalar reference implementation; the batch path below is the
    hot one and must agree bit-for-bit (property-tested)."""
    toks = text.split()
    if not toks:
        return 0
    hashes = np.array([_md5_prefix64(t) for t in toks], dtype=np.uint64)
    bits = ((hashes[:, None] >> np.arange(_SIMHASH_BITS, dtype=np.uint64))
            & np.uint64(1))
    counts = bits.sum(axis=0)
    vec = (counts * 2 > len(toks)).astype(np.uint64)
    return int((vec << np.arange(_SIMHASH_BITS, dtype=np.uint64)).sum())


def simhash_batch(texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized simhash for a whole batch: one Arrow whitespace split,
    dictionary-encode the flat token stream so md5 runs once per UNIQUE
    token, then a single segment-reduce per document.  No per-row Python
    beyond the unique-token hash loop."""
    arr = texts.combine_chunks() if isinstance(texts, pa.ChunkedArray) else texts
    if len(arr) == 0:
        return np.zeros(0, dtype=np.uint64)
    arr = pc.fill_null(arr, "")
    toks = pc.utf8_split_whitespace(arr)
    # Arrow emits empty tokens at string edges ('' → [''], 'a ' →
    # ['a','']) — mask them instead of counting them.  Raw counts are
    # always ≥1, so reduceat never sees a zero-length segment.
    raw_counts = pc.list_value_length(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    offsets = np.concatenate(([0], np.cumsum(raw_counts)))[:-1]
    n_tok = np.add.reduceat(keep.astype(np.int64), offsets)
    enc = pc.dictionary_encode(flat)
    enc = enc.combine_chunks() if isinstance(enc, pa.ChunkedArray) else enc
    uniq = enc.dictionary.to_pylist()
    indices = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    # md5 once per UNIQUE token; the extra 0 sentinel absorbs masked
    # (empty) tokens so one gather replaces a post-gather multiply
    uniq_h = np.array([_md5_prefix64(t) for t in uniq] + [0], dtype=np.uint64)
    flat_h = uniq_h[np.where(keep, indices, len(uniq))]  # (n_flat,) uint64
    # per-bit segment sums: 63 shift+mask+reduceat passes over the flat
    # hash vector.  This beats any (n_flat, 63) bit-matrix layout —
    # 2-D reduceat/cumsum along axis 0 is strided and ~50x slower.
    sums = np.empty((len(arr), _SIMHASH_BITS), dtype=np.int64)
    for b in range(_SIMHASH_BITS):
        bb = (flat_h >> np.uint64(b)) & np.uint64(1)
        sums[:, b] = np.add.reduceat(bb, offsets)
    maj = (sums * 2 > n_tok[:, None]).astype(np.uint64)
    return (maj << np.arange(_SIMHASH_BITS, dtype=np.uint64)).sum(axis=1)


@register_op("simhash")
def build_simhash(*, text_col: str = "text", id_col: str = "doc_id"):
    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            sh = simhash_batch(t.column(text_col))
            return pa.table({
                id_col: t.column(id_col),
                "simhash": pa.array(sh.astype(np.int64), pa.int64()),
            })

        return ds.map_batches(fn, **_PA_KW)

    return apply


_POPCNT8 = np.array([bin(i).count("1") for i in range(256)], np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (byte-LUT, no Python loop)."""
    return _POPCNT8[np.ascontiguousarray(x).view(np.uint8)
                    .reshape(len(x), 8)].sum(axis=1).astype(np.int64)


@register_op("simhash_near_dup")
def build_simhash_near_dup(*, hd_max: int = 3, text_col: str = "text",
                           id_col: str = "doc_id", n_buckets: int = 256,
                           hot_band_limit: int = 20_000):
    """SimHash near-duplicate pairs: (doc_a, doc_b, hd) for every pair
    whose 63-bit Charikar simhashes differ in at most ``hd_max`` bits.

    EXACT recall by pigeonhole: the hash is split into ``hd_max + 1``
    bands, so any pair within ``hd_max`` differing bits shares at least
    one band verbatim — band-equality blocking finds every qualifying
    pair, and the popcount verify drops band-collision false positives.
    Same one-exchange shape as minhash_lsh_dedup: signatures + band
    explosion in ``map_batches`` (the 8-byte signature rides along, so
    verification is an in-bucket popcount — the corpus is never
    re-read), ONE coarse-bucket groupby for candidate generation +
    verify, then the two-phase pair dedupe (a pair can collide in
    several bands)."""
    from rayflow.ops import build_op

    num_bands = hd_max + 1
    width = int(np.ceil(64.0 / num_bands))
    mask = np.uint64((1 << width) - 1)

    def apply(ds):
        from rayflow.ops import prefer_push_shuffle

        prefer_push_shuffle()

        def bands(t: pa.Table) -> pa.Table:
            sh = simhash_batch(t.column(text_col))
            ids = t.column(id_col).to_numpy(
                zero_copy_only=False).astype(np.int64)
            n = len(ids)
            band_idx = np.repeat(np.arange(num_bands, dtype=np.uint64), n)
            sh_rep = np.tile(sh, num_bands)
            vals = (sh_rep >> (band_idx * np.uint64(width))) & mask
            key = (band_idx << np.uint64(width)) | vals
            return pa.table({
                id_col: pa.array(np.tile(ids, num_bands), pa.int64()),
                "simhash": pa.array(sh_rep.astype(np.int64), pa.int64()),
                "band_key": pa.array(key.astype(np.int64), pa.int64()),
                "bucket": pa.array((key % np.uint64(n_buckets))
                                   .astype(np.int32), pa.int32()),
            })

        def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
            keys = g["band_key"].to_numpy()
            ids = g[id_col].to_numpy()
            shs = g["simhash"].to_numpy().astype(np.uint64)
            order = np.lexsort((ids, keys))
            keys, ids, shs = keys[order], ids[order], shs[order]
            _, starts, counts = np.unique(keys, return_index=True,
                                          return_counts=True)
            outs = []
            for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
                if c > hot_band_limit:
                    raise ValueError(
                        f"simhash_near_dup: {c} documents share one band "
                        f"(> hot_band_limit={hot_band_limit}) — usually a "
                        "large exact-duplicate clique; run exact dedup "
                        "first, or raise the limit")
                i, j = np.triu_indices(c, k=1)
                hd = _popcount64(shs[s + i] ^ shs[s + j])
                keep = hd <= hd_max
                outs.append((ids[s + i][keep], ids[s + j][keep], hd[keep]))
            if not outs:
                return pd.DataFrame({
                    "doc_a": pd.Series([], dtype=np.int64),
                    "doc_b": pd.Series([], dtype=np.int64),
                    "hd": pd.Series([], dtype=np.int64)})
            a = np.concatenate([o[0] for o in outs])
            b = np.concatenate([o[1] for o in outs])
            h = np.concatenate([o[2] for o in outs])
            return pd.DataFrame({"doc_a": a, "doc_b": b, "hd": h}) \
                .drop_duplicates(["doc_a", "doc_b"], ignore_index=True)

        pairs = ds.map_batches(bands, **_PA_KW) \
            .groupby("bucket").map_groups(bucket_pairs,
                                          batch_format="pandas")
        # cross-band dedupe: a pair within hd_max bits can share
        # several bands and be emitted by more than one bucket.  All
        # copies carry the identical hd, so a two-phase grouped min is
        # an exact distinct (dedupe's argextreme needs a UNIQUE order
        # col, which hd is not)
        return build_op({
            "op": "group_agg", "keys": ["doc_a", "doc_b"],
            "aggs": [("min", "hd", "hd")],
        })(pairs)

    return apply


@register_op("jaccard_block_pairs")
def build_jaccard_block_pairs(*, block_col: str = "source",
                              threshold: float = 0.5, shingle_k: int = 3,
                              text_col: str = "text", id_col: str = "doc_id"):
    """Exact pairwise n-gram Jaccard within pre-blocked groups — the
    brute-force baseline (quadratic per block; block sizes must be
    bounded, which is the blocking key's job)."""

    def apply(ds):
        def per_block(g: pd.DataFrame) -> pd.DataFrame:
            ids = g[id_col].to_numpy()
            # vectorized shingle kernel (bit-identical to the scalar
            # _token_shingles reference): flat sorted-unique hashes +
            # per-doc offsets, intersections via C intersect1d
            flat, counts = shingle_hash_batch(
                pa.array(["" if s is None else s for s in g[text_col]]),
                shingle_k)
            offs = np.concatenate(([0], np.cumsum(counts)))
            rows = []
            for i in range(len(ids)):
                si = flat[offs[i]:offs[i + 1]]
                for j in range(i + 1, len(ids)):
                    sj = flat[offs[j]:offs[j + 1]]
                    if si.size or sj.size:
                        inter = np.intersect1d(si, sj,
                                               assume_unique=True).size
                        ja = inter / (si.size + sj.size - inter)
                    else:
                        ja = 1.0  # both empty — jaccard() convention
                    if ja >= threshold:
                        a, b = sorted((int(ids[i]), int(ids[j])))
                        rows.append((a, b, round(ja, 6)))
            return pd.DataFrame(rows, columns=["doc_a", "doc_b", "jaccard"])

        return ds.groupby(block_col).map_groups(per_block, batch_format="pandas")

    return apply


# -- HyperLogLog approximate distinct count --------------------------------


def _hll_hash64(values) -> np.ndarray:
    """64-bit hashes of a value list: md5 prefix (python loop over the
    UNIQUE values only — callers dictionary-encode first)."""
    import hashlib

    return np.array(
        [int.from_bytes(hashlib.md5(str(v).encode()).digest()[:8], "big")
         for v in values],
        dtype=np.uint64)


def hll_registers(col: pa.ChunkedArray | pa.Array, p: int = 12) -> np.ndarray:
    """One batch's HLL register array (2^p uint8): register index = top
    p hash bits, value = max rank (leading-zeros-of-remainder + 1).
    Hashing cost is bounded by the batch's UNIQUE values via
    dictionary-encode; the register update is pure numpy."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(arr) == 0:
        return regs
    denc = pc.dictionary_encode(arr)
    denc = denc.combine_chunks() if isinstance(denc, pa.ChunkedArray) else denc
    h = _hll_hash64(denc.dictionary.to_pylist())
    if len(h) == 0:
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rem = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail bits
    # rank = leading zeros of the remaining 64-p bits, +1
    lz = np.zeros(len(rem), dtype=np.uint8)
    mask = np.uint64(1) << np.uint64(63)
    cur = rem.copy()
    for r in range(64 - p):
        top = (cur & mask) != 0
        lz[(~top) & (lz == r)] += 1
        cur = cur << np.uint64(1)
        if top.all():
            break
    rank = lz + 1
    np.maximum.at(regs, idx, rank)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator with the linear-counting small-range
    correction (64-bit hashes ⇒ no large-range correction needed)."""
    m = len(regs)
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(2.0 ** -regs.astype(np.float64))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros > 0:
        return m * np.log(m / zeros)
    return float(est)


@register_op("approx_distinct")
def build_approx_distinct(*, column: str, p: int = 12,
                          out: str = "approx_distinct"):
    """Approximate COUNT(DISTINCT column) via HyperLogLog: each batch
    emits ONE 2^p-byte register row; registers merge by element-wise
    max (fully mergeable sketch — the exchange carries 4 KB per batch
    regardless of data volume, the property exact count-distinct
    fundamentally lacks at 10^10 rows).  Standard error ≈
    1.04/sqrt(2^p) (~1.6% at p=12).  Deterministic: md5 hashing, no
    seeds."""

    def partial(t: pa.Table) -> pa.Table:
        regs = hll_registers(t.column(column), p=p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.large_binary())})

    def combine(t: pa.Table) -> pa.Table:
        merged = np.zeros(1 << p, dtype=np.uint8)
        for b in t.column("regs").to_pylist():
            merged = np.maximum(merged, np.frombuffer(b, dtype=np.uint8))
        return pa.table({
            out: pa.array([int(round(hll_estimate(merged)))], pa.int64()),
        })

    def apply(ds):
        partials = ds.map_batches(partial, **_PA_KW)
        return partials.repartition(1).map_batches(
            combine, batch_size=None, **_PA_KW)

    return apply


# -- connected components over near-dup pair edges -------------------------


def union_find_components(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find over an edge list → {node: component_min_node}."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # union by min so the root IS the canonical (smallest) id
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {n: find(n) for n in parent}


@register_op("connected_components")
def build_connected_components(*, edges, node_a: str = "doc_a",
                               node_b: str = "doc_b", id_col: str = "doc_id",
                               out: str = "keep_id", mode: str = "broadcast",
                               max_iters: int = 50):
    """Canonical-representative assignment over near-duplicate PAIRS:
    every row whose ``id_col`` belongs to a pair component gets the
    component's smallest id as ``keep_id`` (rows in no pair keep their
    own id) — turning a pair list into an actionable dedup plan
    (``keep_id == id`` ⇒ keep, else drop).

    Two scale shapes, picked by ``mode``:

    - ``"broadcast"`` (default): the edge list is the OUTPUT of
      near-dup detection — O(duplicates), orders of magnitude smaller
      than the corpus — so it is collected once, union-found locally
      (linear in edges), and the node→root mapping broadcast
      (``ray.put``) into a vectorized per-batch lookup.
    - ``"propagate"``: fully distributed iterative min-label
      propagation for edge lists too big for one node: each round
      ships every node's current label across its edges (two sharded
      joins + one keyed min-reduce), converging in O(component
      diameter) rounds; convergence is detected by the global label
      sum (labels only decrease), one tiny aggregate per round.  The
      final node→label table joins back to the corpus with a sharded
      join — nothing is ever collected to the driver.

    Both modes produce identical assignments (property-tested).
    """
    import ray

    from rayflow.ops.kernels import _fetch

    def apply_propagate(ds):
        import ray.data as rd

        from rayflow.ops import build_op

        def edge_table(t: pa.Table) -> pa.Table:
            # both directions: each edge lets the label flow both ways
            a = t.column(node_a)
            b = t.column(node_b)
            return pa.table({
                "src": pa.concat_arrays([a.combine_chunks(), b.combine_chunks()]),
                "dst": pa.concat_arrays([b.combine_chunks(), a.combine_chunks()]),
            })

        dir_edges = edges.map_batches(edge_table, **_PA_KW).materialize()
        init = dir_edges.map_batches(
            lambda t: pa.table({"src": t["src"], "label": t["src"]}),
            **_PA_KW)
        labels = build_op({
            "op": "group_agg", "keys": ["src"],
            "aggs": [("min", "label", "label")],
        })(init).materialize()  # (src, label=src): nodes appearing in edges

        def label_sum(lds) -> int:
            # convergence probe: labels only decrease, so the global sum
            # is a fixpoint detector — one tiny streaming aggregate
            tot = 0
            for bt in lds.iter_batches(batch_size=1 << 20,
                                       batch_format="pyarrow"):
                tot += pc.sum(bt["label"]).as_py() or 0
            return tot

        prev = label_sum(labels)
        for _ in range(max_iters):
            flowed = build_op({
                "op": "sharded_join", "right": labels,
                "on": ["src"], "right_on": ["src"], "how": "inner",
                "num_partitions": 8,
            })(dir_edges)
            # candidate label for dst = label of src; keep own label too
            cand = flowed.map_batches(
                lambda t: pa.table({"src": t["dst"], "label": t["label"]}),
                **_PA_KW,
            ).union(labels.map_batches(
                lambda t: pa.table({"src": t["src"], "label": t["label"]}),
                **_PA_KW))
            labels = build_op({
                "op": "group_agg", "keys": ["src"],
                "aggs": [("min", "label", "label")],
            })(cand).materialize()
            cur = label_sum(labels)
            if cur == prev:
                break
            prev = cur

        relabel = labels.map_batches(
            lambda t: pa.table({"__cc_node": t["src"],
                                "__cc_label": t["label"]}), **_PA_KW)
        joined = build_op({
            "op": "sharded_join", "right": relabel,
            "on": [id_col], "right_on": ["__cc_node"], "how": "left_outer",
            "num_partitions": 8,
        })(ds)

        def finish(t: pa.Table) -> pa.Table:
            lab = pc.coalesce(pc.cast(t["__cc_label"], pa.int64()),
                              pc.cast(t[id_col], pa.int64()))
            t = t.append_column(out, lab)
            return t.drop_columns([c for c in ("__cc_label", "__cc_node")
                                   if c in t.column_names])

        return joined.map_batches(finish, **_PA_KW)

    def apply(ds):
        if mode == "propagate":
            return apply_propagate(ds)
        from rayflow.ops.kernels import collect_table

        et = (collect_table(edges.materialize())
              if hasattr(edges, "materialize") else edges)
        pair_list = list(zip(et[node_a].to_pylist(), et[node_b].to_pylist()))
        roots = union_find_components(pair_list)
        keys = np.array(sorted(roots), dtype=np.int64)
        vals = np.array([roots[k] for k in keys], dtype=np.int64)
        ref = ray.put((keys, vals))

        def fn(t: pa.Table) -> pa.Table:
            k, v = _fetch(ref, lambda x: x)
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            keep = ids.astype(np.int64).copy()
            if len(k):
                pos = np.searchsorted(k, ids)
                pos = np.clip(pos, 0, len(k) - 1)
                hit = k[pos] == ids
                keep[hit] = v[pos[hit]]
            return t.append_column(out, pa.array(keep, pa.int64()))

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("group_hll")
def build_group_hll(*, keys: list[str], column: str, p: int = 12,
                    out: str = "approx_distinct"):
    """Per-group approximate COUNT(DISTINCT column): each batch emits
    one HLL register blob per key it sees, then ONE keyed exchange
    merges blobs by element-wise max and estimates.  Exchange volume is
    (keys-per-batch × 2^p bytes) — independent of row count, the
    "distinct users per day at 10^10 events" aggregate."""
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({**{k: pa.array([], t.schema.field(k).type)
                                for k in keys},
                             "regs": pa.array([], pa.large_binary())})
        df = t.select(keys + [column]).to_pandas()
        rows_k: dict = {k: [] for k in keys}
        blobs = []
        for kv, g in df.groupby(keys, sort=False, dropna=False):
            kv = kv if isinstance(kv, tuple) else (kv,)
            for k, v in zip(keys, kv):
                rows_k[k].append(v)
            blobs.append(
                hll_registers(pa.array(g[column].astype(str)), p=p).tobytes())
        # null keys come back from pandas as NaN (and int keys as float);
        # rebuild each key column under its ORIGINAL Arrow type
        key_cols = {}
        for k in keys:
            want = t.schema.field(k).type
            vals = []
            for v in rows_k[k]:
                if v is None or (isinstance(v, float) and np.isnan(v)):
                    vals.append(None)
                elif pa.types.is_integer(want):
                    vals.append(int(v))
                else:
                    vals.append(v)
            key_cols[k] = pa.array(vals, type=want)
        return pa.table({**key_cols,
                         "regs": pa.array(blobs, pa.large_binary())})

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        regs = np.zeros(1 << p, dtype=np.uint8)
        for b in g["regs"]:
            regs = np.maximum(regs, np.frombuffer(b, dtype=np.uint8))
        res = g.iloc[:1][keys].copy()
        res[out] = int(round(hll_estimate(regs)))
        return res

    def merge_shard(g: pd.DataFrame) -> pd.DataFrame:
        # coarse key shards: register merge per key runs as plain
        # pandas iteration inside each shard task, not one Ray group
        # callback per key
        outs = [merge(sub) for _, sub in
                g.groupby(keys, sort=False, dropna=False)]
        return (pd.concat(outs, ignore_index=True) if outs
                else pd.DataFrame(columns=keys + [out]))

    return lambda ds: shard_exchange(ds.map_batches(partial, **_PA_KW), keys,
                                     merge_shard, batch_format="pandas")


@register_op("heavy_hitters")
def build_heavy_hitters(*, column: str, k: int = 10, slack: int = 8):
    """Approximate top-k most frequent values with a BOUNDED exchange:
    each batch emits only its ``k × slack`` locally-heaviest values
    (value, partial_count) — a space-saving-style partial — and one
    small combine sums and ranks.  Exchange volume is O(k·slack) rows
    per batch regardless of cardinality, unlike an exact global
    value-count whose exchange grows with the vocabulary.

    Guarantee: any value with true frequency ≥ 1/(k·slack) of a batch
    appears in that batch's partial, so globally heavy values (the ones
    top-k cares about) survive; ties near the cutoff may undercount —
    the standard heavy-hitter trade-off.  Raise ``slack`` to tighten.
    """
    from rayflow.ops import build_op

    keep = k * slack

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"value": pa.array([], pa.string()),
                             "partial_count": pa.array([], pa.int64())})
        col = pc.cast(t.column(column), pa.string())
        counts = pa.table({"value": col}).group_by(
            "value", use_threads=False).aggregate([([], "count_all")])
        n = counts.num_rows
        if n > keep:
            order = pc.select_k_unstable(
                counts, k=keep, sort_keys=[("count_all", "descending")])
            counts = counts.take(order)
        return pa.table({
            "value": counts["value"],
            "partial_count": pc.cast(counts["count_all"], pa.int64()),
        })

    def apply(ds):
        from rayflow.ops.kernels import sum_count_topk

        partials = ds.map_batches(
            lambda t: partial(t).rename_columns(["value", "approx_count"]),
            **_PA_KW)
        return sum_count_topk(partials, key_col="value",
                              count_col="approx_count", k=k)

    return apply


# -- duplicate-span detection (exact substring-dedup signal) -----------------


def _span_hashes(text: str, k: int) -> set[int]:
    """64-bit hash of every k-token window (crc32 per token + Horner
    polynomial combine, wrapped to signed int64); EMPTY for docs under
    k tokens (matching the SQL oracle's window bound, unlike
    _token_shingles which hashes short docs whole).  64 bits, not 32:
    span pairs are emitted UNVERIFIED, so collisions would directly
    fabricate pairs — birthday bound puts expected 32-bit collisions
    past ~80k distinct windows, a certainty at corpus scale, while
    64-bit stays negligible.  Scalar reference for the vectorized
    ``shingle_hash_batch(..., short_whole_doc=False, hash_bits=64)``."""
    toks = text.split()
    if len(toks) < k:
        return set()
    hs = [zlib.crc32(t.encode("utf-8", "surrogatepass")) for t in toks]
    out = set()
    for i in range(len(toks) - k + 1):
        h = 0
        for x in hs[i: i + k]:
            h = (h * _FNV + x) & _M64
        out.add(h - (1 << 64) if h >= (1 << 63) else h)
    return out


@register_op("dup_span_pairs")
def build_dup_span_pairs(*, k_tokens: int = 50, text_col: str = "text",
                         id_col: str = "doc_id", n_buckets: int = 256,
                         hot_span_limit: int = 20_000):
    """Document pairs sharing at least one duplicated k-token SPAN —
    the exact-substring-duplication signal (Lee et al., "Deduplicating
    Training Data Makes Language Models Better", public literature)
    computed as hashed k-gram windows instead of a suffix array:
    span-level duplication catches boilerplate/quotation reuse that
    whole-document Jaccard misses.

    Returns (doc_a, doc_b, n_shared) = distinct shared windows per
    pair.  Plan: hashed windows + bucket groupby (same ~n_buckets-group
    run detection as the other dedup ops) → pair counts via one keyed
    combine.  A window shared by more docs than ``hot_span_limit`` is a
    mass-boilerplate clique and fails LOUD (run exact dedup or strip
    the boilerplate first) rather than emitting c^2/2 pairs."""

    def apply(ds):
        from rayflow.ops import build_op, prefer_push_shuffle

        prefer_push_shuffle()

        def span_rows(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).to_numpy()
            flat, lens = shingle_hash_batch(
                t.column(text_col), k_tokens,
                short_whole_doc=False, hash_bits=64)
            return pa.table({
                "sh": pa.array(flat, pa.int64()),
                id_col: pa.array(np.repeat(ids, lens)),
                "bucket": pa.array((flat % n_buckets).astype(np.int32)),
            })

        rows = ds.map_batches(span_rows, **_PA_KW)

        def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
            sh = g["sh"].to_numpy()
            ids = g[id_col].to_numpy()
            order = np.argsort(sh, kind="stable")
            sh, ids = sh[order], ids[order]
            _, starts, counts = np.unique(sh, return_index=True,
                                          return_counts=True)
            frames = []
            for s, c in zip(starts[counts >= 2], counts[counts >= 2]):
                if c > hot_span_limit:
                    raise ValueError(
                        f"dup_span_pairs: one {k_tokens}-token span occurs "
                        f"in {c} documents (> hot_span_limit="
                        f"{hot_span_limit}) — mass boilerplate; exact-dedup "
                        f"or strip it first, or raise the limit")
                run = np.unique(ids[s:s + c])   # same span twice in one doc
                if len(run) >= 2:
                    frames.append(_pairs_from_ids(run))
            if not frames:
                return pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                                     "doc_b": pd.Series([], dtype=np.int64)})
            return pd.concat(frames, ignore_index=True)

        pairs = rows.groupby("bucket").map_groups(
            bucket_pairs, batch_format="pandas"
        ).map_batches(lambda t: t, **_PA_KW)
        return build_op({
            "op": "group_agg", "keys": ["doc_a", "doc_b"],
            "aggs": [("count", None, "n_shared")],
        })(pairs)

    return apply


@register_op("dedup_against")
def build_dedup_against(*, ref, text_col: str = "text",
                        ref_text_col: str | None = None,
                        method: str = "auto",
                        broadcast_limit: int = 20_000_000,
                        num_partitions: int = 16,
                        bloom_bits_per_key: int | None = None):
    """Incremental (cross-snapshot) exact dedup: drop rows whose
    ``text_col`` content already appears in a REFERENCE corpus ``ref``
    (a Dataset — e.g. the previously-ingested lake, so a nightly CDC
    ingest only admits genuinely new documents).  Membership is on the
    16-byte MD5 digest of the content (collision odds ~n²/2¹²⁸ —
    negligible at any corpus size); non-matching rows pass through
    with all columns intact.

    ``method``:

    * ``broadcast`` — the reference is reduced to its DISTINCT digests
      (16 B/doc), streamed to the driver, ``ray.put`` ONCE, and every
      batch filters with one vectorized ``pc.is_in``.  No shuffle at
      all; right size bounded by ``broadcast_limit`` with a loud
      error.
    * ``sharded`` — both sides get a digest column and the existing
      ``sharded_semi(anti=True)`` runs on the ref side's distinct
      digests: broadcast while they are small, one keyed exchange
      above that; NO size assumption.
    * ``auto`` — broadcast when ``ref.count()`` fits the limit
      (metadata-only for plain parquet reads), else sharded.
    """
    import hashlib

    from rayflow.ops.kernels import _fetch

    rcol = ref_text_col or text_col
    DG = "__dg"

    def _digests(col) -> pa.Array:
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        out = [None if s is None else hashlib.md5(
            s.encode("utf-8", "surrogatepass")).digest()
            for s in arr.to_pylist()]
        return pa.array(out, pa.binary())

    def add_dg(t: pa.Table, col: str) -> pa.Table:
        return t.append_column(DG, _digests(t.column(col)))

    def apply(ds):
        import ray

        from rayflow.ops import build_op

        mode = method
        if mode == "auto":
            mode = "broadcast" if ref.count() <= broadcast_limit else "sharded"

        if mode == "sharded":
            hashed_ref = ref.map_batches(
                lambda t: pa.table({DG: _digests(t.column(rcol))}), **_PA_KW)
            out = build_op({
                "op": "sharded_semi", "right": hashed_ref, "on": DG,
                "anti": True, "num_partitions": num_partitions,
                # opt-in: bloom of ref digests resolves most new docs
                # with NO exchange (anti bloom-miss = proven-new)
                "bloom_bits_per_key": bloom_bits_per_key,
            })(ds.map_batches(lambda t: add_dg(t, text_col), **_PA_KW))
            return out.map_batches(
                lambda t: t.drop_columns([DG]), **_PA_KW)

        if mode != "broadcast":
            raise ValueError(
                f"dedup_against: method must be auto|broadcast|sharded, "
                f"got {method!r}")

        digs: set[bytes] = set()
        hashed = ref.map_batches(
            lambda t: pa.table({DG: _digests(t.column(rcol))}), **_PA_KW)
        for b in hashed.iter_batches(batch_format="pyarrow"):
            for d in b.column(DG).to_pylist():
                if d is not None:
                    digs.add(d)
            if len(digs) > broadcast_limit:
                raise ValueError(
                    f"dedup_against: reference digest set exceeds "
                    f"broadcast_limit={broadcast_limit}; use "
                    "method='sharded'")
        ref_obj = ray.put(sorted(digs))

        def filt(t: pa.Table) -> pa.Table:
            value_set = _fetch(ref_obj, lambda ds_: pa.array(ds_, pa.binary()))
            mask = pc.invert(
                pc.is_in(_digests(t.column(text_col)), value_set=value_set))
            return t.filter(mask)

        return ds.map_batches(filt, **_PA_KW)

    return apply


@register_op("paragraph_dedup")
def build_paragraph_dedup(*, id_col: str = "doc_id", text_col: str = "text",
                          sep: str = "\n\n", out_col: str = "text",
                          max_paras_per_doc: int = 1 << 20):
    """Corpus-level EXACT paragraph dedup (the RefinedWeb / CCNet
    pre-pass): every paragraph that is byte-identical to one seen
    earlier in corpus order — smaller ``(id, paragraph_index)`` wins —
    is removed; documents are rebuilt from their surviving paragraphs
    in original order.  Documents that lose every paragraph drop out.

    Scale plan — two keyed exchanges, both over collapsed data:

    1. explode to ``(id, para_idx, para)`` inside ``map_batches``
       (vectorized Arrow ``split_pattern`` + ``list_flatten``), pack
       the global order into ONE int64 (``id * 2^20 + para_idx``, with
       a loud guard) so the winner pick is the existing two-phase
       :func:`build_dedupe` argmin — duplicates collapse per block
       BEFORE the exchange;
    2. regroup survivors by ``id`` and re-join with ``sep`` (sorted by
       ``para_idx`` inside each group).

    Paragraph text itself is the dedup key — byte-exact by definition,
    no hash-collision caveat."""
    from rayflow.ops import build_op

    K = np.int64(max_paras_per_doc)

    def apply(ds):
        def explode(t: pa.Table) -> pa.Table:
            ids = t.column(id_col)
            segs = pc.split_pattern(
                pc.coalesce(t.column(text_col), pa.scalar("", pa.string())),
                sep)
            counts = pc.list_value_length(segs).to_numpy(
                zero_copy_only=False).astype(np.int64)
            if counts.size and counts.max() >= int(K):
                raise ValueError(
                    f"paragraph_dedup: a document has {int(counts.max())} "
                    f"paragraphs (>= max_paras_per_doc={int(K)}); raise the "
                    "bound — the packed order key would overflow")
            flat = pc.list_flatten(segs)
            idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
            doc_rep = np.repeat(idv, counts)
            # per-doc paragraph index: global arange minus each doc's start
            starts = np.repeat(np.cumsum(counts) - counts, counts)
            pidx = np.arange(len(flat), dtype=np.int64) - starts
            return pa.table({
                "_pd_id": pa.array(doc_rep, pa.int64()),
                "_pd_idx": pa.array(pidx, pa.int64()),
                "_pd_rank": pa.array(doc_rep * K + pidx, pa.int64()),
                "para": flat,
            })

        paras = ds.map_batches(explode, **_PA_KW)
        winners = build_op({
            "op": "dedupe", "keys": ["para"],
            "order_col": "_pd_rank", "keep": "min",
        })(paras)

        # regroup by doc: COARSE shards, per-doc work stays inside one
        # vectorized pass instead of one Ray group-task per doc
        def rebuild(g: pa.Table) -> pa.Table:
            # Arrow end to end (the shard carries the corpus TEXT — a
            # pandas round-trip would object-box every paragraph):
            # lexsort by (doc, para_idx), per-doc run offsets over the
            # sorted value buffer → LargeListArray → pc.binary_join,
            # the same one-C-kernel join group_concat uses
            ids = g.column("_pd_id").to_numpy(zero_copy_only=False)
            pidx = g.column("_pd_idx").to_numpy(zero_copy_only=False)
            o = np.lexsort((pidx, ids))
            ks = ids[o]
            vals = g.column("para").combine_chunks() \
                .cast(pa.large_string()).take(pa.array(o, pa.int64()))
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            starts = np.flatnonzero(
                np.concatenate(([True], ks[1:] != ks[:-1]))) \
                if len(ks) else np.zeros(0, np.int64)
            offsets = np.concatenate((starts, [len(ks)])).astype(np.int64) \
                if len(ks) else np.zeros(1, np.int64)
            lists = pa.LargeListArray.from_arrays(
                pa.array(offsets, pa.int64()), vals)
            joined = pc.binary_join(lists,
                                    pa.scalar(sep, pa.large_string()))
            return pa.table({
                id_col: pa.array(ks[starts] if len(ks) else [],
                                 pa.int64()),
                out_col: joined.cast(pa.string()),
            })

        return shard_exchange(winners, "_pd_id", rebuild)

    return apply


def _lev_dp_batch(A: np.ndarray, B: np.ndarray, la: np.ndarray,
                  lb: np.ndarray) -> np.ndarray:
    """Exact Levenshtein distance for P string pairs at once.

    ``A``/``B`` are (P, L) int32 codepoint matrices padded with -1/-2
    (distinct pads so padding never matches), ``la``/``lb`` the true
    lengths.  Classic row DP vectorized across pairs; the in-row
    insertion recurrence (a left-to-right scan) is closed with the
    min-plus prefix trick: cur[j] = min_{j'<=j} (base[j'] + (j - j'))
    = accumulate-min(base - j') + j, so every step is a whole-matrix
    numpy kernel — no per-pair Python."""
    P, L = A.shape
    idx = np.arange(L + 1, dtype=np.int32)
    prev = np.broadcast_to(idx, (P, L + 1)).astype(np.int32)
    res = np.zeros(P, dtype=np.int64)
    done = la == 0
    res[done] = lb[done]
    base = np.empty((P, L + 1), dtype=np.int32)
    for i in range(1, int(la.max(initial=0)) + 1):
        sub = (A[:, i - 1][:, None] != B).astype(np.int32)
        base[:, 0] = i
        base[:, 1:] = np.minimum(prev[:, 1:] + 1, prev[:, :-1] + sub)
        cur = np.minimum.accumulate(base - idx, axis=1) + idx
        hit = la == i
        if hit.any():
            res[hit] = cur[hit, lb[hit]]
        prev = cur
    return res


@register_op("levenshtein_pairs")
def build_levenshtein_pairs(*, col: str, k: int = 2, max_len: int = 64,
                            distinct: bool = True,
                            hot_bucket_limit: int = 5_000,
                            pair_chunk: int = 8_192,
                            right=None, right_col: str | None = None):
    """Exact edit-distance near-duplicate pairs over a SHORT string
    column (names, titles, codes): every unordered pair with
    ``levenshtein ≤ k``, emitted as (s_a < s_b, dist).  A distance
    modality the sketch family can't express — catches typo-level
    variants that shingle/minhash miss on short fields.

    EXACT recall by length banding: ``|len(a) − len(b)| ≤ dist``, so
    with band width ``k+1`` a qualifying pair's length buckets differ
    by at most one — each string is emitted to its own band and the
    next (replica flag), candidate pairs form ONLY inside one band
    group, and the "not both replicas" rule places every pair in
    exactly one group (no cross-group dedupe pass needed).  ONE keyed
    exchange on the band; in-group work is a numpy length-window
    filter plus the chunked vectorized DP kernel above.  Strings past
    ``max_len`` fail loud — the O(L²) DP is for short fields; use the
    shingle ops for documents.

    ``right``: CROSS-TABLE mode (fuzzy-match new records against an
    existing lake, the incremental-ingest companion to
    ``dedup_against``): pairs are emitted ONLY across the two sides as
    (s_left, s_right, dist), including dist 0 exact hits; same
    banding, same single exchange — the side tag just rides along."""
    from rayflow.ops import build_op

    band_w = k + 1

    cross = right is not None

    def apply(ds):
        if distinct:
            ds = build_op({"op": "group_agg", "keys": [col],
                           "aggs": [("count", None, "_n")]})(ds)

        def _norm_side(d, c, side):
            if c != col:
                d = build_op({"op": "mapping",
                              "cols": {col: E.col(c)},
                              "select": [col]})(d)
            return build_op({"op": "mapping",
                             "cols": {"_lv_side": E.lit(side)},
                             "select": [col, "_lv_side"]})(d)

        if cross:
            from rayflow import expr as E  # noqa: F401 (closure above)

            r = right
            if distinct:
                rc = right_col or col
                r = build_op({"op": "group_agg", "keys": [rc],
                              "aggs": [("count", None, "_n")]})(r)
            ds = _norm_side(ds, col, 0).union(
                _norm_side(r, right_col or col, 1))

        def replicate(t: pa.Table) -> pa.Table:
            s = pc.cast(t.column(col), pa.string())
            ln = pc.utf8_length(s).to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            if len(ln) and ln.max() > max_len:
                raise ValueError(
                    f"levenshtein_pairs: string longer than max_len="
                    f"{max_len} — this op is for short fields; use the "
                    "shingle/minhash ops for documents")
            band = ln // band_w
            s2 = pa.concat_arrays([s.combine_chunks() if isinstance(
                s, pa.ChunkedArray) else s] * 2)
            side = (t.column("_lv_side").to_numpy(zero_copy_only=False)
                    .astype(np.int8) if cross
                    else np.zeros(len(ln), np.int8))
            return pa.table({
                "s": s2,
                "len": pa.array(np.concatenate([ln, ln]), pa.int64()),
                "band": pa.array(np.concatenate([band, band + 1]),
                                 pa.int64()),
                "replica": pa.array(
                    np.concatenate([np.zeros(len(ln), np.int8),
                                    np.ones(len(ln), np.int8)])),
                "side": pa.array(np.concatenate([side, side])),
            })

        def band_pairs(g: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame({
                "s_a": pd.Series([], dtype=object),
                "s_b": pd.Series([], dtype=object),
                "dist": pd.Series([], dtype=np.int64)})
            n = len(g)
            if n < 2:
                return empty
            if n > hot_bucket_limit:
                raise ValueError(
                    f"levenshtein_pairs: {n} strings share one length "
                    f"band (> hot_bucket_limit={hot_bucket_limit}) — "
                    "the quadratic candidate set would explode; raise "
                    "the limit or pre-block (e.g. by first character)")
            order = np.argsort(g["len"].to_numpy(), kind="stable")
            s = g["s"].to_numpy()[order]
            ln = g["len"].to_numpy()[order]
            rep = g["replica"].to_numpy()[order]
            sd = g["side"].to_numpy()[order]
            i, j = np.triu_indices(n, k=1)
            keep = ((ln[j] - ln[i]) <= k) & ~(rep[i].astype(bool)
                                              & rep[j].astype(bool))
            if cross:
                keep &= sd[i] != sd[j]      # across the two sides only
            else:
                keep &= s[i] != s[j]
            i, j = i[keep], j[keep]
            if not len(i):
                return empty
            # codepoint matrices once per group; distinct pads so
            # padding never equality-matches across the two sides
            L = int(ln.max())
            codes = np.full((n, L), -1, dtype=np.int32)
            for r, st in enumerate(s):
                codes[r, :ln[r]] = np.frombuffer(
                    st.encode("utf-32-le"), dtype=np.uint32)[:ln[r]]
            codes_b = np.where(codes == -1, -2, codes)
            outs = []
            for lo in range(0, len(i), pair_chunk):
                ii = i[lo:lo + pair_chunk]
                jj = j[lo:lo + pair_chunk]
                d = _lev_dp_batch(codes[ii], codes_b[jj], ln[ii], ln[jj])
                m = d <= k
                outs.append((s[ii][m], s[jj][m], d[m], sd[ii][m]))
            a = np.concatenate([o[0] for o in outs])
            b = np.concatenate([o[1] for o in outs])
            d = np.concatenate([o[2] for o in outs])
            if not len(a):
                return empty
            if cross:
                # orient: column a = left side, column b = right side
                ia = np.concatenate([o[3] for o in outs])
                sw = ia != 0                      # i-side is right → swap
                lo_s = np.where(sw, b, a)
                hi_s = np.where(sw, a, b)
            else:
                lo_s = np.minimum(a, b)
                hi_s = np.maximum(a, b)
            return pd.DataFrame({"s_a": lo_s, "s_b": hi_s, "dist": d})

        from rayflow.ops import prefer_push_shuffle

        prefer_push_shuffle()
        reps = ds.map_batches(replicate, **_PA_KW)
        return reps.groupby("band").map_groups(band_pairs,
                                               batch_format="pandas")

    return apply


def _mix64(x: "np.ndarray") -> "np.ndarray":
    """SplitMix64 finalizer over a uint64 vector — the second,
    independent token-hash lane for the 128-bit window identity."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


#: second Horner base (odd, ≠ _FNV) for the 128-bit window-hash lane
_FNV2 = 0x9E3779B97F4A7C15


def _window_hash_positions(col, k: int):
    """Positional 128-bit k-token window hashes for a batch: returns
    ``(hash int64, hash2 int64, doc_idx int64, pos int64)`` — one row
    per window, ``pos`` = start token index within its doc.  The first
    lane is the same token pipeline and hash as :func:`_span_hashes`
    (whitespace split, empty tokens dropped, crc32 per UNIQUE token,
    Horner combine in Z_2^64) so the two agree bit-for-bit; the second
    lane re-combines SplitMix64-finalized token hashes under a
    different base, making window identity an effectively-128-bit key
    (a 64-bit key alone meets its birthday bound near 2^32 windows —
    guaranteed spurious matches at corpus scale).  Unlike
    ``shingle_hash_batch`` nothing is uniqued — the consumer needs
    every occurrence."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    empty = (np.zeros(0, np.int64),) * 4
    if n == 0:
        return empty
    toks = pc.utf8_split_whitespace(pc.fill_null(col, ""))
    raw_counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    denc = flat.dictionary_encode()
    denc = denc.combine_chunks() if isinstance(
        denc, pa.ChunkedArray) else denc
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    values = denc.dictionary
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), raw_counts)
    if len(values):
        nonempty = pc.not_equal(values, "").to_numpy(zero_copy_only=False)
        keep = nonempty[codes]
        codes, doc_idx = codes[keep], doc_idx[keep]
    tok_hash = np.array(
        [zlib.crc32(v.encode("utf-8", "surrogatepass"))
         for v in values.to_pylist()], dtype=np.uint64)
    h_tok = tok_hash[codes] if len(codes) else np.empty(0, np.uint64)
    h_tok2 = _mix64(h_tok)
    tcnt = np.bincount(doc_idx, minlength=n)
    m = len(h_tok) - k + 1
    if m <= 0:
        return empty
    pow_k = np.array([pow(_FNV, j, 1 << 64) for j in range(k)],
                     dtype=np.uint64)
    pow2_k = np.array([pow(_FNV2, j, 1 << 64) for j in range(k)],
                      dtype=np.uint64)
    wh = np.zeros(m, np.uint64)
    wh2 = np.zeros(m, np.uint64)
    for j in range(k):
        wh += h_tok[j: j + m] * pow_k[k - 1 - j]
        wh2 += h_tok2[j: j + m] * pow2_k[k - 1 - j]
    same = doc_idx[:m] == doc_idx[k - 1:]
    starts = np.concatenate(([0], np.cumsum(tcnt)))[:-1]
    gpos = np.nonzero(same)[0]
    d = doc_idx[:m][same]
    return (wh[same].astype(np.int64), wh2[same].astype(np.int64),
            d, gpos - starts[d])


@register_op("dup_span_remove")
def build_dup_span_remove(*, k_tokens: int = 50, text_col: str = "text",
                          id_col: str = "doc_id", n_buckets: int = 256,
                          hot_span_limit: int = 20_000,
                          num_partitions: int = 16):
    """Duplicated-span REMOVAL (the actionable half of Lee et al.'s
    ExactSubstr dedup; ``dup_span_pairs`` is the detection half):
    every k-token window that occurs more than once corpus-wide keeps
    ONLY its globally-first occurrence (min (doc_id, pos)); all tokens
    covered by any other occurrence are cut and the doc is rebuilt
    from the survivors (single-space joined — token-level semantics,
    like the tokenizer the windows are defined over).

    Span identity is a 128-BIT window hash (two independent 64-bit
    Horner lanes — see :func:`_window_hash_positions`), never verified
    against the tokens themselves: a collision would silently excise
    unrelated text, so the key is sized for the corpus scale the
    docstrings target (~1e12 windows → expected collisions ≈
    n²/2^129 ≈ 1e-15; a single 64-bit lane would already be past its
    birthday bound there).  Unlike the suffix-array formulation this
    is hash-exact, not byte-exact.

    Plan: positional window hashes (nothing uniqued) → ONE
    hash-bucketed exchange that picks each window's canonical
    occurrence and emits the rest as (doc, pos) cut marks → cut marks
    aggregate per doc (tiny: only docs with dups) → sharded join back
    to the corpus → vectorized token-mask rebuild.  The window-row
    exchange is corpus-sized — inherent to exact substring dedup (the
    suffix-array formulation touches every token too).  Same loud
    ``hot_span_limit`` as the pairs op.  Output adds
    ``n_tokens_removed``.  NOTE (as in the paper): removal can splice
    previously-distant tokens together, so one pass does not guarantee
    a fixpoint — rerun to convergence if required."""

    def apply(ds):
        import ray.data as rd

        from rayflow.ops import build_op, prefer_push_shuffle

        prefer_push_shuffle()
        ds = ds.materialize()
        if ds.count() == 0:
            # no spans to cut: the input schema plus the count column
            # (the exchanges below would leave blocks without columns)
            sch = ds.schema()
            if sch is None:
                return ds
            return rd.from_arrow(sch.base_schema.empty_table().append_column(
                "n_tokens_removed", pa.array([], pa.int64())))

        def win_rows(t: pa.Table) -> pa.Table:
            ids = t.column(id_col).to_numpy()
            sh, sh2, didx, pos = _window_hash_positions(
                t.column(text_col), k_tokens)
            return pa.table({
                "sh": pa.array(sh, pa.int64()),
                "sh2": pa.array(sh2, pa.int64()),
                id_col: pa.array(ids[didx]) if len(didx)
                else pa.array(np.zeros(0, ids.dtype)),
                "pos": pa.array(pos, pa.int64()),
                # bucketing on lane 1 alone is fine: rows sharing the
                # full (sh, sh2) identity share sh, hence the bucket
                "bucket": pa.array((sh % n_buckets).astype(np.int32)),
            })

        rows = ds.map_batches(win_rows, **_PA_KW)

        def cut_marks(g: pa.Table) -> pa.Table:
            sh = g.column("sh").to_numpy(zero_copy_only=False)
            sh2 = g.column("sh2").to_numpy(zero_copy_only=False)
            ids = g.column(id_col).to_numpy(zero_copy_only=False)
            pos = g.column("pos").to_numpy(zero_copy_only=False)
            order = np.lexsort((pos, ids, sh2, sh))
            sh, sh2 = sh[order], sh2[order]
            ids, pos = ids[order], pos[order]
            # identity runs on the FULL 128-bit key (both lanes)
            new = np.concatenate(([True], (sh[1:] != sh[:-1])
                                  | (sh2[1:] != sh2[:-1]))) \
                if len(sh) else np.zeros(0, bool)
            starts = np.flatnonzero(new)
            counts = np.diff(np.append(starts, len(sh)))
            big = counts > hot_span_limit
            if big.any():
                raise ValueError(
                    f"dup_span_remove: one {k_tokens}-token span occurs "
                    f"{counts[big].max()} times (> hot_span_limit="
                    f"{hot_span_limit}) — mass boilerplate; exact-dedup "
                    "or strip it first, or raise the limit")
            # within each identity run the first row (min doc, then min
            # pos) is canonical; every other row is a cut mark
            keep_first = np.zeros(len(sh), bool)
            keep_first[starts] = True
            cut = ~keep_first
            return pa.table({id_col: pa.array(ids[cut]),
                             "pos": pa.array(pos[cut], pa.int64())})

        marks = rows.groupby("bucket").map_groups(cut_marks,
                                                  batch_format="pyarrow")

        def pack_marks(g: pa.Table) -> pa.Table:
            # per-doc sorted-distinct positions joined "p1,p2,…" — all
            # Arrow/numpy: lexsort + run dedup + binary_join
            ids = g.column(id_col).to_numpy(zero_copy_only=False)
            pos = g.column("pos").to_numpy(zero_copy_only=False)
            o = np.lexsort((pos, ids))
            ids_s, pos_s = ids[o], pos[o]
            keep = np.concatenate(([True], (ids_s[1:] != ids_s[:-1])
                                   | (pos_s[1:] != pos_s[:-1]))) \
                if len(ids_s) else np.zeros(0, bool)
            ids_s, pos_s = ids_s[keep], pos_s[keep]
            starts = np.flatnonzero(
                np.concatenate(([True], ids_s[1:] != ids_s[:-1]))) \
                if len(ids_s) else np.zeros(0, np.int64)
            offsets = np.concatenate(
                (starts, [len(ids_s)])).astype(np.int64) \
                if len(ids_s) else np.zeros(1, np.int64)
            pos_str = pc.cast(pa.array(pos_s.astype(np.int64)),
                              pa.string()) \
                if len(pos_s) else pa.array([], pa.string())
            if isinstance(pos_str, pa.ChunkedArray):
                pos_str = pos_str.combine_chunks()
            lists = pa.ListArray.from_arrays(
                pa.array(offsets, pa.int32()), pos_str)
            return pa.table({
                id_col: pa.array(ids_s[starts] if len(ids_s) else []
                                 ).cast(g.schema.field(id_col).type),
                "_cut_pos": pc.binary_join(lists, ","),
            })

        packed = shard_exchange(marks, id_col, pack_marks)

        joined = build_op({
            "op": "sharded_join", "right": packed, "how": "left",
            "on": [id_col], "right_on": [id_col],
            "num_partitions": num_partitions, "strategy": "auto",
        })(ds)

        def rebuild(t: pa.Table) -> pa.Table:
            has_cut = pc.is_valid(t.column("_cut_pos"))
            other = [n for n in t.column_names if n != "_cut_pos"]
            # untouched docs pass through VERBATIM (original whitespace
            # kept), zero-copy — the Python path below only ever sees
            # the docs that actually have cut marks
            t_ok = t.filter(pc.invert(has_cut)).select(other)
            t_ok = t_ok.append_column(
                "n_tokens_removed", pa.array(
                    np.zeros(t_ok.num_rows, np.int64), pa.int64()))
            t_cut = t.filter(has_cut)
            if t_cut.num_rows == 0:
                return t_ok
            txts = pc.fill_null(
                pc.cast(t_cut.column(text_col), pa.string()), "")
            cuts = t_cut.column("_cut_pos").to_pylist()
            toks_l = pc.utf8_split_whitespace(txts)
            toks_l = toks_l.combine_chunks() if isinstance(
                toks_l, pa.ChunkedArray) else toks_l
            out_txt, removed = [], np.zeros(t_cut.num_rows, np.int64)
            for i in range(t_cut.num_rows):
                toks = [x for x in (toks_l[i].as_py() or []) if x != ""]
                mask = np.ones(len(toks), bool)
                for p in cuts[i].split(","):
                    p = int(p)
                    mask[p:p + k_tokens] = False
                removed[i] = int((~mask).sum())
                out_txt.append(" ".join(
                    tk for tk, keep in zip(toks, mask) if keep))
            cols = {n: t_cut.column(n) for n in other if n != text_col}
            cols[text_col] = pa.array(out_txt, pa.string())
            cols["n_tokens_removed"] = pa.array(removed, pa.int64())
            t_cut_out = pa.table(cols).select(
                [c for c in t_ok.column_names])
            return pa.concat_tables([t_ok, t_cut_out])

        return joined.map_batches(rebuild, **_PA_KW)

    return apply


@register_op("pagerank")
def build_pagerank(*, src_col: str = "src", dst_col: str = "dst",
                   n_iter: int = 3, damping: float = 0.85,
                   undirected: bool = True, node_out: str = "node",
                   out: str = "rank",
                   broadcast_limit: int = 5_000_000,
                   mode: str = "auto", num_partitions: int = 32):
    """PageRank over an edge-list Dataset — the second iterative
    algorithm in the family (k-means is the other), same scale shape:
    per iteration the EDGES never leave the workers; only a
    node-sized vector moves (broadcast out, partial sums back).

    The node universe is ``src ∪ dst``, so directed graphs with sink
    nodes (dst-only) are handled: a sink's rank mass is redistributed
    uniformly each iteration (the standard dangling-node term), and
    sinks receive rank like any other node.  ``undirected`` mirrors
    every edge (then every node has out-degree ≥ 1 and the dangling
    term is identically zero).  Multi-edges count with multiplicity —
    DISTINCT the edge list first if unwanted.

    Two plans, picked by ``mode``:

    - ``"broadcast"`` (and ``"auto"`` up to ``broadcast_limit``
      nodes): per iteration broadcast sorted node ids + share vector
      (``ray.put``); each edge batch contributes
      ``rank(src)/deg(src)`` to its dst via a vectorized index_in +
      bincount partial; ONE two-phase keyed combine sums partials;
      the driver folds the node-sized result into
      ``(1−d)/N + d·(contrib + dangling/N)``.
    - ``"partition"`` (and ``"auto"`` above the limit): ranks stay a
      DATASET co-located with the edges by key — per iteration one
      sharded join edges⋈shares on src, one keyed sum by dst, one
      left join back onto the node table (same plan family as
      ``connected_components mode="propagate"``).  Nothing
      node-sized ever lands on the driver; the per-iteration driver
      scalar is just the dangling mass (one bounded aggregate).
      Costs 3 exchanges/iteration — Ray Data's join cannot reuse a
      prior partitioning, which is exactly why broadcast stays the
      default below the limit."""
    import ray

    if mode not in ("auto", "broadcast", "partition"):
        raise ValueError("pagerank: mode must be auto/broadcast/partition")

    def apply(ds):
        import ray.data as rd

        from rayflow.ops import build_op
        from rayflow.ops.kernels import collect_table

        def mirror(t: pa.Table) -> pa.Table:
            s = pc.cast(t.column(src_col), pa.string())
            d = pc.cast(t.column(dst_col), pa.string())
            s = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
            d = d.combine_chunks() if isinstance(d, pa.ChunkedArray) else d
            if undirected:
                return pa.table({"_pr_src": pa.concat_arrays([s, d]),
                                 "_pr_dst": pa.concat_arrays([d, s])})
            return pa.table({"_pr_src": s, "_pr_dst": d})

        edges = ds.map_batches(mirror, **_PA_KW).materialize()

        # node universe = src ∪ dst with OUT-degree (0 = sink).  One
        # two-phase combine over per-block (node, deg-partial) rows.
        def node_partial(t: pa.Table) -> pa.Table:
            s = t.column("_pr_src").combine_chunks()
            d = t.column("_pr_dst").combine_chunks()
            return pa.table({
                "_pr_node": pa.concat_arrays([s, d]),
                "_pr_deg": pa.array(
                    np.concatenate([np.ones(len(s), np.int64),
                                    np.zeros(len(d), np.int64)]),
                    pa.int64()),
            })

        deg_ds = build_op({
            "op": "group_agg", "keys": ["_pr_node"],
            "aggs": [("sum", "_pr_deg", "_pr_deg")],
        })(edges.map_batches(node_partial, **_PA_KW)).materialize()
        n = deg_ds.count()
        if n == 0:
            return rd.from_arrow(pa.table({
                node_out: pa.array([], pa.string()),
                out: pa.array([], pa.float64())}))
        base = (1.0 - damping) / n
        iters = max(0, int(n_iter))

        if mode == "partition" or (mode == "auto" and n > broadcast_limit):
            return _pagerank_partitioned(
                edges, deg_ds, n, base, damping, iters, num_partitions,
                node_out, out)
        if n > broadcast_limit:
            raise ValueError(
                f"pagerank: {n} nodes exceed "
                f"broadcast_limit={broadcast_limit} — use "
                "mode='partition' (or 'auto') for the co-partitioned "
                "rank-Dataset plan")

        deg_tbl = collect_table(deg_ds)
        order = pc.sort_indices(deg_tbl.column("_pr_node"))
        nodes_arr = deg_tbl.column("_pr_node").take(order).combine_chunks()
        deg = deg_tbl.column("_pr_deg").take(order) \
            .to_numpy(zero_copy_only=False).astype(np.float64)
        dangling = deg == 0.0
        rank = np.full(n, 1.0 / n)

        for _ in range(iters):
            # sinks contribute no per-edge share; their mass spreads
            # uniformly via the scalar dangling term below
            share = np.where(dangling, 0.0,
                             rank / np.where(dangling, 1.0, deg))
            dmass = float(rank[dangling].sum())
            share_ref = ray.put((nodes_arr, share))

            def contrib(t: pa.Table, _ref=share_ref) -> pa.Table:
                nn, shares = ray.get(_ref)
                si = pc.index_in(t.column("_pr_src"), value_set=nn) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                di = pc.index_in(t.column("_pr_dst"), value_set=nn) \
                    .to_numpy(zero_copy_only=False).astype(np.int64)
                part = np.bincount(di, weights=shares[si], minlength=0)
                nz = np.nonzero(part)[0]
                return pa.table({
                    "_pr_i": pa.array(nz, pa.int64()),
                    "_pr_c": pa.array(part[nz], pa.float64()),
                })

            agg = build_op({
                "op": "group_agg", "keys": ["_pr_i"],
                "aggs": [("sum", "_pr_c", "_pr_c")],
            })(edges.map_batches(contrib, **_PA_KW))
            at = collect_table(agg)
            new_rank = np.full(n, base + damping * dmass / n)
            idx = at.column("_pr_i").to_numpy(zero_copy_only=False)
            val = at.column("_pr_c").to_numpy(zero_copy_only=False)
            new_rank[idx] += damping * val
            rank = new_rank

        return rd.from_arrow(pa.table({
            node_out: nodes_arr,
            out: pa.array(rank, pa.float64()),
        }))

    return apply


def _pagerank_partitioned(edges, deg_ds, n, base, damping, iters,
                          num_partitions, node_out, out):
    """Co-partitioned PageRank: the rank vector is a Dataset
    ``(_pr_node, _pr_deg, _pr_rank)``; per iteration one keyed
    exchange co-locates edges with their src's share (tag-union →
    hash(key)-shard → in-shard Arrow ``index_in``), one two-phase
    keyed sum collapses contributions by dst, and one more keyed
    exchange folds them back onto the node table.  Node state never
    lands on the driver (only the scalar dangling mass does).

    Built on the engine's own coarse-shard groupby exchange rather
    than ``Dataset.join``: the hash-shuffle join emits empty-SCHEMA
    blocks for empty partitions (poisoning any downstream join's key
    resolution) and its up-front aggregator actor pool can hang on
    small clusters — both measured on Ray 2.49.  ``state``
    materializes per iteration so the lineage doesn't re-execute
    ``iters`` times."""
    from rayflow.ops import build_op
    from rayflow.ops.kernels import collect_table, shard_codes

    def init_rank(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_pr_rank", pa.array(np.full(t.num_rows, 1.0 / n), pa.float64()))

    state = deg_ds.map_batches(init_rank, **_PA_KW).materialize()

    def tag_edges(t: pa.Table) -> pa.Table:
        k = t.column("_pr_src").combine_chunks()
        return pa.table({
            "_k": k,
            "_dst": t.column("_pr_dst"),
            "_val": pa.nulls(t.num_rows, pa.float64()),
            "_deg": pa.nulls(t.num_rows, pa.int64()),
            "_side": pa.array(["e"] * t.num_rows, pa.string()),
            "_shard": pa.array(shard_codes(k, num_partitions), pa.int64()),
        })

    edges_tagged = edges.map_batches(tag_edges, **_PA_KW).materialize()

    for _ in range(iters):
        # scalar dangling mass: per-block partial sums, tiny driver fold
        def dang_partial(t: pa.Table) -> pa.Table:
            m = pc.equal(t.column("_pr_deg"), 0)
            s = pc.sum(pc.if_else(m, t.column("_pr_rank"), 0.0)).as_py()
            return pa.table({"_s": pa.array([s or 0.0], pa.float64())})

        dmass = float(sum(
            collect_table(state.map_batches(dang_partial, **_PA_KW))
            .column("_s").to_pylist()) or 0.0)

        def tag_shares(t: pa.Table) -> pa.Table:
            # sinks (deg 0) carry share 0.0 — they have no outgoing
            # edges, so no edge row ever looks their share up
            k = t.column("_pr_node").combine_chunks()
            deg = pc.cast(t.column("_pr_deg"), pa.float64())
            sink = pc.equal(deg, 0.0)
            share = pc.if_else(
                sink, 0.0,
                pc.divide(t.column("_pr_rank"),
                          pc.if_else(sink, 1.0, deg)))
            return pa.table({
                "_k": k,
                "_dst": pa.nulls(t.num_rows, pa.string()),
                "_val": share,
                "_deg": pa.nulls(t.num_rows, pa.int64()),
                "_side": pa.array(["s"] * t.num_rows, pa.string()),
                "_shard": pa.array(shard_codes(k, num_partitions),
                                   pa.int64()),
            })

        def lookup_shard(g: pa.Table) -> pa.Table:
            # co-located by hash(key): resolve each edge's src share
            # with one index_in, pre-sum per dst within the shard
            is_s = pc.equal(g.column("_side"), "s")
            sh = g.filter(is_s)
            eg = g.filter(pc.invert(is_s))
            if eg.num_rows == 0 or sh.num_rows == 0:
                return pa.table({"_pr_dst": pa.array([], pa.string()),
                                 "_pr_c": pa.array([], pa.float64())})
            si = pc.index_in(eg.column("_k"),
                             value_set=sh.column("_k").combine_chunks())
            vals = sh.column("_val").combine_chunks().take(si)
            agged = pa.table({"_pr_dst": eg.column("_dst"), "_pr_c": vals}) \
                .group_by(["_pr_dst"], use_threads=False) \
                .aggregate([("_pr_c", "sum")])
            # rebuild by NAME (aggregate output column order is
            # pyarrow-version-dependent)
            return pa.table({"_pr_dst": agged.column("_pr_dst"),
                             "_pr_c": agged.column("_pr_c_sum")})

        both = edges_tagged.union(state.map_batches(tag_shares, **_PA_KW))
        contrib = build_op({
            "op": "group_agg", "keys": ["_pr_dst"],
            "aggs": [("sum", "_pr_c", "_pr_c")],
        })(both.groupby("_shard").map_groups(lookup_shard,
                                             batch_format="pyarrow"))

        def tag_state(t: pa.Table) -> pa.Table:
            k = t.column("_pr_node").combine_chunks()
            return pa.table({
                "_k": k,
                "_val": t.column("_pr_rank"),
                "_deg": t.column("_pr_deg"),
                "_side": pa.array(["n"] * t.num_rows, pa.string()),
                "_shard": pa.array(shard_codes(k, num_partitions),
                                   pa.int64()),
            })

        def tag_contrib(t: pa.Table) -> pa.Table:
            k = pc.cast(t.column("_pr_dst"), pa.string()).combine_chunks()
            return pa.table({
                "_k": k,
                "_val": t.column("_pr_c"),
                "_deg": pa.nulls(t.num_rows, pa.int64()),
                "_side": pa.array(["c"] * t.num_rows, pa.string()),
                "_shard": pa.array(shard_codes(k, num_partitions),
                                   pa.int64()),
            })

        def fold_shard(g: pa.Table, _dm=dmass) -> pa.Table:
            is_n = pc.equal(g.column("_side"), "n")
            nd = g.filter(is_n)
            cb = g.filter(pc.invert(is_n))
            ci = pc.index_in(nd.column("_k"),
                             value_set=cb.column("_k").combine_chunks())
            c = pc.fill_null(
                cb.column("_val").combine_chunks().take(ci)
                if cb.num_rows else pa.nulls(nd.num_rows, pa.float64()),
                0.0)
            rank = pc.add(pc.multiply(pc.add(c, _dm / n), damping), base)
            return pa.table({
                "_pr_node": nd.column("_k"),
                "_pr_deg": nd.column("_deg"),
                "_pr_rank": rank,
            })

        folded = state.map_batches(tag_state, **_PA_KW) \
            .union(contrib.map_batches(tag_contrib, **_PA_KW))
        state = folded.groupby("_shard") \
            .map_groups(fold_shard, batch_format="pyarrow").materialize()

    def fin(t: pa.Table) -> pa.Table:
        return pa.table({node_out: t.column("_pr_node"),
                         out: t.column("_pr_rank")})

    return state.map_batches(fin, **_PA_KW)

"""DSIR — Data Selection via Importance Resampling (Xie et al. 2023,
arXiv:2302.03169): score every raw document by how target-like its
hashed n-gram profile is, then resample with Gumbel top-k.

Scale shape:

- the TARGET corpus is the small, high-quality set (the method's
  premise) — its hashed-feature probability vector is built driver-
  side under a loud size guard and never re-shipped (only the final
  dim-length log-ratio vector is broadcast, ``ray.put`` once);
- the RAW corpus distribution needs one streaming pass: per-batch
  sparse bucket-count partials (≤ ``dim`` rows each) + ONE keyed sum
  on ≤ ``dim`` bucket keys — the driver materializes only the
  dim-length count vector, never documents;
- per-doc scoring is a second streaming pass: one ``np.bincount``
  with the broadcast log-ratio vector as weights — zero exchange;
- selection (``gumbel_topk_sample``) is the Efraimidis–Spirakis /
  Gumbel-key trick for distributed weighted sampling WITHOUT
  replacement: per-batch top-k partials, one tiny final reduce.
  Deterministic: the Gumbel noise is a splitmix64 hash of
  (seed, id), not an RNG stream, so the sample is independent of
  block order and parallelism.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op
from rayflow.ops.kernels import _fetch

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)

_FNV = np.uint64(1099511628211)


def _flat_tokens(col, lowercase: bool):
    """Arrow text column → (token codes, doc index, dictionary values,
    n_docs).  One whitespace split + dictionary encode; empty edge
    tokens dropped (matching str.split)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    text = pc.fill_null(col, "")
    if lowercase:
        text = pc.utf8_lower(text)
    toks = pc.utf8_split_whitespace(text)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    denc = flat.dictionary_encode()
    denc = denc.combine_chunks() if isinstance(denc, pa.ChunkedArray) else denc
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    values = denc.dictionary
    doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
    if len(values):
        nonempty = pc.not_equal(values, "").to_numpy(zero_copy_only=False)
        keep = nonempty[codes]
        codes, doc_idx = codes[keep], doc_idx[keep]
    return codes, doc_idx, values, n


def feature_buckets(col, *, dim: int, ngrams: tuple[int, ...] = (1, 2),
                    lowercase: bool = True):
    """Hashed n-gram feature stream for a batch of documents: returns
    ``(bucket ids int64 in [0, dim), doc index int64, n_docs)`` with
    multiplicity (DSIR counts occurrences, not presence).  Token hash
    = crc32 once per unique token; n-gram hash = the same Horner
    combine as curation._ngram_hashes; bucket = hash % dim."""
    codes, doc_idx, values, n = _flat_tokens(col, lowercase)
    if len(codes) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), n
    tok_hash = np.array(
        [zlib.crc32(v.encode("utf-8", "surrogatepass"))
         for v in values.to_pylist()],
        dtype=np.uint64)
    h_tok = tok_hash[codes]
    bks, dks = [], []
    for g in ngrams:
        m = len(h_tok) - g + 1
        if m <= 0:
            continue
        out = np.zeros(m, dtype=np.uint64)
        for j in range(g):
            out += h_tok[j:j + m] * _FNV ** np.uint64(g - 1 - j)
        same_doc = doc_idx[:m] == doc_idx[g - 1:len(doc_idx) - g + 1 + (g - 1)]
        bks.append((out[same_doc] % np.uint64(dim)).astype(np.int64))
        dks.append(doc_idx[:m][same_doc])
    if not bks:
        return np.empty(0, np.int64), np.empty(0, np.int64), n
    return np.concatenate(bks), np.concatenate(dks), n


def _target_log_probs(target_tbl: pa.Table, text_col: str, dim: int,
                      ngrams, lowercase: bool, alpha: float) -> np.ndarray:
    b, _, _ = feature_buckets(target_tbl.column(text_col), dim=dim,
                              ngrams=ngrams, lowercase=lowercase)
    c = np.bincount(b, minlength=dim).astype(np.float64)
    return np.log((c + alpha) / (c.sum() + alpha * dim))


@register_op("dsir_weights")
def build_dsir_weights(*, target, text_col: str = "text",
                       dim: int = 10_000, ngrams: tuple = (1, 2),
                       lowercase: bool = True, alpha: float = 0.01,
                       out: str = "dsir_logw",
                       target_bytes_limit: int = 256 << 20):
    """Append the DSIR log importance weight ``log p_target(doc) −
    log p_raw(doc)`` under the hashed n-gram bag model.  ``target`` is
    the small in-domain corpus (pa.Table / pandas with ``text_col``).
    See module docstring for the two-pass plan."""
    import ray

    tgt = target if isinstance(target, pa.Table) else pa.Table.from_pandas(
        target, preserve_index=False)
    if tgt.nbytes > target_bytes_limit:
        raise ValueError(
            f"dsir_weights: target corpus is {tgt.nbytes >> 20} MiB "
            f"(> {target_bytes_limit >> 20} MiB). DSIR's target is the "
            f"SMALL high-quality set; its feature vector is built "
            f"driver-side. Subsample the target or raise the limit")
    ngrams_t = tuple(int(g) for g in ngrams)
    log_pt = _target_log_probs(tgt, text_col, dim, ngrams_t, lowercase, alpha)

    def apply(ds):
        # pass 1: raw-corpus feature counts — sparse per-batch partials,
        # ONE keyed sum over <= dim bucket keys, dim-length driver vector
        def partial(t: pa.Table) -> pa.Table:
            b, _, _ = feature_buckets(t.column(text_col), dim=dim,
                                      ngrams=ngrams_t, lowercase=lowercase)
            if len(b) == 0:
                return pa.table({"bucket": pa.array([], pa.int64()),
                                 "n": pa.array([], pa.int64())})
            c = np.bincount(b, minlength=dim)
            nz = np.flatnonzero(c)
            return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                             "n": pa.array(c[nz].astype(np.int64))})

        agg = ds.map_batches(partial, **_PA_KW).groupby("bucket").sum("n")
        raw_c = np.zeros(dim, dtype=np.float64)
        for b in agg.iter_batches(batch_format="pyarrow"):
            raw_c[b["bucket"].to_numpy(zero_copy_only=False)] += \
                b.column(1).to_numpy(zero_copy_only=False)
        log_pr = np.log((raw_c + alpha) / (raw_c.sum() + alpha * dim))

        ratio_ref = ray.put((log_pt - log_pr).astype(np.float64))

        # pass 2: per-doc score — one bincount, zero exchange
        def score(t: pa.Table) -> pa.Table:
            r = _fetch(ratio_ref, lambda v: v)
            b, didx, n = feature_buckets(t.column(text_col), dim=dim,
                                         ngrams=ngrams_t,
                                         lowercase=lowercase)
            logw = np.bincount(didx, weights=r[b], minlength=n) \
                if len(b) else np.zeros(n)
            return t.append_column(out, pa.array(logw, pa.float64()))

        return ds.map_batches(score, **_PA_KW)

    return apply


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & np.uint64(0xFFFFFFFFFFFFFFFF)
    z = x
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


@register_op("gumbel_topk_sample")
def build_gumbel_topk_sample(*, k: int, weight_col: str, id_col: str,
                             seed: int = 42, log_weights: bool = True,
                             k_limit: int = 10_000_000):
    """Weighted sampling WITHOUT replacement: keep the k rows with the
    largest ``logw + Gumbel(seed, id)`` key (Gumbel top-k == sampling
    proportional to weight without replacement; Efraimidis–Spirakis by
    exponential race is the same trick).  Noise is a splitmix64 hash
    of (seed, id) — deterministic, independent of block order and
    parallelism.  Per-batch top-k partials, one final tiny reduce;
    ``k`` is driver-bounded (loud ``k_limit``)."""
    if k > k_limit:
        raise ValueError(
            f"gumbel_topk_sample: k={k} > k_limit={k_limit} — the final "
            f"reduce holds k rows; for larger samples use the salted-"
            f"threshold sampler (op 'sample'), which never concentrates")

    def keyed(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = t.column(weight_col).to_numpy(zero_copy_only=False).astype(
            np.float64)
        h = _splitmix64(ids.view(np.uint64) ^ _splitmix64(
            np.full(len(ids), np.uint64(seed))))
        u = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        u = np.clip(u, 1e-300, 1.0 - 1e-16)
        gumbel = -np.log(-np.log(u))
        logw = w if log_weights else np.log(np.clip(w, 1e-300, None))
        return t.append_column("_gumbel_key",
                               pa.array(logw + gumbel, pa.float64()))

    def batch_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        key = t.column("_gumbel_key").to_numpy(zero_copy_only=False)
        top = np.argpartition(-key, k - 1)[:k]
        return t.take(pa.array(np.sort(top)))

    def final_topk(t: pa.Table) -> pa.Table:
        if t.num_rows > k:
            key = t.column("_gumbel_key").to_numpy(zero_copy_only=False)
            top = np.argpartition(-key, k - 1)[:k]
            t = t.take(pa.array(np.sort(top)))
        return t.drop_columns(["_gumbel_key"])

    def apply(ds):
        partials = ds.map_batches(keyed, **_PA_KW) \
                     .map_batches(batch_topk, **_PA_KW)
        return partials.repartition(1).map_batches(
            final_topk, batch_size=None, **_PA_KW)

    return apply

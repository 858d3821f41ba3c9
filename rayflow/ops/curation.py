"""Corpus-curation operators for LLM training-data pipelines.

The filters a 100 TB pre-training corpus actually runs beyond dedup /
language-ID (rayflow.ops.textops, rayflow.ops.dedup):

- :func:`build_pii_redact` — vectorized regex redaction of emails / IP
  addresses / phone numbers (``pc.replace_substring_regex``; RE2, the
  same regex engine DuckDB uses, so the SQL oracle is exact).
- :func:`build_gopher_quality` — Gopher-style repetition metrics per
  document (duplicate-word fraction, top-word fraction, stopword
  fraction, top-bigram fraction) — one flat dictionary-encoded pass per
  batch, no Python per-row loop.
- :func:`build_decontaminate` — benchmark-overlap flagging (the
  test-set decontamination step): the benchmark set is tiny relative to
  the corpus, so it is broadcast once (``ray.put``) and every batch is
  checked vectorized.  ``mode="substring"`` matches exact benchmark
  snippets (SQL-oracle-able); ``mode="ngram"`` is the GPT-3-style
  n-gram-collision path (flat token-hash windows, ``np.isin`` against
  the sorted benchmark hash set) that scales to long documents.
- :func:`build_ngram_topk` — corpus-wide top-k word n-grams: per-batch
  partial counts (np.unique over code windows) → one small keyed
  combine → top-k.  The exchange carries only (ngram, partial_count)
  rows, never the token stream.

All stages stream; nothing materializes the corpus driver-side.
Reference anchor: upstream Benthos has no corpus-curation plane — these
re-express the published Gopher/C4/GPT-3 data-pipeline stages
(SURVEY.md "beyond the reference" table) Ray-Data-first.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op
from rayflow.ops.joins import _fetch
from rayflow.ops.kernels import shard_exchange

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)

#: redaction patterns, applied in order.  RE2 syntax only (works
#: identically in pyarrow and DuckDB's regexp_replace).
PII_PATTERNS: list[tuple[str, str, str]] = [
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d{7,15}", "<PHONE>"),
]


@register_op("pii_redact")
def build_pii_redact(*, column: str = "text", out: str | None = None,
                     kinds: tuple = ("email", "ipv4", "phone")):
    """Replace PII spans with typed placeholders, fully vectorized."""
    pats = [(p, r) for name, p, r in PII_PATTERNS if name in kinds]

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            col = t.column(column)
            for pat, repl in pats:
                col = pc.replace_substring_regex(col, pat, repl)
            name = out or column
            if name in t.column_names:
                return t.set_column(t.column_names.index(name), name, col)
            return t.append_column(name, col)

        return ds.map_batches(fn, **_PA_KW)

    return apply


#: English stopword seed list (public common-word list, truncated) —
#: shared with the SQL oracle, so keep in sync with queries.py.
STOPWORDS_EN = ("the", "and", "of", "to", "a", "in", "is", "that", "it", "for")


def _tokenize_codes(t: pa.Table, column: str):
    """Lowercase space-split a string column into a flat
    dictionary-encoded token stream.

    Returns (codes int64 flat array, doc_idx int64 per token,
    dict_values StringArray, n_docs).  Empty tokens (consecutive /
    edge spaces) are dropped — mirrors the SQL oracle's
    ``list_filter(string_split(lower(text),' '), x -> x <> '')``.
    """
    toks = pc.split_pattern(pc.utf8_lower(t.column(column)), " ")
    la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    counts = pc.list_value_length(la).fill_null(0).to_numpy(zero_copy_only=False)
    flat = la.flatten()
    denc = pc.dictionary_encode(flat)
    denc = denc.combine_chunks() if isinstance(denc, pa.ChunkedArray) else denc
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    values = denc.dictionary
    doc_idx = np.repeat(np.arange(t.num_rows, dtype=np.int64), counts)
    nonempty = pc.not_equal(values, "").to_numpy(zero_copy_only=False)
    keep = nonempty[codes]
    return codes[keep], doc_idx[keep], values, t.num_rows


@register_op("gopher_quality")
def build_gopher_quality(*, column: str = "text",
                         stopwords: tuple = STOPWORDS_EN):
    """Gopher-style repetition/quality metrics per document.

    Emits: n_words, n_unique_words, dup_word_frac, top_word_frac,
    stopword_frac (all SQL-oracle-checked) and top_bigram_frac
    (engine-only; the published filter thresholds it at ~0.2).
    Ratios are raw IEEE doubles — bit-identical to the oracle's
    CAST(x AS DOUBLE)/CAST(y AS DOUBLE).
    """

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            if n == 0:
                return t
            codes, doc_idx, values, _ = _tokenize_codes(t, column)
            n_words = np.bincount(doc_idx, minlength=n).astype(np.int64)
            # per-(doc, word) counts via one sort-free np.unique pass on
            # a combined 64-bit key: doc * V + code (V = dict size)
            V = np.int64(len(values) + 1)
            combined = doc_idx * V + codes
            uniq, cnts = np.unique(combined, return_counts=True)
            udoc = uniq // V
            n_unique = np.bincount(udoc, minlength=n).astype(np.int64)
            # per-doc max word count: uniq is sorted so doc segments are
            # contiguous — reduceat at each doc's first position
            max_c = np.zeros(n, dtype=np.int64)
            if len(uniq):
                starts = np.flatnonzero(np.diff(udoc, prepend=udoc[0] - 1))
                max_c[udoc[starts]] = np.maximum.reduceat(cnts, starts)
            # stopword hits: membership computed once on the DICTIONARY
            # (unique strings), then gathered per token
            stop_mask = pc.is_in(
                values, value_set=pa.array(list(stopwords))
            ).to_numpy(zero_copy_only=False)
            stop_tok = stop_mask[codes]
            stop_c = np.bincount(doc_idx[stop_tok], minlength=n).astype(np.int64)
            # top bigram fraction (engine-only): windows pairing token i
            # with i+1, masked where the pair crosses a doc boundary
            top_bg = np.zeros(n, dtype=np.int64)
            if len(codes) > 1:
                same = doc_idx[:-1] == doc_idx[1:]
                bg = (codes[:-1] * V + codes[1:])[same]
                bdoc = doc_idx[:-1][same]
                bu, bc = np.unique(bdoc * (V * V) + bg, return_counts=True)
                bud = bu // (V * V)
                if len(bu):
                    bs = np.flatnonzero(np.diff(bud, prepend=bud[0] - 1))
                    top_bg[bud[bs]] = np.maximum.reduceat(bc, bs)
            nw = n_words.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                dup_frac = 1.0 - n_unique.astype(np.float64) / nw
                top_frac = max_c.astype(np.float64) / nw
                stop_frac = stop_c.astype(np.float64) / nw
                n_bigrams = np.maximum(n_words - 1, 1).astype(np.float64)
                top_bg_frac = top_bg.astype(np.float64) / n_bigrams
            for name, col, typ in [
                ("n_words", n_words, pa.int64()),
                ("n_unique_words", n_unique, pa.int64()),
                ("dup_word_frac", dup_frac, pa.float64()),
                ("top_word_frac", top_frac, pa.float64()),
                ("stopword_frac", stop_frac, pa.float64()),
                ("top_bigram_frac", top_bg_frac, pa.float64()),
            ]:
                t = t.append_column(name, pa.array(col, typ))
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


def _ngram_hashes(codes: np.ndarray, doc_idx: np.ndarray, n: int,
                  n_docs: int, values) -> tuple[np.ndarray, np.ndarray]:
    """Word n-gram hashes over a flat token-code stream.

    Token hash = crc32 of the token string (computed once per DICTIONARY
    entry, gathered per token); n-gram hash = polynomial combine of the
    n token hashes in Z_2^64 — n shifted vectorized passes, the same
    flat-window trick as textops.rolling_min_batch.  Windows crossing a
    document boundary are dropped.  Returns (hashes, window_doc_idx).
    """
    import zlib

    tok_hash = np.array(
        [zlib.crc32(v.encode("utf-8", "surrogatepass")) for v in values.to_pylist()],
        dtype=np.uint64,
    )
    h_tok = tok_hash[codes] if len(codes) else np.empty(0, dtype=np.uint64)
    m = len(h_tok) - n + 1
    if m <= 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    out = np.zeros(m, dtype=np.uint64)
    base = np.uint64(1099511628211)  # FNV prime
    for j in range(n):
        out += h_tok[j : j + m] * base ** np.uint64(n - 1 - j)
    same_doc = doc_idx[: m] == doc_idx[n - 1 :]
    return out[same_doc], doc_idx[:m][same_doc]


def _window_hash_candidates(text, snips, k: int = 8,
                            base: int = 257) -> np.ndarray:
    """Rows that MIGHT contain one of ``snips``: Karp-Rabin hashes of
    every ``k``-byte window of the batch (one flat vectorized stream,
    as in textops.rolling_min_batch) tested against the snippets'
    prefix-hash set.  False positives allowed (caller exact-confirms);
    false negatives impossible — a snippet occurrence implies its
    k-byte prefix occurs, so its window hash appears."""
    enc_snips = [s.encode("utf-8", "surrogatepass") for s in snips]
    if any(len(b) < k for b in enc_snips):
        # a sub-window snippet can't be prefix-hashed: no pruning
        return np.ones(len(text), dtype=bool)
    prefixes = np.unique(np.array(
        [_kgram_hash(b[:k], base) for b in enc_snips], dtype=np.uint64))
    arr = text.combine_chunks() if isinstance(text, pa.ChunkedArray) else text
    texts = arr.to_pylist()
    enc = [b"" if s is None else s.encode("utf-8", "surrogatepass")
           for s in texts]
    lens = np.array([len(b) for b in enc], dtype=np.int64)
    flat = np.frombuffer(b"".join(enc), dtype=np.uint8)
    m = len(flat) - k + 1
    if m <= 0:
        return np.zeros(len(texts), dtype=bool)
    h = np.zeros(m, dtype=np.uint64)
    tmp = np.empty(m, dtype=np.uint64)
    b64 = np.uint64(base)
    for j in range(k):
        np.multiply(flat[j : j + m], b64 ** np.uint64(k - 1 - j),
                    out=tmp, dtype=np.uint64, casting="unsafe")
        h += tmp
    hits = np.isin(h, prefixes)
    if not hits.any():
        return np.zeros(len(texts), dtype=bool)
    # attribute each hit window to the doc holding its start byte
    # (boundary-straddling windows just add false positives)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    docs = np.searchsorted(starts, np.flatnonzero(hits), side="right") - 1
    out = np.zeros(len(texts), dtype=bool)
    out[docs] = True
    return out


def _kgram_hash(b: bytes, base: int) -> int:
    h = 0
    for byte in b:
        h = (h * base + byte) & 0xFFFFFFFFFFFFFFFF
    return h


@register_op("decontaminate")
def build_decontaminate(*, bench, column: str = "text",
                        mode: str = "substring", n: int = 13,
                        snip_len: int = 40, out: str = "contaminated",
                        hash_threshold: int = 32):
    """Flag documents that overlap a benchmark/eval set.

    ``bench``: list of benchmark texts (tiny vs the corpus — the whole
    point of decontamination; broadcast once via ``ray.put``).

    - ``mode="substring"``: contaminated if any benchmark snippet
      (first ``snip_len`` chars) occurs verbatim.  Small benchmark
      sets run one vectorized ``pc.match_substring`` pass per snippet;
      past ``hash_threshold`` snippets the cost per batch would grow
      with the benchmark, so the op switches to a rolling-hash
      prefilter — hash every 8-byte window of the batch (the flat
      vectorized Karp-Rabin from textops), ``np.isin`` against the
      snippet-prefix hash set, and exact-confirm ONLY the candidate
      rows.  Same answer (confirmation is exact), O(bytes) per batch
      independent of benchmark size.  Exactly mirrors the DuckDB
      ``contains()`` oracle either way.
    - ``mode="ngram"``: contaminated if any word ``n``-gram hash
      collides with the benchmark n-gram hash set (GPT-3-style
      13-gram decontamination) — flat vectorized windows + ``np.isin``
      against the sorted broadcast set.
    """
    import ray

    if mode == "substring":
        # entries shorter than snip_len keep their full text as the
        # snippet (min(len, snip_len) implicit in the slice) — dropping
        # them would silently make short eval items un-flaggable; the
        # prefilter already falls back to no-pruning for sub-window snips
        snips = sorted({b[:snip_len] for b in bench if b})
        payload = ray.put(tuple(snips))
    elif mode == "ngram":
        hashes: set = set()
        bt = pa.table({"text": pa.array(
            [b for b in bench if b is not None], pa.string())})
        codes, didx, values, nd = _tokenize_codes(bt, "text")
        h, _ = _ngram_hashes(codes, didx, n, nd, values)
        hashes.update(h.tolist())
        payload = ray.put(np.sort(np.array(sorted(hashes), dtype=np.uint64)))
    else:
        raise ValueError(f"decontaminate: unknown mode {mode!r}")

    def fn(t: pa.Table) -> pa.Table:
        flag = np.zeros(t.num_rows, dtype=bool)
        if mode == "substring":
            snips_l = _fetch(payload, lambda v: v)
            text = t.column(column)
            if len(snips_l) > hash_threshold:
                cand = _window_hash_candidates(text, snips_l)
            else:
                cand = np.ones(t.num_rows, dtype=bool)
            cand_idx = np.flatnonzero(cand)
            if len(cand_idx):
                sub = text.take(pa.array(cand_idx, pa.int64()))
                sub_flag = np.zeros(len(cand_idx), dtype=bool)
                for s in snips_l:
                    hit = pc.fill_null(pc.match_substring(sub, s), False)
                    sub_flag |= hit.to_numpy(zero_copy_only=False)
                    if sub_flag.all():
                        break
                flag[cand_idx] = sub_flag
        else:
            bench_h = _fetch(payload, lambda v: v)
            codes, didx, values, nd = _tokenize_codes(t, column)
            h, hdoc = _ngram_hashes(codes, didx, n, nd, values)
            if len(h):
                hit = np.isin(h, bench_h, assume_unique=False)
                np.logical_or.at(flag, hdoc[hit], True)
        return t.append_column(out, pa.array(flag, pa.bool_()))

    def apply(ds):
        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("ngram_topk")
def build_ngram_topk(*, column: str = "text", n: int = 2, k: int = 20):
    """Corpus-wide top-k word n-grams by occurrence count.

    Per-batch partial counts (the exchange carries (ngram, count) rows,
    never tokens) → keyed combine via group_agg → global top-k.  The
    dataset-analysis stat every corpus report starts with.
    """
    from rayflow.ops import build_op

    def partial(t: pa.Table) -> pa.Table:
        codes, doc_idx, values, nd = _tokenize_codes(t, column)
        if len(codes) < n:
            return pa.table({"ngram": pa.array([], pa.string()),
                             "n_occurrences": pa.array([], pa.int64())})
        m = len(codes) - n + 1
        same = doc_idx[:m] == doc_idx[n - 1 :]
        V = np.int64(len(values) + 1)
        if int(V) ** n >= 2 ** 62:
            # combined int key would overflow (large n × vocab): count
            # on materialized n-gram strings instead — exact, costlier
            cols = [values.take(pa.array(codes[j : j + m][same], pa.int64()))
                    for j in range(n)]
            grams_all = pc.binary_join_element_wise(*cols, " ")
            gt = pa.table({"ngram": grams_all}) \
                .group_by("ngram", use_threads=False) \
                .aggregate([([], "count_all")])
            return pa.table({
                "ngram": gt["ngram"],
                "n_occurrences": pc.cast(gt["count_all"], pa.int64()),
            })
        # combined key over n code positions (V^n checked to fit int64)
        key = codes[:m].copy()
        for j in range(1, n):
            key = key * V + codes[j : j + m]
        key = key[same]
        uniq, cnts = np.unique(key, return_counts=True)
        # decode keys back to the n-gram string via the dictionary:
        # parts come out least-significant-first = last token first
        parts = []
        rem = uniq.copy()
        for _ in range(n):
            parts.append(rem % V)
            rem = rem // V
        tok_cols = [values.take(pa.array(p, pa.int64()))
                    for p in reversed(parts)]
        grams = pc.binary_join_element_wise(*tok_cols, " ")
        return pa.table({
            "ngram": grams,
            "n_occurrences": pa.array(cnts.astype(np.int64), pa.int64()),
        })

    def apply(ds):
        from rayflow.ops.kernels import sum_count_topk

        partials = ds.map_batches(partial, **_PA_KW)
        return sum_count_topk(partials, key_col="ngram",
                              count_col="n_occurrences", k=k)

    return apply


@register_op("stratified_sample")
def build_stratified_sample(*, keys: list[str], n: int, id_col: str,
                            hash_col: str = "_sample_h"):
    """Deterministic per-stratum sample: keep the ``n`` rows with the
    smallest ``md5(id)`` per key group — reproducible across runs and
    engines (the SQL oracle ranks by the same md5), unlike
    ``Dataset.random_sample``.

    Scale shape: a per-BATCH top-n partial first (each batch emits at
    most n rows per stratum it sees), so the keyed exchange carries
    O(n × strata × batches) rows, never the corpus; a final per-group
    top-n finishes.  The rank hash is the vectorized single-block MD5
    kernel (kernels.md5_rank64) carried as two uint64 columns whose
    (hi, lo) order equals hexdigest order — no per-row hashlib loop.
    The corpus-subsampling quota step (per-source / per-language caps)
    of a training-data pipeline."""
    from rayflow.ops import build_op
    from rayflow.ops.kernels import md5_rank64

    h_hi, h_lo = hash_col + "_hi", hash_col + "_lo"

    def add_hash(t: pa.Table) -> pa.Table:
        ids = t.column(id_col)
        if not (pa.types.is_string(ids.type) or pa.types.is_binary(ids.type)
                or pa.types.is_large_string(ids.type)):
            ids = pc.cast(ids, pa.string())  # SQL oracle hashes the VARCHAR
        hi, lo = md5_rank64(
            ids.combine_chunks() if isinstance(ids, pa.ChunkedArray) else ids)
        return (t.append_column(h_hi, pa.array(hi, pa.uint64()))
                 .append_column(h_lo, pa.array(lo, pa.uint64())))

    def topn(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas()
        df = (df.sort_values([h_hi, h_lo, id_col])
                .groupby(list(keys), sort=False, dropna=False).head(n))
        return pa.Table.from_pandas(df, preserve_index=False)

    def partial(t: pa.Table) -> pa.Table:
        return topn(add_hash(t))

    def apply(ds):
        # partials are ≤ n rows per (stratum, batch) BY CONSTRUCTION, so
        # the finish never needs a keyed shuffle: one repartition(1)
        # task re-runs the same top-n over the concatenated partials
        # (same trick as group_agg's small-combine path)
        partials = ds.map_batches(partial, **_PA_KW)
        out = partials.repartition(1).map_batches(
            topn, batch_size=None, **_PA_KW)
        return out.drop_columns([h_hi, h_lo])

    return apply


def _cap_kernel(t: pa.Table, key_col: str, order_col: str, n: int,
                descending: bool) -> pa.Table:
    """Keep the ``n`` first rows per key by ``order_col`` — vectorized:
    dictionary-encode the key (local codes are fine, only equality
    matters), one lexsort, per-group rank via run starts, take.
    Original row order within the table is preserved."""
    from rayflow.ops.kernels import group_codes

    if t.num_rows == 0:
        return t
    codes = group_codes(t.column(key_col))
    order = t.column(order_col).to_numpy(zero_copy_only=False)
    if descending:
        if not np.issubdtype(order.dtype, np.number):
            raise ValueError("group_cap: descending requires a numeric "
                             f"order col, got {order.dtype}")
        order = -order
    o = np.lexsort((order, codes))
    ks = codes[o]
    starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
    runlen = np.diff(np.concatenate((starts, [len(ks)])))
    rank = np.arange(len(ks), dtype=np.int64) - np.repeat(starts, runlen)
    keep = o[rank < n]
    keep.sort()
    return t.take(pa.array(keep))


@register_op("group_cap")
def build_group_cap(*, key_col: str, order_col: str, n: int,
                    descending: bool = False):
    """Per-key row cap: keep at most ``n`` rows per ``key_col``, the
    ones FIRST by ``order_col`` — the per-domain / per-source document
    cap of a web-scale curation pipeline (bound any one host's share
    of the corpus).  Deterministic iff ``order_col`` is unique within
    a key (ties at the cut are broken arbitrarily); pass the crawl
    timestamp or doc id.

    Scale shape (same combiner discipline as stratified_sample, but
    with a SHARDED finish so millions of keys never funnel through one
    task): a per-batch cap first — a row outside its batch-local top-n
    cannot be in the global top-n, so each batch forwards ≤ n rows per
    key it sees — then ONE keyed exchange over coarse ``hash(key)``
    shards, each shard re-running the identical vectorized kernel over
    all its keys at once (no per-key group tasks, no single-task
    finish)."""
    def cap(t: pa.Table) -> pa.Table:
        return _cap_kernel(t, key_col, order_col, n, descending)

    return lambda ds: shard_exchange(ds.map_batches(cap, **_PA_KW),
                                     key_col, cap)


def _salted_hash64(t: pa.Table, id_col: str, salt: str):
    """(hi, lo) uint64 of md5(salt || str(id)) — the engine-portable
    deterministic rank: DuckDB's ``substr(md5(salt || CAST(id AS
    VARCHAR)), 1, 16)`` hex compares identically to ``hi``."""
    from rayflow.ops.kernels import md5_rank64

    ids = t.column(id_col)
    if not (pa.types.is_string(ids.type) or pa.types.is_large_string(ids.type)):
        ids = pc.cast(ids, pa.string())
    salted = pc.binary_join_element_wise(
        pa.scalar(salt, pa.string()), ids, pa.scalar("", pa.string()))
    return md5_rank64(
        salted.combine_chunks() if isinstance(salted, pa.ChunkedArray)
        else salted)


@register_op("weighted_mix")
def build_weighted_mix(*, sources: list[dict], id_col: str = "doc_id"):
    """Corpus mixing by per-source sampling rates — the pre-training
    data-mixing step (e.g. web 0.6, books 1.0, code 0.8).  Each source
    is ``{"ds": Dataset, "rate": float in [0, 1], "salt": str}``; a row
    survives iff ``md5(salt || id)``'s leading 64 bits fall below
    ``rate * 2^64`` — deterministic, engine-portable (the SQL oracle
    compares the hex prefix to the same threshold), and independent
    across sources when their salts differ.

    Pure map + union: the filter runs inside ``map_batches`` per
    source (vectorized single-block MD5 kernel), the union is Ray's
    zero-shuffle concatenation — nothing materializes, no exchange."""

    def one(src):
        rate = float(src["rate"])
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"weighted_mix: rate must be in [0,1], "
                             f"got {rate}")
        salt = src.get("salt", "mix")
        if rate >= 1.0:
            return src["ds"]
        # rates that ROUND to 1.0 in float (e.g. 1 - 2^-60) would
        # overflow uint64 — clamp to the max representable threshold
        thresh = np.uint64(min(int(rate * float(1 << 64)), (1 << 64) - 1))

        def filt(t: pa.Table) -> pa.Table:
            hi, _ = _salted_hash64(t, id_col, salt)
            return t.filter(pa.array(hi < thresh))

        return src["ds"].map_batches(filt, **_PA_KW)

    def apply(ds):
        # ds is the FIRST source's dataset by pipeline convention; the
        # op is usually invoked standalone with sources=[...] only
        parts = [one(s) for s in sources]
        out = parts[0]
        return out.union(*parts[1:]) if len(parts) > 1 else out

    return apply


@register_op("global_shuffle")
def build_global_shuffle(*, id_col: str = "doc_id", salt: str = "epoch0",
                         out: str = "shuffle_pos", n_buckets: int = 1024):
    """Deterministic global shuffle with EXACT global positions: every
    row gets ``out`` = its row_number (0-based) in ``md5(salt || id)``
    order — the reproducible epoch ordering of a training pipeline
    (new salt per epoch, same data → same order on any cluster size).

    Ray Data has no global-index primitive, so positions come from the
    same bucketed prefix-sum as pack_chunks: the hash's top bits give
    ``n_buckets`` ORDER-ALIGNED buckets (bucket i's hashes all sort
    before bucket i+1's), a tiny per-bucket count table is prefix-
    summed on the driver (n_buckets rows, never the corpus) and
    broadcast; each bucket then sorts its own rows by (hi, lo, id) and
    assigns ``offset + arange``.  ONE keyed exchange over the bucket
    id; no global sort machinery."""
    import ray

    shift = np.uint64(64 - int(np.log2(n_buckets)))
    if (1 << (64 - int(shift))) != n_buckets:
        raise ValueError("global_shuffle: n_buckets must be a power of 2")

    def apply(ds):
        def partial_counts(t: pa.Table) -> pa.Table:
            hi, _ = _salted_hash64(t, id_col, salt)
            b = (hi >> shift).astype(np.int64)
            uniq, cnt = np.unique(b, return_counts=True)
            return pa.table({"bucket": pa.array(uniq, pa.int64()),
                             "n": pa.array(cnt.astype(np.int64), pa.int64())})

        agg: dict[int, int] = {}
        for r in ds.map_batches(partial_counts, **_PA_KW).take_all():
            agg[r["bucket"]] = agg.get(r["bucket"], 0) + r["n"]
        offsets: dict[int, int] = {}
        run = 0
        for bk in sorted(agg):
            offsets[bk] = run
            run += agg[bk]
        off_ref = ray.put(offsets)

        def with_key(t: pa.Table) -> pa.Table:
            hi, lo = _salted_hash64(t, id_col, salt)
            return (t.append_column("_gs_hi", pa.array(hi, pa.uint64()))
                     .append_column("_gs_lo", pa.array(lo, pa.uint64()))
                     .append_column("_gs_bucket",
                                    pa.array((hi >> shift).astype(np.int64),
                                             pa.int64())))

        def rank_bucket(g: pa.Table) -> pa.Table:
            offs = _fetch(off_ref, lambda v: v)
            hi = g.column("_gs_hi").to_numpy(zero_copy_only=False)
            lo = g.column("_gs_lo").to_numpy(zero_copy_only=False)
            ids = g.column(id_col).to_numpy(zero_copy_only=False)
            order = np.lexsort((ids, lo, hi))
            pos = np.empty(len(order), np.int64)
            base = offs[int(g.column("_gs_bucket")[0].as_py())]
            pos[order] = base + np.arange(len(order), dtype=np.int64)
            return g.append_column(out, pa.array(pos, pa.int64())) \
                    .drop_columns(["_gs_hi", "_gs_lo", "_gs_bucket"])

        keyed = ds.map_batches(with_key, **_PA_KW)
        return keyed.groupby("_gs_bucket").map_groups(
            rank_bucket, batch_format="pyarrow")

    return apply


@register_op("pack_chunks")
def build_pack_chunks(*, size_col: str, capacity: int, order_col: str,
                      out: str = "chunk_id", bucket_rows: int = 4096):
    """Sequence packing by concat-and-chunk: documents are laid out in
    ``order_col`` order and cut into chunks of ``capacity`` size units
    (the GPT-style pre-training packing step); each row gets the chunk
    id its FIRST unit lands in: ``chunk = cum_before // capacity``.

    The global running total is a distributed prefix-sum, which Ray
    Data has no primitive for.  Two passes, no batch-alignment
    assumption (batches may split differently between passes):

    1. bucket rows by ``order_col // bucket_rows`` and compute per-
       bucket size sums inside ``map_batches`` (keyed partials — a few
       rows per batch); the driver prefix-sums the tiny bucket table
       and broadcasts {bucket: exclusive offset}.
    2. ``groupby(bucket).map_groups`` — each bucket is guaranteed
       co-located, so the intra-bucket cumsum (ordered by
       ``order_col``) is local; add the bucket offset.

    At 10^10 rows the bucket table is ~N/bucket_rows rows (driver-side
    prefix over a few million ints); recurse the same trick one level
    if that ever grows past driver memory."""
    import ray

    from rayflow.ops import build_op

    def bucket_partial(t: pa.Table) -> pa.Table:
        order = t.column(order_col).to_numpy(zero_copy_only=False)
        size = t.column(size_col).to_numpy(zero_copy_only=False)
        b = (order // bucket_rows).astype(np.int64)
        uniq, inv = np.unique(b, return_inverse=True)
        sums = np.bincount(inv, weights=size.astype(np.float64))
        return pa.table({
            "bucket": pa.array(uniq, pa.int64()),
            "bsum": pa.array(sums.astype(np.int64), pa.int64()),
        })

    def apply(ds):
        import pandas as pd

        parts = ds.map_batches(bucket_partial, **_PA_KW).take_all()
        agg: dict[int, int] = {}
        for r in parts:
            agg[r["bucket"]] = agg.get(r["bucket"], 0) + r["bsum"]
        offsets: dict[int, int] = {}
        run = 0
        for bk in sorted(agg):
            offsets[bk] = run
            run += agg[bk]
        off_ref = ray.put(offsets)

        def with_bucket(t: pa.Table) -> pa.Table:
            order = t.column(order_col).to_numpy(zero_copy_only=False)
            return t.append_column(
                "_pack_bucket",
                pa.array((order // bucket_rows).astype(np.int64)))

        def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
            offs = _fetch(off_ref, lambda v: v)
            g = g.sort_values(order_col, ignore_index=True)
            sizes = g[size_col].to_numpy()
            before = np.concatenate(([0], np.cumsum(sizes)))[:-1]
            base = offs[int(g["_pack_bucket"].iloc[0])]
            g[out] = (base + before) // capacity
            return g.drop(columns=["_pack_bucket"])

        bds = ds.map_batches(with_bucket, **_PA_KW)
        return bds.groupby("_pack_bucket").map_groups(
            per_bucket, batch_format="pandas")

    return apply


@register_op("c4_line_filter")
def build_c4_line_filter(*, column: str = "text",
                         min_words: int = 3,
                         require_terminal_punct: bool = True,
                         banned_line_words: tuple = ("javascript",),
                         banned_doc_substrings: tuple = ("lorem ipsum", "{"),
                         min_kept_lines: int = 1,
                         keep_stats: bool = True):
    """C4-style line/page cleaning (Raffel et al. 2020, §2.2 "Colossal
    Clean Crawled Corpus" heuristics): keep lines that end in terminal
    punctuation and have ≥ ``min_words`` words, drop lines mentioning
    a banned word (default "javascript", case-insensitive); drop WHOLE
    docs containing a banned substring (default "lorem ipsum", "{") or
    retaining fewer than ``min_kept_lines`` lines.  Docs are rebuilt
    from the surviving lines in order.

    Entirely row-local — one ``map_batches``, ZERO exchange: the line
    split, every per-line predicate, and the doc rebuild all run as
    Arrow kernels on the flattened line array (list offsets → flat
    mask → rebuilt list via adjusted offsets → ``pc.binary_join``).
    No Python touches a row."""

    def fn(t: pa.Table) -> pa.Table:
        txt = pc.fill_null(pc.cast(t.column(column), pa.string()), "")
        low = pc.utf8_lower(txt)
        doc_ok = np.ones(t.num_rows, dtype=bool)
        for sub in banned_doc_substrings:
            doc_ok &= np.invert(
                pc.match_substring(low, sub).to_numpy(zero_copy_only=False))

        lines = pc.split_pattern(txt, "\n")
        lines = lines.combine_chunks() if isinstance(
            lines, pa.ChunkedArray) else lines
        flat = pc.list_flatten(lines)
        n_lines = pc.list_value_length(lines).to_numpy(zero_copy_only=False) \
            .astype(np.int64)

        keep = np.ones(len(flat), dtype=bool)
        if require_terminal_punct:
            rt = pc.utf8_rtrim_whitespace(flat)
            keep &= pc.match_substring_regex(rt, r'[.!?"]$') \
                .to_numpy(zero_copy_only=False)
        if min_words > 0:
            nw = pc.count_substring_regex(flat, r"\S+") \
                .to_numpy(zero_copy_only=False)
            keep &= nw >= min_words
        if banned_line_words:
            fl = pc.utf8_lower(flat)
            for w in banned_line_words:
                keep &= np.invert(
                    pc.match_substring(fl, w).to_numpy(zero_copy_only=False))

        # rebuild per-doc lists from the kept flat lines: new offsets =
        # prefix sum of per-doc kept counts (vectorized via reduceat)
        doc_idx = pc.list_parent_indices(lines).to_numpy(
            zero_copy_only=False).astype(np.int64)
        kept_per_doc = np.zeros(t.num_rows, dtype=np.int64)
        if len(doc_idx):
            np.add.at(kept_per_doc, doc_idx, keep.astype(np.int64))
        new_offsets = np.concatenate(([0], np.cumsum(kept_per_doc)))
        kept_flat = flat.filter(pa.array(keep))
        rebuilt_list = pa.ListArray.from_arrays(
            pa.array(new_offsets, pa.int32()), kept_flat)
        rebuilt = pc.binary_join(rebuilt_list, "\n")

        doc_ok &= kept_per_doc >= min_kept_lines
        mask = pa.array(doc_ok)
        cols = {n: t.column(n) for n in t.column_names if n != column}
        cols[column] = rebuilt
        out = pa.table(cols).filter(mask)
        if keep_stats:
            out = out.append_column(
                "n_lines_kept",
                pa.array(kept_per_doc, pa.int64()).filter(mask)) \
                .append_column(
                "n_lines_dropped",
                pa.array(n_lines - kept_per_doc, pa.int64()).filter(mask))
        return out

    def apply(ds):
        return ds.map_batches(fn, **_PA_KW)

    return apply

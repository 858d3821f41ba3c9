"""Text-analysis operators for large-scale training-data pipelines.

Beyond the reference's operator set (which ends at generic string
processors), these are the document-pipeline stages a 100 TB corpus run
needs: token counting, quality scoring, language ID, fingerprinting.
All per-batch bodies are vectorized Arrow/numpy; the language-ID stage
is the stateful-stage pattern (tables/regexes built once per worker
process in ``__init__``, kept in the ops' per-process memo).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)


#: GPT-2-style pre-tokenizer (public BPE regex, RE2-compatible form:
#: contractions, space-attached letter/digit/punct runs, whitespace).
BPE_TOKEN_RE = (r"'[sdmt]|'ll|'ve|'re"
                r"| ?[\p{L}]+| ?[\p{N}]+| ?[^\s\p{L}\p{N}]+|\s+")


@register_op("token_count")
def build_token_count(*, column: str = "text", out: str = "n_tokens",
                      pattern: str = r"\S+", preset: str | None = None):
    """Token count per document (vectorized regex count).  Default is
    whitespace tokens; ``preset="bpe"`` counts GPT-2-style pre-tokens
    (the training-cost estimator: BPE merges only split WITHIN these,
    so the pre-token count upper-bounds real token spend per doc)."""
    if preset == "bpe":
        pattern = BPE_TOKEN_RE
    elif preset is not None:
        raise ValueError(f"unknown token_count preset {preset!r}")

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            n = pc.count_substring_regex(t.column(column), pattern)
            return t.append_column(out, pc.cast(n, pa.int64()))

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("quality_score")
def build_quality_score(*, column: str = "text"):
    """Heuristic quality metrics per document: char/token counts, mean
    token length, punctuation & digit counts, and a composite score.
    Pure ``pyarrow.compute`` — no Python row loop."""

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            text = t.column(column)
            n_chars = pc.cast(pc.utf8_length(text), pa.int64())
            n_tok = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
            n_punct = pc.cast(pc.count_substring_regex(text, r"[.,;:!?]"), pa.int64())
            n_digit = pc.cast(pc.count_substring_regex(text, r"[0-9]"), pa.int64())
            tok_safe = pc.max_element_wise(n_tok, 1)
            mean_tok_len = pc.divide(
                pc.cast(pc.subtract(pc.add(n_chars, 1), n_tok), pa.float64()),
                pc.cast(tok_safe, pa.float64()),
            )
            # composite: long-enough docs with word-like tokens score high
            score = pc.multiply(
                pc.min_element_wise(
                    pc.divide(pc.cast(n_tok, pa.float64()), 20.0), 1.0
                ),
                pc.if_else(
                    pc.and_(
                        pc.greater_equal(mean_tok_len, 2.0),
                        pc.less_equal(mean_tok_len, 12.0),
                    ),
                    1.0,
                    0.5,
                ),
            )
            for name, col in [
                ("n_chars_q", n_chars), ("n_tokens", n_tok),
                ("n_punct", n_punct), ("n_digits", n_digit),
                ("mean_token_len", mean_tok_len), ("quality", score),
            ]:
                t = t.append_column(name, col)
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


#: seed stopword lists per language (public common-word lists, truncated).
_LANG_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"},
    "de": {"der", "die", "und", "das", "ist", "von", "mit", "den", "nicht", "ein"},
    "fr": {"le", "la", "et", "les", "des", "est", "un", "une", "dans", "que"},
    "es": {"el", "la", "de", "que", "y", "los", "en", "un", "una", "es"},
}


class LangIdScorer:
    """Language-ID stage: stopword-ratio heuristic, fully vectorized.

    The stateful-stage archetype (SURVEY.md §2.6): per-language value
    sets are built ONCE per instance in ``__init__``; ``__call__`` is one
    flat pass — regex-split tokens, dictionary-encode, stopword
    membership computed on the DICTIONARY (unique tokens only), per-doc
    hits via bincount.  Deterministic: pure function of the text; the
    (score, lang-name) argmax tie-break resolves to the LARGEST language
    key, encoded by scanning languages in descending name order
    (np.argmax keeps the first max).  ``lang_conf`` is the raw double
    hits/len — bit-identical to a SQL oracle's CAST(k AS DOUBLE)/n."""

    #: descending name order ⇒ first-max argmax == largest-key tie-break
    LANGS = ("fr", "es", "en", "de")

    def __init__(self):
        self.value_sets = {
            k: pa.array(sorted(v)) for k, v in _LANG_STOPWORDS.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        text = t.column("text")
        if n == 0:
            return t.append_column("lang_pred", pa.array([], pa.string())) \
                    .append_column("lang_conf", pa.array([], pa.float64()))
        null_m = pc.is_null(text).to_numpy(zero_copy_only=False)
        cjk = pc.fill_null(
            pc.match_substring_regex(text, "[一-鿿]"), False
        ).to_numpy(zero_copy_only=False)
        # tokens of the ORIGINAL text (lowercasing first would change the
        # character class), then lowercase the flat stream — mirrors the
        # oracle's regexp_extract_all + list_transform(lower).  Close
        # cousin of curation._tokenize_codes but NOT unifiable: that one
        # lowercases BEFORE a plain-space split (its oracle's
        # string_split(lower(text))), this one regex-splits the original
        # (its oracle's regexp_extract_all(text)) — the two oracles pin
        # different orders of operations
        toks = pc.split_pattern_regex(text, "[^a-zA-Zäöüéèàç]+")
        la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        counts = pc.list_value_length(la).fill_null(0) \
            .to_numpy(zero_copy_only=False)
        flat = pc.utf8_lower(la.flatten())
        denc = pc.dictionary_encode(flat)
        denc = denc.combine_chunks() if isinstance(denc, pa.ChunkedArray) else denc
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        values = denc.dictionary
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), counts)
        nonempty = pc.not_equal(values, "").to_numpy(zero_copy_only=False)
        keep = nonempty[codes] if len(codes) else np.zeros(0, dtype=bool)
        codes, doc_idx = codes[keep], doc_idx[keep]
        n_tok = np.bincount(doc_idx, minlength=n).astype(np.int64)
        scores = np.zeros((len(self.LANGS), n), dtype=np.float64)
        safe = np.maximum(n_tok, 1).astype(np.float64)
        for i, lang in enumerate(self.LANGS):
            member = pc.is_in(values, value_set=self.value_sets[lang]) \
                .to_numpy(zero_copy_only=False)
            hit = member[codes] if len(codes) else np.zeros(0, dtype=bool)
            hits = np.bincount(doc_idx[hit], minlength=n)
            scores[i] = hits / safe
        best_i = np.argmax(scores, axis=0)
        best_s = scores[best_i, np.arange(n)]
        lang_arr = np.array(self.LANGS, dtype=object)
        preds = lang_arr[best_i]
        preds[best_s == 0] = "unknown"
        confs = best_s.copy()
        preds[n_tok == 0] = "unknown"
        confs[n_tok == 0] = 0.0
        preds[cjk] = "zh"
        confs[cjk] = 1.0
        preds = preds.astype(object)
        preds[null_m] = None
        conf_list = [None if null_m[i] else confs[i] for i in range(n)]
        return t.append_column("lang_pred", pa.array(list(preds), pa.string())) \
                .append_column("lang_conf", pa.array(conf_list, pa.float64()))


@register_op("lang_id")
def build_lang_id(*, batch_size: int = 2048):
    """Per-row language id as plain tasks: one :class:`LangIdScorer` per
    worker PROCESS, kept in the ops' per-process memo
    (:func:`rayflow.ops.kernels.memo`) — reusing Ray's warm workers, no
    actor spin-up, which beat ``concurrency=N`` actors by ~1 s of fixed
    latency per execution."""
    from rayflow.ops.kernels import memo

    def apply(ds):
        return ds.map_batches(
            lambda t: memo(LangIdScorer, LangIdScorer)(t),
            batch_size=batch_size, batch_format="pyarrow",
            zero_copy_batch=True,
        )

    return apply


def rolling_hashes(s: str, k: int = 8, base: int = 257) -> np.ndarray:
    """Karp-Rabin rolling hashes of all byte k-grams of ``s`` in
    Z_2^64 (natural uint64 wraparound — fully vectorizable, unlike a
    Mersenne modulus whose intermediate products overflow 64 bits).
    Deterministic: hash(i) = Σ_j byte[i+j] · base^(k-1-j) mod 2^64."""
    if len(s) < k:
        return np.array([hash_bytes(s)], dtype=np.uint64)
    vals = np.frombuffer(
        s.encode("utf-8", "surrogatepass"), dtype=np.uint8
    ).astype(np.uint64)
    n = len(vals) - k + 1
    out = np.zeros(n, dtype=np.uint64)
    b = np.uint64(base)
    # k shifted multiply-adds over the byte vector — O(k·n) vector ops,
    # no per-character Python
    for j in range(k):
        out += vals[j : j + n] * (b ** np.uint64(k - 1 - j))
    return out


def rolling_min_batch(texts, k: int = 8, base: int = 257) -> list[int | None]:
    """Per-doc minimum rolling hash for a whole batch (the 1-perm
    minhash): one flat uint64 pass over the concatenated byte stream,
    windows crossing document boundaries masked to max, segment-min via
    ``np.minimum.reduceat``.  Nulls stay null; docs shorter than ``k``
    fall back to crc32 of the whole doc (same as the scalar path)."""
    enc = [None if s is None else s.encode("utf-8", "surrogatepass")
           for s in texts]
    out: list[int | None] = [None] * len(texts)
    long_idx = [i for i, e in enumerate(enc) if e is not None and len(e) >= k]
    for i, e in enumerate(enc):
        if e is not None and len(e) < k:
            out[i] = int(hash_bytes(texts[i]))
    if not long_idx:
        return out
    blobs = [enc[i] for i in long_idx]
    lens = np.array([len(b) for b in blobs], dtype=np.int64)
    flat = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    n = len(flat) - k + 1
    h = np.zeros(n, dtype=np.uint64)
    tmp = np.empty(n, dtype=np.uint64)
    b64 = np.uint64(base)
    for j in range(k):
        # uint8 slice × uint64 scalar promotes to uint64 (wrapping);
        # out= reuses one temp instead of allocating per pass
        np.multiply(flat[j : j + n], b64 ** np.uint64(k - 1 - j),
                    out=tmp, dtype=np.uint64, casting="unsafe")
        h += tmp
    # mask windows that straddle a doc boundary (the last k-1 start
    # positions of every doc except windows past the flat end)
    valid_counts = lens - k + 1  # ≥1 by construction (len ≥ k)
    mask_max = np.uint64(0xFFFFFFFFFFFFFFFF)
    for d in range(len(blobs) - 1):
        lo = starts[d] + valid_counts[d]
        hi = min(starts[d + 1], n)
        if lo < hi:
            h[lo:hi] = mask_max
    mins = np.minimum.reduceat(h, np.minimum(starts, n - 1))
    for pos, i in enumerate(long_idx):
        out[i] = int(mins[pos])
    return out


def hash_bytes(s: str) -> int:
    import zlib

    return zlib.crc32(s.encode("utf-8", "surrogatepass"))


@register_op("fingerprint")
def build_fingerprint(*, column: str = "text", k: int = 8):
    """Document fingerprint: the MINIMUM of the doc's k-gram rolling
    hashes (a 1-perm minhash — robust to small edits) plus an exact
    content md5.  Deterministic."""

    def apply(ds):
        import hashlib

        def fn(t: pa.Table) -> pa.Table:
            texts = t.column(column).to_numpy(zero_copy_only=False)
            mins = [None if m is None else np.uint64(m).astype(np.int64).item()
                    for m in rolling_min_batch(list(texts), k=k)]
            md5s = [None if s is None else hashlib.md5(s.encode()).hexdigest()
                    for s in texts]
            return t.append_column("fp_rolling_min", pa.array(mins, pa.int64())) \
                    .append_column("fp_md5", pa.array(md5s, pa.string()))

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("ngram_lm_score")
def build_ngram_lm_score(*, text_col: str = "text", id_col: str = "doc_id",
                         out: str = "lm_logprob", alpha: float = 1.0,
                         min_count: int = 1,
                         broadcast_bytes_limit: int = 256 << 20):
    """Corpus-trained bigram language-model quality score per document.

    The classic LM-based quality signal (e.g. CCNet's KenLM perplexity
    filter, public literature) re-expressed with a model TRAINED ON THE
    CORPUS ITSELF in the same pipeline: average add-alpha log-probability
    of each document's bigrams,

        score(d) = mean_i  ln( (c(w_i, w_{i+1}) + alpha)
                             / (c(w_i) + alpha * V) )

    with c(.) corpus-wide token/bigram occurrence counts and V the
    corpus distinct-token count.  Unusually-worded (low-quality, wrong
    language, boilerplate-free gibberish) documents score low; docs
    with < 2 tokens get NULL.  Tokenization is the repo-standard
    lowercase space-split with empty tokens dropped (SQL-oracle
    reproducible).

    Plan — two corpus passes, ONE tiny keyed exchange:

    1. TRAIN: per-batch partial (kind, key, cnt) counts over
       dict-encoded tokens (unigrams and combined-code bigrams in one
       pass) -> ``group_agg`` sum.  The exchange carries vocabulary
       rows, never tokens.  ``min_count`` prunes the model tail — at
       100 TB the full bigram table is corpus-dictionary-sized, so
       real runs set min_count > 1 and the model stays broadcastable
       (the same pruning a KenLM-style filter applies).  A model above
       ``broadcast_bytes_limit`` fails LOUD asking for a higher
       min_count rather than silently OOMing every scorer.
    2. SCORE: model broadcast once via ``ray.put`` (object store, not
       re-shipped per batch); each batch looks keys up with
       ``pc.index_in`` (C hash join) and segment-means per doc with
       ``np.bincount`` — no Python row loop.
    """

    def apply(ds):
        import ray

        from rayflow.ops import build_op
        from rayflow.ops.curation import _tokenize_codes
        from rayflow.ops.kernels import _fetch
        from rayflow.ops.kernels import collect_table

        def count_partial(t: pa.Table) -> pa.Table:
            codes, doc_idx, values, _ = _tokenize_codes(t, text_col)
            empty = pa.table({
                "kind": pa.array([], pa.int8()),
                "key": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            })
            if len(codes) == 0:
                return empty
            uc, ucnt = np.unique(codes, return_counts=True)
            utoks = values.take(pa.array(uc, pa.int64()))
            parts = [pa.table({
                "kind": pa.array(np.zeros(len(uc), np.int8)),
                "key": utoks,
                "cnt": pa.array(ucnt.astype(np.int64)),
            })]
            m = len(codes) - 1
            if m > 0:
                same = doc_idx[:m] == doc_idx[1:]
                V = np.int64(len(values) + 1)
                key = (codes[:m] * V + codes[1:])[same]
                ub, bcnt = np.unique(key, return_counts=True)
                if len(ub):
                    w1 = values.take(pa.array(ub // V, pa.int64()))
                    w2 = values.take(pa.array(ub % V, pa.int64()))
                    parts.append(pa.table({
                        "kind": pa.array(np.ones(len(ub), np.int8)),
                        "key": pc.binary_join_element_wise(w1, w2, " "),
                        "cnt": pa.array(bcnt.astype(np.int64)),
                    }))
            return pa.concat_tables(parts)

        model = build_op({
            "op": "group_agg", "keys": ["kind", "key"],
            "aggs": [("sum", "cnt", "cnt")],
        })(ds.map_batches(count_partial, **_PA_KW))
        if min_count > 1:
            model = model.map_batches(
                lambda t: t.filter(pc.greater_equal(t["cnt"], min_count)),
                **_PA_KW)
        # vocabulary-scale, far smaller than the corpus: pin it in the
        # object store so the size check doesn't re-execute the count
        model = model.materialize()
        size = model.size_bytes()
        if size is not None and size > broadcast_bytes_limit:
            raise ValueError(
                f"ngram_lm_score: pruned model is {size >> 20} MB "
                f"(> broadcast_bytes_limit={broadcast_bytes_limit >> 20} MB);"
                f" raise min_count (currently {min_count}) so the model "
                f"stays broadcastable")
        mt = collect_table(model)
        kind = mt["kind"].to_numpy(zero_copy_only=False)
        uni = mt.filter(pa.array(kind == 0))
        bg = mt.filter(pa.array(kind == 1))
        # degenerate fully-pruned vocabulary: 1.0 keeps the smoothing
        # denominator finite (score 0.0 for every bigram) instead of
        # log-divide-by-zero
        n_vocab = float(uni.num_rows) or 1.0
        model_ref = ray.put({
            "uni_keys": uni["key"].combine_chunks(),
            "uni_cnts": uni["cnt"].to_numpy(zero_copy_only=False)
                .astype(np.float64),
            "bg_keys": bg["key"].combine_chunks(),
            "bg_cnts": bg["cnt"].to_numpy(zero_copy_only=False)
                .astype(np.float64),
        })

        def score(t: pa.Table) -> pa.Table:
            mdl = _fetch(model_ref, lambda v: v)
            codes, doc_idx, values, n_rows = _tokenize_codes(t, text_col)
            lp_sum = np.zeros(n_rows, np.float64)
            lp_n = np.zeros(n_rows, np.int64)
            m = len(codes) - 1
            if m > 0:
                same = doc_idx[:m] == doc_idx[1:]
                w1 = values.take(pa.array(codes[:m][same], pa.int64()))
                w2 = values.take(pa.array(codes[1:][same], pa.int64()))
                bgk = pc.binary_join_element_wise(w1, w2, " ")
                bi = pc.index_in(bgk, value_set=mdl["bg_keys"])
                ui = pc.index_in(w1, value_set=mdl["uni_keys"])
                bi_np = bi.to_numpy(zero_copy_only=False)
                ui_np = ui.to_numpy(zero_copy_only=False)
                # np.where evaluates BOTH branches: when pruning emptied
                # a count table, fancy-indexing index 0 into the
                # zero-length array would IndexError — every lookup is a
                # miss then, so the counts are all zero
                cb = (np.zeros(len(bi_np)) if len(mdl["bg_cnts"]) == 0
                      else np.where(
                          np.isnan(bi_np), 0.0,
                          mdl["bg_cnts"][np.nan_to_num(bi_np).astype(np.int64)]))
                cu = (np.zeros(len(ui_np)) if len(mdl["uni_cnts"]) == 0
                      else np.where(
                          np.isnan(ui_np), 0.0,
                          mdl["uni_cnts"][np.nan_to_num(ui_np).astype(np.int64)]))
                lp = np.log((cb + alpha) / (cu + alpha * n_vocab))
                bdoc = doc_idx[:m][same]
                lp_sum = np.bincount(bdoc, weights=lp, minlength=n_rows)
                lp_n = np.bincount(bdoc, minlength=n_rows)
            with np.errstate(invalid="ignore"):
                mean = lp_sum / lp_n
            return pa.table({
                id_col: t.column(id_col),
                out: pa.array(mean, pa.float64(),
                              mask=(lp_n == 0)),
            })

        return ds.map_batches(score, **_PA_KW)

    return apply


@register_op("profile_columns")
def build_profile_columns(*, columns: list[str],
                          distinct: str = "exact"):
    """Per-column dataset profile: ``(column, n_rows, n_nulls,
    n_distinct, min_str, max_str)`` — the stats every corpus report
    starts with, as one small table.

    Plan: ONE pass for the cheap stats (per-batch partial
    n/nulls/min/max rows, folded on the driver — C×B tiny rows), plus
    the distinct counts:

    - ``distinct="exact"``: per-batch LOCAL dedup (dictionary encode)
      emits (column, value) pairs, one keyed exchange counts distinct
      pairs per column.  The exchange is bounded by Σ per-column
      cardinality — exact, the SQL-oracle mode.
    - ``distinct="approx"``: per-batch HyperLogLog partials via the
      existing ``approx_distinct`` sketch merge — the 100 TB mode
      where a hot column's cardinality is corpus-sized.

    ``min_str``/``max_str`` are the extremes cast to strings (UTF-8
    byte order == SQL binary collation; integer casts are exact)."""

    def apply(ds):
        from rayflow.ops import build_op
        from rayflow.ops.kernels import collect_table

        # per-batch extremes are folded in the column's OWN type (a
        # string fold of numeric extremes would rank '62' above '499');
        # cast to string only after the final fold
        def cheap_partial(t: pa.Table) -> pa.Table:
            rows = []
            for c in columns:
                col = t.column(c)
                n = len(col)
                nulls = col.null_count
                # decimals fold as float64 (numeric order; a string fold
                # would rank '9.00' over '10.00') — documented precision
                # caveat for >2^53 significands
                kind = ("i" if pa.types.is_integer(col.type)
                        else "f" if (pa.types.is_floating(col.type)
                                     or pa.types.is_decimal(col.type))
                        else "s")
                rec = {"column": c, "n_rows": n, "n_nulls": nulls,
                       "kind": kind, "min_i": None, "max_i": None,
                       "min_f": None, "max_f": None,
                       "min_s": None, "max_s": None}
                if n - nulls > 0:
                    mm = pc.min_max(col)
                    lo, hi = mm["min"].as_py(), mm["max"].as_py()
                    if kind == "i":
                        rec["min_i"], rec["max_i"] = int(lo), int(hi)
                    elif kind == "f":
                        rec["min_f"], rec["max_f"] = float(lo), float(hi)
                    else:
                        rec["min_s"], rec["max_s"] = str(lo), str(hi)
                rows.append(rec)
            return pa.Table.from_pylist(rows, schema=pa.schema([
                ("column", pa.string()), ("n_rows", pa.int64()),
                ("n_nulls", pa.int64()), ("kind", pa.string()),
                ("min_i", pa.int64()), ("max_i", pa.int64()),
                ("min_f", pa.float64()), ("max_f", pa.float64()),
                ("min_s", pa.string()), ("max_s", pa.string())]))

        cheap = collect_table(ds.map_batches(cheap_partial, **_PA_KW))

        def distinct_partial(t: pa.Table) -> pa.Table:
            outs = []
            for c in columns:
                u = pc.unique(t.column(c).combine_chunks()
                              if isinstance(t.column(c), pa.ChunkedArray)
                              else t.column(c))
                u = u.drop_null()
                outs.append(pa.table({
                    "column": pa.array([c] * len(u), pa.string()),
                    "value": pc.cast(u, pa.string()),
                }))
            return pa.concat_tables(outs) if outs else pa.table({
                "column": pa.array([], pa.string()),
                "value": pa.array([], pa.string())})

        if distinct == "exact":
            pairs = build_op({
                "op": "group_agg", "keys": ["column", "value"],
                "aggs": [("count", None, "n")],
            })(ds.map_batches(distinct_partial, **_PA_KW))
            nd = build_op({
                "op": "group_agg", "keys": ["column"],
                "aggs": [("count", None, "n_distinct")],
            })(pairs)
            nd_df = collect_table(nd).to_pandas()
        elif distinct == "approx":
            hll = build_op({
                "op": "group_hll", "keys": ["column"], "column": "value",
                "out": "n_distinct",
            })(ds.map_batches(distinct_partial, **_PA_KW))
            nd_df = collect_table(hll).to_pandas()
        else:
            raise ValueError(f"unknown distinct mode {distinct!r}")

        import pandas as pd

        # fold in ARROW, per column: pandas would coerce int64-with-null
        # partials to float64 and round extremes above 2^53
        recs = []
        for col_name in columns:
            grp = cheap.filter(pc.equal(cheap["column"], col_name))
            kind = grp["kind"][0].as_py() if grp.num_rows else "s"
            suffix = {"i": "_i", "f": "_f", "s": "_s"}[kind]
            lo = pc.min(grp["min" + suffix]).as_py()
            hi = pc.max(grp["max" + suffix]).as_py()
            recs.append({
                "column": col_name,
                "n_rows": int(pc.sum(grp["n_rows"]).as_py() or 0),
                "n_nulls": int(pc.sum(grp["n_nulls"]).as_py() or 0),
                "min_str": None if lo is None else str(lo),
                "max_str": None if hi is None else str(hi),
            })
        agg = pd.DataFrame(recs)
        out = agg.merge(nd_df[["column", "n_distinct"]], on="column",
                        how="left")
        out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
        out = out.sort_values("column", ignore_index=True)
        out = out[["column", "n_rows", "n_nulls", "n_distinct",
                   "min_str", "max_str"]]
        import ray.data as rd

        return rd.from_pandas(out)

    return apply


@register_op("repetition_signals")
def build_repetition_signals(*, column: str = "text"):
    """Gopher-style line/paragraph repetition signals per document
    (Rae et al. 2021, table A1 — the within-document repetition
    filters that complement :func:`build_gopher_quality`'s word-level
    metrics).  Emits, for lines (split on ``\\n``) and paragraphs
    (split on ``\\n\\n``):

    - ``dup_line_frac`` / ``dup_para_frac`` — fraction of segments
      that are repeats of an earlier identical segment
      (``(n - n_unique) / n``);
    - ``dup_line_char_frac`` / ``dup_para_char_frac`` — fraction of
      segment characters inside those repeats (the published filter
      thresholds: 0.30 / 0.30 and 0.20 / 0.20).

    Stateless vectorized batch body: one Arrow ``split_pattern`` per
    granularity, then the same combined-key ``np.unique`` trick as
    ``gopher_quality`` — per-(doc, segment) counts without any Python
    loop.  No shuffle; scales embarrassingly."""

    def _frac_pair(t: pa.Table, sep: str):
        n = t.num_rows
        segs = pc.split_pattern(
            pc.coalesce(t.column(column), pa.scalar("", pa.string())), sep)
        flat = pc.list_flatten(segs)
        seg_per_doc = pc.list_value_length(segs).to_numpy(
            zero_copy_only=False).astype(np.int64)
        doc_idx = np.repeat(np.arange(n, dtype=np.int64), seg_per_doc)
        lens = pc.utf8_length(flat).to_numpy(
            zero_copy_only=False).astype(np.int64)
        # dictionary-encode segment strings once, then a combined
        # (doc, code) 64-bit key → per-(doc, segment) multiplicity
        codes = pc.dictionary_encode(flat).combine_chunks().indices \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        V = np.int64(codes.max() + 2) if len(codes) else np.int64(1)
        order = np.argsort(doc_idx * V + codes, kind="stable")
        key_sorted = (doc_idx * V + codes)[order]
        starts = np.flatnonzero(
            np.diff(key_sorted, prepend=key_sorted[0] - 1)) \
            if len(key_sorted) else np.array([], dtype=np.int64)
        n_total = np.bincount(doc_idx, minlength=n).astype(np.int64)
        n_chars = np.bincount(doc_idx, weights=lens,
                              minlength=n).astype(np.int64)
        if len(starts):
            grp_doc = doc_idx[order][starts]
            grp_cnt = np.diff(np.append(starts, len(key_sorted)))
            grp_len = lens[order][starts]  # identical segments: same len
            n_unique = np.bincount(grp_doc, minlength=n).astype(np.int64)
            dup_chars = np.bincount(
                grp_doc, weights=(grp_cnt - 1) * grp_len,
                minlength=n).astype(np.int64)
        else:
            n_unique = np.zeros(n, dtype=np.int64)
            dup_chars = np.zeros(n, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(n_total > 0,
                            (n_total - n_unique) / np.maximum(n_total, 1),
                            0.0)
            cfrac = np.where(n_chars > 0,
                             dup_chars / np.maximum(n_chars, 1), 0.0)
        return frac, cfrac

    def apply(ds):
        def fn(t: pa.Table) -> pa.Table:
            lf, lcf = _frac_pair(t, "\n")
            pf, pcf = _frac_pair(t, "\n\n")
            for name, arr in [("dup_line_frac", lf),
                              ("dup_line_char_frac", lcf),
                              ("dup_para_frac", pf),
                              ("dup_para_char_frac", pcf)]:
                t = t.append_column(name, pa.array(arr, pa.float64()))
            return t

        return ds.map_batches(fn, **_PA_KW)

    return apply


@register_op("tfidf")
def build_tfidf(*, column: str = "text", id_col: str = "doc_id",
                top_k: int | None = None,
                df_broadcast_limit: int = 10_000_000):
    """TF-IDF featurization: per-(doc, term) ``tf · ln(N / df)`` with
    corpus document frequencies — the classic text feature, as two
    BOUNDED exchanges: (doc, term) term counts collapse per block
    before the first keyed combine; the term→df table (vocabulary-
    sized, built from per-block DISTINCT (doc, term) partials) is the
    second, then broadcasts back (loud ``df_broadcast_limit``).
    ``top_k`` keeps each doc's strongest terms via the shared
    ``group_topk`` (ties broken by term asc — deterministic and
    SQL-mirrorable)."""
    from rayflow.ops import build_op
    from rayflow.ops.curation import _tokenize_codes

    def apply(ds):
        import ray

        ds = ds.materialize()

        def tf_partial(t: pa.Table) -> pa.Table:
            codes, doc_idx, values, _ = _tokenize_codes(t, column)
            ids = t.column(id_col).to_numpy(zero_copy_only=False)
            if not len(codes):
                return pa.table({
                    id_col: pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64())})
            # per-(doc, term) counts within the block: one packed sort
            key = (doc_idx.astype(np.uint64) << np.uint64(32)) \
                | codes.astype(np.uint64)
            uniq, cnt = np.unique(key, return_counts=True)
            d = (uniq >> np.uint64(32)).astype(np.int64)
            c = (uniq & np.uint64(0xFFFFFFFF)).astype(np.int64)
            return pa.table({
                id_col: pa.array(ids[d]),
                "term": values.take(pa.array(c)),
                "tf": pa.array(cnt.astype(np.int64), pa.int64()),
            })

        tf = build_op({
            "op": "group_agg", "keys": [id_col, "term"],
            "aggs": [("sum", "tf", "tf")],
        })(ds.map_batches(tf_partial, **_PA_KW)).materialize()

        # document frequency: the tf table already has ONE row per
        # (doc, term), so df = row count per term; N = distinct docs
        df_ds = build_op({
            "op": "group_agg", "keys": ["term"],
            "aggs": [("count", None, "df")],
        })(tf)
        from rayflow.ops.kernels import collect_table

        df_tbl = collect_table(df_ds)
        if df_tbl.num_rows == 0:
            return tf  # empty corpus: empty (id, term, tf), don't crash
        if df_tbl.num_rows > df_broadcast_limit:
            raise ValueError(
                f"tfidf: vocabulary {df_tbl.num_rows} exceeds "
                f"df_broadcast_limit — shard-join the df table instead")
        n_docs = ds.count()
        idf = np.log(float(n_docs)
                     / df_tbl.column("df").to_numpy(zero_copy_only=False)
                     .astype(np.float64))
        lookup_ref = ray.put((df_tbl.column("term").combine_chunks()
                              if isinstance(df_tbl.column("term"),
                                            pa.ChunkedArray)
                              else df_tbl.column("term"),
                              idf,
                              df_tbl.column("df").to_numpy(
                                  zero_copy_only=False)))

        def score(t: pa.Table, _ref=lookup_ref) -> pa.Table:
            terms, idf_v, df_v = ray.get(_ref)
            pos = pc.index_in(t.column("term"), value_set=terms) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            tfv = t.column("tf").to_numpy(zero_copy_only=False) \
                .astype(np.float64)
            return t.append_column(
                "df", pa.array(df_v[pos], pa.int64())).append_column(
                "tfidf", pa.array(tfv * idf_v[pos], pa.float64()))

        scored = tf.map_batches(score, **_PA_KW)
        if top_k is None:
            return scored
        return build_op({
            "op": "group_topk", "keys": [id_col], "order_col": "tfidf",
            "k": top_k, "descending": True, "tiebreak": "term",
        })(scored)

    return apply


@register_op("bm25_topk")
def build_bm25_topk(*, terms: list[str], k: int = 10, k1: float = 1.2,
                    b: float = 0.75, column: str = "text",
                    id_col: str = "doc_id"):
    """Okapi BM25 full-text retrieval: top-``k`` documents for a bag of
    query ``terms`` (Lucene's non-negative idf form,
    ``ln(1 + (N − df + 0.5)/(df + 0.5))``).

    Scale shape — the inverted index is IMPLICIT, never materialized:

    1. one streaming pass computes the corpus scalars (N, avgdl) from
       per-block ``(n_docs, n_tokens)`` partials — two numbers per
       block cross to the driver, never a token;
    2. a second pass emits candidates ``(doc, term, tf, dl)`` ONLY for
       documents containing at least one query term (the per-batch
       kernel matches the dictionary-encoded token stream against the
       query set, so cost is O(tokens) with no per-row Python);
    3. df per query term comes from the candidate partials (bounded by
       |terms| — broadcast back as plain closure constants);
    4. candidates are scored vectorized, summed per doc (one bounded
       keyed combine over docs that matched — corpus-size-independent
       for selective queries), and top-k'd.

    The doc-length norm uses the document's FULL whitespace-token count
    (the same tokenizer as ``tfidf``/``token_count``: lowercase, space
    split, empties dropped), not just matching tokens.  Ties at the cut
    break by ``id_col`` asc — deterministic and SQL-mirrorable."""
    from rayflow.ops import build_op
    from rayflow.ops.curation import _tokenize_codes
    from rayflow.ops.kernels import collect_table

    if not terms:
        raise ValueError("bm25_topk: terms must be non-empty")
    qset = pa.array(sorted({t.lower() for t in terms}), pa.string())

    def apply(ds):
        ds = ds.materialize()  # two passes over the same blocks

        def len_partial(t: pa.Table) -> pa.Table:
            codes, _, _, n_rows = _tokenize_codes(t, column)
            return pa.table({"n_docs": pa.array([n_rows], pa.int64()),
                             "n_tokens": pa.array([len(codes)], pa.int64())})

        tot = collect_table(ds.map_batches(len_partial, **_PA_KW))
        n_corpus = int(pc.sum(tot["n_docs"]).as_py() or 0)
        n_tokens = int(pc.sum(tot["n_tokens"]).as_py() or 0)
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            "score": pa.array([], pa.float64())})
        if n_corpus == 0:
            import ray.data as rd

            return rd.from_arrow(empty)
        avgdl = n_tokens / n_corpus

        def cand(t: pa.Table) -> pa.Table:
            codes, doc_idx, values, n_rows = _tokenize_codes(t, column)
            none = pa.table({
                id_col: t.column(id_col).slice(0, 0),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
                "dl": pa.array([], pa.int64())})
            if not len(codes):
                return none
            dl = np.bincount(doc_idx, minlength=n_rows).astype(np.int64)
            # dictionary-side membership: |dict| lookups, then O(tokens)
            qpos = pc.index_in(values, value_set=qset) \
                .to_numpy(zero_copy_only=False)           # NaN = non-member
            tq = qpos[codes]
            sel = ~np.isnan(tq)
            if not sel.any():
                return none
            key = doc_idx[sel] * np.int64(len(qset)) + tq[sel].astype(np.int64)
            uniq, cnt = np.unique(key, return_counts=True)
            d = (uniq // len(qset)).astype(np.int64)
            q = (uniq % len(qset)).astype(np.int64)
            return pa.table({
                id_col: t.column(id_col).take(pa.array(d)),
                "term": qset.take(pa.array(q)),
                "tf": pa.array(cnt.astype(np.int64), pa.int64()),
                "dl": pa.array(dl[d], pa.int64())})

        cands = ds.map_batches(cand, **_PA_KW).materialize()
        return _bm25_rank(cands, n_corpus=n_corpus, avgdl=avgdl,
                          k1=k1, b=b, k=k, id_col=id_col)

    return apply


def _bm25_rank(cands, *, n_corpus: int, avgdl: float, k1: float, b: float,
               k: int, id_col: str):
    """Shared BM25 finish over a candidate set of one row per
    (doc, term): df per query term (bounded), vectorized Lucene-idf
    scoring, one bounded keyed combine per doc, global top-k."""
    from rayflow.ops import build_op
    from rayflow.ops.kernels import collect_table

    empty = pa.table({
        id_col: pa.array([], pa.int64()),
        "score": pa.array([], pa.float64())})
    df_tbl = collect_table(build_op({
        "op": "group_agg", "keys": ["term"],
        "aggs": [("count", None, "df")],
    })(cands))
    if df_tbl.num_rows == 0:
        import ray.data as rd

        return rd.from_arrow(empty)
    idf_map = {t: float(np.log1p((n_corpus - df + 0.5) / (df + 0.5)))
               for t, df in zip(df_tbl["term"].to_pylist(),
                                df_tbl["df"].to_pylist())}

    def score(t: pa.Table) -> pa.Table:
        idf = np.array([idf_map[x] for x in t["term"].to_pylist()],
                       dtype=np.float64)
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl / avgdl))
        return pa.table({id_col: t.column(id_col),
                         "score": pa.array(s, pa.float64())})

    scored = build_op({
        "op": "group_agg", "keys": [id_col],
        "aggs": [("sum", "score", "score")],
    })(cands.map_batches(score, **_PA_KW))
    out = build_op({"op": "sort", "keys": ["score", id_col],
                    "descending": [True, False]})(scored)
    return build_op({"op": "limit", "n": k})(out)


class Bm25Index:
    """On-disk inverted index for BM25: the corpus' FULL posting set
    ``(doc, term, tf, dl)`` written ONCE as Parquet hash-partitioned by
    term (``part=crc32(term) % n_parts`` hive directories) plus the
    corpus scalars in ``meta.json``.  A probe reads ONLY the partitions
    its query terms hash to — bytes read drop by ~|query parts|/n_parts
    versus re-streaming the corpus (asserted from the file listing in
    tests).  This is the scale path the streaming ``bm25_topk`` op
    computes implicitly; both paths share ``_bm25_rank``, so results
    are identical (df is exact in both: postings hold one row per
    (doc, term), and a term's rows all live in its own partition).

    Mirrors :class:`rayflow.ops.ann.IvfIndex` (same artifact pattern:
    partitioned corpus + meta, probe = pruned read)."""

    def __init__(self, path: str):
        import json
        import os

        self.path = path
        with open(os.path.join(path, "meta.json")) as f:
            self.meta = json.load(f)

    @staticmethod
    def _term_parts(values: pa.Array, n_parts: int) -> np.ndarray:
        """crc32 partition per dictionary value (per-UNIQUE-term loop —
        vocabulary-sized, not token- or row-sized)."""
        import zlib

        return np.array([zlib.crc32(s.encode("utf-8")) % n_parts
                         for s in values.to_pylist()], dtype=np.int64)

    @classmethod
    def build(cls, ds, path: str, *, n_parts: int = 64,
              column: str = "text", id_col: str = "doc_id") -> "Bm25Index":
        import json
        import os

        from rayflow.ops.curation import _tokenize_codes
        from rayflow.ops.kernels import collect_table

        ds = ds.materialize()

        def len_partial(t: pa.Table) -> pa.Table:
            codes, _, _, n_rows = _tokenize_codes(t, column)
            return pa.table({"n_docs": pa.array([n_rows], pa.int64()),
                             "n_tokens": pa.array([len(codes)], pa.int64())})

        tot = collect_table(ds.map_batches(len_partial, **_PA_KW))
        n_docs = int(pc.sum(tot["n_docs"]).as_py() or 0)
        n_tokens = int(pc.sum(tot["n_tokens"]).as_py() or 0)

        def postings(t: pa.Table) -> pa.Table:
            codes, doc_idx, values, n_rows = _tokenize_codes(t, column)
            if not len(codes):
                return pa.table({
                    id_col: t.column(id_col).slice(0, 0),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "dl": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int64())})
            dl = np.bincount(doc_idx, minlength=n_rows).astype(np.int64)
            key = doc_idx.astype(np.uint64) * np.uint64(len(values)) \
                + codes.astype(np.uint64)
            uniq, cnt = np.unique(key, return_counts=True)
            d = (uniq // np.uint64(len(values))).astype(np.int64)
            c = (uniq % np.uint64(len(values))).astype(np.int64)
            parts = cls._term_parts(values, n_parts)
            return pa.table({
                id_col: t.column(id_col).take(pa.array(d)),
                "term": values.take(pa.array(c)),
                "tf": pa.array(cnt.astype(np.int64), pa.int64()),
                "dl": pa.array(dl[d], pa.int64()),
                "part": pa.array(parts[c], pa.int64())})

        os.makedirs(path, exist_ok=True)
        ds.map_batches(postings, **_PA_KW).write_parquet(
            os.path.join(path, "postings"), partition_cols=["part"])
        with open(os.path.join(path, "meta.json"), "w") as f:
            json.dump({"n_docs": n_docs, "n_tokens": n_tokens,
                       "avgdl": (n_tokens / n_docs) if n_docs else 0.0,
                       "n_parts": int(n_parts), "column": column,
                       "id_col": id_col}, f)
        return cls(path)

    def part_files(self, terms) -> list[str]:
        import glob
        import os
        import zlib

        n_parts = int(self.meta["n_parts"])
        wanted = sorted({zlib.crc32(t.lower().encode("utf-8")) % n_parts
                         for t in terms})
        out = []
        for p in wanted:
            d = os.path.join(self.path, "postings", f"part={p}")
            if os.path.isdir(d):
                out.extend(sorted(glob.glob(os.path.join(d, "*.parquet"))))
        return out

    def probe(self, terms: list[str], *, k: int = 10, k1: float = 1.2,
              b: float = 0.75):
        """Top-k BM25 reading only the query terms' hash partitions."""
        import ray.data as rd

        id_col = self.meta["id_col"]
        if not terms:
            raise ValueError("Bm25Index.probe: terms must be non-empty")
        qset = pa.array(sorted({t.lower() for t in terms}), pa.string())
        files = self.part_files(terms)
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "score": pa.array([], pa.float64())})
        if not files or not self.meta["n_docs"]:
            return rd.from_arrow(empty)
        posts = rd.read_parquet(files, columns=[id_col, "term", "tf", "dl"])
        cands = posts.map_batches(
            lambda t: t.filter(pc.is_in(t.column("term"), value_set=qset)),
            **_PA_KW).materialize()
        return _bm25_rank(cands, n_corpus=int(self.meta["n_docs"]),
                          avgdl=float(self.meta["avgdl"]),
                          k1=k1, b=b, k=k, id_col=id_col)

"""Byte-pair-encoding tokenizer training & application (Sennrich et
al. 2016, arXiv:1508.07909 — the public BPE algorithm used by the
GPT-2 family).

Scale shape, mirroring the ``kmeans`` pattern (bounded driver state,
corpus never drives):

- ``bpe_train``: the ONLY corpus-wide work is a word-frequency count —
  vectorized per-batch ``value_counts`` partials, then one keyed
  ``group_agg`` sum.  What lands on the driver is the *word-frequency
  table*, which is vocabulary-bounded (Heaps' law: ~millions of types
  for a 100 TB corpus, not corpus-sized), pruned by ``min_count``
  first and guarded by ``max_words`` (loud).  Merge learning then runs
  driver-side over that bounded table — exactly how the published
  trainers (subword-nmt, GPT-2) operate: the corpus is never touched
  again after the one counting pass.
- ``bpe_encode``: merges are ``ray.put`` once and fetched once per
  worker process; each batch splits to words, encodes only the
  ``np.unique`` word set (the per-process cache carries across batches),
  and scatters token counts back per row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rayflow.ops import register_op
from rayflow.ops.kernels import _fetch, per_process

_PA_KW = dict(batch_format="pyarrow", zero_copy_batch=True)

#: end-of-word symbol (Sennrich's ``</w>``): lets merges distinguish
#: word-final from word-internal occurrences and makes decode exact.
WORD_END = "</w>"


def _word_counts(ds, column: str, lowercase: bool):
    """Distributed word-frequency: per-batch value_counts partial +
    one keyed sum.  Vectorized end to end (utf8_split_whitespace →
    list_flatten → value_counts)."""

    def partial(t: pa.Table) -> pa.Table:
        text = t.column(column)
        if lowercase:
            text = pc.utf8_lower(text)
        words = pc.list_flatten(pc.utf8_split_whitespace(text))
        words = words.filter(pc.not_equal(words, ""))
        if len(words) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "n": pa.array([], pa.int64())})
        vc = words.value_counts()
        return pa.table({"word": vc.field("values"),
                         "n": pc.cast(vc.field("counts"), pa.int64())})

    parts = ds.map_batches(partial, **_PA_KW)
    return parts.groupby("word").sum("n").map_batches(
        lambda t: t.rename_columns(["word", "n"]), **_PA_KW)


def learn_merges(word_freq: dict[str, int], n_merges: int,
                 word_end: str = WORD_END) -> list[tuple[str, str]]:
    """Sennrich BPE merge learning over a word-frequency dict.

    Deterministic: the best pair each round is (count DESC, pair ASC);
    incremental pair-count maintenance via a pair→words index so each
    merge touches only the words containing the merged pair."""
    words = {w: tuple(w) + (word_end,) for w in word_freq}
    pair_counts: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set] = {}
    for w, syms in words.items():
        f = word_freq[w]
        for p in zip(syms, syms[1:]):
            pair_counts[p] = pair_counts.get(p, 0) + f
            pair_words.setdefault(p, set()).add(w)

    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        if not pair_counts:
            break
        best = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pair_counts[best] <= 0:
            break
        merges.append(best)
        merged_sym = best[0] + best[1]
        for w in list(pair_words.get(best, ())):
            syms = words[w]
            f = word_freq[w]
            # remove old pair contributions of this word
            for p in zip(syms, syms[1:]):
                pair_counts[p] -= f
                if pair_counts[p] <= 0:
                    pair_counts.pop(p, None)
                ws = pair_words.get(p)
                if ws is not None:
                    ws.discard(w)
                    if not ws:
                        pair_words.pop(p, None)
            # apply the merge within the word
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == best[0]
                        and syms[i + 1] == best[1]):
                    out.append(merged_sym)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = tuple(out)
            words[w] = syms
            for p in zip(syms, syms[1:]):
                pair_counts[p] = pair_counts.get(p, 0) + f
                pair_words.setdefault(p, set()).add(w)
    return merges


def encode_word(word: str, ranks: dict[tuple[str, str], int],
                word_end: str = WORD_END) -> tuple[str, ...]:
    """Apply learned merges to one word: repeatedly merge the
    lowest-rank adjacent pair (the GPT-2 ``bpe()`` loop)."""
    syms = tuple(word) + (word_end,)
    while len(syms) > 1:
        pairs = list(zip(syms, syms[1:]))
        ranked = [(ranks[p], i) for i, p in enumerate(pairs) if p in ranks]
        if not ranked:
            break
        r, _ = min(ranked)
        a, b = None, None
        for rr, i in ranked:
            if rr == r:
                a, b = pairs[i]
                break
        out = []
        i = 0
        while i < len(syms):
            if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                out.append(a + b)
                i += 2
            else:
                out.append(syms[i])
                i += 1
        syms = tuple(out)
    return syms


@register_op("bpe_train")
def build_bpe_train(*, column: str = "text", n_merges: int = 1000,
                    min_count: int = 1, lowercase: bool = False,
                    max_words: int = 10_000_000):
    """Train BPE merges over a text column.  Returns a Dataset of
    ``(rank, left, right, merged)`` — the merge table, ready to feed
    ``bpe_encode`` (or export as a tokenizer artifact).  See module
    docstring for the scale contract."""

    def apply(ds):
        import ray.data as rd

        wc = _word_counts(ds, column, lowercase)
        if min_count > 1:
            wc = wc.map_batches(
                lambda t: t.filter(pc.greater_equal(t["n"], min_count)),
                **_PA_KW)
        wc = wc.materialize()
        n_types = wc.count()
        if n_types > max_words:
            raise ValueError(
                f"bpe_train: {n_types} word types after min_count="
                f"{min_count} pruning (> max_words={max_words}) — the "
                f"merge learner is driver-side over the word-frequency "
                f"table; raise min_count (type counts follow Heaps' law, "
                f"doubling min_count typically halves types) or "
                f"max_words if the driver has the memory")
        freq: dict[str, int] = {}
        for b in wc.iter_batches(batch_format="pyarrow"):
            for w, n in zip(b["word"].to_pylist(), b["n"].to_pylist()):
                freq[w] = freq.get(w, 0) + int(n)
        merges = learn_merges(freq, n_merges)
        return rd.from_arrow(pa.table({
            "rank": pa.array(np.arange(len(merges), dtype=np.int64)),
            "left": pa.array([a for a, _ in merges], pa.string()),
            "right": pa.array([b for _, b in merges], pa.string()),
            "merged": pa.array([a + b for a, b in merges], pa.string()),
        }))

    return apply


class BpeEncodeStage:
    """Encode stage: merge ranks fetched once per instance, and the
    word→tokens cache persists across batches (Zipf makes the hit rate
    high).  One instance per worker process (:func:`per_process`)."""

    def __init__(self, merges_ref, column: str, out: str,
                 emit_tokens: bool, lowercase: bool):
        tbl = _fetch(merges_ref, lambda v: v)
        self.ranks = {
            (l, r): int(k) for k, l, r in zip(
                tbl["rank"].to_pylist(), tbl["left"].to_pylist(),
                tbl["right"].to_pylist())
        }
        self.column, self.out = column, out
        self.emit_tokens, self.lowercase = emit_tokens, lowercase
        self.cache: dict[str, tuple[str, ...]] = {}

    def __call__(self, t: pa.Table) -> pa.Table:
        text = t.column(self.column)
        if self.lowercase:
            text = pc.utf8_lower(text)
        split = pc.utf8_split_whitespace(text).combine_chunks()
        words = pc.list_flatten(split)
        offsets = split.offsets.to_numpy(zero_copy_only=False)
        wl = words.to_pylist()
        uniq = set(wl) - self.cache.keys()
        for w in uniq:
            if w:
                self.cache[w] = encode_word(w, self.ranks)
        per_word = np.fromiter(
            (len(self.cache[w]) if w else 0 for w in wl),
            dtype=np.int64, count=len(wl))
        csum = np.concatenate([[0], np.cumsum(per_word)])
        n_tok = csum[offsets[1:]] - csum[offsets[:-1]]
        out = t.append_column(self.out, pa.array(n_tok, pa.int64()))
        if self.emit_tokens:
            toks: list[list[str]] = []
            for i in range(len(offsets) - 1):
                row: list[str] = []
                for w in wl[offsets[i]:offsets[i + 1]]:
                    if w:
                        row.extend(self.cache[w])
                toks.append(row)
            out = out.append_column(
                self.out + "_list", pa.array(toks, pa.list_(pa.string())))
        return out


@register_op("bpe_encode")
def build_bpe_encode(*, merges, column: str = "text",
                     out: str = "n_bpe_tokens", emit_tokens: bool = False,
                     lowercase: bool = False):
    """Apply learned BPE merges: appends the true token count per row
    (``out``), plus the token list itself when ``emit_tokens`` (costs
    list<string> payload — leave off for counting pipelines).
    ``merges`` is the ``bpe_train`` output as a pa.Table (or ObjectRef
    of one)."""
    import ray

    if not isinstance(merges, ray.ObjectRef):
        tbl = merges if isinstance(merges, pa.Table) else pa.Table.from_pandas(
            merges, preserve_index=False)
        merges_ref = ray.put(tbl)
    else:
        merges_ref = merges

    def apply(ds):
        return ds.map_batches(
            per_process(BpeEncodeStage, merges_ref, column, out,
                        emit_tokens, lowercase),
            batch_format="pyarrow", zero_copy_batch=True,
        )

    return apply

"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed
writes byte-identical inputs.  The engine receives only the files.

Change logs use the on-disk layout the engine's source reads::

    {log_dir}/band-{b:05d}/part-{sp:04d}-lsn-{lo:012d}-{hi:012d}.parquet

one file per source partition per band, each sorted by ``lsn``.  LSNs
are the event's position in the log, so they are globally unique and
an event's row index in :class:`Events` equals its LSN.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TS_BASE_US = 1_700_000_000_000_000
INSERT, UPDATE, DELETE = 0, 1, 2
OP_NAMES = np.array(["insert", "update", "delete"])
ROLES = np.array(["user", "assistant"])

#: change-event schema the engine reads (envelope + transcript payload)
CHANGE_SCHEMA = pa.schema([
    ("lsn", pa.int64()), ("op", pa.string()), ("src_ts", pa.timestamp("us")),
    ("conv_id", pa.string()), ("turn_idx", pa.int32()), ("role", pa.string()),
    ("text", pa.string()), ("tool", pa.string()), ("ts", pa.timestamp("us")),
])
#: evolved schema: ``turn_idx`` widened to int64, ``meta_model`` added
EVOLVED_SCHEMA = pa.schema(
    [pa.field("turn_idx", pa.int64()) if f.name == "turn_idx" else f
     for f in CHANGE_SCHEMA] + [("meta_model", pa.string())])

TURNS_MEAN = 10.0         # inserts (turns) per conversation, on average
ZIPF_S = 1.2              # skew of mutations over conversations
N_SOURCE_PARTS = 8        # change-log files per band


@dataclass
class Events:
    """A change log as parallel arrays, indexed by LSN."""

    conv: np.ndarray   # int64 conversation number
    turn: np.ndarray   # int64 turn index
    op: np.ndarray     # int8: INSERT / UPDATE / DELETE
    evolved: np.ndarray  # bool: written with the evolved schema

    def __len__(self) -> int:
        return len(self.conv)

    def concat(self, other: "Events") -> "Events":
        return Events(*(np.concatenate([a, b]) for a, b in
                        zip(self.arrays(), other.arrays())))

    def arrays(self):
        return self.conv, self.turn, self.op, self.evolved

    def slice(self, lo: int, hi: int) -> "Events":
        return Events(*(a[lo:hi] for a in self.arrays()))


def conv_name(conv: np.ndarray | int) -> np.ndarray | str:
    if isinstance(conv, (int, np.integer)):
        return f"conv{int(conv):08d}"
    return np.char.add("conv", np.char.zfill(conv.astype(str), 8))


def zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


def insert_events(rng: np.random.Generator,
                  n_convs: int) -> tuple[Events, np.ndarray]:
    """One insert per (conversation, turn), interleaved in turn order.
    Returns the events and the turn count of each conversation."""
    turns = rng.poisson(TURNS_MEAN - 1.0, n_convs).astype(np.int64) + 1
    conv = np.repeat(np.arange(n_convs, dtype=np.int64), turns)
    starts = np.repeat(np.cumsum(turns) - turns, turns)
    turn = np.arange(len(conv), dtype=np.int64) - starts
    order = np.lexsort((conv, turn))
    n = len(conv)
    return Events(conv[order], turn[order], np.full(n, INSERT, np.int8),
                  np.zeros(n, bool)), turns


def mutation_events(rng: np.random.Generator, turns: np.ndarray,
                    n_updates: int, n_deletes: int,
                    hot_order: np.ndarray) -> Events:
    """Updates and deletes on Zipf-skewed conversations, shuffled.
    ``hot_order[r]`` is the conversation of popularity rank ``r``.  An
    update after a delete re-inserts the key."""
    n = n_updates + n_deletes
    rank = rng.choice(len(turns), size=n, p=zipf_probs(len(turns), ZIPF_S))
    conv = hot_order[rank]
    turn = (rng.random(n) * turns[conv]).astype(np.int64)
    op = np.concatenate([np.full(n_updates, UPDATE, np.int8),
                         np.full(n_deletes, DELETE, np.int8)])
    op = op[rng.permutation(n)]
    return Events(conv, turn, op, np.zeros(n, bool))


def change_rows(ev: Events, lsn: np.ndarray) -> pa.Table:
    """Every column an event can carry, in the evolved types: ``turn_idx``
    is int64 and ``meta_model`` is null on events not yet evolved."""
    is_del = ev.op == DELETE
    n_convs = int(ev.conv.max()) + 1 if len(ev) else 0
    conv_s = pa.array(conv_name(np.arange(n_convs))).take(pa.array(ev.conv))
    turn_s = pc.cast(pa.array(ev.turn), pa.string())
    text = pc.binary_join_element_wise(
        "turn ", turn_s, " of ", conv_s, " rev ",
        pc.cast(pa.array(lsn), pa.string()), "")
    model = pa.array(["model-0", "model-1", "model-2"]).take(
        pa.array(ev.conv % 3))

    def payload(arr, null=is_del):
        return pc.if_else(pa.array(null), pa.scalar(None, arr.type), arr)

    return pa.table({
        "lsn": pa.array(lsn, pa.int64()),
        "op": pa.array(OP_NAMES).take(pa.array(ev.op)),
        "src_ts": pa.array(TS_BASE_US + lsn, pa.timestamp("us")),
        "conv_id": conv_s,
        "turn_idx": pa.array(ev.turn, pa.int64()),
        "role": payload(pa.array(ROLES).take(pa.array(ev.turn % 2))),
        "text": payload(text),
        "tool": payload(pa.array(["", "search"]).take(
            pa.array((ev.turn % 7 == 3).astype(np.int8)))),
        "ts": payload(pa.array(TS_BASE_US + ev.turn * 1_000_000 + ev.conv,
                               pa.timestamp("us"))),
        "meta_model": payload(model, is_del | ~ev.evolved),
    })


def events_table(ev: Events, lsn_lo: int, evolved: bool) -> pa.Table:
    """The change rows of ``ev`` (LSNs from ``lsn_lo``) as one file's table."""
    lsn = np.arange(lsn_lo, lsn_lo + len(ev), dtype=np.int64)
    schema = EVOLVED_SCHEMA if evolved else CHANGE_SCHEMA
    return change_rows(ev, lsn).select(schema.names).cast(schema)


def write_band(log_dir: str, band_id: int, ev: Events, lsn_lo: int,
               source: np.ndarray, evolved: bool = False) -> None:
    """Write one band, one file per source partition (``source[conv]``).
    The files land in a hidden directory that is renamed into place, so a
    poller never sees half a band."""
    tbl = events_table(ev, lsn_lo, evolved)
    src = source[ev.conv]
    name = f"band-{band_id:05d}"
    tmp = os.path.join(log_dir, f".{name}.tmp")
    os.makedirs(tmp)
    for sp in np.unique(src):
        idx = np.flatnonzero(src == sp)
        lo, hi = lsn_lo + int(idx[0]), lsn_lo + int(idx[-1])
        fname = f"part-{sp:04d}-lsn-{lo:012d}-{hi:012d}.parquet"
        pq.write_table(tbl.take(pa.array(idx)), os.path.join(tmp, fname))
    os.rename(tmp, os.path.join(log_dir, name))


# -- change logs --------------------------------------------


class ChangeLog:
    """A change log over ``n_convs`` conversations: one insert per turn
    first, mutations appended by :meth:`mutate`.

    Popularity ranks are a seeded permutation of the conversations.  The
    conversation of rank ``r`` is read from source partition
    ``r % N_SOURCE_PARTS``, so every seed puts the same ranks in the same
    files and the skew each file carries does not change with the seed."""

    def __init__(self, seed: int, n_convs: int):
        self.rng = np.random.default_rng([seed, 0])
        self.events, self.turns = insert_events(self.rng, n_convs)
        self.hot_order = self.rng.permutation(n_convs)
        rank = np.empty(n_convs, np.int64)
        rank[self.hot_order] = np.arange(n_convs)
        self.source = rank % N_SOURCE_PARTS
        self.hot_conv = int(self.hot_order[0])

    def mutate(self, rng: np.random.Generator, n_updates: int,
               n_deletes: int, evolved: bool = False) -> None:
        ev = mutation_events(rng, self.turns, n_updates, n_deletes,
                             self.hot_order)
        ev.evolved[:] = evolved
        self.events = self.events.concat(ev)

    def write(self, log_dir: str, band_id: int, lo: int, hi: int,
              evolved: bool = False) -> None:
        """Write events ``lo..hi-1`` as one band."""
        os.makedirs(log_dir, exist_ok=True)
        write_band(log_dir, band_id, self.events.slice(lo, hi), lo,
                   self.source, evolved)


class TailFeed:
    """The tail workload's log: band 0 holds every insert; band ``k >= 1``
    is ``band_events`` mutations drawn from ``[seed, k]``, written with
    the evolved schema from band ``evolve_band`` on."""

    def __init__(self, seed: int, n_convs: int, band_events: int,
                 evolve_band: int):
        self.seed, self.band_events, self.evolve_band = (
            seed, band_events, evolve_band)
        self.log = ChangeLog(seed, n_convs)
        self.n_bands = 1

    def write_base(self, log_dir: str) -> None:
        self.log.write(log_dir, 0, 0, len(self.log.events))

    def write_next(self, log_dir: str) -> tuple[int, int]:
        """Generate and land the next mutation band; returns its
        inclusive LSN range."""
        k = self.n_bands
        n_del = self.band_events // 40
        lo = len(self.log.events)
        evolved = k >= self.evolve_band
        self.log.mutate(np.random.default_rng([self.seed, k]),
                        self.band_events - n_del, n_del, evolved)
        self.log.write(log_dir, k, lo, len(self.log.events), evolved)
        self.n_bands += 1
        return lo, len(self.log.events) - 1


# -- operators tables ---------------------------------------------------------

N_USERS = 150
N_DOCS = 500
N_SOURCES = 20
EVENT_TYPES = np.array(["view", "click", "purchase", "signup", "error"])
WORDS = np.array(
    "a the key agg row scan slow fast table value part hash merge batch "
    "spark line sort window data column join small customer query big "
    "stream order group filter vector".split())


def write_events_table(path: str, seed: int, n: int = 10_000) -> None:
    """``events`` with the columns and types of the reference test data."""
    rng = np.random.default_rng([seed, 1])
    gaps = rng.exponential(30 * 86400e6 / n, n)
    ts = (1_704_067_200_000_000 + np.cumsum(gaps)).astype(np.int64)
    tbl = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array(rng.integers(0, N_USERS, n).astype(np.int64)),
        "event_type": pa.array(EVENT_TYPES[rng.integers(0, 5, n)]),
        "value": pa.array(np.round(rng.exponential(50.0, n) + 0.01, 2)),
        "props": pa.array(np.char.add(np.char.add(
            '{"k": ', rng.integers(0, 100, n).astype(str)), "}")),
    })
    pq.write_table(tbl, path)


def write_documents_table(path: str, seed: int) -> None:
    """``documents`` with planted work for the dedup operators: exact
    copies, one-token edits of long documents (Jaccard ~0.9 on 3-token
    shingles) and a shared 12-token span spliced into several docs."""
    rng = np.random.default_rng([seed, 2])
    n = N_DOCS
    texts = [" ".join(WORDS[rng.integers(0, len(WORDS), int(k))])
             for k in rng.integers(12, 100, n)]
    long_src = [i for i in range(100) if len(texts[i].split()) >= 60]
    span = " ".join(WORDS[rng.integers(0, len(WORDS), 12)])
    slots = rng.permutation(np.arange(100, n))
    exact, near, spliced = slots[:15], slots[15:30], slots[30:60]
    for i in exact:
        texts[i] = texts[int(rng.integers(0, 100))]
    # one edit in >= 60 tokens keeps J >= 0.85 (distinct sources, so two
    # edited copies never pair near the threshold) and the LSH banding
    # cannot miss the pair
    for i, j in zip(near, rng.choice(long_src, len(near), replace=False)):
        src = texts[int(j)].split()
        src[int(rng.integers(0, len(src)))] = "edited"
        texts[i] = " ".join(src)
    for i in spliced:
        toks = texts[i].split()
        at = int(rng.integers(0, len(toks) + 1))
        texts[i] = " ".join(toks[:at] + span.split() + toks[at:])
    langs = np.array(["en", "de", "fr", "es", "zh"])
    tbl = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": pa.array(texts),
        "lang": pa.array(langs[rng.integers(0, 5, n)]),
        "source": pa.array(np.char.add("src", rng.integers(
            0, N_SOURCES, n).astype(str))),
        "n_chars": pa.array(np.array([len(t) for t in texts], np.int64)),
    })
    pq.write_table(tbl, path)

"""The generators are deterministic per seed and write the layout the
engine's change-log source reads."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow.parquet as pq

from perfbench import gen

N_CONVS = 40


def _digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, _, files in sorted(os.walk(root)):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            h.update(os.path.relpath(path, root).encode())
            h.update(repr(pq.read_table(path).to_pydict()).encode())
    return h.hexdigest()


def _feed(log_dir: str, seed: int, n_bands: int) -> gen.TailFeed:
    feed = gen.TailFeed(seed, N_CONVS, band_events=50, evolve_band=2)
    feed.write_base(log_dir)
    for _ in range(n_bands):
        feed.write_next(log_dir)
    return feed


def test_tail_feed_is_deterministic_per_seed(tmp_path):
    a = _feed(str(tmp_path / "a"), 7, 3)
    b = _feed(str(tmp_path / "b"), 7, 3)
    c = _feed(str(tmp_path / "c"), 8, 3)
    for x, y in zip(a.log.events.arrays(), b.log.events.arrays()):
        np.testing.assert_array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in
               zip(a.log.events.arrays(), c.log.events.arrays()))
    assert _digest(str(tmp_path / "a")) == _digest(str(tmp_path / "b"))


def test_written_log_has_the_layout_list_bands_reads(tmp_path):
    from rayflow.cdc.source import list_bands

    feed = _feed(str(tmp_path), 3, 3)
    bands = list_bands(str(tmp_path))
    assert [b.band_id for b in bands] == [0, 1, 2, 3]
    assert bands[0].lsn_lo == 0
    assert all(a.lsn_hi + 1 == b.lsn_lo for a, b in zip(bands, bands[1:]))
    for b in bands:
        assert 1 <= len(b.files) <= gen.N_SOURCE_PARTS
        for f in b.files:
            lsn = pq.read_table(f)["lsn"].to_numpy()
            assert np.all(np.diff(lsn) > 0)      # sorted, unique
    assert len(bands[0].files) == gen.N_SOURCE_PARTS
    rows = sum(pq.read_metadata(f).num_rows for b in bands for f in b.files)
    assert rows == len(feed.log.events)
    # the hottest conversation is always read from source partition 0
    assert feed.log.source[feed.log.hot_conv] == 0
    assert list_bands(str(tmp_path), after_lsn=bands[1].lsn_hi)[0].band_id == 2


def test_tail_feed_lands_whole_bands_and_evolves(tmp_path):
    from rayflow.cdc.source import band_schema, list_bands

    feed = gen.TailFeed(5, N_CONVS, band_events=50, evolve_band=2)
    feed.write_base(str(tmp_path))
    ranges = [feed.write_next(str(tmp_path)) for _ in range(3)]
    bands = list_bands(str(tmp_path))
    assert [(b.lsn_lo, b.lsn_hi) for b in bands[1:]] == ranges
    assert band_schema(bands[1]) == gen.CHANGE_SCHEMA
    assert band_schema(bands[2]) == gen.EVOLVED_SCHEMA
    assert not any(n.startswith(".") for n in os.listdir(tmp_path))
    assert len(feed.log.events) == ranges[-1][1] + 1


def test_operator_tables_are_deterministic(tmp_path):
    for seed, name in [(1, "a"), (1, "b")]:
        d = tmp_path / name
        d.mkdir()
        gen.write_events_table(str(d / "events.parquet"), seed, n=500)
        gen.write_documents_table(str(d / "documents.parquet"), seed)
    assert _digest(str(tmp_path / "a")) == _digest(str(tmp_path / "b"))
    docs = pq.read_table(str(tmp_path / "a" / "documents.parquet"))
    assert docs.num_rows - len(set(docs["text"].to_pylist())) >= 10

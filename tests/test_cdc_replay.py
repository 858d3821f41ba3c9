"""CDC end-to-end golden replay tests (SURVEY.md §5).

The engine's distributed replay must equal the reference-semantics
oracle: per-key max-lsn LWW, deletes drop the key, per-turn ``text``
equality under stable ``(conv_id, turn_idx)`` ordering.
"""

from __future__ import annotations

import os
import time

import pandas as pd
import pytest

from rayflow.cdc import ChangeLogSpec, CdcEngine, generate_changelog
from rayflow.cdc.oracle import lww_oracle, read_changelog_pandas

SPEC = ChangeLogSpec(
    n_convs=80,
    turns_per_conv=6.0,
    update_ratio=0.6,
    delete_ratio=0.08,
    zipf_s=1.4,
    n_source_partitions=3,
    n_bands=4,
    seed=42,
)


@pytest.fixture(scope="module")
def changelog(tmp_path_factory):
    log_dir = str(tmp_path_factory.mktemp("changelog"))
    info = generate_changelog(log_dir, SPEC)
    return log_dir, info


def _engine_result(engine: CdcEngine) -> pd.DataFrame:
    tbl = engine.final_table(include_meta=True)
    df = tbl.to_pandas()
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts", "_lsn"]
    extra = [c for c in df.columns if c not in cols]
    return df[cols + extra].reset_index(drop=True)


def _oracle_result(log_dir: str, max_lsn: int | None = None) -> pd.DataFrame:
    return lww_oracle(read_changelog_pandas(log_dir, max_lsn))


def _assert_equal(engine_df: pd.DataFrame, oracle_df: pd.DataFrame):
    assert len(engine_df) == len(oracle_df)
    eng = engine_df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    ora = oracle_df.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    ora = ora[eng.columns]  # align column order
    # dtypes: oracle keeps int32 turn_idx via pandas; align
    for c in eng.columns:
        if eng[c].dtype != ora[c].dtype:
            ora[c] = ora[c].astype(eng[c].dtype)
    pd.testing.assert_frame_equal(eng, ora, check_dtype=False)
    # the headline invariant, stated explicitly:
    assert (eng["text"].values == ora["text"].values).all()


def test_generator_deterministic(tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    i1 = generate_changelog(d1, SPEC)
    i2 = generate_changelog(d2, SPEC)
    assert i1 == i2
    assert read_changelog_pandas(d1).equals(read_changelog_pandas(d2))


def test_full_replay_matches_oracle(changelog, tmp_path):
    log_dir, info = changelog
    engine = CdcEngine(str(tmp_path / "lake"), num_partitions=8)
    stats = engine.replay(log_dir)
    assert stats.bands_applied == SPEC.n_bands
    assert stats.n_events == info["n_events"]
    _assert_equal(_engine_result(engine), _oracle_result(log_dir))


def test_resume_mid_replay(changelog, tmp_path):
    """Kill/resume: apply k bands, build a NEW engine over the same lake
    (fresh process analogue), continue — final state identical."""
    log_dir, _ = changelog
    lake = str(tmp_path / "lake")
    e1 = CdcEngine(lake, num_partitions=8)
    s1 = e1.replay(log_dir, max_bands=2)
    assert s1.bands_applied == 2
    # intermediate state matches the oracle truncated at the watermark
    _assert_equal(_engine_result(e1), _oracle_result(log_dir, e1.manifest.committed_lsn))

    e2 = CdcEngine(lake, num_partitions=8)  # re-reads manifest from disk
    s2 = e2.replay(log_dir)
    assert s2.bands_applied == SPEC.n_bands - 2
    _assert_equal(_engine_result(e2), _oracle_result(log_dir))


def test_double_apply_idempotent(changelog, tmp_path):
    """Re-running replay over a fully-committed lake applies nothing."""
    log_dir, _ = changelog
    lake = str(tmp_path / "lake")
    e = CdcEngine(lake, num_partitions=8)
    e.replay(log_dir)
    before = _engine_result(e)
    s = e.replay(log_dir)
    assert s.bands_applied == 0
    pd.testing.assert_frame_equal(before, _engine_result(e))


def test_lineage_and_metrics(changelog, tmp_path):
    log_dir, info = changelog
    e = CdcEngine(str(tmp_path / "lake"), num_partitions=8)
    e.replay(log_dir)
    lineage = e.manifest.state["lineage"]
    assert len(lineage) == SPEC.n_bands
    assert sum(rec["n_events"] for rec in lineage) == info["n_events"]
    for rec in lineage:
        assert rec["lsn_hi"] >= rec["lsn_lo"]
        assert rec["events_per_s"] > 0
        assert rec["input_files"]
    assert e.manifest.committed_lsn == info["max_lsn"]


def test_invalid_rows_counted_in_lineage(ray_session, tmp_path):
    """Envelope-invalid rows (an unknown ``op``, a null ``turn_idx``)
    are dropped AND counted: the lake equals the oracle over the valid
    rows, and the commit's lineage says how many rows were dropped."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from rayflow.cdc.source import list_bands

    log_dir = str(tmp_path / "log")
    generate_changelog(log_dir, ChangeLogSpec(n_convs=30, n_bands=2, seed=3))
    path = list_bands(log_dir, after_lsn=-1)[0].files[0]
    t = pq.read_table(path)
    op = t["op"].to_pylist()
    op[0] = "upsert"
    turn = t["turn_idx"].to_pylist()
    turn[1] = None
    t = t.set_column(t.schema.get_field_index("op"), "op",
                     pa.array(op, t["op"].type))
    t = t.set_column(t.schema.get_field_index("turn_idx"), "turn_idx",
                     pa.array(turn, t["turn_idx"].type))
    pq.write_table(t, path)

    e = CdcEngine(str(tmp_path / "lake"), num_partitions=4)
    stats = e.replay(log_dir, bands_per_commit=2)
    assert [rec["n_invalid"] for rec in stats.lineage] == [2]
    assert e.lineage_table()["n_invalid"].to_pylist() == [2]

    changes = read_changelog_pandas(log_dir)
    valid = changes[changes["op"].isin(["insert", "update", "delete"])
                    & changes["turn_idx"].notna()].copy()
    assert len(valid) == len(changes) - 2
    valid["turn_idx"] = valid["turn_idx"].astype("int64")
    _assert_equal(_engine_result(e), lww_oracle(valid))


def test_compact_and_vacuum(changelog, tmp_path):
    """Compaction folds mixed-schema files to the unified schema and
    vacuum removes superseded state versions; final data unchanged."""
    import glob

    log_dir, _ = changelog
    lake = str(tmp_path / "lake")
    e = CdcEngine(lake, num_partitions=8)
    e.replay(log_dir)  # 4 bands -> up to 4 state versions per partition
    before = _engine_result(e)
    n_files_before = len(glob.glob(f"{lake}/part-*/*.parquet"))
    assert e.compact() > 0
    removed = e.vacuum()
    assert removed > 0
    n_files_after = len(glob.glob(f"{lake}/part-*/*.parquet"))
    assert n_files_after < n_files_before
    pd.testing.assert_frame_equal(before, _engine_result(e))
    # engine reopened from disk still reads the compacted lake
    e2 = CdcEngine(lake, num_partitions=8)
    pd.testing.assert_frame_equal(before, _engine_result(e2))


def test_injected_failure_no_partial_commit(changelog, tmp_path):
    """A merge actor dying mid-band fails the replay WITHOUT advancing
    the manifest; a clean rerun then produces the exact oracle state
    (crash atomicity of the exactly-once sink)."""
    log_dir, _ = changelog
    lake = str(tmp_path / "lake")
    e = CdcEngine(lake, num_partitions=8)
    e._test_fail_after_applies = 1  # every actor dies on its 2nd apply
    with pytest.raises(Exception):
        e.replay(log_dir)
    m = CdcEngine(lake, num_partitions=8).manifest
    assert m.committed_lsn == -1 and not m.state["partitions"]

    e2 = CdcEngine(lake, num_partitions=8)  # no injection
    e2.replay(log_dir)
    _assert_equal(_engine_result(e2), _oracle_result(log_dir))


def test_read_conversation_point_lookup(changelog, tmp_path):
    from rayflow.cdc.replay import read_conversation

    log_dir, _ = changelog
    e = CdcEngine(str(tmp_path / "lake"), num_partitions=8)
    e.replay(log_dir)
    full = _engine_result(e)
    some_conv = full["conv_id"].iloc[0]
    got = read_conversation(e, some_conv).to_pandas()
    want = full[full["conv_id"] == some_conv].reset_index(drop=True)
    assert got["turn_idx"].tolist() == sorted(want["turn_idx"].tolist())
    assert sorted(got["text"]) == sorted(want["text"])
    # unknown conversation -> empty, correct schema
    empty = read_conversation(e, "convNOPE")
    assert empty.num_rows == 0 and "conv_id" in empty.schema.names


def test_tail_applies_bands_as_they_arrive(ray_session, tmp_path):
    """Daemon-mode tail: bands landing while the tailer runs are picked
    up by later polls; the final lake equals a one-shot full replay."""
    import shutil
    import threading

    from rayflow.cdc import CdcEngine, ChangeLogSpec, generate_changelog
    from rayflow.cdc.oracle import lww_oracle, read_changelog_pandas

    full = str(tmp_path / "log-full")
    live = str(tmp_path / "log-live")
    generate_changelog(full, ChangeLogSpec(n_convs=120, n_bands=4, seed=21))
    os.makedirs(live)
    bands = sorted(os.listdir(full))
    assert len(bands) == 4
    for b in bands[:2]:
        shutil.copytree(os.path.join(full, b), os.path.join(live, b))

    def feeder():
        # land the remaining bands while the tailer is running
        time.sleep(1.0)
        for b in bands[2:]:
            shutil.copytree(os.path.join(full, b), os.path.join(live, b))

    t = threading.Thread(target=feeder)
    t.start()
    eng = CdcEngine(str(tmp_path / "lake"), num_partitions=4)
    rounds = []
    stats = eng.tail(live, poll_interval=0.3, idle_rounds=4,
                     on_round=lambda s: rounds.append(s.bands_applied))
    t.join()
    assert stats.bands_applied == 4
    assert len(rounds) >= 2           # the late bands came in a later round
    got = eng.final_table().to_pandas()
    want = lww_oracle(read_changelog_pandas(full))
    cols = sorted(set(got.columns) & set(want.columns))
    a = got[cols].sort_values(cols, ignore_index=True)
    b = want[cols].sort_values(cols, ignore_index=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_snapshot_time_travel(ray_session, tmp_path):
    """Every committed watermark is readable as-of: the snapshot equals
    the LWW oracle over the change log truncated at that LSN."""
    from rayflow.cdc import CdcEngine, ChangeLogSpec, generate_changelog
    from rayflow.cdc.oracle import lww_oracle, read_changelog_pandas

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(n_convs=80, n_bands=3, seed=31))
    eng = CdcEngine(str(tmp_path / "lake"), num_partitions=4)
    eng.replay(log)
    lsns = eng.snapshot_lsns()
    assert len(lsns) == 3
    for lsn in lsns:
        snap = eng.snapshot_dataset(lsn).to_pandas()
        want = lww_oracle(read_changelog_pandas(log, max_lsn=lsn))
        cols = sorted(set(snap.columns) & set(want.columns))
        a = snap[cols].sort_values(cols, ignore_index=True)
        b = want[cols].sort_values(cols, ignore_index=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # the newest snapshot is the live table
    assert len(eng.snapshot_dataset(lsns[-1]).to_pandas()) == \
        len(eng.final_table())


def test_changes_between_watermarks(ray_session, tmp_path):
    from rayflow.cdc import ChangeLogSpec, generate_changelog
    from rayflow.cdc.oracle import read_changelog_pandas
    from rayflow.cdc.source import changes_between

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(n_convs=60, n_bands=3, seed=8))
    full = read_changelog_pandas(log)
    lo, hi = int(full["lsn"].quantile(0.3)), int(full["lsn"].quantile(0.8))
    feed = changes_between(log, lo, hi).to_pandas()
    want = full[(full["lsn"] > lo) & (full["lsn"] <= hi)]
    assert sorted(feed["lsn"]) == sorted(want["lsn"])
    assert len(changes_between(log, 10**9, 2 * 10**9).to_pandas()) == 0


def test_incremental_view_via_change_feed(ray_session, tmp_path):
    """Incremental view maintenance with the change feed: a keyed view
    maintained by applying each watermark interval's changes_between
    slice equals the engine's snapshot at every watermark."""
    from rayflow.cdc import CdcEngine, ChangeLogSpec, generate_changelog
    from rayflow.cdc.source import changes_between

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(n_convs=50, n_bands=3, seed=12))
    eng = CdcEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.replay(log)
    prev = -1
    view: dict = {}     # (conv_id, turn_idx) -> live?
    for wm in eng.snapshot_lsns():
        feed = changes_between(log, prev, wm).to_pandas() \
            .sort_values("lsn", ignore_index=True)
        # the feed slice tiles the interval exactly and in order
        assert (feed["lsn"] > prev).all() and (feed["lsn"] <= wm).all()
        for r in feed.itertuples():
            key = (r.conv_id, r.turn_idx)
            if r.op == "delete":
                view.pop(key, None)
            else:
                view[key] = True
        snap = eng.snapshot_dataset(wm).to_pandas()
        got = {tuple(k) for k in zip(snap["conv_id"], snap["turn_idx"])}
        assert got == set(view), f"divergence at watermark {wm}"
        prev = wm


def test_snapshot_after_compact_and_vacuum(ray_session, tmp_path):
    """compact()+vacuum() prunes historical state files: the LIVE
    watermark stays readable (manifest files), older watermarks raise a
    clear error instead of silently returning partial history."""
    import pytest

    from rayflow.cdc import CdcEngine, ChangeLogSpec, generate_changelog

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(n_convs=40, n_bands=3, seed=4))
    eng = CdcEngine(str(tmp_path / "lake"), num_partitions=2)
    eng.replay(log)
    lsns = eng.snapshot_lsns()
    live_rows = len(eng.final_table())
    eng.compact()
    eng.vacuum()
    # newest watermark == live table, still served
    assert len(eng.snapshot_dataset(lsns[-1]).to_pandas()) == live_rows
    # historical watermark: clear refusal, not silent empty
    with pytest.raises(FileNotFoundError, match="vacuum"):
        eng.snapshot_dataset(lsns[0])


def test_changes_between_schema_evolved_log(ray_session, tmp_path):
    from rayflow.cdc import ChangeLogSpec, generate_changelog
    from rayflow.cdc.source import changes_between

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(n_convs=60, n_bands=3, seed=6,
                                          evolve_at_lsn=120))
    feed = changes_between(log, -1, 10**9).to_pandas()
    # the evolved column exists for every row (null before the switch)
    assert "meta_model" in feed.columns
    assert feed[feed["lsn"] < 120]["meta_model"].isna().all()
    assert feed[feed["lsn"] >= 120]["meta_model"].notna().any()


def test_merge_pool_matches_replay(changelog, tmp_path):
    """The merge-actor pool, fed by RouteToPool, writes the same
    partition state files as replay's in-process merge."""
    import pyarrow.parquet as pq

    from rayflow.cdc.merge import NormalizeChanges
    from rayflow.cdc.source import list_bands
    from rayflow.cdc.streaming import MergePool, RouteToPool

    log_dir, _ = changelog
    e = CdcEngine(str(tmp_path / "lake"), num_partitions=4)
    e.replay(log_dir, bands_per_commit=SPEC.n_bands)   # one commit group
    salts = {k: int(v) for k, v in e.manifest.state.get("salts", {}).items()}
    normalize = NormalizeChanges(e.manifest.schema, 4, salts)
    pool = MergePool(2)
    try:
        route = RouteToPool(pool.actors, pool.num_actors)
        for b in list_bands(log_dir, after_lsn=-1):
            for f in b.files:
                route(normalize(pq.read_table(f)))
        stats = pool.flush(str(tmp_path / "pool_lake"), {},
                           e.manifest.committed_lsn)
    finally:
        pool.shutdown()
    got = {int(r["part_id"]): r["file"] for r in stats}
    want = e.manifest.partition_files()
    assert sorted(got) == sorted(want)
    for pid, path in want.items():
        assert os.path.basename(got[pid]) == os.path.basename(path)
        assert pq.read_table(got[pid]).equals(pq.read_table(path))


def test_concurrent_commit_detected(tmp_path):
    """Two writers load the same manifest; the second commit (stale
    loaded version) raises instead of silently clobbering the first
    writer's band."""
    import pyarrow as pa

    from rayflow.cdc.sink import ConcurrentCommitError, LakeManifest

    lake = str(tmp_path / "lake")
    schema = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32())])
    a = LakeManifest(lake)
    a.commit_band(band_hi=10, schema=schema, part_stats=[], salts={},
                  lineage={"band": 1}, num_partitions=4)

    b = LakeManifest(lake)           # loads version 1
    a2 = LakeManifest(lake)          # a second live writer, also at v1
    b.commit_band(band_hi=20, schema=schema, part_stats=[], salts={},
                  lineage={"band": 2})
    with pytest.raises(ConcurrentCommitError, match="version moved"):
        a2.commit_band(band_hi=20, schema=schema, part_stats=[], salts={},
                       lineage={"band": "2-dup"})
    # the loud failure preserved b's commit
    fresh = LakeManifest(lake)
    assert fresh.committed_lsn == 20
    assert len(fresh.state["lineage"]) == 2
    # reload-and-retry is the documented recovery: a fresh writer commits
    fresh.commit_band(band_hi=30, schema=schema, part_stats=[], salts={},
                      lineage={"band": 3})
    assert LakeManifest(lake).committed_lsn == 30


def test_same_writer_sequential_commits_unaffected(tmp_path):
    import pyarrow as pa

    from rayflow.cdc.sink import LakeManifest

    lake = str(tmp_path / "lake2")
    schema = pa.schema([("conv_id", pa.string())])
    m = LakeManifest(lake)
    for i in range(1, 4):
        m.commit_band(band_hi=i * 10, schema=schema, part_stats=[], salts={},
                      lineage={"band": i})
    assert LakeManifest(lake).committed_lsn == 30


def test_lineage_and_partition_stats_tables(changelog, tmp_path):
    """The rule's 'per-partition lineage + metrics' surfaced as data:
    queryable Arrow tables derived from the durable manifest."""
    from rayflow.cdc.replay import CdcEngine

    log_dir, _info = changelog
    lake = str(tmp_path / "lake_obs")
    e = CdcEngine(lake, num_partitions=8)
    stats = e.replay(log_dir, bands_per_commit=2)

    lt = e.lineage_table()
    assert lt.num_rows == len(stats.lineage)
    assert set(lt.column_names) >= {"kind", "lsn_hi", "n_events",
                                    "rows_after", "events_per_s"}
    lsn_his = lt["lsn_hi"].to_pylist()
    assert lsn_his == sorted(lsn_his)           # monotone watermarks
    assert sum(lt["n_events"].to_pylist()) == stats.n_events
    assert all(k == "replay" for k in lt["kind"].to_pylist())

    ps = e.partition_stats()
    assert ps.num_rows > 0
    assert sum(ps["rows"].to_pylist()) == e.final_table().num_rows
    # per-partition events are POST-collapse upserts (per-block LWW
    # collapse dedupes raw events before the exchange): bounded by the
    # raw count, never zero on a replay that applied data
    applied = sum(ps["n_events_applied"].to_pylist())
    assert 0 < applied <= stats.n_events
    assert all(b and b > 0 for b in ps["bytes"].to_pylist())

    # compaction shows up in the trail; a fresh engine reads the same
    e.compact()
    lt2 = CdcEngine(lake).lineage_table()
    assert lt2["kind"].to_pylist()[-1] == "compaction"
    assert lt2.num_rows == lt.num_rows + 1


def test_second_engine_stale_manifest_raises(changelog, tmp_path):
    """Engine-level concurrent-writer protection: a second engine that
    loaded the manifest before another writer committed must fail LOUD
    at its first commit (never silently clobber), and the lake must
    stay intact and resumable."""
    from rayflow.cdc.oracle import lww_oracle, read_changelog_pandas
    from rayflow.cdc.replay import CdcEngine
    from rayflow.cdc.sink import ConcurrentCommitError

    log_dir, _ = changelog
    lake = str(tmp_path / "lake_two_writers")
    a = CdcEngine(lake)
    b = CdcEngine(lake)          # loads the same (empty) manifest as a
    a.replay(log_dir)
    with pytest.raises(ConcurrentCommitError):
        b.replay(log_dir)        # stale loaded version -> loud failure
    # recovery contract: a FRESH engine sees a's commits and is a no-op
    c = CdcEngine(lake)
    assert c.replay(log_dir).bands_applied == 0
    got = _engine_result(c)
    want = lww_oracle(read_changelog_pandas(log_dir))
    got = got.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    want = want.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)],
        check_dtype=False)


def test_lake_replication_via_change_feed(ray_session, tmp_path):
    """Lake→lake replication: the change feed read back out of the log
    (`changes_between` over the full LSN range), re-written through the
    distributed changelog writer and replayed into a SECOND lake with
    DIFFERENT partitioning, reproduces the primary's final state
    exactly — the disaster-recovery / region-replica path, and a proof
    that final state is independent of partition count and band
    layout."""
    import pandas as pd

    from rayflow.cdc import ChangeLogSpec, generate_changelog
    from rayflow.cdc.changelog import write_changelog_dataset
    from rayflow.cdc.replay import CdcEngine
    from rayflow.cdc.source import changes_between

    log = str(tmp_path / "log")
    generate_changelog(log, ChangeLogSpec(
        n_convs=80, n_bands=4, update_ratio=1.5, delete_ratio=0.1,
        seed=31))

    primary = CdcEngine(str(tmp_path / "lakeA"), num_partitions=8)
    primary.replay(log)

    feed = changes_between(log, -1, 10**15)
    log2 = str(tmp_path / "log2")
    write_changelog_dataset(feed, log2)

    replica = CdcEngine(str(tmp_path / "lakeB"), num_partitions=3)
    replica.replay(log2)

    cols = ["conv_id", "turn_idx", "role", "text", "tool"]
    a = primary.final_table(include_meta=False).to_pandas()[cols] \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    b = replica.final_table(include_meta=False).to_pandas()[cols] \
        .sort_values(["conv_id", "turn_idx"], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)

"""The benchmark's expected outputs and comparisons, checked by hand."""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from perfbench import expected, gen

I, U, D = gen.INSERT, gen.UPDATE, gen.DELETE


def dict_replay(ev: gen.Events, upto: int) -> dict:
    """Plain-Python reference: apply events in LSN order to a dict."""
    rows = gen.change_rows(ev, np.arange(len(ev), dtype=np.int64)).to_pylist()
    state = {}
    for r in rows[:upto + 1]:
        key = (r["conv_id"], r["turn_idx"])
        if r["op"] == "delete":
            state.pop(key, None)
        else:
            state[key] = {k: v for k, v in r.items() if k not in ("op", "src_ts")}
    return state


def as_dict(t: pa.Table) -> dict:
    return {(r["conv_id"], r["turn_idx"]):
            {("lsn" if k == "_lsn" else k): v for k, v in r.items()}
            for r in t.to_pylist()}


def hand_log() -> gen.Events:
    """Deletes, a re-insert after a delete, a key deleted last, a hot
    key, and a schema switch part way."""
    conv = [0, 0, 1, 1, 2, 0, 1, 1, 2, 2, 2, 2, 2, 2, 0, 1]
    turn = [0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]
    op = [I, I, I, I, I, U, D, U, U, U, U, U, U, U, D, U]
    evolved = [False] * 9 + [True] * 7
    return gen.Events(np.array(conv, np.int64), np.array(turn, np.int64),
                      np.array(op, np.int8), np.array(evolved, bool))


@pytest.mark.parametrize("upto", [4, 6, 7, 9, 15])
def test_lww_matches_dict_replay_on_a_hand_log(upto):
    ev = hand_log()
    assert as_dict(expected.expected_lake(ev, upto)) == dict_replay(ev, upto)


def test_lww_matches_dict_replay_on_generated_logs(tmp_path):
    for seed in range(5):
        # hot keys, deletes, re-inserts after a delete, evolved bands
        feed = gen.TailFeed(seed, 30, band_events=400, evolve_band=3)
        for _ in range(4):
            feed.write_next(str(tmp_path / str(seed)))
        ev = feed.log.events
        for upto in (len(ev) // 3, len(ev) - 1):
            assert (as_dict(expected.expected_lake(ev, upto))
                    == dict_replay(ev, upto))


def test_expected_lake_for_one_conversation():
    ev = hand_log()
    one = expected.expected_lake(ev, 15, conv=1)
    assert set(one["conv_id"].to_pylist()) == {gen.conv_name(1)}
    assert as_dict(one) == {k: v for k, v in dict_replay(ev, 15).items()
                            if k[0] == gen.conv_name(1)}


def _write_lake(lake_dir: str, table: pa.Table, rows_in_manifest=None) -> None:
    """A lake in the engine's on-disk form: partition files plus a
    manifest naming them with their row counts."""
    os.makedirs(lake_dir)
    parts = {}
    for pid, part in enumerate((table.slice(0, 3), table.slice(3))):
        rel = f"part-{pid:05d}/state-000000000009.parquet"
        os.makedirs(os.path.join(lake_dir, os.path.dirname(rel)))
        pq.write_table(part, os.path.join(lake_dir, rel))
        parts[str(pid)] = {"file": rel, "lsn": 9, "rows": part.num_rows}
    if rows_in_manifest is not None:
        parts["0"]["rows"] = rows_in_manifest
    with open(os.path.join(lake_dir, "manifest.json"), "w") as f:
        json.dump({"partitions": parts}, f)


def test_lake_comparison_accepts_the_same_rows_in_any_order(tmp_path):
    want = expected.expected_lake(hand_log(), 15)
    shuffled = want.take(pa.array(np.random.default_rng(0).permutation(
        want.num_rows)))
    _write_lake(str(tmp_path / "lake"), shuffled)
    assert expected.check_lake(str(tmp_path / "lake"), want) is None


def test_lake_comparison_fails_on_one_changed_text_cell(tmp_path):
    want = expected.expected_lake(hand_log(), 15)
    text = want["text"].to_pylist()
    text[2] = text[2] + "!"
    bad = want.set_column(want.schema.get_field_index("text"), "text",
                          pa.array(text, pa.string()))
    _write_lake(str(tmp_path / "lake"), bad)
    problem = expected.check_lake(str(tmp_path / "lake"), want)
    assert problem is not None and "text" in problem


def test_lake_comparison_fails_on_one_missing_row(tmp_path):
    want = expected.expected_lake(hand_log(), 15)
    _write_lake(str(tmp_path / "lake"), want.slice(1))
    assert "rows" in expected.check_lake(str(tmp_path / "lake"), want)


def test_lake_comparison_fails_on_a_duplicate_key_or_a_wrong_count(tmp_path):
    want = expected.expected_lake(hand_log(), 15)
    rows = want.to_pylist()
    rows[1]["conv_id"], rows[1]["turn_idx"] = rows[0]["conv_id"], rows[0]["turn_idx"]
    dup = pa.Table.from_pylist(rows, schema=want.schema)
    _write_lake(str(tmp_path / "dup"), dup)
    assert "duplicate" in expected.check_lake(str(tmp_path / "dup"), want)
    _write_lake(str(tmp_path / "count"), want, rows_in_manifest=99)
    assert "manifest" in expected.check_lake(str(tmp_path / "count"), want)


def test_dup_span_reference_cuts_later_occurrences_only():
    out = expected.dup_span_remove(
        [0, 1, 2, 3], ["a b c d e", "x a b c d", "a  b c", "p  q r"], k=3)
    assert out["text"].to_pylist() == ["a b c d e", "x", "", "p  q r"]
    assert out["n_tokens_removed"].to_pylist() == [0, 4, 3, 0]


def test_query_comparison_ignores_row_order_and_int_width():
    a = pa.table({"k": pa.array([2, 1], pa.int32()), "v": [0.5, 1.25]})
    b = pa.table({"v": [1.25, 0.5], "k": pa.array([1, 2], pa.int64())})
    assert expected.compare_query(a, b) is None
    c = pa.table({"v": [1.25, 0.75], "k": pa.array([1, 2], pa.int64())})
    assert expected.compare_query(a, c) is not None

"""Property-based tests (hypothesis) for the core kernels — the
analogue of the reference's parser fuzz/round-trip tests (SURVEY.md §5
#5), aimed at the kernels correctness depends on."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rayflow.cdc.merge import drop_duplicate_lsns, lww_reduce
from rayflow.ops.kernels import argextreme_reduce, explode_list
from rayflow.ops.windows import explode_sliding
from rayflow.schema import conform, unify

# small-alphabet keys force collisions; generated lsn values are unique
# (row order), while the explicit examples give a 4th tuple element: an
# LSN shared across keys, as every row of one source transaction has
events = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),          # conv_id
        st.integers(0, 3),                              # turn_idx
        st.sampled_from(["insert", "update", "delete"]),
    ),
    min_size=0,
    max_size=60,
)


def _to_table(evs):
    n = len(evs)
    return pa.table({
        "conv_id": pa.array([e[0] for e in evs], pa.string()),
        "turn_idx": pa.array([e[1] for e in evs], pa.int32()),
        "op": pa.array([e[2] for e in evs], pa.string()),
        "lsn": pa.array([e[3] if len(e) > 3 else i
                         for i, e in enumerate(evs)], pa.int64()),
        "text": pa.array([f"{e[0]}-{e[1]}-v{i}" for i, e in enumerate(evs)]),
    })


#: a@5 beside a@7 while b@5 shares a@5's LSN; b@5 before a@5
SHARED_LSN = [("a", 0, "insert", 5), ("a", 0, "update", 7),
              ("b", 0, "insert", 5)]
SHARED_LSN_PAIR = [("b", 0, "insert", 5), ("a", 0, "insert", 5)]


def _by_lsn(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(["lsn", "conv_id", "turn_idx"]).reset_index(drop=True)


@given(events)
@example(SHARED_LSN)
@example(SHARED_LSN_PAIR)
@settings(max_examples=60, deadline=None)
def test_lww_reduce_matches_pandas(evs):
    tbl = _to_table(evs)
    got = _by_lsn(lww_reduce(tbl).to_pandas())
    if len(evs) == 0:
        assert len(got) == 0
        return
    df = tbl.to_pandas()
    want = _by_lsn(
        df.sort_values("lsn", kind="stable")
        .groupby(["conv_id", "turn_idx"], as_index=False).tail(1)
    )
    pd.testing.assert_frame_equal(got, want)


@given(events, st.integers(1, 4))
@example(SHARED_LSN, 2)
@example(SHARED_LSN_PAIR, 2)
@settings(max_examples=40, deadline=None)
def test_lww_reduce_partition_invariance(evs, n_parts):
    """Reducing per partition then re-reducing equals one global reduce —
    the property the two-phase merge (block partial + per-partition
    final) depends on."""
    tbl = _to_table(evs)
    whole = _by_lsn(lww_reduce(tbl).to_pandas())
    pieces = []
    for i in range(n_parts):
        piece = tbl.filter(
            pa.array((np.arange(tbl.num_rows) % n_parts) == i)
        )
        pieces.append(lww_reduce(piece))
    recombined = lww_reduce(pa.concat_tables(pieces)) if pieces else tbl
    got = _by_lsn(recombined.to_pandas())
    pd.testing.assert_frame_equal(got, whole)


@given(events)
@example(SHARED_LSN)
@example(SHARED_LSN_PAIR)
@settings(max_examples=30, deadline=None)
def test_drop_duplicate_lsns_idempotent(evs):
    tbl = _to_table(evs)
    doubled = pa.concat_tables([tbl, tbl])  # simulate a replayed batch
    got = drop_duplicate_lsns(doubled)
    assert got.num_rows == tbl.num_rows
    assert _by_lsn(got.to_pandas()).equals(_by_lsn(tbl.to_pandas()))


@given(st.lists(st.integers(0, 10**6), min_size=0, max_size=50, unique=True))
@settings(max_examples=40, deadline=None)
def test_argextreme_min_max(orders):
    n = len(orders)
    tbl = pa.table({
        "k": pa.array([i % 3 for i in range(n)], pa.int64()),
        "o": pa.array(orders, pa.int64()),
    })
    for keep, fn in (("max", max), ("min", min)):
        got = argextreme_reduce(tbl, ["k"], "o", keep)
        df = tbl.to_pandas()
        if n:
            want = df.groupby("k")["o"].agg(fn).sort_values().tolist()
            assert sorted(got["o"].to_pylist()) == sorted(want)
        else:
            assert got.num_rows == 0


@given(st.lists(st.lists(st.integers(-5, 5), max_size=4), min_size=0, max_size=20))
@settings(max_examples=40, deadline=None)
def test_explode_list_roundtrip_counts(lists):
    tbl = pa.table({
        "id": pa.array(range(len(lists)), pa.int64()),
        "v": pa.array(lists, pa.list_(pa.int64())),
    })
    out = explode_list(tbl, "v")
    assert out.num_rows == sum(len(x) for x in lists)
    # every (id, element) pair preserved in order per parent
    got = list(zip(out["id"].to_pylist(), out["v"].to_pylist()))
    want = [(i, e) for i, xs in enumerate(lists) for e in xs]
    assert got == want


@given(
    st.lists(st.integers(0, 10**7), min_size=1, max_size=30),
    st.integers(1, 4),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_sliding_window_membership(ts_seconds, slide_mult, size_mult):
    """Each replica's window actually contains its row's timestamp, and
    the replica count equals the analytic window count."""
    slide_s = slide_mult * 10
    size_s = slide_s * size_mult  # aligned windows
    tbl = pa.table({
        "ts": pa.array(
            np.array(ts_seconds, dtype=np.int64) * 1_000_000
        ).cast(pa.timestamp("us")),
    })
    out = explode_sliding(tbl, "ts", float(size_s), float(slide_s))
    assert out.num_rows == len(ts_seconds) * size_mult
    ts_us = out["ts"].cast(pa.int64()).to_pylist()
    ws_us = out["window_start"].cast(pa.int64()).to_pylist()
    for t, w in zip(ts_us, ws_us):
        assert w <= t < w + size_s * 1_000_000
        assert w % (slide_s * 1_000_000) == 0


@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=0, max_size=10))
@settings(max_examples=30, deadline=None)
def test_schema_conform_total(cols):
    """conform() handles any target: missing columns null-filled, extras
    dropped, order follows the target schema."""
    src = pa.table({c: pa.array([1, 2], pa.int64()) for c in set(cols)}) \
        if cols else pa.table({"q": pa.array([1, 2], pa.int64())})
    target = pa.schema([("x", pa.int64()), ("y", pa.float64()), ("w", pa.string())])
    out = conform(src, target)
    assert out.schema == target
    assert out.num_rows == src.num_rows


def test_unify_widen_and_add():
    s1 = pa.schema([("a", pa.int32()), ("b", pa.string())])
    s2 = pa.schema([("a", pa.int64()), ("c", pa.timestamp("us"))])
    u = unify(s1, s2)
    assert u.field("a").type == pa.int64()
    assert {f.name for f in u} == {"a", "b", "c"}


@given(st.lists(st.lists(st.integers(0, 2**40), max_size=8), min_size=0, max_size=6))
@settings(max_examples=30, deadline=None)
def test_minhash_batch_equals_per_doc(shingle_lists):
    from rayflow.ops.dedup import minhash_batch, minhash_signature

    rng = np.random.default_rng(1)
    a = rng.integers(1, (1 << 61) - 1, 16, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, 16, dtype=np.uint64)
    sets = [set(x) for x in shingle_lists]
    batch = minhash_batch(sets, a, b)
    for i, s in enumerate(sets):
        assert (batch[i] == minhash_signature(s, a, b)).all()


# -- bloblang parser round-trip (the reference's parser fuzz analogue) ------

import pyarrow.compute as pc  # noqa: E402

from rayflow.bloblang import parse_expr  # noqa: E402

_BL_T = pa.table({
    "a": pa.array([1.0, -2.5, 0.0, 7.25], pa.float64()),
    "b": pa.array([3.0, 4.0, -1.0, 0.5], pa.float64()),
    "s": pa.array(["x", "Yz", "", "abC"], pa.string()),
})

# grammar: generate (source_text, reference_evaluator) pairs recursively
_num = st.sampled_from(["1", "2.5", "0", "10"])
_col = st.sampled_from(["this.a", "this.b"])


def _num_expr(depth):
    if depth <= 0:
        return st.one_of(_num, _col)
    sub = _num_expr(depth - 1)
    return st.one_of(
        _num, _col,
        st.tuples(sub, st.sampled_from(["+", "-", "*"]), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
    )


@given(_num_expr(3))
@settings(max_examples=60, deadline=None)
def test_bloblang_arith_matches_python(src):
    got = parse_expr(src).eval(_BL_T)
    vals = got.to_pylist() if hasattr(got, "to_pylist") else None
    ref_rows = []
    for i in range(4):
        env = {"this_a": _BL_T["a"][i].as_py(), "this_b": _BL_T["b"][i].as_py()}
        py = src.replace("this.a", "this_a").replace("this.b", "this_b")
        ref_rows.append(float(eval(py, {}, env)))
    if vals is None:  # pure-literal expression evaluates to a scalar
        scalar = got.as_py() if hasattr(got, "as_py") else got
        vals = [float(scalar)] * 4
    assert np.allclose(vals, ref_rows), src


@given(st.sampled_from([
    ("this.s.uppercase()", lambda s: s.upper()),
    ("this.s.lowercase()", lambda s: s.lower()),
    ("this.s.reverse()", lambda s: s[::-1]),
    ('this.s.has_prefix("a")', lambda s: s.startswith("a")),
    ('this.s.contains("z")', lambda s: "z" in s),
    ("this.s.length()", lambda s: len(s)),
]))
@settings(max_examples=20, deadline=None)
def test_bloblang_string_methods_match_python(case):
    src, ref = case
    got = parse_expr(src).eval(_BL_T).to_pylist()
    assert got == [ref(s) for s in _BL_T["s"].to_pylist()], src


# -- list-method kernels vs Python reference --------------------------------

opt_int_lists = st.lists(
    st.one_of(st.none(),
              st.lists(st.one_of(st.none(), st.integers(-50, 50)),
                       max_size=6)),
    min_size=1, max_size=20)


@given(opt_int_lists, opt_int_lists)
@settings(max_examples=60, deadline=None)
def test_list_concat_matches_python(a, b):
    from rayflow import expr as E

    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    t = pa.table({"a": pa.array(a, pa.list_(pa.int64())),
                  "b": pa.array(b, pa.list_(pa.int64()))})
    got = E.F("list_concat", E.col("a"), E.col("b")).eval(t).to_pylist()
    want = [None if (x is None or y is None) else x + y
            for x, y in zip(a, b)]
    assert got == want


@given(opt_int_lists)
@settings(max_examples=60, deadline=None)
def test_list_reverse_matches_python(a):
    from rayflow import expr as E

    t = pa.table({"a": pa.array(a, pa.list_(pa.int64()))})
    got = E.F("list_reverse", E.col("a")).eval(t).to_pylist()
    assert got == [None if x is None else list(reversed(x)) for x in a]


@given(st.lists(
    st.one_of(st.none(),
              st.lists(st.one_of(st.none(), st.booleans()), max_size=5)),
    min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_list_any_all_match_python_skipping_nulls(a):
    from rayflow import expr as E

    t = pa.table({"a": pa.array(a, pa.list_(pa.bool_()))})
    got_any = E.F("list_any", E.col("a")).eval(t).to_pylist()
    got_all = E.F("list_all", E.col("a")).eval(t).to_pylist()
    want_any = [None if x is None else any(v for v in x if v is not None)
                for x in a]
    want_all = [None if x is None else all(v for v in x if v is not None)
                for x in a]
    assert got_any == want_any
    assert got_all == want_all


# -- distributed prefix-sum (pack_chunks) vs serial reference ---------------

@given(st.lists(st.integers(1, 500), min_size=1, max_size=120),
       st.integers(100, 2000), st.sampled_from([4, 16, 64]))
@settings(max_examples=15, deadline=None)
def test_pack_chunks_property(sizes, capacity, bucket_rows):
    import ray.data as rd

    from rayflow.ops import build_op

    tbl = pa.table({
        "doc_id": pa.array(range(len(sizes)), pa.int64()),
        "nsz": pa.array(sizes, pa.int64()),
    })
    out = build_op({
        "op": "pack_chunks", "size_col": "nsz", "capacity": capacity,
        "order_col": "doc_id", "bucket_rows": bucket_rows,
    })(rd.from_arrow(tbl).repartition(3)).to_pandas() \
        .sort_values("doc_id", ignore_index=True)
    before = np.concatenate(([0], np.cumsum(sizes)))[:-1]
    assert list(out["chunk_id"]) == list(before // capacity)


# -- histogram percentile combiner vs numpy reference -----------------------

@given(st.lists(st.tuples(st.sampled_from(["a", "b"]),
                          st.integers(0, 100)),
                min_size=2, max_size=200),
       st.sampled_from([0.1, 0.5, 0.9, 1.0]))
@settings(max_examples=15, deadline=None)
def test_group_percentile_property(rows, q):
    import ray.data as rd

    from rayflow.ops import build_op

    tbl = pa.table({
        "g": pa.array([r[0] for r in rows]),
        "v": pa.array([r[1] for r in rows], pa.int64()),
    })
    out = build_op({
        "op": "group_percentile", "keys": ["g"], "value_col": "v",
        "quantiles": [q],
    })(rd.from_arrow(tbl).repartition(3)).to_pandas().set_index("g")
    name = f"p{int(q * 100)}"
    for g in set(r[0] for r in rows):
        s = np.sort([r[1] for r in rows if r[0] == g])
        rank = max(1, int(np.ceil(q * len(s))))
        assert out.loc[g, name] == s[rank - 1]


# -- as-of join vs serial merge_asof reference ------------------------------

@given(st.integers(0, 2**31 - 1), st.sampled_from(["backward", "forward"]),
       st.sampled_from(["auto", "shuffle"]))
@settings(max_examples=10, deadline=None)
def test_asof_join_matches_serial_reference(seed, direction, strategy):
    import ray.data as rd

    from rayflow.ops import build_op

    rng = np.random.default_rng(seed)
    nl, nr = int(rng.integers(1, 60)), int(rng.integers(0, 40))
    l = pd.DataFrame({
        "k": rng.integers(0, 4, nl),
        "t": rng.integers(0, 100, nl),
        "v": np.arange(nl),
    })
    # unique (k, t) on the right: tie order is engine-dependent otherwise
    r = pd.DataFrame({
        "k": rng.integers(0, 4, nr),
        "t": rng.integers(0, 100, nr),
        "price": np.arange(nr) * 10,
    }).drop_duplicates(["k", "t"])
    got = build_op({
        "op": "asof_join", "right": rd.from_pandas(r), "on": "k",
        "time_col": "t", "direction": direction, "strategy": strategy,
    })(rd.from_pandas(l)).to_pandas() \
        .sort_values(["k", "t", "v"], ignore_index=True)
    parts = []
    for k, lg in l.groupby("k"):
        rg = r[r["k"] == k].sort_values("t")
        lg = lg.sort_values("t", kind="stable")
        if rg.empty:
            m = lg.assign(price=np.nan)
        else:
            m = pd.merge_asof(lg, rg[["t", "price"]], on="t",
                              direction=direction)
        parts.append(m)
    want = pd.concat(parts).sort_values(["k", "t", "v"], ignore_index=True)
    assert got["price"].fillna(-1).tolist() == \
        want["price"].fillna(-1).tolist()


# -- interval join vs serial reference --------------------------------------

@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_interval_join_matches_serial_reference(seed):
    import ray.data as rd

    from rayflow.ops import build_op

    rng = np.random.default_rng(seed)
    nl, nr = int(rng.integers(1, 50)), int(rng.integers(1, 30))
    l = pd.DataFrame({
        "k": rng.integers(0, 3, nl),
        "t": rng.integers(0, 100, nl),
        "lid": np.arange(nl),
    })
    starts = rng.integers(0, 90, nr)
    r = pd.DataFrame({
        "k": rng.integers(0, 3, nr),
        "s": starts,
        "e": starts + rng.integers(0, 30, nr),
        "rid": np.arange(nr),
    })
    got = build_op({
        "op": "interval_join", "right": rd.from_pandas(r), "on": "k",
        "time_col": "t", "start_col": "s", "end_col": "e",
    })(rd.from_pandas(l)).to_pandas()
    # empty Ray results lose their schema (documented quirk)
    got_pairs = [] if len(got) == 0 else \
        sorted(zip(got["lid"].astype(int), got["rid"].astype(int)))
    want_pairs = sorted(
        (int(lr.lid), int(rr.rid))
        for lr in l.itertuples() for rr in r.itertuples()
        if lr.k == rr.k and rr.s <= lr.t <= rr.e)
    assert got_pairs == want_pairs


# -- pair_jaccard: uint64 pack+sort fast path == lexsort path == set math -----


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sets(st.integers(0, 2**32 - 1), max_size=30),
              st.sets(st.integers(0, 2**32 - 1), max_size=30)),
    min_size=0, max_size=12,
))
def test_pair_jaccard_paths_agree(pairs):
    import pyarrow as pa

    from rayflow.ops.dedup import pair_jaccard

    def pack(s):
        return np.sort(np.fromiter(s, np.int64, len(s))).tobytes()

    sa = [pack(a) for a, _ in pairs]
    sb = [pack(b) for _, b in pairs]
    want = np.array([
        1.0 if not a and not b else len(a & b) / len(a | b)
        for a, b in pairs
    ])
    got_list = pair_jaccard(sa, sb)                       # list-of-bytes path
    got_arrow = pair_jaccard(pa.array(sa, pa.binary()),   # Arrow-buffer path
                             pa.array(sb, pa.binary()))
    np.testing.assert_allclose(got_list, want, rtol=0, atol=0)
    np.testing.assert_allclose(got_arrow, want, rtol=0, atol=0)


def test_pair_jaccard_lexsort_fallback_agrees():
    """Values outside uint32 (future shingle fns) take the lexsort
    fallback; both paths must agree."""
    from rayflow.ops.dedup import pair_jaccard

    big = 1 << 40
    a = np.sort(np.array([big, big + 3, 7], np.int64)).tobytes()
    b = np.sort(np.array([big, 7, 99], np.int64)).tobytes()
    (j,) = pair_jaccard([a], [b])
    assert j == 2 / 4


# ---------------------------------------------------------- round-4 kernels


def _lev_ref(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    dp = list(range(lb + 1))
    for i in range(1, la + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, lb + 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1,
                                     prev + (a[i - 1] != b[j - 1]))
    return dp[lb]


@given(st.lists(st.tuples(st.text(alphabet="abcde", max_size=10),
                          st.text(alphabet="abcde", max_size=10)),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_lev_dp_batch_matches_scalar_reference(pairs):
    from rayflow.ops.dedup import _lev_dp_batch

    L = max(max(len(a), len(b)) for a, b in pairs)
    L = max(L, 1)
    A = np.full((len(pairs), L), -1, np.int32)
    B = np.full((len(pairs), L), -2, np.int32)
    la = np.array([len(a) for a, _ in pairs], np.int64)
    lb = np.array([len(b) for _, b in pairs], np.int64)
    for r, (a, b) in enumerate(pairs):
        A[r, :len(a)] = [ord(c) for c in a]
        B[r, :len(b)] = [ord(c) for c in b]
    got = _lev_dp_batch(A, B, la, lb)
    exp = np.array([_lev_ref(a, b) for a, b in pairs])
    assert (got == exp).all()


@given(st.lists(st.tuples(st.integers(0, 2),           # key
                          st.integers(0, 50),          # start
                          st.integers(0, 20)),         # duration
                min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_interval_coalesce_matches_bruteforce(rows):
    import ray.data as rd

    from rayflow.ops import build_op

    df = pd.DataFrame({"k": [r[0] for r in rows],
                       "s": [float(r[1]) for r in rows],
                       "e": [float(r[1] + r[2]) for r in rows]})
    out = build_op({"op": "interval_coalesce", "key_col": "k",
                    "start_col": "s", "end_col": "e"})(
        rd.from_pandas(df)).to_pandas()
    # brute force islands per key
    exp_islands = []
    for k, g in df.groupby("k"):
        ivs = sorted(zip(g.s, g.e))
        cur_s, cur_e, n = None, None, 0
        for s, e in ivs:
            if cur_s is None or s > cur_e:
                if cur_s is not None:
                    exp_islands.append((k, cur_s, cur_e, n))
                cur_s, cur_e, n = s, e, 1
            else:
                cur_e = max(cur_e, e)
                n += 1
        exp_islands.append((k, cur_s, cur_e, n))
    got = sorted(map(tuple, out[["k", "s", "e", "n_merged"]].values))
    assert got == sorted(exp_islands)


@given(st.lists(st.tuples(st.integers(0, 2),            # key
                          st.sampled_from(["a", "b", "c", "x"]),
                          st.integers(0, 30)),          # time
                min_size=1, max_size=40))
@settings(max_examples=40, deadline=None)
def test_funnel_matches_bruteforce(rows):
    import ray.data as rd

    from rayflow.ops import build_op

    df = pd.DataFrame({"u": [r[0] for r in rows],
                       "s": [r[1] for r in rows],
                       "t": [float(r[2]) for r in rows]})
    steps = ["a", "b", "c"]
    out = build_op({"op": "funnel", "key_col": "u", "step_col": "s",
                    "order_col": "t", "steps": steps})(
        rd.from_pandas(df)).to_pandas()
    if "u" not in out.columns:          # nobody started the funnel
        out = pd.DataFrame(columns=["u", "reached"]
                           + [f"step{i+1}_order" for i in range(3)])
    out = out.set_index("u")
    for u, g in df.groupby("u"):
        prev = None
        ts = []
        for stp in steps:
            cand = g[(g.s == stp)]
            if prev is not None:
                cand = cand[cand.t > prev]
            if len(cand) == 0:
                break
            prev = cand.t.min()
            ts.append(prev)
        if not ts:
            assert u not in out.index
            continue
        assert out.loc[u, "reached"] == len(ts)
        for i, v in enumerate(ts):
            assert out.loc[u, f"step{i+1}_order"] == v


@given(st.lists(st.tuples(st.integers(0, 2),           # key
                          st.integers(0, 100)),        # value (int)
                min_size=1, max_size=60),
       st.integers(1, 6))
@settings(max_examples=12, deadline=None)
def test_group_moving_agg_matches_pandas(rows, window):
    import ray.data as rd

    from rayflow.ops import build_op

    df = pd.DataFrame({"k": [r[0] for r in rows],
                       "o": np.arange(len(rows)),
                       "v": [float(r[1]) for r in rows]})
    out = build_op({
        "op": "group_moving_agg", "key_col": "k", "order_col": "o",
        "value_col": "v", "window": window, "fns": ["sum", "count"],
    })(rd.from_pandas(df)).to_pandas().sort_values("o") \
        .reset_index(drop=True)
    exp = df.sort_values(["k", "o"]).reset_index(drop=True)
    roll = exp.groupby("k")["v"].rolling(window, min_periods=1)
    exp["s"] = roll.sum().reset_index(level=0, drop=True)
    exp["c"] = roll.count().reset_index(level=0, drop=True)
    exp = exp.sort_values("o").reset_index(drop=True)
    np.testing.assert_allclose(out["v_mov_sum"], exp["s"], atol=1e-9)
    assert (out["v_mov_count"].values == exp["c"].values).all()


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                min_size=0, max_size=40),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)),
                min_size=0, max_size=40))
@settings(max_examples=10, deadline=None)
def test_set_op_matches_python_sets(a_rows, b_rows):
    import ray.data as rd

    from rayflow.ops import build_op

    if not a_rows:
        return  # empty left Dataset has no schema to select
    a = pd.DataFrame(a_rows, columns=["x", "y"])
    b = pd.DataFrame(b_rows if b_rows else [(99, 99)],
                     columns=["x", "y"])
    sa, sb = set(map(tuple, a.values)), set(map(tuple, b.values))
    for how, exp in [("intersect", sa & sb), ("except", sa - sb),
                     ("union_distinct", sa | sb)]:
        out = build_op({"op": "set_op", "other": rd.from_pandas(b),
                        "how": how})(rd.from_pandas(a)).to_pandas()
        got = set(map(tuple, out.values)) if len(out) else set()
        assert got == exp, (how, got, exp)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rle8_roundtrip_property(data):
    """Any gray frame survives BI_RLE8 encode→decode bit-exactly."""
    import numpy as np

    from rayflow.ops.avi import _decode_rle8_frame, _encode_rle8_frame

    h = data.draw(st.integers(1, 24))
    w = data.draw(st.integers(1, 24))
    seed = data.draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    # mix flat runs (RLE-friendly) and noise (absolute-mode heavy)
    g = rng.integers(0, 256, (h, w), dtype=np.uint8)
    if data.draw(st.booleans()):
        g[: h // 2] = data.draw(st.integers(0, 255))
    out = _decode_rle8_frame(_encode_rle8_frame(g), w, h)
    np.testing.assert_array_equal(out[:, :, 0], g)
    np.testing.assert_array_equal(out[:, :, 2], g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from(["YUY2", "I420"]))
def test_yuv_gray_roundtrip_property(seed, codec):
    """Grayscale frames (constant chroma) survive YUV round-trip within
    Y-quantization error (≤2 LSB, BT.601 limited-range scaling)."""
    import numpy as np

    from rayflow.ops.avi import decode_avi, synth_avi

    rng = np.random.default_rng(seed)
    g = rng.integers(0, 256, (16, 20), dtype=np.uint8)
    out, _ = decode_avi(synth_avi([g], fps=5, codec=codec))
    err = np.abs(out[0][:, :, 0].astype(int) - g.astype(int)).max()
    assert err <= 2, (codec, err)


# ------------------------------------------------------------- t-digest

floats = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=300)


@given(floats, st.sampled_from([20.0, 100.0, 500.0]))
@settings(max_examples=80, deadline=None)
def test_td_compress_invariants(vals, delta):
    from rayflow.ops.sketch import td_compress

    v = np.asarray(vals, dtype=np.float64)
    m, w = td_compress(v, np.ones(len(v)), delta)
    assert np.isclose(w.sum(), len(v))             # weight conserved
    assert (w > 0).all()
    assert (np.diff(m) >= -1e-9).all()             # means sorted
    assert m.min() >= v.min() - 1e-9               # means inside hull
    assert m.max() <= v.max() + 1e-9
    # re-compressing an already-compressed digest conserves weight and
    # never grows the centroid count
    m2, w2 = td_compress(m, w, delta)
    assert np.isclose(w2.sum(), len(v))
    assert len(m2) <= len(m)


@given(floats)
@settings(max_examples=60, deadline=None)
def test_td_quantile_monotone_and_bounded(vals):
    from rayflow.ops.sketch import td_compress, td_quantile

    v = np.asarray(vals, dtype=np.float64)
    m, w = td_compress(v, np.ones(len(v)), delta=100.0)
    qs = np.linspace(0.0, 1.0, 21)
    est = td_quantile(m, w, qs)
    assert (np.diff(est) >= -1e-9).all()           # monotone in q
    assert est.min() >= v.min() - 1e-9
    assert est.max() <= v.max() + 1e-9


@given(st.integers(1, 4000), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_td_rank_error_bound_uniform(n, seed):
    """Rank error of the single-pass digest on random uniforms stays
    within the k1 bound (plus the 1/n discretization floor)."""
    from rayflow.ops.sketch import td_compress, td_quantile

    rng = np.random.default_rng(seed)
    v = np.sort(rng.uniform(0, 1, n))
    delta = 100.0
    m, w = td_compress(v, np.ones(n), delta)
    for q in (0.01, 0.25, 0.5, 0.75, 0.99):
        est = td_quantile(m, w, np.array([q]))[0]
        rank = np.searchsorted(v, est) / n
        # k1-scale cluster q-width is ~4π·sqrt(q(1−q))/δ (NOT q(1−q)/δ
        # — the asin derivative), plus the 1/n discretization floor
        assert abs(rank - q) <= 4.0 * np.pi * np.sqrt(q * (1 - q)) \
            / delta + 2.0 / n + 1e-9


# ------------------------------------------------------------------ PQ

vecs = st.integers(10, 80).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, 2**31 - 1)))


@given(vecs, st.sampled_from([2, 4, 8]))
@settings(max_examples=30, deadline=None)
def test_pq_encode_kernel_properties(nv_seed, m_sub):
    """Codebook shapes, deterministic encode, identical vectors →
    identical codes, and ADC-exactness when every subvector is its own
    centroid."""
    from rayflow.ops.ann import (_normalize_rows, _pq_encode,
                                 pq_train_codebooks)

    n, seed = nv_seed
    rng = np.random.default_rng(seed)
    d = 16
    x = _normalize_rows(rng.normal(size=(n, d)))
    cb = pq_train_codebooks(x, m_sub, k_sub=256, seed=seed)
    assert cb.shape[0] == m_sub and cb.shape[2] == d // m_sub
    c1 = _pq_encode(x, cb)
    c2 = _pq_encode(x, cb)
    assert (c1 == c2).all()
    assert c1.shape == (n, m_sub) and c1.dtype == np.uint8
    # identical rows encode identically
    y = np.vstack([x[0], x[0]])
    cy = _pq_encode(y, cb)
    assert (cy[0] == cy[1]).all()


def test_pq_train_rejects_indivisible_dim():
    from rayflow.ops.ann import pq_train_codebooks

    with np.testing.assert_raises(ValueError):
        pq_train_codebooks(np.ones((4, 10)), m_sub=3, k_sub=4)

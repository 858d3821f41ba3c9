"""Local replica of the driver's correctness gate: every ``queries()``
entry vs its ``oracle_sql()`` DuckDB result at sf0.01 — row count, column
names, and order-insensitive value equality."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


def _duck(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa

    try:
        import ray.data as rd

        if isinstance(result, rd.Dataset):
            return result.to_pandas()
    except ImportError:
        pass
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].round(6)
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _compare(engine_df: pd.DataFrame, oracle_df: pd.DataFrame, name: str):
    assert sorted(engine_df.columns) == sorted(oracle_df.columns), (
        f"{name}: columns differ: {sorted(engine_df.columns)} vs {sorted(oracle_df.columns)}"
    )
    assert len(engine_df) == len(oracle_df), (
        f"{name}: row count {len(engine_df)} vs {len(oracle_df)}"
    )
    e, o = _normalize(engine_df), _normalize(oracle_df)
    for c in e.columns:
        if pd.api.types.is_float_dtype(e[c]) or pd.api.types.is_float_dtype(o[c]):
            assert np.allclose(
                e[c].astype(float), o[c].astype(float), rtol=1e-9, atol=1e-6,
                equal_nan=True,
            ), f"{name}: float column {c} differs"
        else:
            el, ol = e[c].tolist(), o[c].tolist()
            assert el == ol, (
                f"{name}: column {c} differs; first mismatch at "
                f"{next((i for i, (a, b) in enumerate(zip(el, ol)) if a != b), '?')}"
            )


def _query_names():
    from rayflow.queries import ORACLE_SQL, QUERIES

    assert set(ORACLE_SQL) <= set(QUERIES)
    return sorted(ORACLE_SQL)


@pytest.mark.parametrize("name", _query_names())
def test_query_matches_oracle(name, sf01_dir):
    from rayflow.queries import ORACLE_SQL, QUERIES

    engine_df = _to_pandas(QUERIES[name](sf01_dir))
    con = _duck(sf01_dir)
    oracle_df = con.sql(ORACLE_SQL[name]).df()
    con.close()
    _compare(engine_df, oracle_df, name)


def test_entry_contract():
    import __ray_entry__ as e

    ds = e.entry()
    n = ds.count()
    assert n > 0
    assert "conv_id" in [f for f in ds.schema().names]
    q, o = e.queries(), e.oracle_sql()
    assert q and set(o) <= set(q)


def test_no_oracle_queries_run_and_return_rows(sf01_dir):
    """Queries without a SQL oracle (non-SQL-expressible rebuilds /
    generic ANN top-k) still run through the driver surface: each must
    execute at sf0.01 and return a non-empty frame with stable,
    non-empty column names."""
    from rayflow.queries import ORACLE_SQL, QUERIES

    missing = sorted(set(QUERIES) - set(ORACLE_SQL))
    assert missing, "every query has an oracle — drop this test guard"
    for name in missing:
        df = _to_pandas(QUERIES[name](sf01_dir))
        assert len(df.columns) > 0, name
        assert len(df) > 0, f"{name}: empty result"


_TWO_CPU_SCRIPT = r"""
import sys

import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from rayflow.queries import ORACLE_SQL, QUERIES
from tests.test_queries_oracle import _compare, _duck, _to_pandas

sf_dir = sys.argv[1]
for name in sys.argv[2:]:
    con = _duck(sf_dir)
    _compare(_to_pandas(QUERIES[name](sf_dir)),
             con.sql(ORACLE_SQL[name]).df(), name)
    con.close()
    print("ok", name, flush=True)
ray.shutdown()
"""


def test_actor_free_queries_finish_at_two_cpus(sf01_dir):
    """``minhash_near_dup`` and ``sft_corpus_transcripts`` start no
    actor pool or join aggregators, so a 2-CPU Ray session (its own, in
    a child process) runs them to their oracles instead of waiting on
    actors that hold every CPU."""
    import os
    import signal
    import subprocess
    import sys

    names = ["minhash_near_dup", "sft_corpus_transcripts"]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=root, RAY_ADDRESS="")
    proc = subprocess.Popen(
        [sys.executable, "-c", _TWO_CPU_SCRIPT, sf01_dir, *names],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child's Ray processes too
        out, err = proc.communicate()
        pytest.fail(f"no result within 180 s at num_cpus=2; done: {out!r}")
    assert proc.returncode == 0, err[-3000:]
    done = [ln for ln in out.splitlines() if ln.startswith("ok ")]
    assert done == [f"ok {n}" for n in names]

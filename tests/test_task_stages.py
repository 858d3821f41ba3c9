"""Per-batch stages run as plain Ray tasks: no actor pool, so nothing
reserves a CPU that the stage feeding it needs.

- an AST guard keeps actor-pool ``map_batches``/``map_groups`` calls out
  of ``rayflow/``;
- a child-process test runs the former actor-pool queries, and a
  replay followed by ``repartition``, at 1 and 2 CPUs under a time
  limit, each against an oracle.
"""

from __future__ import annotations

import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: arguments that only an actor-pool stage passes to map_batches/map_groups
_CTOR_ARGS = ("fn_constructor_args", "fn_constructor_kwargs")


def _modules():
    for dirpath, _, names in os.walk(os.path.join(ROOT, "rayflow")):
        for n in sorted(names):
            if n.endswith(".py"):
                path = os.path.join(dirpath, n)
                with open(path) as f:
                    yield os.path.relpath(path, ROOT), ast.parse(f.read())


def test_no_actor_pool_stages():
    """No module under ``rayflow/`` hands ``map_batches``/``map_groups``
    a class, constructor arguments or a CPU reservation — or builds a
    keyword dict carrying constructor arguments for them.  (``MergePool``
    starts its actors with ``ray.remote``, not through a Dataset.)"""
    modules = list(_modules())
    classes = {node.name for _, tree in modules for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    bad = []
    for path, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute) and node.func.attr in (
                    "map_batches", "map_groups"):
                if node.args and isinstance(node.args[0], ast.Name) \
                        and node.args[0].id in classes:
                    bad.append(f"{path}:{node.lineno} class "
                               f"{node.args[0].id}")
                bad += [f"{path}:{node.lineno} num_cpus="
                        for kw in node.keywords if kw.arg == "num_cpus"]
            elif isinstance(node, ast.keyword) and node.arg in _CTOR_ARGS:
                bad.append(f"{path}: {node.arg}=")
            elif isinstance(node, ast.Constant) and node.value in _CTOR_ARGS:
                bad.append(f"{path}:{node.lineno} {node.value!r}")
    assert not bad, bad


def test_memo_is_a_bounded_lru(monkeypatch):
    """The per-process memo builds once per key and keeps at most
    ``MEMO_ENTRIES`` entries, dropping the least recently used."""
    from rayflow.ops import kernels

    monkeypatch.setattr(kernels, "_BCAST_CACHE", {})
    built = []
    for i in range(kernels.MEMO_ENTRIES):
        kernels.memo(i, lambda i=i: built.append(i) or i)
    assert kernels.memo(0, lambda: -1) == 0        # a hit; 0 is now newest
    kernels.memo("new", lambda: "new")             # evicts 1, the oldest
    assert len(kernels._BCAST_CACHE) == kernels.MEMO_ENTRIES
    assert 0 in kernels._BCAST_CACHE and 1 not in kernels._BCAST_CACHE
    assert kernels.memo(1, lambda: "rebuilt") == "rebuilt"
    assert built == list(range(kernels.MEMO_ENTRIES))


_LOW_CPU_SCRIPT = r"""
import sys
import tempfile

import numpy as np
import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=int(sys.argv[2]), include_dashboard=False,
         logging_level="ERROR")
DataContext.get_current().enable_progress_bars = False
from rayflow.queries import ORACLE_SQL, QUERIES
from tests.test_queries_oracle import _compare, _duck, _to_pandas

sf_dir = sys.argv[1]


def ann_lsh_oracle():
    from rayflow.ops.ann import LshIndexStage, _hamming_probe_sets

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy()
    m = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    q, qids = m[ids < 5], ids[ids < 5]
    stage = LshIndexStage(m.shape[1], n_planes=8, seed=42)
    buckets = stage.bucket_of(m)
    probes = _hamming_probe_sets(stage.bucket_of(q), 8, 1)
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    rows = []
    for j, qid in enumerate(qids):
        cand = np.isin(buckets, probes[j]) & (ids != qid)
        g = pd.DataFrame({"vec_id": ids[cand], "cos": mn[cand] @ qn[j]})
        g = g.sort_values(["cos", "vec_id"], ascending=[False, True]).head(10)
        rows += [(int(qid), int(v), r + 1) for r, v in enumerate(g["vec_id"])]
    return pd.DataFrame(rows, columns=["query_id", "vec_id", "rank"])


def bpe_oracle():
    from rayflow.ops.bpe import encode_word, learn_merges

    docs = pq.read_table(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    words = pc.utf8_split_whitespace(pc.utf8_lower(docs["text"])).to_pylist()
    freq = {}
    for ws in words:
        for w in ws or []:
            if w:
                freq[w] = freq.get(w, 0) + 1
    ranks = {p: i for i, p in enumerate(learn_merges(freq, 64))}
    return pd.DataFrame({
        "doc_id": docs["doc_id"].to_numpy(),
        "n_bpe_tokens": [sum(len(encode_word(w, ranks)) for w in ws or [] if w)
                         for ws in words]})


con = _duck(sf_dir)
_compare(_to_pandas(QUERIES["sql_batch_transform"](sf_dir)),
         con.sql(ORACLE_SQL["sql_batch_transform"]).df(), "sql_batch_transform")
con.close()
print("ok sql_batch_transform", flush=True)
_compare(_to_pandas(QUERIES["ann_lsh_topk"](sf_dir)), ann_lsh_oracle(),
         "ann_lsh_topk")
print("ok ann_lsh_topk", flush=True)
_compare(_to_pandas(QUERIES["bpe_train_encode_docs"](sf_dir)), bpe_oracle(),
         "bpe_train_encode_docs")
print("ok bpe_train_encode_docs", flush=True)

from rayflow.cdc import CdcEngine, ChangeLogSpec, generate_changelog
from rayflow.cdc.oracle import lww_oracle, read_changelog_pandas

tmp = tempfile.mkdtemp()
generate_changelog(f"{tmp}/log", ChangeLogSpec(n_convs=60, n_bands=2, seed=9))
engine = CdcEngine(f"{tmp}/lake", num_partitions=8)
engine.replay(f"{tmp}/log")
assert engine.repartition(16) > 0
_compare(engine.final_table(include_meta=True).to_pandas(),
         lww_oracle(read_changelog_pandas(f"{tmp}/log")), "repartition")
print("ok repartition", flush=True)
ray.shutdown()
"""

_LOW_CPU_STEPS = ["sql_batch_transform", "ann_lsh_topk",
                  "bpe_train_encode_docs", "repartition"]


@pytest.mark.parametrize("num_cpus", [1, 2])
def test_task_stages_finish_at_low_cpu_counts(sf01_dir, num_cpus):
    """The queries whose stages were actor pools, and ``repartition``
    (whose partition writers were), finish at ``num_cpus`` in a Ray
    session of their own (a child process) and equal their oracles."""
    import signal
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=ROOT, RAY_ADDRESS="")
    proc = subprocess.Popen(
        [sys.executable, "-c", _LOW_CPU_SCRIPT, sf01_dir, str(num_cpus)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child's Ray processes too
        out, err = proc.communicate()
        pytest.fail(f"no result within 180 s at num_cpus={num_cpus}; "
                    f"done: {out!r}")
    assert proc.returncode == 0, err[-3000:]
    done = [ln for ln in out.splitlines() if ln.startswith("ok ")]
    assert done == [f"ok {n}" for n in _LOW_CPU_STEPS]

"""Scale-tier replay evidence (round-5 punch item #6).

Replays a change log S× the sf0.1 bench fixture (default 5× ≈ 280 M
events, ~6 M live keys) through :class:`rayflow.cdc.replay.CdcEngine`
and records sustained events/s, peak cluster RSS, and an independent
DuckDB ground-truth check of the final lake state — evidence that the
merge state stays bounded and the manifest stays clean well beyond the
per-round fixture.

Generation is SEGMENTED so the driver never holds more than one
sf0.1-sized event array: each segment is synthesized with the bench
spec (seed varies per segment), then conv ids / LSNs / versions are
shifted by the segment offset before banding — LSNs stay globally
unique and monotone across the whole log, which is all replay order
correctness requires (rayflow/cdc/changelog.py band contract).

num_partitions follows the documented sizing rule
(rayflow/cdc/replay.py: P ≈ total_keys × row_bytes / partition_budget,
floored at 2× cluster CPUs for parallelism): at 5× sf0.1 the latest
state is ~6 M keys × ~110 B ≈ 0.66 GB, so a 64 MB per-partition budget
gives P = max(2×32, 11) = 64 — state is CPU-bound, not memory-bound,
at this tier; the rule only starts raising P past ~2 G keys.

Usage:  python scale_tier_replay.py [--scale 5] [--cpus 32]
Prints one JSON line; run it from the repo root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np


def _peak_rss_sampler(stop: threading.Event, out: dict) -> None:
    """Sample summed RSS (MB) of this process tree + all Ray workers
    every 0.5 s; record the peak.  /proc-based, no psutil."""
    me = os.getpid()
    while not stop.is_set():
        total = 0
        for pid in os.listdir("/proc"):
            if not pid.isdigit():
                continue
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
                if b"ray" not in cmd and int(pid) != me:
                    continue
                with open(f"/proc/{pid}/statm") as f:
                    rss_pages = int(f.read().split()[1])
                total += rss_pages * 4096
            except (OSError, IndexError, ValueError):
                continue
        out["peak_rss_gb"] = max(out.get("peak_rss_gb", 0.0),
                                 round(total / (1 << 30), 2))
        stop.wait(0.5)


def generate_scaled_log(log_dir: str, scale: int,
                        evolve_seg: int | None = None) -> dict:
    """Write ``scale`` consecutive sf0.1-sized segments as one change
    log.  Segment k's conv ids live in [k·n_convs, (k+1)·n_convs) and
    its LSNs in [off_k, off_k + n_k) — disjoint keys and globally
    ordered LSNs, so bands replay exactly like a single big log."""
    from rayflow.cdc.changelog import ChangeLogSpec, _events_to_table, _synth_events

    done = os.path.join(log_dir, "_DONE.json")
    if os.path.exists(done):
        with open(done) as f:
            return json.load(f)
    shutil.rmtree(log_dir, ignore_errors=True)
    os.makedirs(log_dir, exist_ok=True)
    import pyarrow as pa
    import pyarrow.parquet as pq

    # smoke-test knob: override segment size (tests use a tiny value)
    n_convs = int(os.environ.get("RAYFLOW_SCALETIER_CONVS", "120000"))
    bands_per_seg = 8
    nsp = 8
    lsn_off = 0
    n_files = 0
    evolve_at_lsn = None
    for seg in range(scale):
        spec = ChangeLogSpec(
            n_convs=n_convs, turns_per_conv=10.0, update_ratio=45.0,
            delete_ratio=0.5, zipf_s=1.2, n_source_partitions=nsp,
            n_bands=bands_per_seg, seed=42 + seg,
        )
        ev = _synth_events(spec)
        n = len(ev["lsn"])
        ev["conv"] = ev["conv"] + seg * n_convs
        ev["lsn"] = ev["lsn"] + lsn_off
        ev["ver"] = ev["ver"] + lsn_off  # keeps per-version text unique
        # schema evolution switch: every event from segment
        # ``evolve_seg`` on carries the V2 payload column (the switch
        # LSN is the segment boundary — recorded in _DONE.json)
        if evolve_seg is not None and seg == evolve_seg:
            evolve_at_lsn = lsn_off
        seg_evolve = evolve_at_lsn if (evolve_seg is not None
                                       and seg >= evolve_seg) else None
        src_part = (ev["conv"].astype(np.uint64) * np.uint64(2654435761)) \
            % np.uint64(nsp)
        bounds = np.linspace(0, n, bands_per_seg + 1).astype(np.int64)
        for b in range(bands_per_seg):
            lo, hi = int(bounds[b]), int(bounds[b + 1])
            if hi <= lo:
                continue
            gb = seg * bands_per_seg + b  # global band id
            band_dir = os.path.join(log_dir, f"band-{gb:05d}")
            os.makedirs(band_dir, exist_ok=True)
            tbl = _events_to_table(ev, lo, hi, seg_evolve)
            parts = src_part[lo:hi]
            for sp in range(nsp):
                idx = np.nonzero(parts == sp)[0]
                if len(idx) == 0:
                    continue
                sub = tbl.take(pa.array(idx))
                flo = int(sub["lsn"][0].as_py())
                fhi = int(sub["lsn"][-1].as_py())
                pq.write_table(sub, os.path.join(
                    band_dir, f"part-{sp:04d}-lsn-{flo:012d}-{fhi:012d}.parquet"))
                n_files += 1
        lsn_off += n
        del ev
        print(f"segment {seg + 1}/{scale} written ({lsn_off:,} events so far)",
              file=sys.stderr)
    info = {"evolve_at_lsn": evolve_at_lsn,
            "n_events": lsn_off, "n_bands": scale * bands_per_seg,
            "n_files": n_files, "max_lsn": lsn_off - 1}
    with open(done, "w") as f:
        json.dump(info, f)
    return info


def duckdb_ground_truth(log_dir: str, lake_files: list[str],
                        evolve_at_lsn: int | None = None) -> dict:
    """Independent LWW oracle over the raw change log vs the lake.

    DuckDB computes, per (conv_id, turn_idx), the max-LSN event; keys
    whose winner is a delete are absent.  Compares row count AND
    sum(winning lsn) — a value-level fingerprint of the merge.  With
    schema evolution, additionally checks that exactly the keys whose
    WINNING event is at/past the switch LSN carry the V2 column
    (``union_by_name`` handles the pre/post-switch Parquet schemas)."""
    import duckdb

    con = duckdb.connect()
    exp = con.execute(f"""
        WITH w AS (
          SELECT conv_id, turn_idx, arg_max(op, lsn) AS last_op,
                 max(lsn) AS lsn
          FROM read_parquet('{log_dir}/band-*/*.parquet',
                            union_by_name=true)
          GROUP BY conv_id, turn_idx
        )
        SELECT count(*) AS rows, sum(lsn) AS lsn_sum,
               count(*) FILTER (lsn >= {evolve_at_lsn
                                        if evolve_at_lsn is not None
                                        else -1}) AS v2_rows
        FROM w WHERE last_op <> 'delete'
    """).fetchone()
    got = con.execute(
        "SELECT count(*) AS rows, sum(_lsn) AS lsn_sum FROM "
        "read_parquet(?, union_by_name=true)",
        [lake_files],
    ).fetchone()
    out = {
        "expected_rows": exp[0], "lake_rows": got[0],
        "expected_lsn_sum": int(exp[1]), "lake_lsn_sum": int(got[1]),
        "match": exp[0] == got[0] and int(exp[1]) == int(got[1]),
    }
    if evolve_at_lsn is not None:
        got_v2 = con.execute(
            "SELECT count(*) FILTER (meta_model IS NOT NULL) FROM "
            "read_parquet(?, union_by_name=true)", [lake_files],
        ).fetchone()
        out["expected_v2_rows"] = exp[2]
        out["lake_v2_rows"] = got_v2[0]
        out["evolution_match"] = exp[2] == got_v2[0]
        out["match"] = out["match"] and out["evolution_match"]
    con.close()
    return out


def kill_resume(log_dir: str, lake_dir: str, cpus: int,
                kill_after_s: float) -> None:
    """Mid-flight SIGKILL → fresh-process resume → exact-state check.

    The child replays into a fresh lake and is killed hard after
    ``kill_after_s`` seconds; the parent reads the manifest's
    ``committed_lsn`` (the only carried state), resumes in another
    subprocess, then verifies the final lake against the DuckDB LWW
    ground truth over the raw log — the scale-tier proof of the north
    rule's exactly-once + resumable-from-checkpoint clauses."""
    import signal
    import subprocess

    shutil.rmtree(lake_dir, ignore_errors=True)
    body = f'''
import ray
ray.init(address="local", num_cpus={cpus}, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from rayflow.cdc.replay import CdcEngine
eng = CdcEngine({lake_dir!r}, num_partitions=64, auto_salt=True,
                salt_sample_fraction=0.01)
stats = eng.replay({log_dir!r}, bands_per_commit=4)
import json
print(json.dumps({{"resumed_events": stats.n_events,
                   "committed_lsn": eng.manifest.state.get("committed_lsn"),
                   "files": eng.manifest.live_files()}}))
'''
    here = os.path.dirname(os.path.abspath(__file__))
    child = subprocess.Popen([sys.executable, "-c", body], cwd=here,
                             stdout=subprocess.DEVNULL,
                             stderr=subprocess.DEVNULL)
    time.sleep(kill_after_s)
    child.send_signal(signal.SIGKILL)
    child.wait()
    with open(os.path.join(lake_dir, "manifest.json")) as f:
        lsn_at_kill = json.load(f).get("committed_lsn")
    print(f"killed at committed_lsn={lsn_at_kill}", file=sys.stderr)

    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", body], cwd=here,
                         capture_output=True, text=True, check=True)
    r = json.loads(out.stdout.strip().splitlines()[-1])
    resume_s = round(time.perf_counter() - t0, 1)

    oracle = duckdb_ground_truth(log_dir, r["files"])
    print(json.dumps({
        "metric": "scale_tier_kill_resume",
        "committed_lsn_at_kill": lsn_at_kill,
        "resumed_events": r["resumed_events"],
        "final_committed_lsn": r["committed_lsn"],
        "resume_wall_s": resume_s,
        "oracle": oracle,
    }))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=int, default=5,
                    help="multiple of the sf0.1 bench fixture (default 5)")
    ap.add_argument("--cpus", type=int,
                    default=int(os.environ.get(
                        "RAY_GRAFT_CPUS", len(os.sched_getaffinity(0)))))
    ap.add_argument("--skip-oracle", action="store_true")
    ap.add_argument("--evolve-seg", type=int, default=None, metavar="K",
                    help="schema-evolve the payload (V2 column) from "
                         "segment K on — exercises Arrow schema "
                         "unification at the scale tier")
    ap.add_argument("--kill-resume", type=float, metavar="SECS",
                    default=None,
                    help="SIGKILL the replay in a subprocess after SECS "
                         "seconds, resume from the manifest in a fresh "
                         "process, verify exact final state (the scale-"
                         "tier exactly-once/resumability evidence)")
    args = ap.parse_args()

    suffix = f"{args.scale}x" + (
        f"-evolve{args.evolve_seg}" if args.evolve_seg is not None else "")
    log_dir = f"/tmp/rayflow-bench/changelog-scaletier-{suffix}"
    lake_dir = f"/tmp/rayflow-bench/lake-scaletier-{suffix}"

    t0 = time.perf_counter()
    info = generate_scaled_log(log_dir, args.scale,
                               evolve_seg=args.evolve_seg)
    gen_s = round(time.perf_counter() - t0, 1)
    print(f"log ready: {info['n_events']:,} events, {info['n_bands']} bands "
          f"({gen_s}s)", file=sys.stderr)

    if args.kill_resume is not None:
        kill_resume(log_dir, lake_dir + "-resume", args.cpus,
                    args.kill_resume)
        return

    import ray

    ray.init(address="local", num_cpus=args.cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from rayflow.cdc.replay import CdcEngine

    # num_partitions by the documented rule (see module docstring)
    n_keys = args.scale * 1_200_000
    state_bytes = n_keys * 110
    num_partitions = max(2 * args.cpus,
                         math.ceil(state_bytes / (64 << 20)))
    shutil.rmtree(lake_dir, ignore_errors=True)
    engine = CdcEngine(lake_dir, num_partitions=num_partitions,
                       auto_salt=True, salt_sample_fraction=0.01)

    rss: dict = {}
    stop = threading.Event()
    sampler = threading.Thread(target=_peak_rss_sampler, args=(stop, rss),
                               daemon=True)
    sampler.start()

    # first band untimed (lake creation / pool spin-up), same as bench.py
    engine.replay(log_dir, max_bands=1)
    t0 = time.perf_counter()
    stats = engine.replay(log_dir, bands_per_commit=8)
    wall = round(time.perf_counter() - t0, 2)
    stop.set()
    sampler.join(timeout=3)

    manifest_lsn = engine.manifest.state.get("committed_lsn")
    lake_files = engine.manifest.live_files()
    ray.shutdown()

    oracle = None
    if not args.skip_oracle:
        print("running DuckDB ground-truth oracle...", file=sys.stderr)
        oracle = duckdb_ground_truth(log_dir, lake_files,
                                     info.get("evolve_at_lsn"))

    lake_bytes = sum(os.path.getsize(f) for f in lake_files)
    print(json.dumps({
        "metric": "scale_tier_replay",
        "scale_vs_sf0.1": args.scale,
        "events_total": info["n_events"],
        "events_timed": stats.n_events,
        "value": wall,
        "unit": "sec",
        "events_per_s": round(stats.n_events / wall, 1),
        "num_cpus": args.cpus,
        "num_partitions": num_partitions,
        "peak_cluster_rss_gb": rss.get("peak_rss_gb"),
        "lake_gb": round(lake_bytes / (1 << 30), 2),
        "manifest_committed_lsn": manifest_lsn,
        "max_lsn": info["max_lsn"],
        "manifest_clean": manifest_lsn == info["max_lsn"],
        "oracle": oracle,
        "gen_s": gen_s,
    }))


if __name__ == "__main__":
    main()

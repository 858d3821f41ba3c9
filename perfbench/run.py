"""Benchmark command: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.

Supervises one run of :mod:`perfbench.session` in a child process:
samples the summed PSS of every process of the run, Ray's included,
stops the run if it overruns its deadline, ends every process it
started, and prints the result as the last line of stdout.  Exits 2
without a result when the checkout holds no ``rayflow`` package.
"""

from __future__ import annotations

import time

T0 = time.time()          # process start, for setup_s: before the other imports
T0_MONO = time.monotonic()

import argparse
import ctypes
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PREFIX = "@@perfbench "
DEADLINE_S = 160.0        # the run is stopped past this; the command ends
SAMPLE_S = 0.5            # PSS sampling period
WORKLOADS = ("tail", "operators")
PR_SET_CHILD_SUBREAPER = 36


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _stat(pid: int) -> tuple[str, int, int, int] | None:
    """(state, parent pid, session id, start time in clock ticks)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), int(fields[3]), int(fields[19])


class Tree:
    """The processes of the run: the child, which leads a session of its
    own, everything in that session, orphans reparented to this process,
    and their descendants."""

    def __init__(self, child: subprocess.Popen):
        self.root = child.pid
        self.seen: dict[int, int] = {}      # pid -> start ticks
        self.peak_kb = 0

    def _alive(self, pid: int, start: int) -> bool:
        st = _stat(pid)
        return st is not None and st[3] == start and st[0] != "Z"

    def sample(self) -> None:
        stats = {int(n): st for n in os.listdir("/proc")
                 if n.isdigit() and (st := _stat(int(n))) is not None}
        # the session's members, and orphans reparented to this process
        tree = {p for p, st in stats.items()
                if st[2] == self.root or st[1] == os.getpid()}
        frontier = [self.root, *tree]
        while frontier:
            pid = frontier.pop()
            if pid in stats:
                tree.add(pid)
                frontier.extend(p for p, st in stats.items()
                                if st[1] == pid and p not in tree)
        for pid in tree:
            self.seen.setdefault(pid, stats[pid][3])
        total = _pss_kb(os.getpid()) + sum(_pss_kb(p) for p in tree)
        self.peak_kb = max(self.peak_kb, total)

    def kill_all(self, timeout: float = 10.0) -> None:
        """SIGKILL every process of the run, including any started while
        the others are being killed, and wait until each has ended."""
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            self.sample()
            live = [p for p, s in self.seen.items() if self._alive(p, s)]
            if not live:
                return
            for pid in live:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.05)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    sys.path.insert(0, ROOT)
    spec = importlib.util.find_spec("rayflow")
    if spec is None or not spec.origin.startswith(ROOT + os.sep):
        print(f"perfbench: no rayflow package under {ROOT}", file=sys.stderr)
        return 2

    # become the subreaper of the run, so processes orphaned when their
    # Ray parent dies are reparented here and reaped below, not by init
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    work = os.path.join(ROOT, ".bench_out", f"run-{os.getpid()}")
    os.makedirs(work)
    env = dict(os.environ, RAY_USAGE_STATS_ENABLED="0",
               PYTHONPATH=os.pathsep.join(
                   [ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.session",
         "--workload", a.workload, "--seed", str(a.seed),
         "--seconds", str(a.seconds), "--trace", str(a.trace),
         "--root", ROOT, "--work", work, "--t0", repr(T0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    tree = Tree(child)
    events: list[dict] = []

    def read_events():
        for line in child.stdout:
            if line.startswith(PREFIX):
                events.append(json.loads(line[len(PREFIX):]))
            else:
                try:
                    sys.stderr.write(line)
                except OSError:     # stderr closed: keep draining
                    pass

    reader = threading.Thread(target=read_events, daemon=True)
    reader.start()
    # a SIGTERM ends the run through the finally below, like Ctrl-C
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        deadline = T0_MONO + DEADLINE_S
        while child.poll() is None and time.monotonic() < deadline:
            tree.sample()
            time.sleep(SAMPLE_S)
        if child.poll() is None:
            print("perfbench: run overran its deadline; stopping it",
                  file=sys.stderr)
    finally:
        tree.kill_all()
        child.wait()
        end = time.monotonic() + 10
        while time.monotonic() < end:   # reap the orphans reparented here
            try:
                if os.waitpid(-1, os.WNOHANG) == (0, 0):
                    time.sleep(0.05)
            except ChildProcessError:
                break
        reader.join(timeout=5)
        shutil.rmtree(work, ignore_errors=True)

    results = [e["result"] for e in events if "result" in e]
    if results:
        result = results[-1]
    else:
        # the run never reported: every operation it started is failed,
        # the one in flight included
        started = sum(1 for e in events if "op" in e)
        failed = sum(1 for e in events if "failed" in e)
        result = {"correct": False, "attempted": max(1, started),
                  "failed": min(max(1, started), failed + 1), "metrics": {}}
    if not a.trace and result["metrics"]:
        result["metrics"]["peak_pss_mb"] = tree.peak_kb / 1024.0
    units = _units()
    result["metrics"] = {k: {"value": v, "unit": units.get(k, "")}
                         for k, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())

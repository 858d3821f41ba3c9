"""One benchmark run inside its own Ray session (started by ``run.py``).

Starts a local Ray cluster with 4 logical CPUs, runs one workload,
shuts Ray down in a ``finally`` and reports to the supervisor through
stdout lines that start with :data:`PREFIX`: one per operation started
or failed, and a last one holding the run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

PREFIX = "@@perfbench "
#: Ray's session directory (logs, sockets, spilled objects) goes into
#: the run's own working directory, which run.py removes after the run,
#: instead of piling up under Ray's default ``/tmp/ray``; this is the
#: longest such path whose session socket paths stay under the 107-byte
#: AF_UNIX limit, and a checkout at a longer path leaves Ray its default
_MAX_RAY_TMP = 40


def _report(event: dict) -> None:
    print(PREFIX + json.dumps(event), flush=True)


def _ray_init(work: str) -> None:
    import ray

    kwargs = {}
    ray_tmp = os.path.join(work, "ray")
    if len(ray_tmp) <= _MAX_RAY_TMP:
        kwargs["_temp_dir"] = ray_tmp
    # Ray's processes inherit this process's environment, whose
    # PYTHONPATH names the checkout root (set by run.py), so workers
    # import the engine from the checkout whatever their working dir
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             logging_level="ERROR", object_store_memory=512 * 1024 ** 2,
             **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--t0", type=float, required=True)
    a = p.parse_args(argv)

    from perfbench.workloads import WORKLOADS, Context

    ctx = Context(a.work, a.seed, a.seconds, a.t0, bool(a.trace),
                  report=_report)
    metrics: dict = {}
    try:
        import ray

        _ray_init(a.work)
        try:
            metrics = WORKLOADS[a.workload](ctx)
        finally:
            ray.shutdown()
    except Exception:
        # a failure outside any one operation (set-up, Ray start) fails
        # the run as one more attempted operation
        traceback.print_exc(file=sys.stderr)
        ctx.attempted += 1
        ctx.failed += 1
        ctx.correct = False
    if ctx.setup_s is not None and not a.trace:
        metrics["setup_s"] = ctx.setup_s
    if ctx.tracer is not None:
        out = os.path.join(a.root, ".bench_out", "traces")
        os.makedirs(out, exist_ok=True)
        ctx.tracer.dump(os.path.join(
            out, f"{a.workload}-seed{a.seed}.json"))
    _report({"result": {"correct": ctx.correct, "attempted": ctx.attempted,
                        "failed": ctx.failed, "metrics": metrics}})


if __name__ == "__main__":
    main()

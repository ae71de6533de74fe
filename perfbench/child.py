"""Measuring process of the semigreen benchmark; run.py starts it.

A fresh interpreter imports `semigreen.cli` from the checkout's `src/` and
loads the workload's configs, which run.py passes as `--config` paths: that
is the set-up run.py times, from before the process is spawned until the
`ready` timestamp written here. The benchmark's own modules and reference
values are loaded after it. With `--setup-only` the process stops there.

Otherwise it warms up on two tiny shipped configs, then runs the
workload's invocations one after another, pass after pass, until the
measuring time is spent (at least one pass), checking each invocation's
output right after it runs. With `--trace 1` the time is split: untraced
passes first, then passes with the runtime spans of tracing.py installed.
The result is written as JSON to `--result`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback  # semigreen.cli imports it too, so it adds nothing to set-up

MAX_REPORTED_FAILURES = 20


def _run_pass(invocations, out_dir, state):
    """One pass over the invocations; returns (wall, cpu) summed over the
    calls themselves, checks excluded."""
    wall = cpu = 0.0
    for inv in invocations:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            code, output = inv.call(out_dir)
            error = None
        except Exception:
            code, output, error = None, None, traceback.format_exc()
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        state["attempted"] += 1
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is None:
            try:
                msgs = inv.check(code, output, out_dir)
            except Exception:
                msgs = [traceback.format_exc()]
            error = "; ".join(msgs) if msgs else None
        if error is not None:
            state["failed"] += 1
            if len(state["failures"]) < MAX_REPORTED_FAILURES:
                state["failures"].append(f"{inv.label}: {error}")
    return wall, cpu


def _passes(invocations, out_dir, state, seconds, after_pass=None):
    """Passes until `seconds` are spent; a pass that would end more than
    half a pass past the budget is not started, so a workload whose single
    pass is about as long as the budget runs once."""
    walls, cpus = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        wall, cpu = _run_pass(invocations, out_dir, state)
        walls.append(wall)
        cpus.append(cpu)
        if after_pass is not None:
            after_pass()
        now = time.perf_counter()
        if now - begin + (now - start) / 2.0 >= seconds:
            return walls, cpus


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--config", action="append", default=[],
                   help="INI the workload loads; repeat for each")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import semigreen.cli  # noqa: F401  (the set-up being timed)
    from semigreen.config import load_config

    if not os.path.abspath(semigreen.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"semigreen was imported from {semigreen.cli.__file__}, not {src}")

    for config in args.config:
        load_config(config)
    result = {"ready": time.monotonic()}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    import resource

    import workloads

    invocations = workloads.plan(args.workload, args.seed, root,
                                 os.path.join(args.work, "inputs"), workloads.load_reference())

    out_dir = os.path.join(args.work, "out")
    warm = os.path.join(args.work, "warmup")
    configs = os.path.join(root, "configs")
    for argv_ in (["solve", "--config", os.path.join(configs, "cosh_benchmark.ini"),
                   "--scheme", "newton"],
                  ["green", "--config", os.path.join(configs, "green_interval.ini"),
                   "--compare"]):
        workloads.cli_call(argv_)(warm)

    state = {"attempted": 0, "failed": 0, "failures": []}
    rss = []

    def record_rss():
        if not rss:  # peak after the first pass: one run of the workload
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if not args.trace:
        walls, cpus = _passes(invocations, out_dir, state, args.seconds, record_rss)
        result.update(walls=walls, cpus=cpus, peak_rss_mb=rss[0])
    else:
        import statistics

        import tracing

        walls, _ = _passes(invocations, out_dir, state, args.seconds / 2.0)
        tracer = tracing.Tracer()
        span_passes = []
        tracer.install()
        try:
            traced, _ = _passes(invocations, out_dir, state, args.seconds / 2.0,
                                lambda: span_passes.append(tracer.take()))
        finally:
            tracer.uninstall()
        tracer.write(os.path.join(args.work, "trace.jsonl"), span_passes)
        per_pass = [tracing.layer_metrics(spans) for spans in span_passes]
        # times are medians over the traced passes, counts those of the first
        # (check_counts.py checks that they repeat)
        layers = {k: statistics.median(m[k] for m in per_pass)
                  if tracing.unit(k) == "s" else v for k, v in per_pass[0].items()}
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        result.update(walls=walls, traced_walls=traced, layers=layers)

    result.update(state)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the semigreen command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload it writes the seeded inputs, then starts fresh
interpreters one after another (child.py) and never more than one at a
time. BLAS and OpenMP threads are capped at the number of usable CPUs.

With `--trace 0` it reports the end-to-end metrics:

  wall_s       median over passes of the time to run all of the workload's
               invocations through `semigreen.cli.main` in a warmed
               process (interpreter start and import excluded)
  setup_s      median over fresh interpreters of the time from spawn until
               `semigreen.cli` is imported and the workload's configs loaded
  cpu_s        median process CPU seconds over the same span as wall_s
  peak_rss_mb  peak RSS of the measuring process after one pass

`fail_ratio` (failed over attempted invocations) is printed and carried by
the result's `failed` and `attempted` fields. With `--trace 1` a separate
process runs untraced passes and then traced ones and reports the
per-layer metrics of tracing.py plus the tracing overhead. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

It exits nonzero, printing no result, when the checkout holds no
semigreen sources or a measuring process dies or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7  # fresh interpreters per run, the measuring one included
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORK_DIR = ".perfbench_work"


class BenchError(RuntimeError):
    pass


def machine_facts() -> dict:
    cpus = len(os.sched_getaffinity(0))
    return {"nproc": cpus, "thread_caps": {v: str(cpus) for v in THREAD_VARS}}


def _child(root, work, workload, seed, configs, args, deadline, tag):
    result = os.path.join(work, f"result_{tag}.json")
    env = dict(os.environ, **machine_facts()["thread_caps"])
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--root", root, "--work", work,
           "--workload", workload, "--seed", str(seed), "--result", result] + args
    for config in configs:
        cmd += ["--config", config]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a measuring process")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: measuring process ran out of time") from exc
    if proc.returncode != 0 or not os.path.exists(result):
        raise BenchError(f"{workload}: measuring process exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["setup_s"] = out["ready"] - spawned
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(root, workload, seed, seconds, trace, deadline) -> dict:
    work = os.path.join(root, WORK_DIR, workload)
    shutil.rmtree(work, ignore_errors=True)
    inputs = os.path.join(work, "inputs")
    workloads.write_inputs(workload, seed, inputs)
    # the configs the measuring process loads during its timed set-up
    configs = [inv.config for inv in workloads.plan(workload, seed, root, inputs,
                                                    workloads.load_reference())
               if inv.config is not None]
    common = ["--seconds", str(seconds), "--trace", str(trace)]
    lines = []
    if trace:
        res = _child(root, work, workload, seed, configs, common, deadline, "trace")
        metrics = {k: (v, tracing.unit(k)) for k, v in res["layers"].items()}
        lines.append(f"  traced passes {len(res['traced_walls'])}, untraced passes "
                     f"{len(res['walls'])}; spans in {os.path.join(WORK_DIR, workload)}"
                     "/trace.jsonl")
    else:
        # set-up samples before and after the measuring process, so that
        # their median spans the same stretch of time as the measurement
        def setup(k):
            return _child(root, work, workload, seed, configs, ["--setup-only"], deadline,
                          f"setup{k}")["setup_s"]

        setups = [setup(k) for k in range(SETUP_SAMPLES // 2)]
        res = _child(root, work, workload, seed, configs, common, deadline, "measure")
        setups += [res["setup_s"]] + [setup(k) for k in range(SETUP_SAMPLES // 2,
                                                               SETUP_SAMPLES - 1)]
        metrics = {
            "wall_s": (statistics.median(res["walls"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (statistics.median(res["cpus"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        q1, q3 = _quartiles(res["walls"])
        lines.append(f"  wall_s over {len(res['walls'])} passes: quartiles {q1:.4f} .. "
                     f"{q3:.4f} s; setup_s over {len(setups)} fresh interpreters: "
                     f"{min(setups):.4f} .. {max(setups):.4f} s")
    ratio = res["failed"] / res["attempted"]
    lines.append(f"  fail_ratio {ratio:g} ratio ({res['failed']} of {res['attempted']} "
                 "invocations)")
    for msg in res["failures"]:
        print(f"FAILED {workload}: {msg}", file=sys.stderr)
    return {"metrics": metrics, "attempted": res["attempted"], "failed": res["failed"],
            "lines": lines}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "semigreen", "cli.py")):
        print(f"no semigreen sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            seconds = json.load(fh)["run_seconds"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    facts = machine_facts()
    print(f"machine: nproc {facts['nproc']}, thread caps {facts['thread_caps']}; "
          "counts and bytes of the traced run are computed, not measured")
    deadline = time.monotonic() + DEADLINE_S * len(names)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            res = run_workload(root, name, args.seed, seconds, args.trace, deadline)
            print(f"workload {name} seed {args.seed} trace {args.trace}")
            for line in res["lines"]:
                print(line)
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, (value, unit) in res["metrics"].items():
                print(f"  {metric} {value!r} {unit}")
                total["metrics"][prefix + metric] = {"value": value, "unit": unit}
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

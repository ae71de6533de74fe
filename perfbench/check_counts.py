"""Exact-count check of the traced runs.

Run from the root of a checkout:

    python3 perfbench/check_counts.py [--seed N]

Runs the traced run of every workload twice with one seed and requires the
counters named in tracing.EXACT_COUNTS (with their per-size and per-stage
variants) to be identical. It also prints the Newton counts of
deadcore_exhaust next to the baseline recorded when the benchmark was
introduced (40/41/41/41 iterations, 163 linear solves); a solver change is
expected to move those, so a difference is reported, not failed.
Exits 1 when a counter differs between the two runs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

BASELINE_STAGE_ITERATIONS = (40, 41, 41, 41)
BASELINE_NEWTON_LINEAR_CALLS = 163
# the counters are those of the first traced pass, which every traced run
# makes whatever its length; the shortest run is enough
SECONDS = 1


def traced_run(workload, seed) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} of {result['attempted']} "
                         f"invocations failed\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)

    ok = True
    for name in workloads.WORKLOADS:
        first, second = (tracing.exact_counts(traced_run(name, args.seed))
                         for _ in range(2))
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok &= not diff
        print(f"{name}: {len(first)} counters {'repeat exactly' if not diff else 'DIFFER'}")
        for k, (a, b) in diff.items():
            print(f"  {k}: {a} then {b}")
        if name == "deadcore_exhaust":
            stages = tuple(first[f"solver.nonlinear_iterations.stage{k}"]
                           for k in range(tracing.STAGES))
            calls = first["solver.newton_linear_calls"]
            same = stages == BASELINE_STAGE_ITERATIONS and calls == BASELINE_NEWTON_LINEAR_CALLS
            print(f"  Newton iterations per stage {'/'.join(map(str, stages))}, "
                  f"linear solves {calls}: {'matches' if same else 'differs from'} the "
                  f"baseline {'/'.join(map(str, BASELINE_STAGE_ITERATIONS))}, "
                  f"{BASELINE_NEWTON_LINEAR_CALLS}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

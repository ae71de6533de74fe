"""Record the reference values that workloads.py checks outputs against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

It runs the shipped and generated configs whose values are pinned through
`semigreen.cli.main`, reads their CSV outputs, and writes
perfbench/reference.json. Each `*_kappa` is the program's condition factor
1 + max(G_D 1) of the grid, from which the checks derive their bound.
The file is recorded once, at the commit that introduced the benchmark,
and must not be re-recorded to make a later change pass.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from semigreen.config import load_config
    from semigreen.operator import assemble
    from semigreen.potential import factorize
    from semigreen.solver import condition_factor

    work = os.path.join(root, ".perfbench_work", "reference")
    inputs, out = os.path.join(work, "inputs"), os.path.join(work, "out")

    def run(argv):
        code, text = workloads.cli_call(argv)(out)
        if code != 0:
            raise SystemExit(f"{argv}: exit code {code}")
        return text

    def kappa(grid, coeffs):
        return condition_factor(factorize(assemble(grid, coeffs)))

    configs = os.path.join(root, "configs")
    ref = {}

    cosh = os.path.join(configs, "cosh_benchmark.ini")
    run(["solve", "--config", cosh])
    cfg = load_config(cosh)
    ref["cosh_benchmark_u"] = workloads.read_table(out, "cosh_benchmark.csv")["u"].tolist()
    ref["cosh_benchmark_kappa"] = kappa(cfg.grid(), cfg.coeffs)

    thin = os.path.join(configs, "thin_support.ini")
    run(["exhaust", "--config", thin])
    cfg = load_config(thin)
    ref["thin_support_anchors"] = workloads.read_table(out, "thin_support.csv")["anchor_value"].tolist()
    ref["halfplane_stage_kappa"] = [kappa(g, cfg.coeffs) for g in cfg.build_exhaustion().stages]

    def oracle(config, basename):
        text = run(["green", "--config", config, "--compare"])
        ref[f"{basename}_max_abs_error"] = float(workloads.output_field(text, "max_abs_error"))
        t = workloads.read_table(out, f"{basename}.csv")
        ref[f"{basename}_samples"] = workloads.lattice_samples(
            t["x"], t["y"], t["discrete"], workloads.ORACLE_SAMPLE_STEP,
            load_config(config).delta).tolist()

    oracle(os.path.join(configs, "green_halfplane.ini"), "green_halfplane")

    solves = {}
    for lam in workloads.GREEN_LAMBDAS:
        for slope in workloads.GREEN_SLOPES:
            seed = next(s for s in range(10000) if workloads.green_large_params(s) == (lam, slope))
            workloads.write_inputs("green_shipped_verify", seed, inputs)
            run(["solve", "--config", os.path.join(inputs, "green_large_solve.ini")])
            t = workloads.read_table(out, "green_large_solve.csv")
            solves[workloads.green_case_key(lam, slope)] = workloads.lattice_samples(
                t["x"], t["y"], t["u"], workloads.SAMPLE_STEP).tolist()
            print(f"recorded {workloads.green_case_key(lam, slope)} (seed {seed})", flush=True)
    ref["green_large_solve"] = solves
    cfg = load_config(os.path.join(inputs, "green_large_solve.ini"))
    ref["green_large_solve_kappa"] = kappa(cfg.grid(), cfg.coeffs)

    oracle(os.path.join(inputs, "green_large_oracle.ini"), "green_large_oracle")

    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

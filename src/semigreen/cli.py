"""Command-line front end.

Subcommands: solve, exhaust, thin-check, criterion, green, verify.
All outputs are CSV files without timestamps; identical configs and seeds
produce byte-identical bodies. Exit codes: 0 success, 2 validation
failure, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .expr import SPACE_VARS
from .operator import assemble
from .potential import factorize, green_potential, halfplane_green
from .solver import SCHEMES, solve_U
from .exhaustion import run_exhaustion
from .thinness import ThinnessCertificate, criterion_integral, verify_certificate
from .verification import run_suites

__all__ = ["main"]

BLOCK_ROWS = 1 << 14  # CSV rows formatted and written at a time
FLOAT_FORMAT = "%.17g"  # every float the CLI writes; 17 digits read back as the same double


def _write_columns(path: str, header, columns):
    """Write a CSV file from equal-length columns. A numpy array column is
    written with FLOAT_FORMAT; any other column is a list of ready-made
    strings (stage numbers, statuses, empty cells), written as they are.
    Numbers and the program's own strings hold no comma, quote or newline,
    so no cell is quoted. Columns of unequal length raise ValueError before
    the file is opened; rows are formatted and written BLOCK_ROWS at a time,
    so no whole column becomes a Python list."""
    lengths = [len(c) for c in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns of unequal length {lengths}")
    row = ",".join(FLOAT_FORMAT if isinstance(c, np.ndarray) else "%s"
                   for c in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, lengths[0], BLOCK_ROWS):
            cells = [c[start:start + BLOCK_ROWS] for c in columns]
            cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in cells]
            fh.writelines(map(row.__mod__, zip(*cells)))


def _out(args, cfg: RunConfig, suffix: str) -> str:
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, f"{cfg.basename}{suffix}")


def _cmd_solve(args, cfg: RunConfig) -> int:
    grid = cfg.grid()
    gop = factorize(assemble(grid, cfg.coeffs))
    f = cfg.experiment_opts["boundary_f"](grid.nodes[grid.boundary_nodes])
    scheme = args.scheme or cfg.scheme
    u, rep = solve_U(gop, f, cfg.phi, tol=cfg.tol, max_iter=cfg.max_iter,
                     scheme=scheme, omega=cfg.omega)

    _write_columns(_out(args, cfg, ".csv"), [*SPACE_VARS[:grid.dim], "u"],
                   list(grid.nodes.T) + [u])
    residuals = np.array(rep.residual_history, dtype=float)
    n = len(residuals)
    # under sandwich the step gap of each iterate is the envelope gap
    gaps = residuals if scheme == "sandwich" else [""] * n
    _write_columns(_out(args, cfg, "_log.csv"),
                   ["iteration", "envelope_gap", "identity_residual"],
                   [[str(i) for i in range(n)], gaps, residuals])
    print(f"status={rep.status} iterations={rep.iterations} "
          f"identity_residual={FLOAT_FORMAT % rep.final_identity_residual}")
    return 0 if rep.status == "converged" else 3


def _cmd_exhaust(args, cfg: RunConfig) -> int:
    exh = cfg.build_exhaustion()
    run = run_exhaustion(exh, cfg.coeffs, cfg.phi, cfg.experiment_opts["super_s"],
                         tol=cfg.tol, max_iter=cfg.max_iter, scheme=cfg.scheme)
    fields = [u for _, u in run.stages]
    _write_columns(_out(args, cfg, ".csv"),
                   ["stage", "anchor_value", "identity_residual", "min_u", "max_u"],
                   [[str(n) for n in range(len(fields))],
                    run.anchor_values,
                    np.array([r.final_identity_residual for r in run.reports], dtype=float),
                    np.array([np.min(u) for u in fields]),
                    np.array([np.max(u) for u in fields])])
    verdict = f"verdict={run.triviality_verdict}"
    with open(_out(args, cfg, "_verdict.txt"), "w", encoding="utf-8") as fh:
        fh.write(verdict + "\n")
    print(verdict)
    return 0


def _cmd_thin_check(args, cfg: RunConfig) -> int:
    grid = cfg.grid()
    opts = cfg.experiment_opts
    cert = ThinnessCertificate(set_A=opts["set_A"], witness_s=opts["witness_s"],
                               margin=opts["margin"])
    verdict = verify_certificate(grid, cfg.coeffs, cert)
    _write_columns(_out(args, cfg, ".csv"), ["field", "value"], [
        ["passed", "margin", "min_over_grid", "min_on_A", "superharmonic_residual"],
        [str(verdict.passed).lower()] + [FLOAT_FORMAT % v for v in (
            opts["margin"], verdict.min_over_grid, verdict.min_on_A,
            verdict.superharmonic_residual)],
    ])
    tail = "" if verdict.passed else " " + "; ".join(verdict.reasons)
    print(f"verdict={'pass' if verdict.passed else 'fail'}{tail}")
    return 0


def _cmd_criterion(args, cfg: RunConfig) -> int:
    opts = cfg.experiment_opts
    rep = criterion_integral(opts["kernel"], cfg.phi, opts["c0"], opts["set_A"],
                             opts["truncations"], x0=opts["x0"], cell=opts["cell"])
    n = len(rep.radii)
    # increments start on the second row, ratios on the third
    increments = [""] * min(n, 1) + [FLOAT_FORMAT % x for x in rep.increments]
    ratios = [""] * min(n, 2) + [FLOAT_FORMAT % x for x in rep.ratios]
    _write_columns(_out(args, cfg, ".csv"), ["radius", "value", "increment", "ratio"],
                   [np.array(rep.radii, dtype=float), np.array(rep.values, dtype=float),
                    increments, ratios])
    print(f"verdict={rep.verdict}")
    return 0


def _cmd_green(args, cfg: RunConfig) -> int:
    grid = cfg.grid()
    oracle = cfg.experiment_opts["oracle"]
    if oracle == "halfplane":
        source = cfg.experiment_opts["source"]
        try:
            j = grid.index_of(source)
        except ValueError as exc:
            raise ConfigError("[experiment] source", str(exc)) from exc
        if j in grid.boundary_nodes:
            raise ConfigError("[experiment] source", f"source {source} is not interior")
    gop = factorize(assemble(grid, cfg.coeffs))
    header = [*SPACE_VARS[:grid.dim], "discrete"]
    if oracle == "interval":
        a, b = grid.bbox[0]
        g = green_potential(gop, 1.0)
        analytic = (grid.nodes[:, 0] - a) * (b - grid.nodes[:, 0]) / 2.0
        keep = np.arange(grid.n_nodes)
    else:
        e = np.zeros(grid.n_interior)
        e[np.searchsorted(grid.interior_nodes, j)] = 1.0 / (grid.spacing[0] * grid.spacing[1])
        g = green_potential(gop, e)
        keep = np.flatnonzero(np.arange(grid.n_nodes) != j)  # kernel is singular at the source
        analytic = np.full(grid.n_nodes, np.nan)
        analytic[keep] = halfplane_green(grid.nodes[keep], source)
    columns = list(grid.nodes[keep].T) + [g[keep]]
    if args.compare:
        errs = np.abs(g[keep] - analytic[keep])
        header += ["analytic", "abs_error"]
        columns += [analytic[keep], errs]
    _write_columns(_out(args, cfg, ".csv"), header, columns)
    if args.compare:
        print(f"max_abs_error={FLOAT_FORMAT % np.max(errs)}")
    return 0


def _cmd_verify(args, cfg: RunConfig) -> int:
    opts = cfg.experiment_opts
    results = run_suites(names=opts["suites"], seed=args.seed, trials=opts["trials"])
    _write_columns(_out(args, cfg, ".csv"), ["suite", "trials", "failures", "status"], [
        [r.name for r in results], [str(r.trials) for r in results],
        [str(r.failures) for r in results], ["pass" if r.passed else "fail" for r in results],
    ])
    width = max(len(r.name) for r in results)
    for r in results:
        line = f"{r.name:<{width}}  {'pass' if r.passed else 'FAIL'} ({r.failures}/{r.trials} failures)"
        if r.detail and not r.passed:
            line += f"  {r.detail}"
        print(line)
    return 0 if all(r.passed for r in results) else 3


_COMMANDS = {
    "solve": _cmd_solve,
    "exhaust": _cmd_exhaust,
    "thin-check": _cmd_thin_check,
    "criterion": _cmd_criterion,
    "green": _cmd_green,
    "verify": _cmd_verify,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the run-config file")
    common.add_argument("--out-dir", default=".", help="directory for CSV outputs")
    p = argparse.ArgumentParser(prog="semigreen",
                                description="semilinear potential-theory toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("solve", parents=[common], help="single fixed-point solve")
    sp.add_argument("--scheme", choices=SCHEMES)
    sub.add_parser("exhaust", parents=[common], help="staged exhaustion run")
    sub.add_parser("thin-check", parents=[common], help="verify a thinness certificate")
    sub.add_parser("criterion", parents=[common], help="existence-criterion integral trend")
    gp = sub.add_parser("green", parents=[common], help="Green solve vs analytic oracle")
    gp.add_argument("--compare", action="store_true",
                    help="add analytic and abs_error columns")
    vp = sub.add_parser("verify", parents=[common], help="run the invariant suites")
    vp.add_argument("--seed", type=int, default=0, help="RNG seed for randomized suites")
    return p


def _default_verify_config() -> RunConfig:
    return RunConfig(experiment="verify", experiment_opts={"suites": None, "trials": 25},
                     basename="verify")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = load_config(args.config)
            if cfg.experiment != args.command:
                raise ConfigError("[experiment] type",
                                  f"config declares {cfg.experiment!r} but the "
                                  f"{args.command!r} subcommand was invoked")
        elif args.command == "verify":
            cfg = _default_verify_config()
        else:
            raise ConfigError("--config", f"the {args.command} subcommand needs a config file")
        return _COMMANDS[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

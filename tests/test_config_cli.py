import csv
import filecmp
import hashlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semigreen
from semigreen import exhaustion
from semigreen.cli import BLOCK_ROWS, FLOAT_FORMAT, _write_columns, main
from semigreen.config import ConfigError, load_config
from semigreen.solver import Nonlinearity, solve_U
from semigreen.thinness import criterion_integral
from semigreen.verification import SuiteResult, run_suites

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# a submodule that scipy.sparse.linalg imports as it executes
SPLA_RUN = "scipy.sparse.linalg._dsolve"


def child_env():
    # a child interpreter imports the package from where this process found it
    paths = [str(Path(semigreen.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


SOLVE_INI = """\
[domain]
dim = 1
spacing = 0.0625
bbox = 0, 1

[nonlinearity]
phi = max(t, 0)
differentiable = true

[experiment]
type = solve
boundary_f = 1
"""

# spacing differs from delta, so a wall placed at either one shows
EXHAUST_WALL_INI = """\
[domain]
dim = 2
halfplane = true
radius = 1
spacing = 0.125
delta = 0.25
anchor = 0, 0.5
exhaustion.stages = 2

[experiment]
type = exhaust
super_s = 1
"""


class TestLoadConfig:
    def test_shipped_exhaust_config(self):
        cfg = load_config(str(CONFIGS / "thin_support.ini"))
        assert cfg.dim == 2 and cfg.halfplane
        assert cfg.radius == pytest.approx(4.0)
        assert cfg.delta == pytest.approx(0.25)
        assert cfg.anchor == pytest.approx((0.0, 0.5))
        assert cfg.stages == 4
        assert cfg.scheme == "newton"
        assert cfg.experiment == "exhaust"
        assert cfg.basename == "thin_support"
        exh = cfg.build_exhaustion()
        assert [g.bbox[0] for g in exh.stages] == [(-4, 4), (-8, 8), (-16, 16), (-32, 32)]
        assert exh.stages[-1].shape == (257, 257)

    def test_shipped_solve_config(self):
        cfg = load_config(str(CONFIGS / "cosh_benchmark.ini"))
        assert cfg.dim == 1
        assert cfg.experiment == "solve"
        grid = cfg.grid()
        assert grid.spacing[0] == pytest.approx(1 / 64)
        # phi evaluates like the expression it was parsed from
        pts = grid.nodes[:4]
        np.testing.assert_allclose(cfg.phi(pts, 2.0), 2.0)
        np.testing.assert_allclose(cfg.phi(pts, -1.0), 0.0)

    def test_defaults(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, SOLVE_INI))
        assert cfg.scheme == "sandwich"
        assert cfg.tol == pytest.approx(1e-10)
        assert cfg.max_iter == 200
        assert cfg.basename == "solve"
        assert cfg.coeffs.zero_order_mode == "c_nonpos"

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.ini")

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(write_ini(tmp_path, SOLVE_INI + "\n[turbo]\nboost = 1\n"))

    def test_missing_required_section(self, tmp_path):
        with pytest.raises(ConfigError, match="required section"):
            load_config(write_ini(tmp_path, "[domain]\ndim = 1\nspacing = 0.5\nbbox = 0, 1\n"))

    def test_phi_parse_error_names_offset(self, tmp_path):
        bad = SOLVE_INI.replace("max(t, 0)", "2*+3")
        with pytest.raises(ConfigError, match=r"\[nonlinearity\] phi.*offset"):
            load_config(write_ini(tmp_path, bad))

    def test_phi_unknown_variable(self, tmp_path):
        bad = SOLVE_INI.replace("max(t, 0)", "max(z, 0)")
        with pytest.raises(ConfigError, match="unknown identifier"):
            load_config(write_ini(tmp_path, bad))

    def test_missing_experiment_key(self, tmp_path):
        bad = SOLVE_INI.replace("boundary_f = 1\n", "")
        with pytest.raises(ConfigError, match=r"\[experiment\] boundary_f"):
            load_config(write_ini(tmp_path, bad))

    def test_bad_number(self, tmp_path):
        bad = SOLVE_INI.replace("spacing = 0.0625", "spacing = tiny")
        with pytest.raises(ConfigError, match="expected"):
            load_config(write_ini(tmp_path, bad))

    @pytest.mark.parametrize("old, new, message", [
        ("spacing = 0.0625", "spacing = tiny",
         "[domain] spacing: expected a number, got 'tiny'"),
        ("dim = 1", "dim = 2.5", "[domain] dim: expected an integer, got '2.5'"),
        ("bbox = 0, 1", "bbox = 0, 1\nhalfplane = maybe",
         "[domain] halfplane: expected a boolean, got 'maybe'"),
        ("boundary_f = 1\n", "", "[experiment] boundary_f: required key is missing"),
    ])
    def test_reader_messages(self, tmp_path, old, new, message):
        assert old in SOLVE_INI
        with pytest.raises(ConfigError) as ei:
            load_config(write_ini(tmp_path, SOLVE_INI.replace(old, new)))
        assert str(ei.value) == message

    @pytest.mark.parametrize("spelling, value", [
        ("true", True), ("Yes", True), ("1", True), ("ON", True),
        ("false", False), ("no", False), ("0", False), ("Off", False),
    ])
    def test_boolean_spellings(self, tmp_path, spelling, value):
        ini = SOLVE_INI.replace("differentiable = true", f"differentiable = {spelling}")
        assert load_config(write_ini(tmp_path, ini)).phi.differentiable is value

    def test_bad_scheme(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[solver\] scheme"):
            load_config(write_ini(tmp_path, SOLVE_INI + "\n[solver]\nscheme = secant\n"))

    @pytest.mark.parametrize("section, key", [
        ("domain", "spacng"),
        ("operator", "a1l"),
        ("nonlinearity", "differentable"),
        ("solver", "tolerance"),
        ("experiment", "boundary"),
        ("output", "base_name"),
    ])
    def test_misspelled_key_rejected(self, tmp_path, section, key):
        header = f"[{section}]\n"
        if header in SOLVE_INI:
            ini = SOLVE_INI.replace(header, f"{header}{key} = 1\n")
        else:
            ini = SOLVE_INI + f"\n{header}{key} = 1\n"
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: unknown key"):
            load_config(write_ini(tmp_path, ini))

    def test_key_of_another_experiment_rejected(self, tmp_path):
        ini = SOLVE_INI.replace("boundary_f = 1\n", "boundary_f = 1\nsuper_s = 1\n")
        with pytest.raises(ConfigError, match=r"\[experiment\] super_s"):
            load_config(write_ini(tmp_path, ini))

    def test_exhaustion_delta_key_rejected(self, tmp_path):
        ini = EXHAUST_INI.replace("exhaustion.stages = 2\n",
                                  "exhaustion.stages = 2\nexhaustion.delta = 0.5\n")
        with pytest.raises(ConfigError, match=r"\[domain\] exhaustion.delta: unknown key"):
            load_config(write_ini(tmp_path, ini))

    def test_exhaust_wall_sits_at_domain_delta(self, tmp_path):
        cfg = load_config(write_ini(tmp_path, EXHAUST_WALL_INI))
        walls = [g.bbox[1][0] for g in cfg.build_exhaustion().stages]
        assert walls == [0.25, 0.25]
        assert cfg.grid().bbox[1][0] == 0.25

    def test_2d_config_reads_every_operator_key(self, tmp_path):
        ini = EXHAUST_INI.replace("[experiment]", "[operator]\na11 = 2\na22 = 3\n"
                                  "a12 = 0.5\nb1 = 1\nb2 = -1\nc = -2\n\n[experiment]")
        co = load_config(write_ini(tmp_path, ini)).coeffs
        assert (co.a11, co.a22, co.a12, co.b1, co.b2, co.c) == (2, 3, 0.5, 1, -1, -2)

    def test_degenerate_bbox(self, tmp_path):
        bad = SOLVE_INI.replace("bbox = 0, 1", "bbox = 1, 1")
        with pytest.raises(ConfigError, match="degenerate"):
            load_config(write_ini(tmp_path, bad))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCliSolve:
    def test_writes_solution_and_log(self, tmp_path):
        cfg = write_ini(tmp_path, SOLVE_INI)
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "solve.csv")
        assert rows[0] == ["x", "u"]
        assert len(rows) == 1 + 17  # header + nodes at h = 1/16
        log = read_csv(tmp_path / "solve_log.csv")
        assert log[0] == ["iteration", "envelope_gap", "identity_residual"]
        assert len(log) >= 2

    @pytest.mark.parametrize("scheme", ["sandwich", "damped_picard", "newton"])
    def test_envelope_gap_only_under_sandwich(self, tmp_path, scheme):
        cfg = write_ini(tmp_path, SOLVE_INI)
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path),
                     "--scheme", scheme]) == 0
        log = read_csv(tmp_path / "solve_log.csv")[1:]
        assert log
        for _, gap, residual in log:
            assert gap == (residual if scheme == "sandwich" else "")

    def test_deterministic_bytes(self, tmp_path):
        cfg = write_ini(tmp_path, SOLVE_INI)
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir(), b.mkdir()
        assert main(["solve", "--config", cfg, "--out-dir", str(a)]) == 0
        assert main(["solve", "--config", cfg, "--out-dir", str(b)]) == 0
        assert filecmp.cmp(a / "solve.csv", b / "solve.csv", shallow=False)
        assert filecmp.cmp(a / "solve_log.csv", b / "solve_log.csv", shallow=False)

    def test_nonconvergence_exit_code(self, tmp_path):
        cfg = write_ini(tmp_path, SOLVE_INI + "\n[solver]\nmax_iter = 1\ntol = 1e-14\n")
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 3

    def test_exhaust_nonconvergence_exit_code(self, tmp_path, capsys):
        # a stage solve that stops at max_iter is a numerical failure of the run
        text = EXHAUST_INI.replace("scheme = newton\n", "scheme = sandwich\nmax_iter = 1\n")
        cfg = write_ini(tmp_path, text)
        assert main(["exhaust", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stage 0: solve ended with status 'max_iter'")
        assert not list(tmp_path.glob("*.csv"))

    def test_exhaust_monotone_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        # a later stage above the previous one on shared nodes is a discretization failure
        def raised_solve(gop, f, phi, **kw):
            u, rep = solve_U(gop, f, phi, **kw)
            # stage 1 on: stage 0 is the 17 x 17 grid
            return (u if gop.grid.shape == (17, 17) else u + 1e-6), rep

        monkeypatch.setattr(exhaustion, "solve_U", raised_solve)
        cfg = write_ini(tmp_path, EXHAUST_INI)
        assert main(["exhaust", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stage 1: monotone decrease violated by 1.000e-06")
        assert not list(tmp_path.glob("*.csv"))

    def test_missing_config_file(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_config_required(self):
        assert main(["solve"]) == 2

    def test_wrong_experiment_type(self, tmp_path):
        cfg = write_ini(tmp_path, SOLVE_INI)
        assert main(["exhaust", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    def test_parse_error_exit(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, SOLVE_INI.replace("max(t, 0)", "2*+3"))
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("boundary_f = 1", "boundary_f = t",
         "[experiment] boundary_f: unknown variables ['t']; allowed ['x']"),
        ("[experiment]", "[operator]\na11 = 1 + y\n\n[experiment]",
         "[operator] a11: unknown variables ['y']; allowed ['x']"),
        ("bbox = 0, 1", "bbox = 0, one", "[domain] bbox: expected numbers, got '0, one'"),
        ("dim = 1\nspacing = 0.0625\nbbox = 0, 1", "dim = 2\nspacing = 0.0625\nbbox = 0, 1, 0",
         "[domain] bbox: expected 4 numbers, got 3"),
        ("bbox = 0, 1", "bbox = 0, 1\nhalfplane = true",
         "[domain] halfplane: halfplane mode needs dim = 2"),
        ("dim = 1", "dim 1", "bad config syntax"),
    ], ids=["field_variable", "coefficient_variable", "bbox_word", "bbox_count",
            "halfplane_1d", "ini_syntax"])
    def test_config_rejected_at_load(self, tmp_path, capsys, old, new, message):
        assert old in SOLVE_INI
        cfg = write_ini(tmp_path, SOLVE_INI.replace(old, new))
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


EXHAUST_INI = """\
[domain]
dim = 2
spacing = 0.25
halfplane = true
radius = 2
delta = 0.25
anchor = 0, 0.5
exhaustion.stages = 2

[nonlinearity]
phi = (y > 1) * max(t, 0)
differentiable = true

[solver]
scheme = newton

[experiment]
type = exhaust
super_s = min(1, y^0.5)
"""


VERIFY_INI = """\
[domain]
dim = 1
bbox = 0, 1
spacing = 0.125

[experiment]
type = verify
suites = comparison
trials = 2
"""


CRITERION_INTERVAL_INI = """\
[nonlinearity]
phi = max(t, 0)

[experiment]
type = criterion
kernel = interval
endpoints = 0, 1
c0 = 1
truncations = 0.125, 0.25, 0.375, 0.5
"""


def shipped_with(tmp_path, name, section, lines):
    """configs/<name>.ini with `lines` added at the top of [section]."""
    text = (CONFIGS / f"{name}.ini").read_text()
    header = f"[{section}]\n"
    assert header in text
    return write_ini(tmp_path, text.replace(header, header + lines))


class TestKeysOfAnotherDomain:
    @pytest.mark.parametrize("key", ["a22", "a12", "b2"])
    def test_1d_config_rejects_2d_operator_keys(self, tmp_path, capsys, key):
        cfg = shipped_with(tmp_path, "cosh_benchmark", "operator", f"{key} = 3\n")
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"[operator] {key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["anchor = 0.5", "exhaustion.stages = 3",
                                      "exhaustion.factor = 2", "exhaustion.spacing_rule = fixed"])
    def test_exhaustion_keys_rejected_outside_exhaust(self, tmp_path, capsys, line):
        cfg = shipped_with(tmp_path, "cosh_benchmark", "domain", line + "\n")
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        key = line.split(" = ")[0]
        assert f"[domain] {key}: unknown key" in capsys.readouterr().err


class TestOneSourcePerSetting:
    """A setting that had no second value in use, or no effect on the run, is
    gone: its key or flag exits 2 like any other unknown one."""

    @pytest.mark.parametrize("section, line", [
        ("domain", "exhaustion.factor = 2"),
        ("domain", "exhaustion.spacing_rule = fixed"),
        ("output", "precision = 17"),
    ])
    def test_removed_key_rejected(self, tmp_path, capsys, section, line):
        cfg = shipped_with(tmp_path, "sqrt_decay", section, line + "\n")
        where = f"[{section}] {line.split(' = ')[0]}: unknown key"
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_config(cfg)
        assert main(["exhaust", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert where in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("kind, name, flag", [
        ("solve", "cosh_benchmark", ["--tol", "1e-3"]),
        ("solve", "cosh_benchmark", ["--max-iter", "5"]),
        ("green", "green_interval", ["--oracle", "interval"]),
        ("solve", "cosh_benchmark", ["--seed", "1"]),
        ("exhaust", "sqrt_decay", ["--seed", "1"]),
        ("thin-check", "sqrt_witness", ["--seed", "1"]),
        ("criterion", "strip_criterion", ["--seed", "1"]),
        ("green", "green_interval", ["--seed", "1"]),
    ], ids=["tol", "max_iter", "oracle", "seed_solve", "seed_exhaust", "seed_thin_check",
            "seed_criterion", "seed_green"])
    def test_removed_flag_rejected(self, tmp_path, capsys, kind, name, flag):
        with pytest.raises(SystemExit) as ei:
            main([kind, "--config", str(CONFIGS / f"{name}.ini"),
                  "--out-dir", str(tmp_path)] + flag)
        assert ei.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_verify_takes_the_seed(self, tmp_path, monkeypatch):
        seeds = []

        def spy(names, seed, trials):
            seeds.append(seed)
            return run_suites(names=names, seed=seed, trials=trials)

        monkeypatch.setattr("semigreen.cli.run_suites", spy)
        cfg = write_ini(tmp_path, VERIFY_INI)
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path), "--seed", "3"]) == 0
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        assert seeds == [3, 0]

    @pytest.mark.parametrize("name, kind, section, lines", [
        ("green_interval", "green", "experiment", "source = 0.5\n"),
        ("strip_criterion", "criterion", "operator", "zero_order_mode = c_zero\n"),
        ("sqrt_witness", "thin-check", "nonlinearity", "phi = 7 * max(t, 0)\n"),
        ("verify", "verify", "operator", "zero_order_mode = c_zero\n"),
        ("verify", "verify", "nonlinearity", "phi = 0\n"),
        # both oracles are closed forms for the Laplacian
        ("green_interval", "green", "operator", "a11 = 2\n"),
        ("green_interval", "green", "operator", "b1 = 3\nc = -2\n"),
    ], ids=["green_interval_source", "criterion_operator", "thin_check_nonlinearity",
            "verify_operator", "verify_nonlinearity", "green_a11", "green_b1_c"])
    def test_section_the_run_ignores_rejected(self, tmp_path, capsys, name, kind, section, lines):
        text = VERIFY_INI if name == "verify" else (CONFIGS / f"{name}.ini").read_text()
        header = f"[{section}]\n"
        text = text.replace(header, header + lines) if header in text else \
            f"{text}\n{header}{lines}"
        cfg = write_ini(tmp_path, text)
        assert main([kind, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        key = lines.split(" = ")[0]
        assert f"config error: [{section}] {key}: unknown key" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


class TestCriterionReadsNoDomain:
    """The criterion integral builds no grid and solves nothing: its
    dimension is its kernel's, and a [domain] key or [nonlinearity]
    differentiable in a criterion config is unknown."""

    @pytest.mark.parametrize("line", ["dim = 2", "spacing = 0.25", "bbox = 0, 1, 0, 1",
                                      "halfplane = true", "radius = 4", "delta = 0.25"])
    def test_domain_key_rejected(self, tmp_path, capsys, line):
        text = (CONFIGS / "strip_criterion.ini").read_text()
        cfg = write_ini(tmp_path, f"[domain]\n{line}\n\n{text}")
        assert main(["criterion", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        key = line.split(" = ")[0]
        assert f"config error: [domain] {key}: unknown key" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_differentiable_rejected(self, tmp_path, capsys):
        text = (CONFIGS / "strip_criterion.ini").read_text()
        assert "differentiable" not in text
        text = text.replace("[nonlinearity]\n", "[nonlinearity]\ndifferentiable = true\n")
        cfg = write_ini(tmp_path, text)
        assert main(["criterion", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error: [nonlinearity] differentiable: unknown key" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_interval_phi_takes_x_only(self, tmp_path):
        bad = CRITERION_INTERVAL_INI.replace("phi = max(t, 0)", "phi = y * max(t, 0)")
        with pytest.raises(ConfigError, match=re.escape("[nonlinearity] phi: unknown variables")):
            load_config(write_ini(tmp_path, bad))
        assert load_config(write_ini(tmp_path, CRITERION_INTERVAL_INI)).dim == 1

    def test_halfplane_config_is_2d_and_writes_the_shipped_bytes(self, tmp_path):
        path = CONFIGS / "strip_criterion.ini"
        assert "[domain]" not in path.read_text()
        assert load_config(str(path)).dim == 2
        assert main(["criterion", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        saved = load_script("output_digests").read_saved(
            str(Path(__file__).with_name("output_digests.txt")))
        body = (tmp_path / "strip_criterion.csv").read_bytes()
        assert hashlib.sha256(body).hexdigest() == saved["strip_criterion.csv"]


class TestEnumeratedKeys:
    @pytest.mark.parametrize("name, kind, where, old, new", [
        ("green_interval", "green", "[domain] dim", "dim = 1", "dim = 3"),
        ("green_interval", "green", "[operator] zero_order_mode",
         "zero_order_mode = c_zero", "zero_order_mode = c_pos"),
        ("sqrt_decay", "exhaust", "[solver] scheme", "scheme = newton", "scheme = secant"),
        ("green_interval", "green", "[experiment] type", "type = green", "type = split"),
        ("strip_criterion", "criterion", "[experiment] kernel", "kernel = halfplane",
         "kernel = ball"),
        ("green_interval", "green", "[experiment] oracle", "oracle = interval",
         "oracle = sphere"),
    ], ids=["dim", "zero_order_mode", "scheme", "type", "kernel", "oracle"])
    def test_unknown_value_names_its_key(self, tmp_path, capsys, name, kind, where, old, new):
        text = (CONFIGS / f"{name}.ini").read_text()
        assert f"\n{old}\n" in text
        cfg = write_ini(tmp_path, text.replace(f"\n{old}\n", f"\n{new}\n"))
        assert main([kind, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        value = new.split(" = ")[-1]
        err = capsys.readouterr().err
        assert f"{where}: must be one of (" in err
        assert f", got {value if value.isdigit() else repr(value)}\n" in err
        assert not list(tmp_path.glob("*.csv"))


class TestSolverSection:
    @pytest.mark.parametrize("name, kind", [("strip_criterion", "criterion"),
                                            ("green_interval", "green"),
                                            ("sqrt_witness", "thin-check")])
    @pytest.mark.parametrize("line", ["tol = 1e-3", "scheme = newton", "omega = 7",
                                      "max_iter = 0"])
    def test_read_by_solve_and_exhaust_only(self, tmp_path, capsys, name, kind, line):
        text = (CONFIGS / f"{name}.ini").read_text() + f"\n[solver]\n{line}\n"
        cfg = write_ini(tmp_path, text)
        assert main([kind, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        key = line.split(" = ")[0]
        assert f"[solver] {key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("tol = 0", "[solver] tol: must be positive, got 0.0"),
        ("max_iter = 0", "[solver] max_iter: must be >= 1, got 0"),
    ])
    def test_tol_and_max_iter_ranges_checked_at_load(self, tmp_path, capsys, line, message):
        cfg = write_ini(tmp_path, SOLVE_INI + f"\n[solver]\n{line}\n")
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("omega", ["0", "-0.5", "7"])
    def test_omega_range_checked_at_load(self, tmp_path, capsys, omega):
        cfg = write_ini(tmp_path, SOLVE_INI + f"\n[solver]\nomega = {omega}\n")
        assert main(["solve", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "[solver] omega: must be in (0, 1]" in capsys.readouterr().err

    def test_exhaust_rejects_omega(self, tmp_path, capsys):
        # run_exhaustion takes no damping weight, so exhaust leaves omega unread
        cfg = shipped_with(tmp_path, "thin_support", "solver", "omega = 0.25\n")
        assert main(["exhaust", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "[solver] omega: unknown key" in capsys.readouterr().err


class TestCliExperiments:
    def test_exhaust_outputs(self, tmp_path, capsys):
        cfg = write_ini(tmp_path, EXHAUST_INI)
        assert main(["exhaust", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "exhaust.csv")
        assert rows[0] == ["stage", "anchor_value", "identity_residual", "min_u", "max_u"]
        assert len(rows) == 3
        verdict = (tmp_path / "exhaust_verdict.txt").read_text()
        assert "undecided" in verdict  # two stages cannot classify
        assert "verdict=" in capsys.readouterr().out

    def test_thin_check_outputs(self, tmp_path):
        assert main(["thin-check", "--config", str(CONFIGS / "sqrt_witness.ini"),
                     "--out-dir", str(tmp_path)]) == 0
        rows = dict(read_csv(tmp_path / "sqrt_witness.csv")[1:])
        assert rows["passed"] == "true"
        assert float(rows["margin"]) > 0

    def test_criterion_outputs(self, tmp_path):
        assert main(["criterion", "--config", str(CONFIGS / "strip_criterion.ini"),
                     "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "strip_criterion.csv")
        assert rows[0] == ["radius", "value", "increment", "ratio"]
        assert len(rows) == 5
        values = [float(r[1]) for r in rows[1:]]
        assert values == sorted(values)

    def test_criterion_interval_kernel(self, tmp_path, capsys):
        # endpoints set the interval; the anchor defaults to its midpoint
        assert main(["criterion", "--config", write_ini(tmp_path, CRITERION_INTERVAL_INI),
                     "--out-dir", str(tmp_path)]) == 0
        phi = Nonlinearity(lambda p, t: np.maximum(t, 0.0))
        rep = criterion_integral(("interval", (0.0, 1.0)), phi, 1.0, None,
                                 [0.125, 0.25, 0.375, 0.5], x0=(0.5,))
        rows = read_csv(tmp_path / "criterion.csv")[1:]
        assert [[float(x) if x else None for x in row] for row in rows] == [
            [r, v, i, q] for r, v, i, q in zip(rep.radii, rep.values, (None, *rep.increments),
                                               (None, None, *rep.ratios))]
        assert capsys.readouterr().out == f"verdict={rep.verdict}\n"

    def test_green_interval(self, tmp_path, capsys):
        assert main(["green", "--config", str(CONFIGS / "green_interval.ini"),
                     "--out-dir", str(tmp_path), "--compare"]) == 0
        rows = read_csv(tmp_path / "green_interval.csv")
        assert rows[0] == ["x", "discrete", "analytic", "abs_error"]
        worst = max(float(r[3]) for r in rows[1:])
        assert worst <= 1e-12
        assert "max_abs_error" in capsys.readouterr().out


    def test_green_oracle_of_another_dimension_rejected_before_factorizing(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("semigreen.cli.factorize", lambda op: calls.append(op))
        text = (CONFIGS / "green_halfplane.ini").read_text()
        assert "oracle = halfplane\nsource = 0, 1\n" in text
        cfg = write_ini(tmp_path, text.replace("oracle = halfplane\nsource = 0, 1\n",
                                               "oracle = interval\n"))
        assert main(["green", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert ("config error: [experiment] oracle: interval oracle needs a 1D grid"
                in capsys.readouterr().err)
        assert calls == []

    @pytest.mark.parametrize("source, message", [
        ("0, 0.125", "source (0.0, 0.125) is not interior"),
        ("0.0625, 1", "point (0.0625, 1.0) is not a lattice node of this grid"),
    ], ids=["wall", "off_lattice"])
    def test_green_source_rejected(self, tmp_path, capsys, monkeypatch, source, message):
        calls = []
        monkeypatch.setattr("semigreen.cli.factorize", lambda op: calls.append(op))
        text = (CONFIGS / "green_halfplane.ini").read_text()
        assert "source = 0, 1\n" in text
        cfg = write_ini(tmp_path, text.replace("source = 0, 1\n", f"source = {source}\n"))
        assert main(["green", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"config error: [experiment] source: {message}" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("name, kind, old, new, where", [
        ("strip_criterion", "criterion", "truncations = 4, 8, 16, 32", "truncations = 4, inf",
         "[experiment] truncations"),
        ("strip_criterion", "criterion", "anchor = 0, 0.5", "anchor = 0, nan",
         "[experiment] anchor"),
        ("strip_criterion", "criterion", "cell = 0.125", "cell = nan", "[experiment] cell"),
        ("green_halfplane", "green", "radius = 8", "radius = inf", "[domain] radius"),
        ("green_halfplane", "green", "source = 0, 1", "source = 0, -inf",
         "[experiment] source"),
        ("green_interval", "green", "bbox = 0, 1", "bbox = 0, inf", "[domain] bbox"),
        ("sqrt_witness", "thin-check", "margin = 0.25", "margin = inf", "[experiment] margin"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, capsys, name, kind, old, new, where):
        text = (CONFIGS / f"{name}.ini").read_text()
        assert old in text
        cfg = write_ini(tmp_path, text.replace(old, new))
        assert main([kind, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"config error: {where}: must be finite, got " in capsys.readouterr().err

    @pytest.mark.parametrize("name, kind, old, new", [
        ("green_halfplane", "green", "radius = 8", "radius = 1e308"),
        ("green_interval", "green", "bbox = 0, 1", "bbox = 0, 1e308"),
        ("strip_criterion", "criterion", "truncations = 4, 8, 16, 32", "truncations = 4, 1e308"),
        ("strip_criterion", "criterion", "cell = 0.125", "cell = 1e-320"),
    ], ids=["radius", "bbox", "truncations", "cell"])
    def test_infinite_cell_count_rejected(self, tmp_path, capsys, name, kind, old, new):
        # each number is finite, but the cells it asks for overflow to inf
        text = (CONFIGS / f"{name}.ini").read_text()
        assert old in text
        cfg = write_ini(tmp_path, text.replace(old, new))
        assert main([kind, "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "non-finite number of cells" in capsys.readouterr().err

    @pytest.mark.parametrize("margin", ["0", "-0.25"])
    def test_thin_check_nonpositive_margin_rejected(self, tmp_path, capsys, margin):
        text = (CONFIGS / "sqrt_witness.ini").read_text()
        cfg = write_ini(tmp_path, text.replace("margin = 0.25", f"margin = {margin}"))
        assert main(["thin-check", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"[experiment] margin: must be positive, got {float(margin)}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["0", "-0.125"])
    def test_criterion_nonpositive_cell_rejected(self, tmp_path, capsys, cell):
        text = (CONFIGS / "strip_criterion.ini").read_text()
        cfg = write_ini(tmp_path, text.replace("cell = 0.125", f"cell = {cell}"))
        assert main(["criterion", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "cell must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("constant, expression", [("0", "y < -1"), ("1", "y > -1")])
    def test_thin_check_constant_set(self, tmp_path, constant, expression):
        # a constant expression evaluates to a scalar; it must mean the same
        # set as an expression that takes that value on every node
        text = (CONFIGS / "sqrt_witness.ini").read_text()
        outs = []
        for n, set_A in enumerate((constant, expression)):
            cfg = write_ini(tmp_path, text.replace("set_A = y >= 1", f"set_A = {set_A}"),
                            name=f"run{n}.ini")
            out = tmp_path / f"out{n}"
            assert main(["thin-check", "--config", cfg, "--out-dir", str(out)]) == 0
            outs.append(out / "sqrt_witness.csv")
        assert filecmp.cmp(*outs, shallow=False)
        rows = dict(read_csv(outs[0])[1:])
        assert rows["min_on_A"] == ("inf" if constant == "0" else rows["min_over_grid"])

    @pytest.mark.parametrize("constant, expression", [("0", "y < -1"), ("1", "y > -1")])
    def test_criterion_constant_set_and_phi(self, tmp_path, constant, expression):
        # constant phi = 1 and max(t, 0) at c0 = 1 give the same weights
        text = (CONFIGS / "strip_criterion.ini").read_text()
        outs = []
        for n, (phi, set_A) in enumerate((("1", constant), ("max(t, 0)", expression))):
            body = text.replace("phi = (y < 1) * max(t, 0)", f"phi = {phi}")
            body = body.replace("cell = 0.125", f"cell = 0.125\nset_A = {set_A}")
            out = tmp_path / f"out{n}"
            cfg = write_ini(tmp_path, body, name=f"run{n}.ini")
            assert main(["criterion", "--config", cfg, "--out-dir", str(out)]) == 0
            outs.append(out / "strip_criterion.csv")
        assert filecmp.cmp(*outs, shallow=False)
        values = [float(r[1]) for r in read_csv(outs[0])[1:]]
        assert (max(values) == 0.0) == (constant == "1")

    def test_verify_rejects_a_config_of_another_type(self, tmp_path, capsys):
        assert main(["verify", "--config", str(CONFIGS / "sqrt_witness.ini"),
                     "--out-dir", str(tmp_path)]) == 2
        assert "'verify' subcommand" in capsys.readouterr().err

    def test_verify_without_config(self, tmp_path, capsys):
        assert main(["verify", "--out-dir", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "verify.csv")
        assert rows[0] == ["suite", "trials", "failures", "status"]
        assert all(r[3] == "pass" for r in rows[1:])
        assert len(rows) >= 8  # seven suites plus header
        out = capsys.readouterr().out
        assert "pass" in out

    def test_verify_default_trials_are_the_library_default(self, tmp_path, monkeypatch):
        # verify with no config, and a verify config with no trials, run as many
        # trials per suite as run_suites does by default
        seen = []

        def spy(names, seed, trials):
            seen.append(trials)
            return [SuiteResult("identity", trials, 0)]

        monkeypatch.setattr("semigreen.cli.run_suites", spy)
        cfg = write_ini(tmp_path, "[experiment]\ntype = verify\n")
        assert main(["verify", "--out-dir", str(tmp_path)]) == 0
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path)]) == 0
        default = inspect.signature(run_suites).parameters["trials"].default
        assert seen == [default, default]

    def test_verify_config_needs_no_domain(self, tmp_path, capsys):
        # verify builds no grid: [domain] is optional, and validated when present
        text = "[experiment]\ntype = verify\nsuites = comparison\ntrials = 2\n"
        assert main(["verify", "--config", write_ini(tmp_path, text),
                     "--out-dir", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "verify.csv")[1] == ["comparison", "2", "0", "pass"]
        bad = VERIFY_INI.replace("dim = 1", "dim = 4")
        assert main(["verify", "--config", write_ini(tmp_path, bad, name="bad.ini"),
                     "--out-dir", str(tmp_path / "bad")]) == 2
        assert "config error: [domain] dim: must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_trials_below_one_rejected(self, tmp_path, capsys, trials):
        # a verify run that runs no trial checks nothing
        text = ("[domain]\ndim = 1\nbbox = 0, 1\nspacing = 0.125\n\n"
                f"[experiment]\ntype = verify\nsuites = comparison\ntrials = {trials}\n")
        cfg = write_ini(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"[experiment] trials: must be >= 1, got {trials}\n" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_verify_unknown_suite_rejected(self, tmp_path, capsys):
        text = ("[domain]\ndim = 1\nbbox = 0, 1\nspacing = 0.125\n\n"
                "[experiment]\ntype = verify\nsuites = comparison, nope\n")
        cfg = write_ini(tmp_path, text)
        assert main(["verify", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "validation error: unknown suite 'nope'; available: [" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_console_entry_point(self, tmp_path):
        cfg = write_ini(tmp_path, SOLVE_INI)
        proc = subprocess.run(
            [sys.executable, "-m", "semigreen.cli", "solve",
             "--config", cfg, "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0
        assert "status=converged" in proc.stdout

    def test_import_leaves_fft_unloaded(self):
        # scipy.fft is never loaded (the DST-I runs on numpy.fft), and start-up
        # executes neither scipy.sparse.linalg nor scipy.linalg (see the next test)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, semigreen.cli; "
             f"print([m for m in ('scipy.fft', {SPLA_RUN!r}, 'scipy.linalg') "
             "if m in sys.modules])"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_sparse_lu_module_loads_on_first_factorization(self, tmp_path):
        # potential.spla is a lazily loaded scipy.sparse.linalg: a separable newton
        # exhaust runs no LU and leaves it unexecuted; a drift operator's factorize
        # then executes it and calls splu
        exhaust = ["exhaust", "--config", str(CONFIGS / "thin_support.ini"),
                   "--out-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from semigreen.cli import main; "
             "from semigreen import geometry, operator, potential; "
             f"assert main({exhaust!r}) == 0; "
             f"print({SPLA_RUN!r} in sys.modules, 'scipy.linalg' in sys.modules); "
             "op = operator.assemble(geometry.build_box_grid((0.0, 1.0), 0.125), "
             "operator.EllipticCoefficients(b1=0.5)); "
             "print(op.stencil is None, type(potential.factorize(op)._lu).__name__, "
             f"{SPLA_RUN!r} in sys.modules)"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-2:] == ["False False", "True SuperLU True"]

    def test_dst_solves_leave_scipy_fft_and_special_unloaded(self, tmp_path):
        # an exhaust (newton on multigrid) and a green --compare run every Green solve
        # as a DST-I; neither imports scipy.fft, nor scipy.special through it, and
        # neither executes scipy.sparse.linalg
        exhaust = ["exhaust", "--config", str(CONFIGS / "sqrt_decay.ini"),
                   "--out-dir", str(tmp_path)]
        green = ["green", "--config", str(CONFIGS / "green_halfplane.ini"), "--compare",
                 "--out-dir", str(tmp_path)]
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from semigreen.cli import main; "
             f"assert main({exhaust!r}) == 0 and main({green!r}) == 0; "
             f"print([m for m in ('scipy.fft', 'scipy.special', {SPLA_RUN!r}) "
             "if m in sys.modules])"],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"


# every float form the CLI writes: signed zero, subnormal, huge, integral,
# numpy scalars, non-finite values and a value that needs all 17 digits
EDGE_VALUES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300, 3, 10, 123456789,
               np.float64(0.1), np.float64(-2.5), 1 / 3, 2 / 3 * 1e-5, 0.30000000000000004,
               float("nan"), float("inf"), float("-inf")]


def csv_writer_reference(path, header, rows):
    # the former row-by-row output: csv.writer fed strings made by
    # format(value, ".17g") one value at a time
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


class TestColumnWriter:
    def test_bytes_match_the_csv_writer(self, tmp_path):
        n = len(EDGE_VALUES)
        labels = [str(k) for k in range(n)]
        gaps = [""] * n
        columns = [labels, np.array(EDGE_VALUES, dtype=float), gaps,
                   np.array(EDGE_VALUES[::-1], dtype=float), np.arange(n) * 7]
        _write_columns(str(tmp_path / "new.csv"), ["k", "a", "gap", "b", "m"], columns)
        rows = [[labels[k], format(EDGE_VALUES[k], ".17g"), "",
                 format(EDGE_VALUES[n - 1 - k], ".17g"), format(7 * k, ".17g")] for k in range(n)]
        csv_writer_reference(str(tmp_path / "old.csv"), ["k", "a", "gap", "b", "m"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert [FLOAT_FORMAT % v for v in EDGE_VALUES] == [format(v, ".17g") for v in EDGE_VALUES]

    def test_precision_17_round_trips(self, tmp_path):
        values = np.concatenate([np.array(EDGE_VALUES, dtype=float),
                                 np.random.default_rng(5).standard_normal(200) * 1e5])
        _write_columns(str(tmp_path / "v.csv"), ["v"], [values])
        read = np.array([float(r[0]) for r in read_csv(tmp_path / "v.csv")[1:]])
        assert np.array_equal(read, values, equal_nan=True)
        assert np.array_equal(np.signbit(read), np.signbit(values))

    def test_bytes_match_the_csv_writer_across_blocks(self, tmp_path):
        n = 2 * BLOCK_ROWS + 123
        values = np.random.default_rng(17).standard_normal(n) * 1e3
        values[BLOCK_ROWS - len(EDGE_VALUES) // 2:][:len(EDGE_VALUES)] = EDGE_VALUES
        labels = [str(k) for k in range(n)]
        statuses = ["pass" if k % 3 else "" for k in range(n)]
        columns = [labels, values, statuses, values[::-1].copy()]
        _write_columns(str(tmp_path / "new.csv"), ["k", "a", "s", "b"], columns)
        rows = [[labels[k], format(values[k], ".17g"), statuses[k],
                 format(values[n - 1 - k], ".17g")] for k in range(n)]
        csv_writer_reference(str(tmp_path / "old.csv"), ["k", "a", "s", "b"], rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _write_columns(str(tmp_path / "v.csv"), ["a", "b"], [np.zeros(3), ["x", "y"]])
        assert not (tmp_path / "v.csv").exists()


def load_script(name):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOutputDigests:
    def test_mismatches_name_every_file(self):
        digests = load_script("output_digests")
        saved = {"a.csv": "1", "b.csv": "2", "gone.csv": "3"}
        current = {"a.csv": "1", "b.csv": "9", "added.csv": "4"}
        assert digests.mismatches(saved, current) == [
            "added.csv: new", "b.csv: differs", "gone.csv: missing"]
        assert digests.mismatches(saved, dict(saved)) == []

    def test_outputs_match_the_saved_digests(self):
        # every shipped example, green --compare on both oracles included, byte for byte;
        # a change meant to move outputs updates tests/output_digests.txt
        digests = load_script("output_digests")
        saved = digests.read_saved(str(Path(__file__).with_name("output_digests.txt")))
        assert len(saved) == 12
        assert digests.mismatches(saved, digests.digests()) == []

    def test_saved_list_reads_its_own_output(self, tmp_path):
        digests = load_script("output_digests")
        lines = "aa11  cosh_benchmark.csv\nbb22  verify.csv\n"
        (tmp_path / "d.txt").write_text(lines)
        assert digests.read_saved(str(tmp_path / "d.txt")) == {
            "cosh_benchmark.csv": "aa11", "verify.csv": "bb22"}

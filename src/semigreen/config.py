"""Run-config parsing: flat INI sections -> validated model objects.

Sections: [domain], [operator], [nonlinearity], [solver], [experiment],
[output]. _READS lists the sections each experiment reads: [domain] only
where the run builds a grid (and for verify, when present), since a
criterion's dimension is its kernel's. Every error names the offending
"[section] key" so the CLI can map it to a validation exit; a key that no
parser reads is an error too.
Expression values use the expr mini-language over the space variables
expr.SPACE_VARS for fields, and over those and t for the nonlinearity.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .expr import SPACE_VARS, Expr, ParseError, parse
from .geometry import (DIMS, Exhaustion, Grid, build_box_grid, build_exhaustion,
                       build_halfplane_truncation)
from .operator import ZERO_ORDER_MODES, EllipticCoefficients, _coefficient_names
from .potential import ORACLE_DIMS
from .solver import SCHEMES, Nonlinearity
from .verification import TRIALS

__all__ = ["ConfigError", "RunConfig", "load_config"]

_SECTIONS = ("domain", "operator", "nonlinearity", "solver", "experiment", "output")


class ConfigError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


@dataclass
class RunConfig:
    """Validated run description; expression values are already turned
    into callables."""

    dim: int = None
    spacing: float = None  # None where the run builds no grid (criterion, verify)
    bbox: tuple = None  # ((lo,hi),...) or None in halfplane mode
    halfplane: bool = False
    radius: float = None
    delta: float = None
    anchor: tuple = None
    stages: int = None  # exhaust only

    coeffs: EllipticCoefficients = None
    phi: Nonlinearity = None

    scheme: str = "sandwich"
    tol: float = 1e-10
    max_iter: int = 200
    omega: float = 0.5

    experiment: str = "solve"
    experiment_opts: dict = field(default_factory=dict)

    basename: str = None

    def grid(self) -> Grid:
        if self.halfplane:
            return build_halfplane_truncation(self.radius, self.delta, self.spacing)
        return build_box_grid(self.bbox, self.spacing)

    def build_exhaustion(self) -> Exhaustion:
        base = self.radius if self.halfplane else self.bbox
        return build_exhaustion(base, self.stages, spacing=self.spacing, anchor=self.anchor,
                                halfplane=self.halfplane, delta=self.delta)


def _parse_expr(raw: str, where: str, dim: int, with_t: bool = False) -> Expr:
    """Parse an expression over the first dim of SPACE_VARS, plus t if
    with_t."""
    allowed = set(SPACE_VARS[:dim]) | ({"t"} if with_t else set())
    try:
        e = parse(raw)
    except ParseError as exc:
        raise ConfigError(where, f"parse error at offset {exc.offset}: {exc}") from exc
    extra = e.variables - allowed
    if extra:
        raise ConfigError(where, f"unknown variables {sorted(extra)}; allowed {sorted(allowed)}")
    return e


def _bind(e: Expr):
    """Expression -> callable(points, t=None) giving its raw value on an
    (n, dim) point array: one value per point, or a scalar for a constant.
    Grid.field and Nonlinearity shape and check it."""

    def fn(pts, t=None):
        bind = dict(zip(SPACE_VARS, np.asarray(pts, dtype=float).T))
        bind["t"] = t
        return e.eval(bind)

    return fn


def _finite(vals, where: str, raw: str):
    """Every number of a config is finite: float() also reads inf and nan."""
    if not np.all(np.isfinite(vals)):
        raise ConfigError(where, f"must be finite, got {raw!r}")
    return vals


def _floats(raw: str, where: str, n: int = None):
    try:
        vals = [float(v) for v in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise ConfigError(where, f"expected numbers, got {raw!r}") from exc
    if n is not None and len(vals) != n:
        raise ConfigError(where, f"expected {n} numbers, got {len(vals)}")
    return _finite(vals, where, raw)


class _Parser(configparser.ConfigParser):
    """ConfigParser that records every (section, key) the parsers ask for,
    so that load_config can reject the options nobody reads."""

    def __init__(self):
        super().__init__(interpolation=None)
        self.optionxform = str
        self.read_keys = set()


_KINDS = {float: "a number", int: "an integer", bool: "a boolean"}


def _get(cp, section, key, default=None, required=False, kind=str, choices=None):
    """[section] key read as kind (str, float, int or bool); default if absent.
    A value that is read must be one of choices, when choices is given."""
    where = f"[{section}] {key}"
    cp.read_keys.add((section, key))
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(where, "required key is missing")
        return default
    raw = cp.get(section, key).strip()
    try:
        value = raw if kind is str else cp.BOOLEAN_STATES[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(where, f"expected {_KINDS[kind]}, got {raw!r}") from exc
    if choices is not None and value not in choices:
        raise ConfigError(where, f"must be one of {tuple(choices)}, got {value!r}")
    return _finite(value, where, raw) if kind is float else value


def _domain(cp, cfg_kw):
    if cfg_kw["experiment"] == "verify" and not cp.has_section("domain"):
        return  # verify builds no grid: its [domain] is optional
    dim = _get(cp, "domain", "dim", required=True, kind=int, choices=DIMS)
    spacing = _get(cp, "domain", "spacing", required=True, kind=float)
    halfplane = _get(cp, "domain", "halfplane", default=False, kind=bool)
    cfg_kw.update(dim=dim, spacing=spacing, halfplane=halfplane)

    if halfplane:
        if dim != 2:
            raise ConfigError("[domain] halfplane", "halfplane mode needs dim = 2")
        radius = _get(cp, "domain", "radius", required=True, kind=float)
        delta = _get(cp, "domain", "delta", default=spacing, kind=float)
        cfg_kw.update(radius=radius, delta=delta)
    else:
        raw = _get(cp, "domain", "bbox", required=True)
        vals = _floats(raw, "[domain] bbox", 2 * dim)
        bbox = tuple((vals[2 * i], vals[2 * i + 1]) for i in range(dim))
        for lo, hi in bbox:
            if not lo < hi:
                raise ConfigError("[domain] bbox", f"axis [{lo}, {hi}] is degenerate")
        cfg_kw["bbox"] = bbox

    if cfg_kw["experiment"] == "exhaust":
        stages = _get(cp, "domain", "exhaustion.stages", required=True, kind=int)
        raw_anchor = _get(cp, "domain", "anchor")
        anchor = tuple(_floats(raw_anchor, "[domain] anchor", dim)) if raw_anchor else None
        cfg_kw.update(stages=stages, anchor=anchor)


def _operator(cp, cfg_kw):
    dim = cfg_kw["dim"]
    mode = _get(cp, "operator", "zero_order_mode", default="c_nonpos", choices=ZERO_ORDER_MODES)
    kw = {"zero_order_mode": mode}
    # green's oracles are closed forms for the Laplacian, so it reads no coefficient
    names = () if cfg_kw["experiment"] == "green" else _coefficient_names(dim)
    for key in names:  # a key this dim does not use stays unread
        raw = _get(cp, "operator", key)
        if raw is not None:
            e = _parse_expr(raw, f"[operator] {key}", dim)
            kw[key] = _bind(e) if e.variables else float(e.eval({}))
    cfg_kw["coeffs"] = EllipticCoefficients(**kw)


def _nonlinearity(cp, cfg_kw):
    dim = cfg_kw["dim"]
    raw = _get(cp, "nonlinearity", "phi")
    # criterion never solves, so there the key stays unread
    differentiable = (cfg_kw["experiment"] != "criterion"
                      and _get(cp, "nonlinearity", "differentiable", default=False, kind=bool))
    if raw is None:
        cfg_kw["phi"] = Nonlinearity(phi=lambda p, t: 0.0, differentiable=True)
        return
    e = _parse_expr(raw, "[nonlinearity] phi", dim, with_t=True)
    cfg_kw["phi"] = Nonlinearity(phi=_bind(e), differentiable=differentiable)


def _solver(cp, cfg_kw):
    scheme = _get(cp, "solver", "scheme", default="sandwich", choices=SCHEMES)
    tol = _get(cp, "solver", "tol", default=1e-10, kind=float)
    max_iter = _get(cp, "solver", "max_iter", default=200, kind=int)
    if not tol > 0:
        raise ConfigError("[solver] tol", f"must be positive, got {tol}")
    if max_iter < 1:
        raise ConfigError("[solver] max_iter", f"must be >= 1, got {max_iter}")
    cfg_kw.update(scheme=scheme, tol=tol, max_iter=max_iter)
    if cfg_kw["experiment"] == "solve":  # run_exhaustion takes no omega
        omega = _get(cp, "solver", "omega", default=0.5, kind=float)
        if not 0 < omega <= 1:
            raise ConfigError("[solver] omega", f"must be in (0, 1], got {omega}")
        cfg_kw["omega"] = omega


def _experiment(cp, cfg_kw):
    dim, kind = cfg_kw.get("dim"), cfg_kw["experiment"]
    opts = {}

    if kind == "solve":
        raw = _get(cp, "experiment", "boundary_f", required=True)
        opts["boundary_f"] = _bind(_parse_expr(raw, "[experiment] boundary_f", dim))
    elif kind == "exhaust":
        raw = _get(cp, "experiment", "super_s", required=True)
        e = _parse_expr(raw, "[experiment] super_s", dim)
        opts["super_s"] = _bind(e) if e.variables else float(e.eval({}))
    elif kind == "thin-check":
        raw = _get(cp, "experiment", "witness_s", required=True)
        opts["witness_s"] = _bind(_parse_expr(raw, "[experiment] witness_s", dim))
        raw = _get(cp, "experiment", "set_A", required=True)
        opts["set_A"] = _bind(_parse_expr(raw, "[experiment] set_A", dim))
        margin = _get(cp, "experiment", "margin", required=True, kind=float)
        if not margin > 0:
            raise ConfigError("[experiment] margin", f"must be positive, got {margin}")
        opts["margin"] = margin
    elif kind == "criterion":
        kernel = _get(cp, "experiment", "kernel", required=True, choices=ORACLE_DIMS)
        cfg_kw["dim"] = dim = ORACLE_DIMS[kernel]  # read by [nonlinearity] phi too
        if kernel == "interval":
            pts = _floats(_get(cp, "experiment", "endpoints", required=True),
                          "[experiment] endpoints", 2)
            opts["kernel"] = ("interval", tuple(pts))
        else:
            opts["kernel"] = "halfplane"
        # x0 and cell only where the INI sets them: criterion_integral holds the defaults
        if (raw := _get(cp, "experiment", "anchor")) is not None:
            opts["x0"] = tuple(_floats(raw, "[experiment] anchor", dim))
        opts["c0"] = _get(cp, "experiment", "c0", required=True, kind=float)
        opts["truncations"] = _floats(_get(cp, "experiment", "truncations", required=True),
                                      "[experiment] truncations")
        if (cell := _get(cp, "experiment", "cell", kind=float)) is not None:
            opts["cell"] = cell
        raw = _get(cp, "experiment", "set_A")
        opts["set_A"] = None if raw is None else _bind(_parse_expr(raw, "[experiment] set_A", dim))
    elif kind == "green":
        oracle = _get(cp, "experiment", "oracle", default="interval", choices=ORACLE_DIMS)
        if ORACLE_DIMS[oracle] != dim:
            raise ConfigError("[experiment] oracle",
                              f"{oracle} oracle needs a {ORACLE_DIMS[oracle]}D grid")
        opts["oracle"] = oracle
        if oracle == "halfplane":
            raw = _get(cp, "experiment", "source", default="0, 1")
            opts["source"] = tuple(_floats(raw, "[experiment] source", 2))
    elif kind == "verify":
        raw = _get(cp, "experiment", "suites")
        opts["suites"] = [s.strip() for s in raw.split(",")] if raw else None
        opts["trials"] = _get(cp, "experiment", "trials", default=TRIALS, kind=int)
        if opts["trials"] < 1:
            raise ConfigError("[experiment] trials", f"must be >= 1, got {opts['trials']}")

    cfg_kw["experiment_opts"] = opts


def _output(cp, cfg_kw):
    cfg_kw["basename"] = _get(cp, "output", "basename",
                              default=cfg_kw["experiment"].replace("-", "_"))


# every section each experiment reads, in order; a key in any other section stays
# unread, so it is rejected. criterion reads [experiment] first, as its kernel sets
# dim; verify uses no [domain], but loads and validates one that is present
_READS = {
    "solve": (_domain, _operator, _nonlinearity, _solver, _experiment, _output),
    "exhaust": (_domain, _operator, _nonlinearity, _solver, _experiment, _output),
    "thin-check": (_domain, _operator, _experiment, _output),
    "criterion": (_experiment, _nonlinearity, _output),
    "green": (_domain, _operator, _nonlinearity, _experiment, _output),
    "verify": (_domain, _experiment, _output),
}


def load_config(path: str, text: str | None = None) -> RunConfig:
    """The RunConfig of the INI file at path, or of text when it is given;
    path then only names the config in errors."""
    cp = _Parser()
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        cp.read_string(text, str(path))
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(path), f"bad config syntax: {exc}") from exc
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"[{sec}]", f"unknown section; expected {_SECTIONS}")
    if not cp.has_section("experiment"):
        raise ConfigError("[experiment]", "required section is missing")

    kw = {"experiment": _get(cp, "experiment", "type", required=True, choices=_READS)}
    for read in _READS[kw["experiment"]]:
        read(cp, kw)
    for sec in cp.sections():
        for key in cp.options(sec):
            if (sec, key) not in cp.read_keys:
                raise ConfigError(f"[{sec}] {key}", "unknown key, or not used by this config")
    return RunConfig(**kw)

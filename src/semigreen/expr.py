"""Tiny arithmetic expression language for coefficients and nonlinearities.

Variables x, y, t; operators + - * / ^ (right-assoc) and comparisons
< > <= >= (lowest precedence, evaluating to 1.0/0.0 so indicator factors
like (y > 1) can be written inline); functions exp, log, sqrt, abs,
min, max, pow. No user-defined functions.

Evaluation is IEEE double, vectorized over numpy array bindings, and
never returns NaN: domain violations (log of a nonpositive value,
sqrt of a negative, division by zero, pow with negative base and
non-integer exponent) raise DomainError instead.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

__all__ = ["Expr", "ParseError", "DomainError", "SPACE_VARS", "parse"]


class ParseError(ValueError):
    """Syntax or name error; .offset is the offending character's index in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(ValueError):
    pass


SPACE_VARS = ("x", "y")  # the point coordinates, one per axis
_VARS = (*SPACE_VARS, "t")


def _divide(a, b):
    if np.any(np.asarray(b) == 0):
        raise DomainError("division by zero")
    return a / b


def _log(a):
    if np.any(np.asarray(a) <= 0):
        raise DomainError("log of a nonpositive value")
    return np.log(a)


def _sqrt(a):
    if np.any(np.asarray(a) < 0):
        raise DomainError("sqrt of a negative value")
    return np.sqrt(a)


def _power(base, expo):
    b = np.asarray(base, dtype=float)
    e = np.asarray(expo, dtype=float)
    frac = e != np.floor(e)
    if np.any((b < 0) & frac):
        raise DomainError("pow with negative base and non-integer exponent")
    if np.any((b == 0) & (e < 0)):
        raise DomainError("pow(0, negative)")
    out = np.power(b, e)
    if out.ndim == 0 and np.ndim(base) == 0 and np.ndim(expo) == 0:
        return float(out)
    return out


def _indicator(compare):
    """compare as 1.0/0.0: a float array for an array operand, else a Python float"""
    def fn(a, b):
        hit = compare(a, b)
        return hit.astype(float) if np.ndim(hit) else float(hit)
    return fn


# symbol -> (binding power, implementation); ^ is right-assoc, unary minus binds at _UNARY_POWER
_BINARY = {
    "<": (1, _indicator(np.less)), ">": (1, _indicator(np.greater)),
    "<=": (1, _indicator(np.less_equal)), ">=": (1, _indicator(np.greater_equal)),
    "+": (2, operator.add), "-": (2, operator.sub),
    "*": (3, operator.mul), "/": (3, _divide),
    "^": (5, _power),
}
_UNARY_POWER = 4
# name -> (arity, implementation)
_FUNCS = {
    "exp": (1, np.exp), "log": (1, _log), "sqrt": (1, _sqrt), "abs": (1, np.abs),
    "min": (2, np.minimum), "max": (2, np.maximum), "pow": (2, _power),
}
# symbol -> token kind
_SYMBOLS = {"(": "lparen", ")": "rparen", ",": "comma", **dict.fromkeys(_BINARY, "op")}
# one token after whitespace: a number (a run of digits and dots that starts with a
# digit or with a dot before a digit, then an optional exponent; float() judges the
# run), an identifier, or a symbol, longest first so "<=" before "<". A match with
# no group is the end of the text or an unexpected character.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:\d|\.(?=\d))[\d.]*(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[^\W\d]\w*)"
    rf"|(?P<sym>{'|'.join(map(re.escape, sorted(_SYMBOLS, key=len, reverse=True)))}))?")


# token kinds: num ident op lparen rparen comma end
def _tokenize(text: str):
    toks, i = [], 0
    while True:
        m = _TOKEN.match(text, i)
        kind, i = m.lastgroup, m.end()
        if kind is None:
            if i < len(text):
                raise ParseError(f"unexpected character {text[i]!r}", i)
            toks.append(("end", "", i))
            return toks
        value, at = m[kind], m.start(kind)
        if kind == "num":
            try:
                value = float(value)
            except ValueError:
                raise ParseError(f"bad number literal {m[kind]!r}", at) from None
            if not np.isfinite(value):
                raise ParseError(f"number literal {m[kind]!r} overflows", at)
        elif kind == "sym":
            kind = _SYMBOLS[value]
        toks.append((kind, value, at))


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.variables = set()

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str):
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {kind}, found {t[1]!r}", t[2])

    def parse_expr(self, min_power: int = 0):
        node = self.parse_prefix()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or _BINARY[val][0] < min_power:
                return node
            self.next()
            power = _BINARY[val][0]
            rhs = self.parse_expr(power if val == "^" else power + 1)
            node = ("bin", val, node, rhs)

    def parse_prefix(self):
        kind, val, off = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "op" and val == "-":
            return ("neg", self.parse_expr(_UNARY_POWER))
        if kind == "lparen":
            node = self.parse_expr(0)
            self.expect("rparen")
            return node
        if kind == "ident":
            if self.peek()[0] == "lparen":
                if val not in _FUNCS:
                    raise ParseError(f"unknown function {val!r}", off)
                self.next()
                args = [self.parse_expr(0)]
                while self.peek()[0] == "comma":
                    self.next()
                    args.append(self.parse_expr(0))
                self.expect("rparen")
                arity = _FUNCS[val][0]
                if len(args) != arity:
                    raise ParseError(f"{val} takes {arity} argument(s), got {len(args)}", off)
                return ("call", val, tuple(args))
            if val not in _VARS:
                raise ParseError(f"unknown identifier {val!r}", off)
            self.variables.add(val)
            return ("var", val)
        raise ParseError(f"unexpected token {val!r}", off)


def _eval_node(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        try:
            return env[node[1]]
        except KeyError:
            raise DomainError(f"unbound variable {node[1]!r}") from None
    if kind == "neg":
        return -_eval_node(node[1], env)
    if kind == "call":
        return _FUNCS[node[1]][1](*[_eval_node(a, env) for a in node[2]])
    # operands left to right, then the operation
    return _BINARY[node[1]][1](_eval_node(node[2], env), _eval_node(node[3], env))


@dataclass(frozen=True)
class Expr:
    """Parsed expression; immutable and reentrant."""

    ast: tuple
    source: str
    variables: frozenset  # the variable names the source uses

    def eval(self, bindings: dict):
        """Evaluate under {x, y, t} bindings (scalars or numpy arrays)."""
        out = _eval_node(self.ast, bindings)
        if np.any(np.isnan(np.asarray(out))):
            raise DomainError(f"expression {self.source!r} produced NaN")
        return out


def parse(text: str) -> Expr:
    """Parse an expression; raises ParseError with the offset on bad input."""
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    p = _Parser(text)
    ast = p.parse_expr(0)
    tail = p.peek()
    if tail[0] != "end":
        raise ParseError(f"trailing input {tail[1]!r}", tail[2])
    return Expr(ast=ast, source=text, variables=frozenset(p.variables))

import string

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semigreen.expr import _SYMBOLS, DomainError, ParseError, _tokenize, parse


def ev(text, **bindings):
    return parse(text).eval(bindings)


class TestParse:
    def test_power_of_max(self):
        e = parse("max(t,0)^0.5")
        assert e.ast[0] == "bin" and e.ast[1] == "^"
        assert e.ast[2][0] == "call" and e.ast[2][1] == "max"

    def test_rational_coefficient(self):
        assert ev("1/(x^2+y^2)", x=1.0, y=2.0) == pytest.approx(0.2)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as ei:
            parse("2*+3")
        assert ei.value.offset == 2

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("x + z")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("sin(x)")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    @pytest.mark.parametrize("text, message, offset", [
        ("max(1)", r"max takes 2 argument\(s\), got 1", 0),
        ("(1 + 2", "expected rparen, found ''", 6),
    ], ids=["arity", "rparen"])
    def test_call_and_group_errors(self, text, message, offset):
        with pytest.raises(ParseError, match=message) as ei:
            parse(text)
        assert ei.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("1 + 2 )")

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0  # 2^(3^2), not (2^3)^2

    def test_variables(self):
        assert parse("(y > 1) * max(t, 0)").variables == {"y", "t"}
        assert parse("2 ^ 3").variables == frozenset()

    def test_precedence(self):
        assert ev("2+3*4") == 14.0
        assert ev("-x^2", x=3.0) == -9.0


class TestEval:
    def test_logistic_map_value(self):
        assert ev("x*(1-x)", x=0.5) == 0.25

    def test_vanishes_below_zero(self):
        assert ev("max(t,0)", t=-3.0) == 0.0

    def test_sqrt_negative_is_domain_error(self):
        with pytest.raises(DomainError):
            ev("sqrt(t)", t=-1.0)

    def test_log_nonpositive(self):
        with pytest.raises(DomainError):
            ev("log(x)", x=0.0)

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            ev("1/x", x=0.0)

    def test_pow_negative_base_fractional(self):
        with pytest.raises(DomainError):
            ev("pow(x, 0.5)", x=-2.0)
        assert ev("pow(x, 2)", x=-2.0) == 4.0

    def test_unbound_variable(self):
        with pytest.raises(DomainError, match="unbound"):
            ev("x + t", x=1.0)

    def test_vectorized_over_arrays(self):
        t = np.array([-1.0, 0.0, 2.0, 5.0])
        out = ev("max(t,0)^2", t=t)
        np.testing.assert_allclose(out, [0.0, 0.0, 4.0, 25.0])

    def test_comparison_indicator(self):
        y = np.array([0.5, 1.0, 1.5])
        out = ev("(y > 1) * max(t, 0)", y=y, t=2.0)
        np.testing.assert_allclose(out, [0.0, 0.0, 2.0])

    def test_scalar_comparison(self):
        assert ev("x >= 2", x=3.0) == 1.0
        assert ev("x >= 2", x=1.0) == 0.0

    def test_log_and_sqrt_of_valid_arguments(self):
        assert ev("log(2)") == np.log(2.0)
        assert ev("sqrt(4)") == 2.0

    def test_pow_of_zero_to_a_negative_power(self):
        with pytest.raises(DomainError, match=r"pow\(0, negative\)"):
            ev("pow(0, -1)")

    def test_nan_result_is_domain_error(self):
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
            with pytest.raises(DomainError, match="produced NaN"):
                ev("exp(800) - exp(800)")


names = st.sampled_from(["x", "y", "t"])
numbers = st.floats(min_value=-4, max_value=4).map(lambda v: round(v, 3))


@st.composite
def expr_strings(draw, depth=0):
    if depth > 3:
        return draw(st.one_of(names, numbers.map(lambda v: repr(abs(v)))))
    branch = draw(st.integers(0, 6))
    if branch == 0:
        return draw(names)
    if branch == 1:
        return repr(abs(draw(numbers)))
    sub = lambda: draw(expr_strings(depth=depth + 1))  # noqa: E731
    if branch == 2:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({sub()} {op} {sub()})"
    if branch == 3:
        return f"(-{sub()})"
    if branch == 4:
        return f"max({sub()}, {sub()})"
    if branch == 5:
        return f"min({sub()}, {sub()})"
    return f"abs({sub()})"


class TestRoundTrip:
    @given(text=expr_strings(), x=numbers, y=numbers, t=numbers)
    @settings(max_examples=300, deadline=None)
    def test_value_matches_python_eval(self, text, x, y, t):
        # the strategy's grammar has Python's precedence and associativity,
        # so equal values mean the tree has the shape Python gives the text
        b = {"x": x, "y": y, "t": t}
        assert parse(text).eval(b) == eval(text, {"max": max, "min": min, "abs": abs}, b)

    @given(a=numbers, b=numbers, t=numbers)
    @settings(max_examples=200, deadline=None)
    def test_precedence_property(self, a, b, t):
        got = ev("x+y*t", x=a, y=b, t=t)
        assert got == a + (b * t)

    def test_parentheses_set_the_tree(self):
        # (a+b)+c and a+(b+c) round differently, so the tree must keep the grouping
        x, y, t, two, three = ("var", "x"), ("var", "y"), ("var", "t"), ("num", 2.0), ("num", 3.0)
        assert parse("x + (y + t)").ast == ("bin", "+", x, ("bin", "+", y, t))
        assert parse("(x + y) + t").ast == ("bin", "+", ("bin", "+", x, y), t)
        assert parse("x - (y - t)").ast == ("bin", "-", x, ("bin", "-", y, t))
        assert parse("2 ^ (3 ^ 2)").ast == ("bin", "^", two, ("bin", "^", three, two))
        assert parse("(2 ^ 3) ^ 2").ast == ("bin", "^", ("bin", "^", two, three), two)


def _reference_tokenize(text: str):
    """The character-by-character scanner that _tokenize's pattern replaced,
    kept as the reference it is compared against."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                val = float(text[i:j])
            except ValueError:
                raise ParseError(f"bad number literal {text[i:j]!r}", i) from None
            if not np.isfinite(val):
                raise ParseError(f"number literal {text[i:j]!r} overflows", i)
            toks.append(("num", val, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        for sym in sorted(_SYMBOLS, key=len, reverse=True):
            if text.startswith(sym, i):
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        toks.append((_SYMBOLS[sym], sym, i))
        i += len(sym)
    toks.append(("end", "", n))
    return toks


def _scan(tokenize, text):
    """The tokens, or the ParseError's (message, offset)."""
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.offset


EDGE_CASES = ["1.2.3", "1e999", "2e+", "2e", "..5", ".5e-3", "1e+07x", "x<=y", "1 $ 2",
              "\u0663+1", "", " \t", "max(t,0)^0.5", "_a1 >= 3.", "4.e2.1"]
# printable ASCII, with the characters of numbers drawn more often
scanner_text = st.text(st.sampled_from(string.printable) | st.sampled_from("0123456789.eE+-<="),
                       max_size=16)


class TestTokenizer:
    @given(text=scanner_text)
    @settings(max_examples=500, deadline=None)
    @example(text="")
    def test_pattern_matches_the_reference_scanner(self, text):
        assert _scan(_tokenize, text) == _scan(_reference_tokenize, text)

    @pytest.mark.parametrize("text", EDGE_CASES)
    def test_edge_cases_match_the_reference_scanner(self, text):
        assert _scan(_tokenize, text) == _scan(_reference_tokenize, text)

    @pytest.mark.parametrize("text, message, offset", [
        ("x + 1.2.3", "bad number literal '1.2.3'", 4),
        ("2 * 1e999", "number literal '1e999' overflows", 4),
        ("1 $ 2", "unexpected character '$'", 2),
    ])
    def test_errors_name_the_offset(self, text, message, offset):
        with pytest.raises(ParseError) as ei:
            parse(text)
        assert ei.value.offset == offset and str(ei.value) == f"{message} (offset {offset})"

    def test_superscript_digit_rejected_by_both(self):
        # the one known difference: str.isdigit reads "\u00b2" as a digit and \d does
        # not, so it scans as an identifier; both reject it at offset 0, with different messages
        assert _scan(_reference_tokenize, "\u00b2") == ("bad number literal '\u00b2' (offset 0)", 0)
        with pytest.raises(ParseError, match="unknown identifier") as ei:
            parse("\u00b2")
        assert ei.value.offset == 0

    def test_exponent_needs_a_digit(self):
        # "2e" is the number 2 and the identifier e, which the parser rejects
        assert _tokenize("2e")[:2] == [("num", 2.0, 0), ("ident", "e", 1)]
        assert ev("1.5e+2 + .5") == 150.5

"""Loading of the embedded verification fixtures.

Fixture files carry reference tables verbatim so that resolving a
suspected misprint is a data change, not a code change.  The directory
can be overridden through the CAYLEY_FIXTURES environment variable.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from pathlib import Path

from .exact import HomogPoly, poly_mul

_DEFAULT_DIR = Path(__file__).parent / "fixtures"


def fixtures_dir() -> Path:
    override = os.environ.get("CAYLEY_FIXTURES")
    if override:
        return Path(override)
    return _DEFAULT_DIR


class FixtureError(Exception):
    """A fixture file is missing, unreadable or malformed: a configuration error."""


def fixture_path(name: str) -> Path:
    return fixtures_dir() / f"{name}.json"


def load_fixture(name: str):
    path = fixture_path(name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"malformed fixture {path}: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise FixtureError(f"malformed fixture {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except ValueError as exc:  # an integer beyond sys.get_int_max_str_digits()
        raise FixtureError(f"malformed fixture {path}: {exc}") from exc
    except RecursionError as exc:
        raise FixtureError(f"malformed fixture {path}: JSON nested too deeply") from exc


def fixture_entry(name: str, key: str, valid, description: str):
    """The entry ``key`` of the named fixture, which ``valid`` must accept."""
    data = load_fixture(name)
    entry = data.get(key) if isinstance(data, dict) else None
    if not valid(entry):
        raise FixtureError(f"malformed fixture {fixture_path(name)}: {key!r} is not {description}")
    return entry


def fixture_object(name: str, key: str) -> dict:
    """The entry ``key`` of the named fixture, which must be a JSON object."""
    return fixture_entry(name, key, lambda entry: isinstance(entry, dict), "an object")


def int_table(name: str, table, where: str) -> dict:
    """``table``, found at ``where`` in the named fixture, as {label: JSON integer}."""
    path = fixture_path(name)
    if not isinstance(table, dict):
        raise FixtureError(f"malformed fixture {path}: {where} is not an object")
    for label, c in table.items():
        if type(c) is not int:
            raise FixtureError(f"malformed fixture {path}: {where}[{label!r}] = {c!r} is not an integer")
    return table


def form_table(name: str, table: dict, where: str) -> dict:
    """``table``, found at ``where`` in the named fixture, as {label: parsed form expression}."""
    forms = {}
    for label, expr in table.items():
        try:
            if not isinstance(expr, str):
                raise ValueError("not a string")
            forms[label] = parse_form(expr)
        except ValueError as exc:
            shown = expr[:57] + "..." if isinstance(expr, str) and len(expr) > 60 else expr
            path = fixture_path(name)
            raise FixtureError(f"malformed fixture {path}: {where}[{label!r}] = {shown!r} is not a form expression ({exc})") from exc
    return forms


# ---------------------------------------------------------------------------
# tiny evaluator for the polynomial expressions printed in the reference
# figures, e.g. "4g(g-b)", "2(b-g)^2", "-3bg", "b(4b-g)"
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[abg()+^-]|\*)")

# The figures hold classes of the complex dimension's degree at most;
# cayley.DIMENSION is 8 (a test ties the two, since cayley imports this
# module).  The bounds keep a misprinted value from costing unbounded work.
FORM_DEGREE_BOUND = 8
FORM_NESTING_BOUND = 16

_VARS = {
    "a": HomogPoly.linear(1, 0),
    "b": HomogPoly.linear(0, 1),
    "g": HomogPoly.linear(-1, -1),
}


def _tokenize(expr):
    out, pos = [], 0
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise ValueError(f"bad character at {pos}")
        tok = m.group(1)
        if tok != "*":
            out.append(tok)
        pos = m.end()
    return out


def parse_form(expr: str) -> HomogPoly:
    """Evaluate a printed polynomial expression into a canonical form.

    Supports integers, the three characters a, b, g (with g = -a-b),
    parentheses, +, -, ^ and implicit multiplication by adjacency.  A
    subexpression of degree or exponent above FORM_DEGREE_BOUND, or
    parentheses nested deeper than FORM_NESTING_BOUND, raise ValueError.
    """
    tokens = _tokenize(expr)
    pos = 0
    depth = 0

    def bounded(degree, what="degree"):
        if degree > FORM_DEGREE_BOUND:
            raise ValueError(f"{what} {degree} above {FORM_DEGREE_BOUND}")

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def parse_sum():
        nonlocal pos
        sign = 1
        while peek() in ("+", "-"):
            if tokens[pos] == "-":
                sign = -sign
            pos += 1
        total = parse_product().scale(sign)
        while peek() in ("+", "-"):
            sign = 1
            while peek() in ("+", "-"):
                if tokens[pos] == "-":
                    sign = -sign
                pos += 1
            total = total + parse_product().scale(sign)
        return total

    def parse_product():
        nonlocal pos
        out = parse_power()
        while peek() is not None and (peek() == "(" or peek() in _VARS or peek().isdigit()):
            factor = parse_power()
            bounded(out.degree + factor.degree)
            out = poly_mul(out, factor)
        return out

    def parse_power():
        nonlocal pos
        base = parse_atom()
        if peek() == "^":
            pos += 1
            if not (peek() or "").isdigit():
                raise ValueError("missing exponent")
            exp = int(tokens[pos])
            pos += 1
            bounded(exp, "exponent")
            bounded(base.degree * exp)
            out = HomogPoly.constant(1)
            for _ in range(exp):
                out = poly_mul(out, base)
            return out
        return base

    def parse_atom():
        nonlocal pos, depth
        tok = peek()
        if tok == "(":
            depth += 1
            if depth > FORM_NESTING_BOUND:
                raise ValueError(f"parentheses nested deeper than {FORM_NESTING_BOUND}")
            pos += 1
            inner = parse_sum()
            if peek() != ")":
                raise ValueError("unbalanced parentheses")
            pos += 1
            depth -= 1
            return inner
        if tok in _VARS:
            pos += 1
            return _VARS[tok]
        if tok is not None and tok.isdigit():
            pos += 1
            return HomogPoly.constant(Fraction(int(tok)))
        raise ValueError(f"unexpected {'end' if tok is None else f'token {tok!r}'}")

    result = parse_sum()
    if pos != len(tokens):
        raise ValueError("trailing tokens")
    return result

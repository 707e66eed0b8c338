"""Loading of the embedded verification fixtures.

Fixture files carry reference tables verbatim so that resolving a
suspected misprint is a data change, not a code change.  The directory
can be overridden through the CAYLEY_FIXTURES environment variable.
"""

from __future__ import annotations

import json
import os
import re
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


def form_table(name: str, labels) -> tuple:
    """The printed 'values' of the named figure fixture and their parsed forms.

    The keys must be exactly ``labels`` and each value a form expression
    (see ``parse_form``); otherwise FixtureError names the bad or missing key.
    """
    values = fixture_object(name, "values")
    path = fixture_path(name)
    missing = set(labels) - set(values)
    if missing:
        raise FixtureError(f"malformed fixture {path}: values has no key {min(missing)!r}")
    forms = {}
    for label, expr in values.items():
        if label not in labels:
            raise FixtureError(f"malformed fixture {path}: values key {label!r} is not a point label")
        try:
            if not isinstance(expr, str):
                raise ValueError("not a string")
            forms[label] = parse_form(expr)
        except ValueError as exc:
            shown = expr[:57] + "..." if isinstance(expr, str) and len(expr) > 60 else expr
            raise FixtureError(f"malformed fixture {path}: values[{label!r}] = {shown!r} is not a form expression ({exc})") from exc
    return values, forms


# The figures hold classes of the complex dimension's degree at most;
# cayley.DIMENSION is 8 (a test ties the two, since cayley imports this
# module).  The bound keeps a misprinted exponent from costing unbounded work.
FORM_DEGREE_BOUND = 8

_VARS = {
    "a": HomogPoly.linear(1, 0),
    "b": HomogPoly.linear(0, 1),
    "g": HomogPoly.linear(-1, -1),
}
_TERM = re.compile(r"([+-]?)(\d*)((?:(?:[abg]|\([+-]?\d*[abg](?:[+-]\d*[abg])*\))(?:\^\d+)?)*)")
_FACTOR = re.compile(r"([abg]|\([^)]*\))(?:\^(\d+))?")
_SUMMAND = re.compile(r"([+-]?)(\d*)([abg])")


def parse_form(expr: str) -> HomogPoly:
    """Read a figure value such as "4g(g-b)", "2(b-g)^2" or "-3bg" into a canonical form.

    The accepted shape, with no whitespace, is

        form   := term (("+" | "-") term)*     terms of one degree
        term   := ["+" | "-"] [integer] factor*   an integer, factors or both
        factor := (letter | "(" linear ")") ["^" integer]
        linear := ["+" | "-"] [integer] letter (("+" | "-") [integer] letter)*
        letter := "a" | "b" | "g"                 with g = -a - b

    Anything else (nesting, an integer power, a second integer in a term)
    raises ValueError, as does a term of degree, or a factor of exponent,
    above FORM_DEGREE_BOUND; the work is linear in the length of expr.
    """
    total, pos = None, 0
    while pos < len(expr) or total is None:
        m = _TERM.match(expr, pos)
        sign, literal, factors = m.groups()
        if not (literal or factors) or (pos and not sign):
            raise ValueError(f"not of the printed shape at character {pos}")
        term = HomogPoly.constant(int(sign + (literal or "1")))
        for factor, exponent in _FACTOR.findall(factors):
            exponent = int(exponent or 1)
            for what, n in (("exponent", exponent), ("degree", term.degree + exponent)):
                if n > FORM_DEGREE_BOUND:
                    raise ValueError(f"{what} {n} above {FORM_DEGREE_BOUND}")
            base = sum((_VARS[letter].scale(int(s + (c or "1"))) for s, c, letter in _SUMMAND.findall(factor)), HomogPoly.zero(1))
            for _ in range(exponent):
                term = poly_mul(term, base)
        if total is not None and term.degree != total.degree:
            raise ValueError(f"term at character {pos} is not of degree {total.degree}")
        total = term if total is None else total + term
        pos = m.end()
    return total

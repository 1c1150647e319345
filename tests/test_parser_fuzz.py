"""Fuzzed text parsers: any input gives a value or a ValueError or a
DiffAlgebraError, the two exceptions that the CLI turns into one `error:`
line with exit status 2; anything else would reach a user as a traceback.

Inputs are short strings over small alphabets, so that no power can grow
large.  The alphabet of rationals has an `e` and that of jet expressions
the Arabic-Indic digit three; both must be rejected.  A positioned error
must point inside the text, and so must every error of a coefficient
list but the one for a list with no entry; a parsed form has one
coefficient per comma-separated entry.
"""

import re
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from g2sextic.binform import BinaryForm, parse_form
from g2sextic.diffpoly import (
    DiffAlgebraError,
    JetContext,
    JetFunction,
    ParseError,
    parse_jet_expression,
)
from g2sextic.scalar import parse_rational

CTX = JetContext(7)
POSITION = re.compile(r"\(at position (\d+)\)$")


@given(st.text("012xy+-*/^() \u0663", max_size=8))
@example("0^-1")
@example("(y1-y1)^-1")
@example("2\u00b2")
def test_jet_expression_parser(text):
    try:
        assert isinstance(parse_jet_expression(text, CTX), JetFunction)
        assert text.isascii()  # a non-ASCII digit is never read as a digit
    except ParseError as err:
        assert 0 <= err.position <= len(text)
    except (ValueError, DiffAlgebraError):
        pass


@given(st.text("012-−/. ae", max_size=8))
@example("abc")
@example("")
@example("1e5")
def test_rational_parser(text):
    try:
        assert isinstance(parse_rational(text), Fraction)
        assert "e" not in text  # exponent notation is never read
    except ValueError as err:
        match = POSITION.search(str(err))
        assert match and int(match.group(1)) <= len(text), str(err)


@given(st.text("01-/ ,=va", max_size=8))
@example("1,,0,0,0,0,0,1")
@example("1,0,")
@example("v1=0")
def test_form_parser(text):
    try:
        form = parse_form(text)
    except ValueError as err:
        if not text.replace(",", "").strip():
            assert str(err) == f"no coefficients in {text!r}"
            return
        match = POSITION.search(str(err))
        assert match and int(match.group(1)) <= len(text), str(err)
        return
    assert isinstance(form, BinaryForm)
    assert len(form.coeffs) == text.count(",") + 1

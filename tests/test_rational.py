import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from skelpot import RationalParseError, format_rational, parse_rational


def test_integer_inputs():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(0) == Fraction(0)


def test_fraction_strings():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational("0/5") == Fraction(0)


def test_decimal_strings_are_exact():
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("0.4999997") == Fraction(4999997, 10 ** 7)
    assert parse_rational("-2.25") == Fraction(-9, 4)


def test_format_is_canonical():
    assert format_rational(Fraction(4, 6)) == "2/3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(5)) == "5"


@pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.2.3", "1e5", None,
                                 "+1", "1/-2", ".5", "5.", "1/2.5", "1_000"])
def test_rejects_malformed(bad):
    with pytest.raises((RationalParseError, TypeError)):
        parse_rational(bad)


@given(st.fractions())
def test_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_zero_denominator_message():
    with pytest.raises(RationalParseError, match="zero denominator"):
        parse_rational("-3/000")


def test_digit_runs_above_the_integer_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_rational("7" * limit) == int("7" * limit)
    for text in ["1" * (limit + 1), "-0." + "1" * (limit + 1),
                 "1/" + "3" * (limit + 1)]:
        with pytest.raises(RationalParseError,
                           match=f"a run of {limit + 1} digits is above "
                                 f"the maximum {limit}"):
            parse_rational(text)


def test_bytes_are_read_as_their_text():
    """A JSON integer literal, handed on as bytes, parses as its text and
    meets the same digit limit; bytes are no str, so no id check takes
    them."""
    limit = sys.get_int_max_str_digits()
    assert json.loads("[-12]", parse_int=str.encode) == [b"-12"]
    assert parse_rational(b"-12") == Fraction(-12)
    assert type(parse_rational(b"7")) is Fraction
    for text in ["1" * (limit + 1), "-" + "1" * (limit + 1)]:
        with pytest.raises(RationalParseError,
                           match=f"^a run of {limit + 1} digits is above "
                                 f"the maximum {limit}$"):
            parse_rational(text.encode())
    with pytest.raises(RationalParseError,
                       match=r"^not a rational literal: '\xff'$"):
        parse_rational(b"\xff")


def _digits(rng):
    return "0" * rng.randint(0, 2) + str(rng.randint(0, 10 ** rng.randint(0, 30)))


def test_equals_fraction_of_the_string():
    rng = random.Random(8)
    for _ in range(2000):
        s = rng.choice(["", "-"]) + _digits(rng)
        kind = rng.randrange(3)
        if kind == 1:
            s += "/" + "0" * rng.randint(0, 2) + str(rng.randint(1, 10 ** 12))
        elif kind == 2:
            s += "." + _digits(rng)
        x = parse_rational(s)
        assert type(x) is Fraction and x == Fraction(s), s
    for s in ["-0.0", "-0", "0/7", "-000.000", "007/003", "-0.50"]:
        assert parse_rational(s) == Fraction(s)

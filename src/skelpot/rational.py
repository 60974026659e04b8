"""Exact rational parsing/formatting used by all JSON interfaces.

Rationals travel as strings "p/q" (reduced, no leading '+') or bare
integers.  Decimal strings like "0.5000001" are parsed exactly as scaled
integers, never through floats.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

# an optional '-', a digit run, then an optional "/digits" or ".digits"
_RATIONAL_RE = re.compile(r"(-?)(\d+)(?:/(\d+)|\.(\d+))?")


class RationalParseError(ValueError):
    pass


def parse_rational(value) -> Fraction:
    """Parse an int, "p/q" string, or exact decimal string into a Fraction;
    bytes are read as their text (the CLI reads JSON integer literals as
    bytes, which no id check takes for a str).  A digit run longer than
    the interpreter's integer-string limit (`sys.get_int_max_str_digits()`,
    4300 by default) is refused with a RationalParseError."""
    if type(value) is not str:    # the common case skips two checks
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return Fraction(value)
        if type(value) is bytes:
            value = value.decode("latin-1")
    m = _RATIONAL_RE.fullmatch(text := value.strip()) \
        if isinstance(value, str) else None
    if m is None:
        raise RationalParseError(f"not a rational literal: {value!r}")
    sign, whole, den, frac = m.groups()
    # int() refuses digit runs above the interpreter's limit (0: none);
    # no run is longer than the whole text
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit and \
            (longest := max(map(len, m.groups("")))) > limit:
        raise RationalParseError(f"a run of {longest} digits is above the "
                                 f"maximum {limit}")
    num, den = int(whole), int(den or 1)
    if frac is not None:
        num, den = num * 10 ** len(frac) + int(frac), 10 ** len(frac)
    if den == 0:
        raise RationalParseError(f"zero denominator: {value!r}")
    return Fraction(-num if sign else num, den)


def parse_once(value, memo: dict, where: str, *keys) -> Fraction:
    """parse_rational(value), parsing each string once per memo, so that
    a repeated literal is one object; any other value meets
    parse_rational, and its error, every time.  The error names the
    literal's location, `<where.format(*keys)>: not a rational literal:
    ...`, put into words only in the raise."""
    try:
        if type(value) is not str:
            return parse_rational(value)
        r = memo.get(value)
        if r is None:
            r = memo[value] = parse_rational(value)
        return r
    except RationalParseError as exc:
        raise RationalParseError(f"{where.format(*keys)}: {exc}") from None


def format_rational(x: Fraction) -> str:
    """Canonical form: reduced fraction, '-' sign only, no denominator 1."""
    return str(x if isinstance(x, Fraction) else Fraction(x))

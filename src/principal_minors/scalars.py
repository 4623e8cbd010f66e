"""Exact scalar policy shared by every module.

All algebraic computations run over exact rationals.  Scalars are plain
Python ints whenever the value is integral and fractions.Fraction
otherwise; the two interoperate transparently.

Text has one codec: scalar_str writes reduced "p/q", and scalar_from_str
reads exactly -?[0-9]+(/[0-9]+)? in ASCII digits, so no decimal,
exponent ("1e1000000" is a million-digit integer), underscore, "+",
whitespace or non-ASCII digit is read.  A numerator or denominator has
at most MAX_DIGITS digits either way; past the interpreter's int-to-str
limit (4,300 digits by default) the text goes through decimal, which
reads 20,000 digits in 18 ms and writes them in 10 ms, but takes 43 s to
read 1,000,000 (2-core x86 VM, Python 3.11).
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import isqrt
from typing import Union

Scalar = Union[int, Fraction]

MAX_DIGITS = 20_000
EXCERPT_CHARS = 64
_DIGIT_BOUND = 10 ** MAX_DIGITS


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and "p/q" strings to a canonical Scalar."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return scalar_from_str(value)
    if isinstance(value, Fraction):
        return normalize(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def excerpt(value) -> str:
    """repr(value) for an error message; past EXCERPT_CHARS characters,
    its first EXCERPT_CHARS and the value's length instead."""
    text = scalar_text(value) if type(value) is int else repr(value)
    if len(text) <= EXCERPT_CHARS:
        return text
    size = len(value) if isinstance(value, str) else len(text)
    return f"{text[:EXCERPT_CHARS]}... ({size} characters)"


def scalar_from_str(text: str) -> Scalar:
    """Read "p/q" or "p" (ASCII digits, optional leading "-", q >= 1):
    an int when the value is integral, else a reduced Fraction."""
    # isascii() first, as isdigit() also holds for "²" or "١"
    numerator, slash, denominator = text.partition("/")
    digits = numerator[1:] if numerator[:1] == "-" else numerator
    integral = denominator == "1" or not slash
    if not (digits.isascii() and digits.isdigit()
            and (integral or denominator.isascii() and denominator.isdigit())):
        raise ValueError(f"not of the form p/q in ASCII digits: {excerpt(text)}")
    if len(digits) > MAX_DIGITS or not integral and len(denominator) > MAX_DIGITS:
        raise ValueError(f"a numerator or denominator has more than {MAX_DIGITS} digits")
    p = _int_from_str(numerator)
    if integral:
        return p
    q = _int_from_str(denominator)
    if q == 0:
        raise ValueError(f"zero denominator in {excerpt(text)}")
    return normalize(Fraction(p, q))


def _int_from_str(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-to-str limit
        return int(Decimal(digits))


def _int_str(value: int) -> str:
    """str(value), also past the interpreter's int-to-str limit; raises
    ValueError beyond MAX_DIGITS digits."""
    try:
        return str(value)
    except ValueError:
        if abs(value) >= _DIGIT_BOUND:
            raise ValueError(f"cannot write an integer of more than {MAX_DIGITS} digits") from None
        return str(Decimal(value))


def normalize(value: Scalar) -> Scalar:
    """Collapse integral Fractions to int."""
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    return value


def scalar_str(value: Scalar) -> str:
    """Serialize as "p/q" with q > 0 and gcd(p, q) = 1."""
    if type(value) is int:
        return f"{_int_str(value)}/1"
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"cannot write {value!r} as an exact rational")
    f = Fraction(value)
    return f"{_int_str(f.numerator)}/{_int_str(f.denominator)}"


def scalar_text(value: Scalar) -> str:
    """The text str() gives a Scalar ("-3", "7/2") for messages, through
    scalar_str and so past the int-to-str limit.  A numerator or
    denominator past MAX_DIGITS digits, which scalar_str cannot write,
    is cut to a note of that bound."""
    f = Fraction(value)
    if abs(f.numerator) >= _DIGIT_BOUND or f.denominator >= _DIGIT_BOUND:
        return f"(more than {MAX_DIGITS} digits)"
    return scalar_str(value).removesuffix("/1")


def sqrt_exact(value: Scalar):
    """Return the nonnegative rational square root, or None if there is none."""
    f = Fraction(value)
    if f < 0:
        return None
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn != f.numerator or pd * pd != f.denominator:
        return None
    return normalize(Fraction(pn, pd))

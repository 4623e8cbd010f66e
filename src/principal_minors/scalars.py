"""Exact scalar policy shared by every module.

All algebraic computations run over exact rationals.  Scalars are plain
Python ints whenever the value is integral and fractions.Fraction
otherwise; the two interoperate transparently and integer fast paths
keep the hot evaluation loops cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

Scalar = Union[int, Fraction]


def as_scalar(value) -> Scalar:
    """Coerce ints, Fractions and "p/q" strings to a canonical Scalar."""
    if isinstance(value, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return normalize(value)
    if isinstance(value, str):
        try:
            return normalize(Fraction(value))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


def normalize(value: Scalar) -> Scalar:
    """Collapse integral Fractions to int."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def scalar_str(value: Scalar) -> str:
    """Serialize as "p/q" with q > 0 and gcd(p, q) = 1."""
    if not isinstance(value, (int, Fraction)):
        raise ValueError(f"cannot write {value!r} as an exact rational")
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def sqrt_exact(value: Scalar):
    """Return the nonnegative rational square root, or None if there is none."""
    f = Fraction(value)
    if f < 0:
        return None
    pn, pd = isqrt(f.numerator), isqrt(f.denominator)
    if pn * pn != f.numerator or pd * pd != f.denominator:
        return None
    return normalize(Fraction(pn, pd))

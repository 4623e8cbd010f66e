from __future__ import annotations

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from principal_minors.matrices import det_exact

from conftest import laplace_det

H = Fraction(1, 2)


def _row(n):
    # zeros are common, so pivots need swaps and many matrices are singular;
    # a rational row mixes Fractions (some integral) with ints
    ints = st.one_of(st.just(0), st.integers(-4, 4))
    rationals = st.one_of(ints, st.fractions(-4, 4, max_denominator=6))
    return st.booleans().flatmap(
        lambda rational: st.lists(rationals if rational else ints, min_size=n, max_size=n))


square_rows = st.integers(0, 7).flatmap(lambda n: st.lists(_row(n), min_size=n, max_size=n))


@given(square_rows)
@example([[0, H, 0, 0], [H, 0, 0, 0], [0, 0, Fraction(1, 3), 1], [0, 0, 1, 2]])  # swap, 1/12
@example([[H, 1, 2, 3], [1, 2, 4, 6], [0, H, 0, 1], [Fraction(1, 3), 0, 1, 0]])  # singular
@settings(max_examples=200, deadline=None)
def test_det_exact_matches_laplace(rows):
    # rows need not be symmetric: the all-minors kernel runs on
    # reconstruct's candidate B
    before = [list(row) for row in rows]
    value = det_exact(rows)
    assert value == laplace_det(rows)
    assert rows == before
    assert (type(value) is int) == (Fraction(value).denominator == 1)


def test_det_exact_is_an_int_when_integral():
    # the cofactor sizes too, not only Bareiss
    for rows in ([[Fraction(2)]],
                 [[Fraction(2, 3), 0], [0, Fraction(3, 2)]],
                 [[Fraction(2, 3), 1, 0], [0, Fraction(3, 2), 0], [0, 0, 2]]):
        value = det_exact(rows)
        assert value == laplace_det(rows) and type(value) is int

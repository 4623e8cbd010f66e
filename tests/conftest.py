"""Shared independent oracles and strategies for the test suite.

The oracles here deliberately avoid the library's own computation
paths: determinants by Laplace cofactor expansion, character sums by
explicit iteration over permutations, module dimensions by tableau
enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from principal_minors import SymmetricMatrix

# Spellings of rationals that fractions.Fraction reads but scalar_str never
# writes; every reader of a rational rejects each of them.
NOT_P_OVER_Q = ("1.5", ".5", "1e3", "1E3", "1e1000000", "1_000", " 1/1", "1/1 ", "+1",
                "\u0661/\u0662", "3/-4")


def laplace_det(rows):
    """Cofactor-expansion determinant, independent of Bareiss."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * laplace_det(minor)
    return total


def laplace_minors(rows):
    """All 2^n principal minors of rows in encoding order, each by
    laplace_det; works for exact scalars and complex floats alike."""
    n = len(rows)
    return [laplace_det([[rows[i][j] for j in range(n) if enc >> j & 1]
                         for i in range(n) if enc >> i & 1]) for enc in range(1 << n)]


def cycle_type_of(perm):
    """Cycle type of a permutation given as a tuple of images."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def count_ssyt_two_rows(shape, max_entry=2):
    """Semistandard tableaux of a <=2-row shape with entries <= max_entry;
    dimension oracle for Schur modules of a 2-dimensional space."""
    first = shape[0]
    second = shape[1] if len(shape) > 1 else 0

    def fill_rows(row1, row2):
        # row1 weakly increasing, row2 strictly larger columnwise
        if len(row1) < first:
            return sum(
                fill_rows(row1 + [v], row2)
                for v in range(row1[-1] if row1 else 1, max_entry + 1)
            )
        if len(row2) < second:
            lo = max(row2[-1] if row2 else 1, row1[len(row2)] + 1)
            return sum(fill_rows(row1, row2 + [v]) for v in range(lo, max_entry + 1))
        return 1

    return fill_rows([], [])


def symmetric_rows_strategy(n, lo=-6, hi=6):
    size = n * (n + 1) // 2
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(
        lambda vals: _rows_from_upper(n, vals)
    )


def _rows_from_upper(n, vals):
    rows = [[0] * n for _ in range(n)]
    it = iter(vals)
    for i in range(n):
        for j in range(i, n):
            v = next(it)
            rows[i][j] = rows[j][i] = v
    return rows


@pytest.fixture
def rng():
    return random.Random(20260811)


def random_fraction(rng, bound=6):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_rational_symmetric(n, rng, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = random_fraction(rng, bound)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = random_fraction(rng, bound)
    return SymmetricMatrix.from_rows(rows)

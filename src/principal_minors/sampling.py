"""Seeded random inputs for experiments and randomized suites."""

from __future__ import annotations

import random
from fractions import Fraction

from .matrices import SymmetricMatrix
from .polynomials import GroupElement, Matrix2
from .scalars import normalize


def random_symmetric_matrix(n: int, rng: random.Random,
                            nonzero_offdiag: bool = False) -> SymmetricMatrix:
    """Random integer symmetric matrix with entries in [-9, 9]."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-9, 9)
        for j in range(i + 1, n):
            v = rng.randint(-9, 9)
            while nonzero_offdiag and v == 0:
                v = rng.randint(-9, 9)
            rows[i][j] = rows[j][i] = v
    return SymmetricMatrix.from_rows(rows)


def random_special_matrix2(rng: random.Random) -> Matrix2:
    """Random rational 2x2 matrix of determinant 1; a, b, c in [-4, 4]."""
    a = 0
    while a == 0:
        a = rng.randint(-4, 4)
    b = rng.randint(-4, 4)
    c = rng.randint(-4, 4)
    d = normalize(Fraction(1 + b * c, a))
    return ((a, b), (c, d))


def random_special_element(n: int, rng: random.Random, permute: bool = False) -> GroupElement:
    """Random group element with determinant-1 factor matrices and an
    optional random factor permutation."""
    matrices = tuple(random_special_matrix2(rng) for _ in range(n))
    perm = list(range(n))
    if permute:
        rng.shuffle(perm)
    return GroupElement(n, matrices, tuple(perm))

"""Symmetric matrices over exact rationals and exact determinants.

`det_exact` uses cofactor formulas up to size 3 and, above, Bareiss
elimination on integer rows only, clearing denominators once per row.
All 2^n principal minors come from one kernel, in `minor_map`.  Nothing
here touches floats: complex floats are only the rendering of numeric
`reconstruct`'s exact answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .scalars import Scalar, as_scalar, clear_denominators, normalize


class SingularMatrixError(ValueError):
    pass


@dataclass(frozen=True)
class SymmetricMatrix:
    """An n x n symmetric matrix; entries are exact scalars (complex
    floats only as numeric `reconstruct` renders its answer)."""

    n: int
    entries: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("size must be positive")
        if len(self.entries) != self.n or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must be an n x n grid")
        for i in range(self.n):
            for j in range(i):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"not symmetric at ({i},{j})")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "SymmetricMatrix":
        n = len(rows)
        return cls(n, tuple(tuple(as_scalar(v) for v in row) for row in rows))

    @classmethod
    def diagonal(cls, values: Sequence) -> "SymmetricMatrix":
        n = len(values)
        vals = [as_scalar(v) for v in values]
        return cls(n, tuple(tuple(vals[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, n: int) -> "SymmetricMatrix":
        return cls(n, tuple(tuple(0 for _ in range(n)) for _ in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> Scalar:
        i, j = ij
        return self.entries[i][j]

    def rows(self) -> list[list[Scalar]]:
        return [list(r) for r in self.entries]

    def block_diag(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        n, m = self.n, other.n
        rows = [[self.entries[i][j] if j < n else 0 for j in range(n + m)] for i in range(n)]
        rows += [[0 if j < n else other.entries[i][j - n] for j in range(n + m)] for i in range(m)]
        return SymmetricMatrix.from_rows(rows)

    def relabel(self, perm: Sequence[int]) -> "SymmetricMatrix":
        """Conjugate by the permutation matrix: entry (i,j) moves to
        (perm[i], perm[j]).  perm is 0-based."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm must be a bijection of 0..n-1")
        rows = [[0] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(self.n):
                rows[perm[i]][perm[j]] = self.entries[i][j]
        return SymmetricMatrix.from_rows(rows)

    def conjugate_signs(self, signs: Sequence[int]) -> "SymmetricMatrix":
        """D A D for the diagonal D = diag(signs), signs in {+1, -1}."""
        if len(signs) != self.n or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be n values in {+1,-1}")
        return SymmetricMatrix(
            self.n,
            tuple(
                tuple(signs[i] * signs[j] * self.entries[i][j] for j in range(self.n))
                for i in range(self.n)
            ),
        )

    def det(self) -> Scalar:
        return det_exact(self.rows())

    def inverse(self) -> "SymmetricMatrix":
        """Exact inverse via Gauss-Jordan elimination."""
        n = self.n
        aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
               for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv_p = 1 / aug[col][col]
            aug[col] = [v * inv_p for v in aug[col]]
            for r in range(n):
                if r != col and aug[r][col] != 0:
                    f = aug[r][col]
                    aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
        return SymmetricMatrix.from_rows([row[n:] for row in aug])


def det_exact(rows: list[list[Scalar]]) -> Scalar:
    """Exact determinant of a matrix of ints and Fractions, an int when it
    is integral: cofactors below size 4, else integer Bareiss on rows i
    scaled by the lcm d_i of their denominators, with
    det = det(scaled) / prod(d_i)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return normalize(rows[0][0])
    if n == 2:
        return normalize(rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0])
    if n == 3:
        a, b, c = rows[0]
        d, e, f = rows[1]
        g, h, i = rows[2]
        return normalize(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))
    if all(type(v) is int for row in rows for v in row):
        return _bareiss(rows)
    scales, scaled = zip(*map(clear_denominators, rows))
    return normalize(Fraction(_bareiss(scaled), prod(scales)))


def _bareiss(rows: list[list[int]]) -> int:
    # Fraction-free elimination: m[i][j] <- (m[i][j]*pivot - m[i][k]*m[k][j]) // prev,
    # where the division is exact; column k is never read again.  A row swap
    # negates one of the two rows, which keeps the determinant.
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], [-v for v in m[k]]
        pivot, row_k = m[k][k], m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
        prev = pivot
    return m[n - 1][n - 1]

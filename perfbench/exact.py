"""Exact arithmetic the benchmark uses to build inputs and check outputs.

Nothing here imports principal_minors, so a change to the package under
test cannot change the inputs or hide a wrong output.  Coordinates use
the package's documented order: coordinate `enc` of a length-2^n vector
is the principal minor on the rows whose bits are set in `enc`
(factor 1 = least significant bit).
"""

from __future__ import annotations

from fractions import Fraction


def det(rows) -> int | Fraction:
    """Determinant by fraction-free elimination with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    exact_int = all(isinstance(v, int) for r in m for v in r)
    sign, prev = 1, 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        row_k = m[k]
        pivot = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = row_i[j] * pivot - lead * row_k[j]
                row_i[j] = num // prev if exact_int else num / prev
        prev = pivot
    return sign * m[n - 1][n - 1]


def all_minors(rows) -> list:
    """The 2^n principal minors of a square matrix, in encoding order."""
    n = len(rows)
    out = []
    for enc in range(1 << n):
        keep = [k for k in range(n) if (enc >> k) & 1]
        out.append(det([[rows[i][j] for j in keep] for i in keep]))
    return out


def cayley_hyperdet(a) -> int | Fraction:
    """Cayley's 2x2x2 hyperdeterminant of a[b1 + 2*b2 + 4*b3]."""
    a000, a100, a010, a110, a001, a101, a011, a111 = a
    return (
        a000 * a000 * a111 * a111 + a100 * a100 * a011 * a011
        + a010 * a010 * a101 * a101 + a001 * a001 * a110 * a110
        - 2 * (a000 * a100 * a011 * a111 + a000 * a010 * a101 * a111
               + a000 * a001 * a110 * a111 + a100 * a010 * a011 * a101
               + a100 * a001 * a011 * a110 + a010 * a001 * a101 * a110)
        + 4 * (a000 * a011 * a101 * a110 + a100 * a010 * a001 * a111)
    )


def top_corner_slice(coords: list, n: int) -> list:
    """The 2x2x2 slice on factors 1..3 with every other factor's bit set;
    it holds the top coordinate (the determinant)."""
    rest = ((1 << n) - 1) & ~0b111
    return [coords[rest | b] for b in range(8)]

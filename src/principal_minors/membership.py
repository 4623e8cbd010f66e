"""Deciding whether a length-2^n vector is a vector of principal minors.

Three methods:
  basis       evaluate every entry of the degree-4 module basis; all
              zeros certifies membership over the complex numbers, any
              nonzero value is a non-membership certificate.
  reconstruct rebuild a symmetric matrix from the |I| <= 2 coordinates,
              resolve off-diagonal signs against the |I| = 3
              coordinates, verify all 2^n minors.
  prefilter   necessary condition: Cayley's 2x2x2 hyperdeterminant on
              each of the C(n,3) * 2^(n-3) slices that fix every factor
              outside a triple to 0 or 1, each slice checked once.
              Sound for rejection only.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .hyperdet import cayley_hyperdet, hd_basis
from .indices import MinorVector
from .matrices import SymmetricMatrix, det_complex, det_exact
from .minor_map import all_principal_minors, minor_vector
from .polynomials import GroupElement, act_point, evaluate
from .scalars import Scalar, normalize, sqrt_exact

VERDICT_MEMBER = "member"
VERDICT_NON_MEMBER = "non-member"
VERDICT_INDETERMINATE = "indeterminate"

EXIT_MEMBER = 0
EXIT_NON_MEMBER = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


# -- certificates and reports -----------------------------------------

@dataclass(frozen=True)
class BasisViolation:
    """Basis entry index (generation order) with its nonzero value."""
    entry_index: int
    value: Scalar


@dataclass(frozen=True)
class MatrixCertificate:
    """scale * minor_vector(matrix, 1) equals the certified point: z
    itself, or J_I . z after the chart move of `is_member` (the report's
    chart_moves is then 1)."""
    matrix: SymmetricMatrix
    scale: Scalar


@dataclass(frozen=True)
class MinorMismatch:
    encoding: int
    expected: Scalar
    actual: Scalar


@dataclass(frozen=True)
class NoConsistentSigns:
    pass


@dataclass(frozen=True)
class NonSquareEntry:
    i: int
    j: int
    value: Scalar


@dataclass(frozen=True)
class PrefilterViolation:
    value: Scalar


@dataclass(frozen=True)
class MembershipReport:
    n: int
    verdict: str
    method: str
    certificate: object = None
    chart_moves: int = 0

    @property
    def exit_code(self) -> int:
        return {
            VERDICT_MEMBER: EXIT_MEMBER,
            VERDICT_NON_MEMBER: EXIT_NON_MEMBER,
            VERDICT_INDETERMINATE: EXIT_INDETERMINATE,
        }[self.verdict]


# -- reconstruction ----------------------------------------------------

class ReconstructionError(Exception):
    pass


class ZeroLeadingCoordinateError(ReconstructionError):
    """The open-chart assumption z_[0..0] != 0 is required."""


class NonSquareEntryError(ReconstructionError):
    def __init__(self, i: int, j: int, value: Scalar):
        super().__init__(
            f"a_{i + 1},{i + 1}*a_{j + 1},{j + 1} - z offset {value} is not a rational "
            "square; try numeric mode (complex off-diagonals)"
        )
        self.i, self.j, self.value = i, j, value


class NoConsistentSignsError(ReconstructionError):
    def __init__(self):
        super().__init__("no off-diagonal sign pattern matches the |I|=3 coordinates")


class MinorMismatchError(ReconstructionError):
    def __init__(self, encoding: int, expected, actual):
        super().__init__(f"minor at encoding {encoding}: expected {expected}, got {actual}")
        self.encoding, self.expected, self.actual = encoding, expected, actual


def _spanning_forest(n: int, edges: list[tuple[int, int]]
                     ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    forest, cycles = [], []
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            cycles.append((i, j))
        else:
            parent[ri] = rj
            forest.append((i, j))
    return forest, cycles


def reconstruct(z: MinorVector, mode: str = "exact", tol: float = 1e-9) -> SymmetricMatrix:
    """Build a symmetric matrix whose principal minors are z / z_[0..0].

    Diagonal entries come from the |I| = 1 coordinates, off-diagonal
    magnitudes from |I| = 2, signs are gauge-fixed to be nonnegative on
    a spanning forest of the nonzero-off-diagonal graph (the D A D
    freedom) and the remaining 2^cycles patterns are filtered by the
    |I| = 3 coordinates, then fully verified.

    Both modes divide z by z_[0..0] exactly, so z and every nonzero
    multiple of it give the same matrix.  Exact mode then works over the
    rationals.  Numeric mode works over complex floats and treats a
    value as equal to an expected value b when they differ by at most
    tol * max(1, |b|); tol must be finite and positive.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    n, z0 = z.n, z[0]
    if z0 == 0:
        raise ZeroLeadingCoordinateError("leading coordinate z_[0..0] is zero")
    w = [normalize(Fraction(c) / z0) for c in z.coords]
    if mode == "exact":
        det, sqrt, close = det_exact, sqrt_exact, operator.eq
    else:
        w = [complex(c) for c in w]
        det, sqrt, close = (det_complex, cmath.sqrt,
                            lambda a, b: abs(a - b) <= tol * max(1, abs(b)))
    diag = [w[1 << i] for i in range(n)]
    mag = {}
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            s = diag[i] * diag[j] - w[(1 << i) | (1 << j)]
            if close(s, 0):
                continue
            root = sqrt(s)
            if root is None:
                raise NonSquareEntryError(i, j, s)
            mag[(i, j)] = root
            edges.append((i, j))
    forest, cycles = _spanning_forest(n, edges)

    triples = [
        ((1 << i) | (1 << j) | (1 << k), (i, j, k))
        for i, j, k in combinations(range(n), 3)
    ]
    first_full_mismatch: Optional[MinorMismatchError] = None
    any_triple_survivor = False
    for signs in product((1, -1), repeat=len(cycles)):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
        for i, j in forest:
            rows[i][j] = rows[j][i] = mag[(i, j)]
        for (i, j), s in zip(cycles, signs):
            rows[i][j] = rows[j][i] = s * mag[(i, j)]
        for enc, ijk in triples:
            if not close(det([[rows[a][b] for b in ijk] for a in ijk]), w[enc]):
                break
        else:
            any_triple_survivor = True
            mismatch = next((MinorMismatchError(enc, w[enc], value)
                             for enc, value in enumerate(all_principal_minors(rows, det))
                             if not close(value, w[enc])), None)
            if mismatch is None:
                if mode == "exact":
                    return SymmetricMatrix.from_rows(rows)
                return SymmetricMatrix(n, tuple(tuple(map(complex, r)) for r in rows))
            if first_full_mismatch is None:
                first_full_mismatch = mismatch
    if any_triple_survivor:
        raise first_full_mismatch
    raise NoConsistentSignsError()


# -- slice prefilter ---------------------------------------------------

def _prefilter_violation(z: MinorVector) -> Optional[Scalar]:
    """First nonzero 2x2x2 hyperdeterminant over the C(n,3) * 2^(n-3)
    slices that fix every factor outside a triple to 0 or 1, visited in
    sorted order of their fixed (factor, bit) pairs; the order decides
    which violation becomes the certificate."""
    n = z.n
    if n < 3:
        return None
    hyperdet = cayley_hyperdet(3, (1, 2, 3))
    slices = sorted(
        tuple(zip(fixed, bits))
        for fixed in combinations(range(n), n - 3)
        for bits in product((0, 1), repeat=n - 3)
    )
    for pairs in slices:
        base = sum(bit << factor for factor, bit in pairs)
        fixed = {factor for factor, _ in pairs}
        i, j, k = (factor for factor in range(n) if factor not in fixed)
        coords = [z.coords[base | bk << k | bj << j | bi << i]
                  for bk, bj, bi in product((0, 1), repeat=3)]
        value = evaluate(hyperdet, coords)
        if value != 0:
            return value
    return None


def recursive_prefilter(z: MinorVector) -> bool:
    """Necessary condition only: True means no 2x2x2 slice of z has a
    nonzero hyperdeterminant, not membership.  Each of the
    C(n,3) * 2^(n-3) slices is checked once."""
    if z.is_zero():
        raise ValueError("zero vector")
    return _prefilter_violation(z) is None


# -- membership --------------------------------------------------------

def is_member(z: MinorVector, method: str = "basis") -> MembershipReport:
    """Decide membership and attach a certificate.

    n <= 2 vectors are members unconditionally (the map is surjective
    there).  With method="reconstruct" and z_[0..0] = 0, z is first
    moved into the open chart by J_I: the Weyl element J = [[0, 1],
    [-1, 0]] of SL(2) on every factor k with i_k = 1, where I is the
    first nonzero coordinate of z in encoding order, and the identity
    elsewhere.  Then (J_I . z)_[0..0] = z_I.  Z_n is SL(2)^n-invariant,
    so the verdict is unchanged; the certificate certifies J_I . z and
    chart_moves is 1.  J_I depends on z alone, so the certificate can be
    checked from z and the report.
    """
    if method not in ("basis", "reconstruct", "prefilter"):
        raise ValueError(f"unknown method {method!r}")
    if z.is_zero():
        raise ValueError("zero vector")
    n = z.n
    if n <= 2:
        certificate = None
        if method == "reconstruct" and z[0] != 0:
            try:
                matrix = reconstruct(z, "exact")
                certificate = MatrixCertificate(matrix, z[0])
            except ReconstructionError:
                certificate = None
        return MembershipReport(n, VERDICT_MEMBER, method, certificate)
    if method == "basis":
        basis = hd_basis(n)
        for index, entry in enumerate(basis.entries):
            value = evaluate(entry.polynomial, z)
            if value != 0:
                return MembershipReport(
                    n, VERDICT_NON_MEMBER, method, BasisViolation(index, value)
                )
        return MembershipReport(n, VERDICT_MEMBER, method)
    if method == "reconstruct":
        moves = 0
        if z[0] == 0:
            first = next(enc for enc, c in enumerate(z.coords) if c != 0)
            weyl = GroupElement.from_matrices(
                [((0, 1), (-1, 0)) if (first >> k) & 1 else ((1, 0), (0, 1)) for k in range(n)])
            z = act_point(weyl, z)
            moves = 1
        try:
            matrix = reconstruct(z, "exact")
        except NonSquareEntryError as err:
            return MembershipReport(
                n, VERDICT_INDETERMINATE, method,
                NonSquareEntry(err.i, err.j, err.value), moves,
            )
        except NoConsistentSignsError:
            return MembershipReport(n, VERDICT_NON_MEMBER, method, NoConsistentSigns(), moves)
        except MinorMismatchError as err:
            return MembershipReport(
                n, VERDICT_NON_MEMBER, method,
                MinorMismatch(err.encoding, err.expected, err.actual), moves,
            )
        return MembershipReport(
            n, VERDICT_MEMBER, method, MatrixCertificate(matrix, z[0]), moves
        )
    # method == "prefilter"
    violation = _prefilter_violation(z)
    if violation is not None:
        return MembershipReport(n, VERDICT_NON_MEMBER, method, PrefilterViolation(violation))
    return MembershipReport(n, VERDICT_INDETERMINATE, method)


# -- sign-flip experiment ----------------------------------------------

@dataclass(frozen=True)
class SignFlipProfile:
    n: int
    counts: tuple[tuple[int, int], ...]  # (agreement count, number of patterns)
    patterns_checked: int

    @property
    def distinct_counts(self) -> set[int]:
        return {c for c, _ in self.counts}

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)


def sign_flip_profile(matrix: SymmetricMatrix) -> SignFlipProfile:
    """Flip the off-diagonal signs in every possible combination and
    record how many principal minors agree with the original.

    D A D with D = diag(+-1) keeps every principal minor, and each of
    its classes of 2^(n-1) patterns has exactly one member that leaves
    the pairs (0, j) unflipped.  Only those members are evaluated; each
    counts for its whole class.
    """
    n = matrix.n
    if n > 6:
        raise ValueError("size too large: 2^(n(n-1)/2) patterns beyond n=6")
    base = minor_vector(matrix, 1).coords
    free_pairs = list(combinations(range(1, n), 2))
    class_size = 1 << (n - 1)
    histogram: dict[int, int] = {}
    for mask in range(1 << len(free_pairs)):
        rows = [list(r) for r in matrix.entries]
        for bit, (i, j) in enumerate(free_pairs):
            if (mask >> bit) & 1:
                rows[i][j] = rows[j][i] = -rows[i][j]
        minors = all_principal_minors(rows, det_exact)
        agree = sum(value == want for value, want in zip(minors, base))
        histogram[agree] = histogram.get(agree, 0) + class_size
    counts = tuple(sorted(histogram.items()))
    return SignFlipProfile(n, counts, 1 << (n * (n - 1) // 2))

"""Deciding whether a length-2^n vector is a vector of principal minors.

Three methods:
  basis       the degree-4 module basis vanishes at z exactly when z is
              a member over the complex numbers.  A verified
              reconstruction answers a member; every other z asks
              `hyperdet.first_nonzero_entry`, which builds no basis: the
              first nonzero entry, in basis order, and its value are the
              certificate.  Bounded at n <= MAX_BASIS_CHECK_FACTORS.
  reconstruct rebuild one candidate matrix, square-root free: the
              diagonal and each a_ij^2 from the |I| <= 2 coordinates, and
              per edge off the greedy forest the product of the a_e around
              one chordless cycle from four coordinates; check all 2^n in
              one pass: the first mismatch in encoding order is a "triple"
              at |I| = 3, else a minor-mismatch.  Decides z_[0..0] != 0
              (else after one chart move, a signed permutation); each
              failure raises a ReconstructionError with the certificate.
  prefilter   rejects only: `hyperdet.first_nonzero_slice`, Cayley's form on
              one slice per triple of u(s) . z; hyperdet bounds what it misses.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Optional

from .hyperdet import first_nonzero_entry, first_nonzero_slice
from .indices import MinorVector
from .matrices import SymmetricMatrix
from .minor_map import all_principal_minors, minor_vector
from .scalars import Scalar, excerpt, normalize, scalar_text, sqrt_exact
# not called here: perfbench/tracer.py patches these names in membership and requires them bound
from .hyperdet import cayley_hyperdet, hd_basis  # noqa: F401
from .matrices import det_exact  # noqa: F401
from .polynomials import act_point, evaluate  # noqa: F401

VERDICT_MEMBER = "member"
VERDICT_NON_MEMBER = "non-member"
VERDICT_INDETERMINATE = "indeterminate"

EXIT_MEMBER = 0
EXIT_NON_MEMBER = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

# a member is answered by reconstruction; the bound guards the scan of
# every other z.  A dense member with its top coordinate raised took 59 ms
# at n = 8 and 0.36 s at n = 9, 19 ms and 78 ms of it the entry_content
# lowering of index 781 and 3906; reading every triple's form, as a scan
# that finds no nonzero entry does, took 1.7 s at n = 8 and 23 s at n = 9
# (one run each, 2-core x86 VM, Python 3.11.7)
MAX_BASIS_CHECK_FACTORS = 8


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
class SymmetrizableCertificate:
    """scale * (principal minors of rows) equals the certified point.
    rows is rational but not symmetric: b_ij b_ji = s_ij, the zero
    pattern is symmetric and the products forward and backward around
    every cycle agree, so rows is diagonally similar to a complex
    symmetric matrix.  Some s_ij is not a rational square, so no
    rational symmetric matrix has these minors."""
    rows: tuple[tuple[Scalar, ...], ...]
    scale: Scalar


@dataclass(frozen=True)
class NoConsistentSigns:
    """check "cycle": on the chordless cycle C with vertex set `encoding`,
    the cycle product pi_C squares to `actual`, not to the product
    `expected` of its s_e.  With w = z / z_[0..0], s_ij = w_i w_j - w_ij
    and l the lowest vertex of C, p and q its neighbours on C: 2 pi_C =
    (-1)^(m+1) (w_C - w_l w_(C-l) + s_lp w_(C-l-p) + s_lq w_(C-l-q)).
    check "triple": the 2^n pass first mismatches at |I| = 3, `encoding`,
    where the candidate's minor is `actual`, not z's `expected`."""
    check: str
    encoding: int
    expected: Scalar
    actual: Scalar


@dataclass(frozen=True)
class PrefilterViolation:
    """Cayley's hyperdeterminant is `value`, not 0, on the slice of u(s) . z
    that puts every factor outside `triple` (1-based) at 0."""
    triple: tuple[int, ...]
    s: tuple[int, ...]
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
    """z has no rational symmetric matrix; .certificate is the one
    `is_member` reports."""

    def __init__(self, message: str, certificate):
        super().__init__(message)
        self.certificate = certificate


class ZeroLeadingCoordinateError(ValueError):
    """The open-chart assumption z_[0..0] != 0 is required."""


class NonSquareEntryError(ReconstructionError):
    """z is a member, but a_ij^2 = s_ij is not a rational square for
    some edge, so no rational symmetric matrix has these minors.  The
    certificate holds the verified rational matrix B of `reconstruct`;
    real says whether a real symmetric matrix exists (every s_e > 0)."""

    def __init__(self, i: int, j: int, value: Scalar, real: bool,
                 certificate: SymmetrizableCertificate):
        super().__init__(
            f"a_{i + 1},{j + 1}^2 = {scalar_text(value)} is not a rational square, so no rational"
            f" symmetric matrix has these minors; "
            + ("a real one does" if real else "no real one does either (some a_kl^2 < 0)")
            + " (numeric mode writes one in complex floats)",
            certificate,
        )
        self.i, self.j, self.value, self.real = i, j, value, real


class NonMemberError(ReconstructionError):
    """z is not a vector of principal minors; the certificate is a
    NoConsistentSigns ("cycle", or "triple" at |I| = 3) or a MinorMismatch."""

    def __init__(self, certificate):
        what = (f"no off-diagonal signs fit the {certificate.check}"
                if isinstance(certificate, NoConsistentSigns) else "minor")
        super().__init__(f"{what} at encoding {certificate.encoding}:"
                         f" expected {scalar_text(certificate.expected)},"
                         f" got {scalar_text(certificate.actual)}",
                         certificate)


def _edge(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def _ratio(z: MinorVector, enc: int) -> Scalar:
    """w_I = z_I / z_[0..0], the minor at I of every matrix `reconstruct`
    may return; read only where needed, never for all 2^n coordinates."""
    return normalize(Fraction(z.coords[enc]) / z.coords[0])


def _place(z: MinorVector):
    """What every symmetric matrix with minors w = z / z_[0..0] has: the
    diagonal, each s_ij = a_ii a_jj - w_ij = a_ij^2 on the edges (s_ij !=
    0), and one step (i, k, path, pi) per edge, the vertices k = 0..n-1
    placed in turn.  The first neighbour i < k in each component of the
    graph below k takes a gauge step (path None): the forest is the
    greedy one in (k, i) order.  Every other one takes a cycle step: a
    breadth-first search finds a shortest path i -> ... -> j to a placed
    neighbour j of k through vertices below k and not next to it, so C =
    k, i, ..., j is chordless (a chord would touch k or shorten the path)
    and pi, the product of the a_e around C, is read from four
    coordinates; a member has pi^2 = prod_C s_e.  Each of the |E| - n + c
    cycle steps adds one edge, so they span the cycle space, and their
    products fix every such matrix up to the D A D gauge (Engel-Schneider)."""
    n = z.n
    diag = [_ratio(z, 1 << i) for i in range(n)]
    s = {}
    adjacency = [[] for _ in range(n)]  # at step k: each vertex's neighbours below k
    for i, k in combinations(range(n), 2):
        value = diag[i] * diag[k] - _ratio(z, (1 << i) | (1 << k))
        if value != 0:
            s[i, k] = value
            adjacency[k].append(i)
    label, steps = list(range(n)), []  # label: the components of the graph below k
    for k in range(n):
        todo, joined, placed = adjacency[k], set(), set()
        while todo:  # each sweep places one neighbour at least
            waiting = []
            for i in todo:
                if label[i] not in joined:
                    joined.add(label[i])
                    placed.add(i)
                    steps.append((i, k, None, None))
                    continue
                queue, seen = [[i]], {i}
                for path in queue:  # ends at the first placed neighbour reached
                    if path[-1] in placed:
                        break
                    for y in adjacency[path[-1]]:
                        if y not in seen and (y in placed or y not in adjacency[k]):
                            seen.add(y)
                            queue.append(path + [y])
                if path[-1] not in placed:
                    waiting.append(i)
                    continue
                cycle = [k] + path
                pi = _cycle_product(cycle, diag, s, z)
                squares = prod(s[_edge(x, y)] for x, y in zip(cycle, cycle[1:] + [k]))
                if pi * pi != squares:
                    raise NonMemberError(
                        NoConsistentSigns("cycle", sum(1 << v for v in cycle), squares, pi * pi))
                placed.add(i)
                steps.append((i, k, path, pi))
            todo = waiting
        for i in adjacency[k]:
            adjacency[i].append(k)
        label = [k if c in joined else c for c in label]
    return diag, s, steps


def _cycle_product(cycle: list[int], diag: list, s: dict, z: MinorVector) -> Scalar:
    """pi_C for a chordless cycle C from four coordinates: det(A_C) expanded
    along the row of its lowest vertex, as NoConsistentSigns states."""
    k = cycle.index(min(cycle))
    l, p, q = cycle[k], cycle[k - 1], cycle[(k + 1) % len(cycle)]
    path, coords = sum(1 << v for v in cycle) ^ (1 << l), z.coords
    value = (coords[path | (1 << l)] - diag[l] * coords[path]
             + s[_edge(l, p)] * coords[path ^ (1 << p)] + s[_edge(l, q)] * coords[path ^ (1 << q)])
    return normalize(Fraction(value if len(cycle) % 2 else -value) / (2 * coords[0]))


def _rows(diag: list, steps: list, down: dict, up: Optional[dict] = None) -> list[list]:
    """The matrix with the given diagonal in one gauge of the forest of
    `_place`: a gauge step (i, k) sets b_ik = down[e] and b_ki = up[e]; a
    cycle step sets b_ki to its pi divided by the entries along i -> ...
    -> j -> k, and b_ik = up[e] / b_ki.  Without `up`, up is down and b_ik
    a copy of b_ki, so floats stay exactly symmetric."""
    symmetric, up = up is None, down if up is None else up
    rows = [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
    for i, k, path, pi in steps:
        if path is None:
            rows[i][k], rows[k][i] = down[i, k], up[i, k]
            continue
        value = Fraction(pi)
        for x, y in zip(path, path[1:] + [k]):
            value /= rows[x][y]
        rows[k][i] = normalize(value)
        rows[i][k] = rows[k][i] if symmetric else normalize(Fraction(up[i, k]) / rows[k][i])
    return rows


def _verify(rows: list[list], z: MinorVector) -> None:
    """All 2^n minors through the kernel in one pass, lazy per block, so
    it stops with the block of the first mismatch in encoding order: at
    |I| = 3 a NoConsistentSigns "triple", above a MinorMismatch (`_place`
    read |I| <= 2).  A minor m of rows matches when m * z_[0..0] = z_I;
    certificates carry w_I = z_I / z_[0..0]."""
    z0, coords = z[0], z.coords
    for enc, value in enumerate(all_principal_minors(rows)):
        if value * z0 != coords[enc]:
            expected = _ratio(z, enc)
            raise NonMemberError(NoConsistentSigns("triple", enc, expected, value)
                                 if enc.bit_count() == 3 else MinorMismatch(enc, expected, value))


def reconstruct(z: MinorVector, mode: str = "exact") -> SymmetricMatrix:
    """Build a symmetric matrix whose principal minors are z / z_[0..0].

    One candidate, no sign search and no square roots in the decision:
    the diagonal from the |I| = 1 coordinates, each s_ij = a_ij^2 from
    |I| = 2, and per edge off the forest the product of the a_e around
    one chordless cycle from that cycle's coordinate (`_place`).  One
    builder, `_rows`, writes each matrix in a gauge of that forest: the
    rational roots of the s_e alone give the rational symmetric A; when
    some s_e is not a rational square, 1 down and s_e up give the
    rational B diagonally similar to a complex symmetric one.  The
    candidate is checked on all 2^n coordinates in one pass.

    z and every nonzero multiple of it give the same matrix.  Every
    failure is a ReconstructionError whose .certificate is the one
    `is_member` reports: NonMemberError carries a NoConsistentSigns
    (cycle, or triple at |I| = 3) or a MinorMismatch (|I| >= 4), and in exact
    mode NonSquareEntryError carries a SymmetrizableCertificate with the
    verified B when z is a member with no rational symmetric matrix.
    z_[0..0] = 0 raises ZeroLeadingCoordinateError, a ValueError.
    Numeric mode makes the same exact decision and writes the symmetric
    matrix in complex floats: the verified A, or when some s_e is not a
    rational square the third gauge, roots alone with cmath.sqrt for it.
    """
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    n, z0 = z.n, z[0]
    if z0 == 0:
        raise ZeroLeadingCoordinateError("leading coordinate z_[0..0] is zero"
                                         " (the open chart z_[0..0] != 0 is required)")
    diag, s, steps = _place(z)
    roots = {(i, k): sqrt_exact(s[i, k]) for i, k, path, _ in steps if path is None}
    non_square = next((e for e, root in roots.items() if root is None), None)
    rows = (_rows(diag, steps, roots) if non_square is None
            else _rows(diag, steps, dict.fromkeys(roots, 1), s))
    _verify(rows, z)
    if mode == "exact":
        if non_square is not None:
            i, j = non_square
            real = all(value > 0 for value in s.values())
            raise NonSquareEntryError(i, j, s[non_square], real,
                                      SymmetrizableCertificate(tuple(map(tuple, rows)), z0))
        return SymmetricMatrix.from_rows(rows)
    try:
        if non_square is not None:
            rows = _rows(diag, steps, {
                e: cmath.sqrt(s[e]) if root is None else root for e, root in roots.items()})
            # b_ik^2 = s_ik on the cycle steps too: a rational |b_ik| is
            # written exactly, with the sign that the float has
            for i, k, path, _ in steps:
                root = None if path is None else sqrt_exact(abs(s[i, k]))
                if root is not None:
                    unit = 1 if s[i, k] > 0 else 1j
                    sign = 1 if (rows[i][k] / unit).real > 0 else -1
                    rows[i][k] = rows[k][i] = sign * unit * root
        return SymmetricMatrix(n, tuple(tuple(complex(v) for v in row) for row in rows))
    except OverflowError:
        raise ValueError("numeric mode: an entry does not fit a complex float") from None


# -- membership --------------------------------------------------------

def is_member(z: MinorVector, method: str = "basis") -> MembershipReport:
    """Decide membership and attach a certificate.

    With method="basis" or "prefilter", n <= 2 vectors are members
    unconditionally (the map is surjective there); "reconstruct" treats
    them like any other and attaches a certificate: the MatrixCertificate
    of the matrix it returns, or the certificate of the ReconstructionError
    it raises (a member with no rational symmetric realization gets a
    SymmetrizableCertificate, a non-member a NoConsistentSigns ("cycle",
    or "triple" if the first mismatching minor has |I| = 3) or a MinorMismatch).

    method="basis" first asks method="reconstruct".  A member there is
    a member here, with no certificate: the verified reconstruction puts
    z, or J_I . z, in Z_n, where every entry of the module vanishes
    (Cayley's form vanishes on Z_3, and Z_n is SL(2)^n- and
    S_n-invariant).  Every other z asks `hyperdet.first_nonzero_entry`,
    which builds no basis: a non-member's BasisViolation names the first
    nonzero entry of hd_basis(n) in basis order, with its value.  It
    raises ValueError beyond n = MAX_BASIS_CHECK_FACTORS = 8.

    With method="reconstruct" and z_[0..0] = 0, z is first
    moved into the open chart by J_I: the Weyl element J = [[0, 1],
    [-1, 0]] of SL(2) on every factor k with i_k = 1, where I is the
    first nonzero coordinate of z in encoding order, and the identity
    elsewhere: the signed permutation (J_I . z)_E = (-1)^|E & I|
    z_(E xor I), so (J_I . z)_[0..0] = z_I.  Z_n is SL(2)^n-invariant, so
    the verdict is unchanged; the certificate certifies J_I . z and
    chart_moves is 1.  J_I depends on z alone, so the certificate can be
    checked from z and the report.
    """
    if method not in ("basis", "reconstruct", "prefilter"):
        raise ValueError(f"unknown method {method!r}")
    if z.is_zero():
        raise ValueError("zero vector")
    n = z.n
    if method == "reconstruct":
        moves = 0
        if z[0] == 0:
            first = next(enc for enc, c in enumerate(z.coords) if c != 0)
            z = MinorVector(n, tuple(-z[enc ^ first] if (enc & first).bit_count() & 1
                                     else z[enc ^ first] for enc in range(1 << n)))
            moves = 1
        try:
            certificate = MatrixCertificate(reconstruct(z, "exact"), z[0])
        except ReconstructionError as err:
            verdict = VERDICT_MEMBER if isinstance(err, NonSquareEntryError) else VERDICT_NON_MEMBER
            return MembershipReport(n, verdict, method, err.certificate, moves)
        return MembershipReport(n, VERDICT_MEMBER, method, certificate, moves)
    if n <= 2:
        return MembershipReport(n, VERDICT_MEMBER, method)
    if method == "basis":
        if n > MAX_BASIS_CHECK_FACTORS:
            raise ValueError(f"the basis check is bounded at n <= {MAX_BASIS_CHECK_FACTORS},"
                             f" got n={excerpt(n)}")
        # a verified reconstruction puts z (or J_I . z) in Z_n, where every entry vanishes
        if is_member(z, "reconstruct").verdict == VERDICT_MEMBER:
            return MembershipReport(n, VERDICT_MEMBER, method)
        first, violation, passed = first_nonzero_entry(z), BasisViolation, VERDICT_MEMBER
    else:
        first, violation, passed = first_nonzero_slice(z), PrefilterViolation, VERDICT_INDETERMINATE
    if first is None:
        return MembershipReport(n, passed, method)
    return MembershipReport(n, VERDICT_NON_MEMBER, method, violation(*first))


# -- sign-flip experiment ----------------------------------------------

# sign_flip_profile evaluates 2^C(n-1,2) patterns of 2^n minors each:
# 0.3 s at n = 6 on a 2-core x86 VM with Python 3.11, and about 64 times
# that at n = 7.  `experiment sign-flip` evaluates trials times as many,
# at most MAX_SIGN_FLIP_PATTERNS: 8 trials at n = 6 take 2.4 s there.
MAX_SIGN_FLIP_PATTERNS = 1 << 13


def check_sign_flip_size(n: int, trials: int = 1) -> None:
    """Reject n < 1, then trials * 2^C(n-1,2) patterns beyond the bound (so
    n <= 6), comparing C(n-1,2) with its exponent before any shift."""
    if n < 1:
        raise ValueError(f"size must be at least 1, got {excerpt(n)}")
    pairs = (n - 1) * (n - 2) // 2
    size_too_large = pairs >= MAX_SIGN_FLIP_PATTERNS.bit_length()
    if size_too_large or trials << pairs > MAX_SIGN_FLIP_PATTERNS:
        raise ValueError(
            f"size too large: 2^((n-1)(n-2)/2) patterns beyond {MAX_SIGN_FLIP_PATTERNS},"
            f" got {excerpt(n)}" if size_too_large else
            f"--trials too large: trials * 2^((n-1)(n-2)/2) patterns beyond"
            f" {MAX_SIGN_FLIP_PATTERNS}, got {excerpt(trials)}")


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
    check_sign_flip_size(n)
    base = minor_vector(matrix, 1).coords
    free_pairs = list(combinations(range(1, n), 2))
    class_size = 1 << (n - 1)
    histogram: dict[int, int] = {}
    for mask in range(1 << len(free_pairs)):
        rows = [list(r) for r in matrix.entries]
        for bit, (i, j) in enumerate(free_pairs):
            if (mask >> bit) & 1:
                rows[i][j] = rows[j][i] = -rows[i][j]
        minors = all_principal_minors(rows)
        agree = sum(value == want for value, want in zip(minors, base))
        histogram[agree] = histogram.get(agree, 0) + class_size
    counts = tuple(sorted(histogram.items()))
    return SignFlipProfile(n, counts, 1 << (n * (n - 1) // 2))

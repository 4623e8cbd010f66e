"""Deciding whether a length-2^n vector is a vector of principal minors.

Three methods:
  basis       evaluate every entry of the degree-4 module basis; all
              zeros certifies membership over the complex numbers, any
              nonzero value is a non-membership certificate.
  reconstruct rebuild one candidate matrix, square-root free: the
              diagonal and each a_ij^2 from the |I| <= 2 coordinates,
              the product of the a_e around each cycle of a minimum
              cycle basis from four coordinates by one Laplace expansion;
              check every |I| = 3 coordinate, then all 2^n.  Decides
              every vector with z_[0..0] != 0 (after one chart move, a
              signed permutation, otherwise); each failure raises a
              ReconstructionError carrying the report's certificate.
  prefilter   one move of G = SL(2)^n x| S_n, u(s) = [[1, s_k], [0, 1]] on
              every factor with s fixed per n, then C(n,3) hyperdeterminants,
              one slice per triple (`_witness`).  Rejects only; misses a
              non-member the module detects with probability at most
              4(n-3)/N for shifts from N values.  Values have at most about
              4(n-3)(bits+1) more bits than z's slice values.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

from .hyperdet import cayley_hyperdet, hd_basis
from .indices import MinorVector
from .matrices import SymmetricMatrix, det_exact
from .minor_map import all_principal_minors, minor_vector
from .polynomials import GroupElement, act_point, evaluate
from .scalars import Scalar, excerpt, normalize, scalar_text, sqrt_exact

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
    check "triple": the candidate's minor at `encoding` is `actual`, not
    z's `expected`."""
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
    NoConsistentSigns or a MinorMismatch."""

    def __init__(self, certificate):
        what = (f"no off-diagonal signs fit the {certificate.check}"
                if isinstance(certificate, NoConsistentSigns) else "minor")
        super().__init__(f"{what} at encoding {certificate.encoding}:"
                         f" expected {scalar_text(certificate.expected)},"
                         f" got {scalar_text(certificate.actual)}",
                         certificate)


def _bfs_tree(adjacency: list[list[int]], sources) -> tuple[list[int], list[int]]:
    """Parent and depth of each vertex in breadth-first trees grown from
    sources in turn; a root is its own parent, an unreached vertex has
    parent -1."""
    parent, depth = [-1] * len(adjacency), [0] * len(adjacency)
    for source in sources:
        if parent[source] >= 0:
            continue
        parent[source] = source
        queue = [source]
        for x in queue:
            for y in adjacency[x]:
                if parent[y] < 0:
                    parent[y], depth[y] = x, depth[x] + 1
                    queue.append(y)
    return parent, depth


def _climb(parent: list[int], x: int) -> list[int]:
    path = [x]
    while parent[x] != x:
        x = parent[x]
        path.append(x)
    return path


def _edge(x: int, y: int) -> tuple[int, int]:
    return (x, y) if x < y else (y, x)


def _path_edges(path: list[int]) -> list[tuple[int, int]]:
    return [_edge(x, y) for x, y in zip(path, path[1:])]


def _ratio(z: MinorVector, enc: int) -> Scalar:
    """w_I = z_I / z_[0..0], the minor at I of every matrix `reconstruct`
    may return; read only where needed, never for all 2^n coordinates."""
    return normalize(Fraction(z.coords[enc]) / z.coords[0])


def _solve_gauge(z: MinorVector):
    """Cycle products of every symmetric matrix with minors w = z / z_[0..0],
    which all agree up to the D A D gauge (Engel-Schneider).  Returns the diagonal,
    each s_ij = a_ii a_jj - w_ij = a_ij^2 on the edges (s_ij != 0), the
    spanning forest and its `parent` rooting, and for each edge (i, j)
    off the forest its forest paths i -> lca and j -> lca with the
    product of the a_e around the cycle they close.  The forest is the
    greedy one in edge order: an edge closes a cycle with earlier edges
    exactly when it is the top edge of some cycle, so the edges off it
    are the keys of the top-bit echelon of the cycle space.

    For a chordless cycle C, det(A_C) along one row is 2(-1)^(m+1) pi_C
    plus minors of induced paths, coordinates of z, so pi_C is read off
    w_C and three path coordinates; a member has pi_C^2 = prod_C s_e.
    The cycles of a minimum cycle basis are chordless (Horton: candidates
    v -> x, (x, y), y -> v along the BFS tree of each vertex v, shortest
    first, kept when independent over GF(2)), and pi(X xor Y) = pi(X)
    pi(Y) / prod_(X and Y) s_e carries the products to every fundamental
    cycle of the forest.
    """
    n = z.n
    diag = [_ratio(z, 1 << i) for i in range(n)]
    s = {}
    for i, j in combinations(range(n), 2):
        value = diag[i] * diag[j] - _ratio(z, (1 << i) | (1 << j))
        if value != 0:
            s[(i, j)] = value
    edges = list(s)
    bit = {e: 1 << k for k, e in enumerate(edges)}
    s_of_bit = list(s.values())

    def mask_of(path_edges):
        return sum(bit[e] for e in path_edges)

    def merge(row, other):
        # pi(X xor Y) = pi(X) pi(Y) / prod of s_e over the shared edges
        (x, pi_x), (y, pi_y) = row, other
        shared, common = 1, x & y
        while common:
            low = common & -common
            shared *= s_of_bit[low.bit_length() - 1]
            common ^= low
        return x ^ y, normalize(Fraction(pi_x * pi_y) / shared)

    # GF(2) echelon rows of the cycle space, keyed by their top edge bit,
    # each with the product of a_e over its edges.
    echelon: dict[int, tuple[int, Scalar]] = {}

    def reduce(mask):
        used = []
        while mask and (mask.bit_length() - 1) in echelon:
            row = echelon[mask.bit_length() - 1]
            mask ^= row[0]
            used.append(row)
        return mask, used

    adjacency = [[] for _ in range(n)]
    for i, j in edges:
        adjacency[i].append(j)
        adjacency[j].append(i)
    trees = [_bfs_tree(adjacency, [v]) for v in range(n)]
    # cycle-space rank |E| - n + c: v is the lowest vertex of its component
    # exactly when its tree reaches no lower vertex
    rank = len(edges) - n + sum(max(parent[:v], default=-1) < 0
                                for v, (parent, _) in enumerate(trees))
    candidates = sorted(
        (depth[x] + depth[y] + 1, v, x, y)
        for v, (parent, depth) in enumerate(trees)
        for x, y in edges
        if parent[x] >= 0 and parent[x] != y and parent[y] != x
    )
    for _, v, x, y in candidates:
        if len(echelon) == rank:
            break
        up_x, up_y = _climb(trees[v][0], x), _climb(trees[v][0], y)
        if set(up_x).intersection(up_y) != {v}:
            continue
        cycle = up_x[::-1] + up_y[:-1]
        cycle_edges = _path_edges(cycle + [v])
        cycle_mask = mask_of(cycle_edges)
        mask, used = reduce(cycle_mask)
        if not mask:
            continue
        pi = _cycle_product(cycle, diag, s, z)
        squares = 1
        for e in cycle_edges:
            squares *= s[e]
        if pi * pi != squares:
            raise NonMemberError(
                NoConsistentSigns("cycle", sum(1 << c for c in cycle), squares, pi * pi))
        row = (cycle_mask, pi)
        for other in used:
            row = merge(row, other)
        echelon[mask.bit_length() - 1] = row

    forest = [e for k, e in enumerate(edges) if k not in echelon]
    off_forest = [edges[k] for k in sorted(echelon)]
    forest_adjacency = [[] for _ in range(n)]
    for i, j in forest:
        forest_adjacency[i].append(j)
        forest_adjacency[j].append(i)
    parent = _bfs_tree(forest_adjacency, range(n))[0]
    fundamental = []
    for i, j in off_forest:
        up_i, up_j = _climb(parent, i), _climb(parent, j)
        on_j = set(up_j)
        lca = next(x for x in up_i if x in on_j)
        path_i = _path_edges(up_i[:up_i.index(lca) + 1])
        path_j = _path_edges(up_j[:up_j.index(lca) + 1])
        row = (0, 1)
        for other in reduce(bit[(i, j)] | mask_of(path_i) | mask_of(path_j))[1]:
            row = merge(row, other)
        fundamental.append(((i, j), path_i, path_j, row[1]))
    return diag, s, parent, forest, fundamental


def _cycle_product(cycle: list[int], diag: list, s: dict, z: MinorVector) -> Scalar:
    """pi_C for a chordless cycle C from four coordinates: det(A_C) expanded
    along the row of its lowest vertex, as NoConsistentSigns states."""
    k = cycle.index(min(cycle))
    l, p, q = cycle[k], cycle[k - 1], cycle[(k + 1) % len(cycle)]
    path, coords = sum(1 << v for v in cycle) ^ (1 << l), z.coords
    value = (coords[path | (1 << l)] - diag[l] * coords[path]
             + s[_edge(l, p)] * coords[path ^ (1 << p)] + s[_edge(l, q)] * coords[path ^ (1 << q)])
    return normalize(Fraction(value if len(cycle) % 2 else -value) / (2 * coords[0]))


def _gauge_rows(diag: list, parent: list[int], fundamental: list,
                down: dict, up: Optional[dict] = None) -> list[list]:
    """The matrix with the given diagonal in one forest gauge: b_pc = down[e]
    and b_cp = up[e] from parent p to child c on the forest.  Off it, b_ij
    is the product pi around its cycle i -> j -> lca -> i divided by down
    along path_i and up along path_j, and b_ji the mirror.  Without `up`,
    up is down and b_ji a copy of b_ij, so floats stay exactly symmetric."""
    symmetric, up = up is None, down if up is None else up
    n = len(diag)
    rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for c, p in enumerate(parent):
        if p != c:
            rows[p][c], rows[c][p] = down[_edge(p, c)], up[_edge(p, c)]

    def close(pi, path_down, path_up):
        value = Fraction(pi)
        for e in path_down:
            value /= down[e]
        for e in path_up:
            value /= up[e]
        return normalize(value)

    for (i, j), path_i, path_j, pi in fundamental:
        rows[i][j] = close(pi, path_i, path_j)
        rows[j][i] = rows[i][j] if symmetric else close(pi, path_j, path_i)
    return rows


def _verify(rows: list[list], z: MinorVector) -> None:
    """Every C(n,3) triple first, then all 2^n minors through the lazy
    kernel, which stops at the first mismatch.  A minor m of rows matches
    when m * z_[0..0] = z_I; certificates carry w_I = z_I / z_[0..0]."""
    n, coords = len(rows), z.coords
    z0 = coords[0]
    for ijk in combinations(range(n), 3):
        enc = sum(1 << v for v in ijk)
        value = det_exact([[rows[a][b] for b in ijk] for a in ijk])
        if value * z0 != coords[enc]:
            raise NonMemberError(NoConsistentSigns("triple", enc, _ratio(z, enc), value))
    for enc, value in enumerate(all_principal_minors(rows)):
        if value * z0 != coords[enc]:
            raise NonMemberError(MinorMismatch(enc, _ratio(z, enc), value))


def reconstruct(z: MinorVector, mode: str = "exact") -> SymmetricMatrix:
    """Build a symmetric matrix whose principal minors are z / z_[0..0].

    One candidate, no sign search and no square roots in the decision:
    the diagonal comes from the |I| = 1 coordinates, each s_ij = a_ij^2
    from |I| = 2, and the product of the a_e around each cycle of a
    minimum cycle basis from that cycle's coordinate (`_solve_gauge`).
    One builder, `_gauge_rows`, writes each matrix in a gauge of a
    spanning forest of the nonzero-off-diagonal graph: the rational roots
    of the s_e alone give the rational symmetric A; when some s_e
    is not a rational square, 1 down and s_e up give the rational B
    diagonally similar to a complex symmetric one.  The candidate is
    checked on every |I| = 3 coordinate and then on all 2^n.

    z and every nonzero multiple of it give the same matrix.  Every
    failure is a ReconstructionError whose .certificate is the one
    `is_member` reports: NonMemberError carries a NoConsistentSigns
    (cycle or triple check) or a MinorMismatch (2^n check), and in exact
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
    diag, s, parent, forest, fundamental = _solve_gauge(z)
    roots = {e: sqrt_exact(s[e]) for e in forest}
    non_square = next((e for e, root in roots.items() if root is None), None)
    rows = (_gauge_rows(diag, parent, fundamental, roots) if non_square is None
            else _gauge_rows(diag, parent, fundamental, dict.fromkeys(forest, 1), s))
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
            rows = _gauge_rows(diag, parent, fundamental, {
                e: cmath.sqrt(s[e]) if root is None else root for e, root in roots.items()})
            # b_ij^2 = s_ij off the forest too: a rational |b_ij| is written
            # exactly, with the sign that the float has
            for (i, j), *_ in fundamental:
                root, unit = sqrt_exact(abs(s[i, j])), 1 if s[i, j] > 0 else 1j
                if root is not None:
                    sign = 1 if (rows[i][j] / unit).real > 0 else -1
                    rows[i][j] = rows[j][i] = sign * unit * root
        return SymmetricMatrix(n, tuple(tuple(complex(v) for v in row) for row in rows))
    except OverflowError:
        raise ValueError("numeric mode: an entry does not fit a complex float") from None


# -- prefilter ---------------------------------------------------------

def _witness(z: MinorVector) -> Optional[PrefilterViolation]:
    """The first triple T, in lex order, whose hyperdeterminant does not
    vanish on the outside-0 slice of u(s) . z, s being 32-bit shifts from
    random.Random(n).  SL(2)^n keeps Z_n, and that slice of phi(A, t) is
    t^(n-3) phi(A_T, t), in Z_3.  The value is SL(2)-invariant in T's own
    factors, so one u(s) serves every T; in s it has degree at most 4 in
    each s_k, with the 0/1 slices of the factors outside T as corners."""
    n = z.n
    rng = random.Random(n)
    s = tuple(rng.getrandbits(32) for _ in range(n))
    moved = act_point(GroupElement.from_matrices([((1, s_k), (0, 1)) for s_k in s]), z).coords
    hyperdet = cayley_hyperdet(3, (1, 2, 3))
    for i, j, k in combinations(range(n), 3):
        value = evaluate(hyperdet, [moved[bk << k | bj << j | bi << i]
                                    for bk, bj, bi in product((0, 1), repeat=3)])
        if value != 0:
            return PrefilterViolation((i + 1, j + 1, k + 1), s, value)
    return None


# -- membership --------------------------------------------------------

def is_member(z: MinorVector, method: str = "basis") -> MembershipReport:
    """Decide membership and attach a certificate.

    With method="basis" or "prefilter", n <= 2 vectors are members
    unconditionally (the map is surjective there); "reconstruct" treats
    them like any other and attaches a certificate: the
    MatrixCertificate of the matrix it returns, or the certificate of the
    ReconstructionError it raises (a member with no rational symmetric
    realization gets a SymmetrizableCertificate, a non-member a
    NoConsistentSigns or MinorMismatch).  method="basis" raises ValueError
    beyond n = 6, the bound of hd_basis.

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
    if n <= 2 and method != "reconstruct":
        return MembershipReport(n, VERDICT_MEMBER, method)
    if method == "basis":
        for index, entry in enumerate(hd_basis(n).entries):
            value = evaluate(entry.polynomial, z)
            if value != 0:
                return MembershipReport(n, VERDICT_NON_MEMBER, method, BasisViolation(index, value))
        return MembershipReport(n, VERDICT_MEMBER, method)
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
    # method == "prefilter"
    witness = _witness(z)
    verdict = VERDICT_INDETERMINATE if witness is None else VERDICT_NON_MEMBER
    return MembershipReport(n, verdict, method, witness)


# -- sign-flip experiment ----------------------------------------------

# sign_flip_profile evaluates 2^C(n-1,2) patterns of 2^n minors each:
# 0.3 s at n = 6 on a 2-core x86 VM with Python 3.11, and about 64 times
# that at n = 7.  `experiment sign-flip` evaluates trials times as many,
# at most MAX_SIGN_FLIP_PATTERNS: 8 trials at n = 6 take 2.4 s there.
MAX_SIGN_FLIP_FACTORS = 6
MAX_SIGN_FLIP_PATTERNS = 1 << 13


def check_sign_flip_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"size must be at least 1, got {excerpt(n)}")
    if n > MAX_SIGN_FLIP_FACTORS:
        raise ValueError(f"size too large: 2^(n(n-1)/2) patterns beyond"
                         f" n={MAX_SIGN_FLIP_FACTORS}")


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

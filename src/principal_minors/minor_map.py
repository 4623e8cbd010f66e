"""The principal-minor map and its structural identities.

phi sends [A, t] to the vector with coordinate t^(n-|I|) * det(A_I) at
the binary index I, where A_I keeps row/column k exactly when i_k = 1
and the empty minor is 1.  Every all-minors computation goes through
the one kernel `all_principal_minors`, which takes the minors one block
per top vertex h.  When h has at most one neighbour below it, h is a
leaf of every subset in its block, and the block's 2^h minors are one
expansion along row h over the minors so far.  Otherwise each minor of
the block comes by the first of three rules that applies to the
subset's induced graph of nonzero off-diagonal entries: a leaf (an
expansion along the leaf's row), a disconnected graph (a product over
components), and otherwise Sylvester's bordered identity along the
chain of subsets that drops the lowest vertex (`_Chain`).  The rows are
scaled once on entry, to integers, every rule runs in ints, and each
minor takes one division, by its rows' scales, as it is yielded.  So a
forest takes no determinant, and `det_exact` is taken only where the
chain meets a zero pivot.  `minor_vector` is bounded at
n <= MAX_MINOR_FACTORS.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .indices import BinaryIndex, MinorVector
from .matrices import SingularMatrixError, SymmetricMatrix, det_exact
from .scalars import Scalar, as_scalar, clear_denominators, normalize

# At n = 14 the kernel takes 0.04 s on a dense integer matrix, 0.07 s on a
# dense rational one with denominators 1..9 and 0.04 s on a dense one with a
# zero diagonal (0.43-0.90 s with one determinant per subset); a tree plus
# 0..3 extra edges takes 0.002-0.007 s, or 0.015-0.025 s with denominators
# 1..9, as the blocks of every vertex with at most one lower neighbour are
# taken whole (0.008-0.011 s subset by subset).  Dense n = 15 and 16 take
# 0.07 and 0.15 s (integer), 0.14 and 0.30 s (rational), and are still
# rejected: the bound is raised only with the golden case that pins it
# (2-core x86 VM, Python 3.11).
MAX_MINOR_FACTORS = 14


def principal_minor(matrix: SymmetricMatrix, index: BinaryIndex) -> Scalar:
    """det of the principal submatrix selected by the set bits of index."""
    if index.n != matrix.n:
        raise ValueError(f"index has n={index.n}, matrix has n={matrix.n}")
    return det_exact(_principal_submatrix(matrix.entries, index.encoding))


def _principal_submatrix(rows: Sequence[Sequence], enc: int) -> list[list]:
    keep = [k for k in range(len(rows)) if (enc >> k) & 1]
    return [[rows[i][j] for j in keep] for i in keep]


def all_principal_minors(rows: Sequence[Sequence]) -> Iterator[Scalar]:
    """All 2^n principal minors of exact rows in encoding order; rows need
    not be symmetric.  Row i is scaled once on entry by the lcm d_i of its
    denominators, so A' = D A is integral, every rule below runs on A' in
    ints, and each minor leaves the integers once, as det(A'_S) /
    prod_(i in S) d_i (an integral input's minors are its ints).  Let G
    have an edge {i, j} when rows[i][j] or rows[j][i] is nonzero.  The
    minors come in blocks, one per top vertex h: block h holds the 2^h
    subsets S = R + h with R < 2^h, and each of its minors comes from
    minors of lower encoding, which the kernel keeps (2^n values).
    - h has at most one neighbour q below it: h is a leaf of every S in
      the block, and expanding along row h,
      det(A'_S) = a'_hh * det(A'_R) - a'_hq * a'_qh * det(A'_(R-q)),
      without the second term when q is not in R; the whole block is one
      comprehension over the minors so far.
    Otherwise each minor comes by the first rule that applies:
    - G[S] has a vertex l with at most one neighbour q in S: the same
      expansion along row l, for the lowest such l;
    - G[S] is disconnected, and C is the component of S's lowest vertex:
      A'_S is block diagonal up to a permutation, so
      det(A'_S) = det(A'_C) * det(A'_(S-C));
    - otherwise, with j = min(S) and R = S - j, det(A'_S) = B_R[j][j]
      from the bordered chain (`_Chain`).
    So a forest takes no determinant, one whose every vertex has at most
    one lower neighbour visits no subset alone, and `det_exact` is taken
    only where the chain meets a zero pivot.  Lazy per block: a caller
    that stops at the first mismatch takes no later block."""
    n = len(rows)
    adjacent = [sum(1 << j for j in range(n) if j != i and (rows[i][j] != 0 or rows[j][i] != 0))
                for i in range(n)]
    scales, rows = zip(*map(clear_denominators, rows)) if n else ((), ())
    # prod_(i in S) d_i at encoding S, doubled per block; none on integral rows
    divisors = [1] if any(d != 1 for d in scales) else None
    # deg_S(l) >= deg_G(l) - (n - |S|), so no S larger than this has a leaf;
    # on a dense matrix only sizes 1 and 2 are scanned
    leaf_sizes = n + 1 - min(map(int.bit_count, adjacent), default=0)
    chain = None
    values = [1]
    yield 1
    for h in range(n):
        if divisors:
            divisors += [scales[h] * v for v in divisors]
        lower = adjacent[h] & ((1 << h) - 1)
        if lower & (lower - 1) == 0:
            d, q = rows[h][h], lower.bit_length() - 1
            c = rows[h][q] * rows[q][h] if lower else 0
            block = [d * v - c * values[r ^ lower] if r & lower else d * v
                     for r, v in enumerate(values)]
            values += block
            yield from ([normalize(Fraction(v, divisor)) for v, divisor
                         in zip(block, divisors[1 << h:])] if divisors else block)
            continue
        chain = chain or _Chain(rows)
        for enc in range(1 << h, 2 << h):
            leaf = _leaf(adjacent, enc) if enc.bit_count() <= leaf_sizes else -1
            if leaf >= 0:
                rest = enc ^ (1 << leaf)
                value = rows[leaf][leaf] * values[rest]
                neighbour = adjacent[leaf] & rest
                if neighbour:
                    q = neighbour.bit_length() - 1
                    value -= rows[leaf][q] * rows[q][leaf] * values[rest ^ neighbour]
            elif (component := _component(adjacent, enc)) != enc:
                value = values[component] * values[enc ^ component]
            else:
                value = chain.minor(enc)
            values.append(value)
            yield normalize(Fraction(value, divisors[enc])) if divisors else value


class _Chain:
    """Sylvester's bordered identity along the lowest-vertex chain, on the
    integer rows A' that `all_principal_minors` scaled once on entry: every
    state stays in ints, and the kernel divides each minor once, as it
    yields it.  For R a set of vertices, B_R[i][i'] =
    det(A'[R+i, R+i']) for i, i' < min(R), B_(empty) = A', and with
    j < min(R)
      B_(R+j)[i][i'] = (B_R[j][j] * B_R[i][i'] - B_R[i][j] * B_R[j][i'])
                       / det(A'_R),
    an exact division (Bareiss, Math. Comp. 22, 1968).  So det(A'_S) =
    B_R[j][j] for j = min(S), R = S - j.  The parent of R is R - min(R),
    and encoding order is the pre-order of that tree, so the live states
    form one chain from the empty set: a stack of at most n + 1 states,
    each built the first time a subset asks for it and never again.  At
    a zero pivot det(A'_R) = 0 the next state is built directly, one
    `det_exact` per entry."""

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = rows
        # (R, det(A'_R), B_R), R growing down the stack
        self.states = [(0, 1, rows)]

    def minor(self, enc: int) -> int:
        """det(A'_S) for S = enc."""
        j = (enc & -enc).bit_length() - 1
        return self._state(enc ^ (1 << j))[2][j][j]

    def _state(self, target: int) -> tuple:
        states = self.states
        # drop the states that are not ancestors of target: R is one when
        # target agrees with R from min(R) up (-lowbit masks those bits)
        while target & -(states[-1][0] & -states[-1][0]) != states[-1][0]:
            states.pop()
        while (state := states[-1])[0] != target:
            below, pivot, bordered = state
            j = (target ^ below).bit_length() - 1
            row_j, minor = bordered[j], bordered[j][j]
            if pivot:
                nxt = [[(minor * row_i[k] - row_i[j] * row_j[k]) // pivot for k in range(j)]
                       for row_i in bordered[:j]]
            else:
                nxt = self._direct(below | 1 << j, j)
            states.append((below | 1 << j, minor, nxt))
        return state

    def _direct(self, enc: int, size: int) -> list[list[int]]:
        """B_enc by one `det_exact` per entry, looked up here at call
        time, so a patch of `minor_map.det_exact` sees every one."""
        members = [k for k in range(len(self.rows)) if enc >> k & 1]
        rows = self.rows
        return [[det_exact([[rows[a][b] for b in [k] + members] for a in [i] + members])
                 for k in range(size)] for i in range(size)]

def _leaf(adjacent: list[int], enc: int) -> int:
    """The lowest vertex of S = enc with at most one neighbour in S, or -1."""
    rest = enc
    while rest:
        bit = rest & -rest
        vertex = bit.bit_length() - 1
        neighbours = adjacent[vertex] & enc
        if neighbours & (neighbours - 1) == 0:
            return vertex
        rest ^= bit
    return -1


def _component(adjacent: list[int], enc: int) -> int:
    """The component of S = enc's lowest vertex in G[S], grown until it is
    all of S or stops."""
    component = frontier = enc & -enc
    while frontier and component != enc:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            reach |= adjacent[bit.bit_length() - 1]
            frontier ^= bit
        frontier = reach & enc & ~component
        component |= frontier
    return component


def minor_vector(matrix: SymmetricMatrix, t=1) -> MinorVector:
    """phi([A, t]) in coordinates: all 2^n principal minors, scaled by
    t^(n-|I|).  Bounded at n <= MAX_MINOR_FACTORS."""
    t = as_scalar(t)
    n = matrix.n
    if n > MAX_MINOR_FACTORS:
        raise ValueError(f"all principal minors are computed for n <= {MAX_MINOR_FACTORS}"
                         f" only, got n={n}")
    minors = all_principal_minors(matrix.entries)
    if t != 1:
        minors = (normalize(value * t ** (n - bin(enc).count("1")))
                  for enc, value in enumerate(minors))
    return MinorVector(n, tuple(minors))


def tensor_product(z1: MinorVector, z2: MinorVector) -> MinorVector:
    """Coordinate at the concatenated index (J, K) is z1[J] * z2[K]."""
    n = z1.n + z2.n
    coords = [0] * (1 << n)
    for k_enc in range(1 << z2.n):
        right = z2.coords[k_enc]
        base = k_enc << z1.n
        if right == 0:
            continue
        for j_enc in range(1 << z1.n):
            coords[base | j_enc] = z1.coords[j_enc] * right
    return MinorVector(n, tuple(coords))


def reversed_minors(matrix: SymmetricMatrix) -> MinorVector:
    """Minor vector of A^(-1), computed without inverting: coordinate at
    I is det(A_complement(I)) / det(A)."""
    minors = list(all_principal_minors(matrix.entries))
    full = len(minors) - 1
    d = minors[full]
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    coords = [normalize(Fraction(minors[full ^ enc], d)) for enc in range(full + 1)]
    return MinorVector(matrix.n, tuple(coords))

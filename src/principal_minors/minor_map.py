"""The principal-minor map and its structural identities.

phi sends [A, t] to the vector with coordinate t^(n-|I|) * det(A_I) at
the binary index I, where A_I keeps row/column k exactly when i_k = 1
and the empty minor is 1.  Every all-minors computation goes through
the one kernel `minor_blocks`, which hands out the minors one block per
top vertex h, as a list; `all_principal_minors` is its flattening.  A
block is filled range by range: a range fixes the vertices of a base
and leaves those below some u free.  When a fixed vertex x has at most
one neighbour among the vertices of the range, x is a leaf of every
subset in it, and its 2^u minors are one expansion along row x over
earlier minors.  Otherwise the range splits into its base and the
ranges below, or, when no large enough range below could expand, each
of its subsets is visited alone and its minor comes by the first of
three rules that applies to its induced graph of nonzero off-diagonal
entries: a leaf (an expansion along the leaf's row), a disconnected
graph (a product over components), and otherwise Sylvester's bordered
identity along the chain of subsets that drops the lowest vertex
(`_Chain`).  The rows are scaled once on entry, to integers, every rule
runs in ints, and each minor takes one division, by its rows' scales,
as its block is handed out.  So a forest visits no subset alone and
takes no determinant, and `det_exact` is taken only where the chain
meets a zero pivot.  `minor_vector` is bounded at n <= MAX_MINOR_FACTORS.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Iterator, Sequence

from .indices import BinaryIndex, MinorVector
from .matrices import SingularMatrixError, SymmetricMatrix, det_exact
from .scalars import Scalar, as_scalar, clear_denominators, normalize

# At n = 14 the kernel takes 0.05 s on a dense integer matrix, 0.07 s on a
# dense rational one with denominators 1..9 and 0.04 s on a dense one with a
# zero diagonal (0.43-0.90 s with one determinant per subset); a tree plus
# 0..3 extra edges takes 0.0021-0.0026 s, or 0.0016-0.0039 s with its labels
# shuffled, as its blocks split into ranges that each expand along one fixed
# leaf (0.0023-0.0045 s and 0.0046-0.0064 s taking only the blocks of a
# vertex with at most one lower neighbour whole), and 0.021-0.030 s with
# denominators 1..9 either way, as the one division per minor dominates.
# Dense n = 15 and 16 take 0.07 and 0.15 s (integer), 0.15 and 0.35 s
# (rational), and are still rejected: the bound is raised only with the
# golden case that pins it (2-core x86 VM, Python 3.11.7).
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
    """All 2^n principal minors of exact rows in encoding order: the
    blocks of `minor_blocks`, flattened.  Lazy per block: a caller that
    stops in block h computes nothing of a later block."""
    return chain.from_iterable(minor_blocks(rows))


def minor_blocks(rows: Sequence[Sequence]) -> Iterator[list[Scalar]]:
    """The 2^n principal minors of exact rows in encoding order, one list
    per block: [1] for the empty set, then block h = 0..n-1, the 2^h
    subsets S = R + h with R < 2^h.  rows need not be symmetric.  Row i is
    scaled once on entry by the lcm d_i of its denominators, so A' = D A is
    integral, every rule below runs on A' in ints, and each minor leaves
    the integers once, as det(A'_S) / prod_(i in S) d_i (integral rows are
    taken as they are, and their minors are ints).  Let G have an edge
    {i, j} when rows[i][j] or rows[j][i] is nonzero.  Each minor comes
    from minors of lower encoding, which the kernel keeps (2^n values).

    A block is filled range by range.  A range is base + r for r < 2^u:
    its fixed set F is the bits of base, all at or above u, and its free
    vertices are those below u; block h is the range F = {h}, u = h.
    - Some x in F has at most one neighbour y in F + [0, u): x is a leaf
      of every S in the range, and expanding along row x,
      det(A'_S) = a'_xx * det(A'_(S-x)) - a'_xy * a'_yx * det(A'_(S-x-y)),
      without the second term when y is not in S.  The whole range is one
      comprehension over earlier minors: two slices when y is fixed, one
      when there is no y.
    - Otherwise the range splits into base alone and the ranges
      base + 2^t + r', r' < 2^t, for t = 0..u-1, in encoding order, when
      some range of 2^k or more subsets below it can expand
      (`_expands_below`): k = 0 in a forest, where every subset has a
      leaf, else k = _LEAST_SPLIT.
    - Otherwise each subset of the range is visited alone, and its minor
      comes by the first rule that applies: G[S] has a vertex l with at
      most one neighbour q in S (the same expansion along row l, for the
      lowest such l); G[S] is disconnected, and C is the component of S's
      lowest vertex (A'_S is block diagonal up to a permutation, so
      det(A'_S) = det(A'_C) * det(A'_(S-C))); otherwise, with j = min(S)
      and R = S - j, det(A'_S) = B_R[j][j] from the bordered chain
      (`_Chain`).
    The leaf scan runs only on subsets small enough to hold a leaf, and
    the component search only on those small enough to be disconnected:
    on a dense matrix, sizes 1 and 2, and none.  So a forest, in any
    labelling, visits no subset alone, and `det_exact` is taken only where
    the chain meets a zero pivot.  Lazy per block: a caller that stops in
    block h computes nothing of a later block."""
    n = len(rows)
    adjacent = [sum(1 << j for j in range(n) if j != i and (rows[i][j] != 0 or rows[j][i] != 0))
                for i in range(n)]
    # prod_(i in S) d_i at encoding S, doubled per block; none on integral rows
    divisors = None
    if not all(type(v) is int for row in rows for v in row):
        scales, rows = zip(*map(clear_denominators, rows))
        divisors = [1] if any(d != 1 for d in scales) else None
    # deg_S(l) >= deg_G(l) - (n - |S|), so no S larger than leaf_sizes has a
    # leaf, and none of joined_sizes or more vertices is disconnected (each
    # vertex has (|S| - 1) / 2 neighbours in S or more)
    low = n - min(map(int.bit_count, adjacent), default=0)
    leaf_sizes, joined_sizes = low + 1, 2 * low - 1
    # a range splits only toward a range of 2^least subsets or more that expands
    least = 0 if _is_forest(adjacent) else _LEAST_SPLIT
    chain = None
    values = [1]
    yield [1]
    for h in range(n):
        ranges = [(1 << h, (h,), h)]  # (base, F, u), the next range on top
        while ranges:
            base, fixed, u = ranges.pop()
            span = base | ((1 << u) - 1)
            for x in fixed:
                near = adjacent[x] & span
                if near & (near - 1) == 0:
                    break
            else:
                if u > least and (not least or _expands_below(adjacent, base, u, least)):
                    ranges += [(base | 1 << t, fixed + (t,), t) for t in range(u - 1, -1, -1)]
                    ranges.append((base, fixed, 0))
                    continue
                chain = chain or _Chain(rows)
                for enc in range(base, base + (1 << u)):
                    size = enc.bit_count()
                    leaf = _leaf(adjacent, enc) if size <= leaf_sizes else -1
                    if leaf >= 0:
                        rest = enc ^ (1 << leaf)
                        value = rows[leaf][leaf] * values[rest]
                        neighbour = adjacent[leaf] & rest
                        if neighbour:
                            q = neighbour.bit_length() - 1
                            value -= rows[leaf][q] * rows[q][leaf] * values[rest ^ neighbour]
                    elif size < joined_sizes and (component := _component(adjacent, enc)) != enc:
                        value = values[component] * values[enc ^ component]
                    else:
                        value = chain.minor(enc)
                    values.append(value)
                continue
            rest = base ^ (1 << x)  # S - x for S = base
            d, minors = rows[x][x], values[rest:rest + (1 << u)]
            if not near:
                values += [d * v for v in minors]
                continue
            y = near.bit_length() - 1
            c = rows[x][y] * rows[y][x]
            if near & base:  # y in every S: S - x - y is one more slice
                values += [d * v - c * w for v, w in zip(minors, values[rest ^ near:(rest ^ near) + (1 << u)])]
            else:
                values += [d * v - c * values[rest - near + r] if r & near else d * v
                           for r, v in enumerate(minors)]
        if divisors:
            divisors += [scales[h] * v for v in divisors]
            yield [normalize(Fraction(v, divisor))
                   for v, divisor in zip(values[1 << h:], divisors[1 << h:])]
        else:
            yield values[1 << h:]


# Outside a forest a range splits only toward a range of 2^3 or more subsets
# that expands: reaching smaller ones costs more than visiting their subsets
# alone.  Splitting down to single subsets, as in a forest, took 1.2 times as
# long at n = 12 on a dense integer matrix with ten zero pairs, 1.25 times on
# a tree plus 12 chords with shuffled labels, and twice as long on a dense
# matrix whose vertex 0 is a leaf, since a leaf at a low vertex is a fixed
# vertex only of single subsets (2-core x86 VM, Python 3.11.7).
_LEAST_SPLIT = 3


def _is_forest(adjacent: list[int]) -> bool:
    """Whether G has no cycle: n - |E| components."""
    left, parts = (1 << len(adjacent)) - 1, 0
    while left:
        left ^= _component(adjacent, left)
        parts += 1
    return sum(map(int.bit_count, adjacent)) == 2 * (len(adjacent) - parts)


def _expands_below(adjacent: list[int], base: int, u: int, k: int) -> bool:
    """Whether some range of 2^k or more subsets below the range base + r,
    r < 2^u (F the bits of base), can expand, for 1 <= k < u: exactly when
    some vertex x >= k of F + [0, u) has at most one neighbour in
    F + [0, k].  Such an x expands base + 2^k + r' (x in F or x = k) or
    base + 2^x + 2^k + r' (x > k free), r' < 2^k; and the vertex that
    expands base + T + r', r' < 2^m, m = min(T) >= k, is such an x."""
    near, rest = base | ((2 << k) - 1), (base | ((1 << u) - 1)) & -(1 << k)
    while rest:
        bit = rest & -rest
        reach = adjacent[bit.bit_length() - 1] & near
        if reach & (reach - 1) == 0:
            return True
        rest ^= bit
    return False


class _Chain:
    """Sylvester's bordered identity along the lowest-vertex chain, on the
    integer rows A' that `minor_blocks` scaled once on entry: every state
    stays in ints, and the kernel divides each minor once, as it hands out
    its block.  For R a set of vertices, B_R[i][i'] =
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

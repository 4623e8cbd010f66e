from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from principal_minors import (
    BinaryIndex,
    MinorVector,
    SingularMatrixError,
    SymmetricMatrix,
    all_indices,
    minor_vector,
    principal_minor,
    reversed_minors,
    tensor_product,
)
from principal_minors import minor_map
from principal_minors.matrices import det_exact
from principal_minors.minor_map import all_principal_minors
from principal_minors.polynomials import GroupElement, act_point
from principal_minors.sampling import random_symmetric_matrix
from principal_minors.scalars import normalize

from conftest import laplace_det, random_rational_symmetric, symmetric_rows_strategy


def test_principal_minor_diagonal():
    a = SymmetricMatrix.diagonal([1, 2, 3])
    assert principal_minor(a, BinaryIndex.from_bits([1, 1, 0])) == 2


def test_principal_minor_cofactor_oracle():
    a = SymmetricMatrix.from_rows([[1, 2], [2, 3]])
    idx = BinaryIndex.from_bits([1, 1])
    expected = laplace_det([[1, 2], [2, 3]])
    assert expected == -1
    assert principal_minor(a, idx) == expected


def test_empty_minor_is_one():
    a = SymmetricMatrix.from_rows([[7, 1], [1, 7]])
    assert principal_minor(a, BinaryIndex.from_bits([0, 0])) == 1


def test_dimension_mismatch_rejected():
    a = SymmetricMatrix.diagonal([1, 2])
    with pytest.raises(ValueError):
        principal_minor(a, BinaryIndex.from_bits([1, 0, 0]))


@given(symmetric_rows_strategy(4))
@settings(max_examples=50)
def test_all_minors_match_cofactor_oracle(rows):
    a = SymmetricMatrix.from_rows(rows)
    z = minor_vector(a, 1)
    for idx in all_indices(4):
        keep = [k for k in range(4) if idx.bits[k]]
        sub = [[rows[i][j] for j in keep] for i in keep]
        assert z[idx] == laplace_det(sub)


def test_all_principal_minors_kernel():
    rng = random.Random(43)
    for n in range(1, 6):
        for a in (random_symmetric_matrix(n, rng), random_rational_symmetric(n, rng)):
            minors = list(all_principal_minors(a.entries))
            assert minors == [principal_minor(a, idx) for idx in all_indices(n)]


def det_per_subset(rows):
    """One det_exact per subset, in encoding order."""
    n = len(rows)
    return [det_exact([[rows[i][j] for j in range(n) if enc >> j & 1]
                       for i in range(n) if enc >> i & 1]) for enc in range(1 << n)]


def on_edges(n, edges, rng, entry=lambda r: r.choice((-1, 1)) * r.randint(1, 9),
             diagonal=True):
    rows = [[rng.randint(-9, 9) if diagonal and i == j else 0 for j in range(n)]
            for i in range(n)]
    for i, j in edges:
        rows[i][j] = rows[j][i] = entry(rng)
    return rows


def tree_plus(n, extra, rng):
    edges = {(rng.randrange(k), k) for k in range(1, n)}
    others = [e for e in combinations(range(n), 2) if e not in edges]
    return sorted(edges | set(rng.sample(others, extra)))


def block_diagonal(sizes, rng):
    """Dense blocks of the given sizes (a size-1 block is an isolated
    vertex), shuffled so that no block is contiguous."""
    n, start, edges = sum(sizes), 0, []
    for size in sizes:
        edges += combinations(range(start, start + size), 2)
        start += size
    perm = list(range(n))
    rng.shuffle(perm)
    return on_edges(n, sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges), rng)


def rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def per_row(rows, rng):
    """rows with row i divided by its own denominator, up to 10^6."""
    return [[Fraction(v, q) for v in row]
            for row, q in zip(rows, (rng.randint(1, 10 ** 6) for _ in rows))]


def test_kernel_factors_over_components():
    rng = random.Random(44)
    cases = [block_diagonal(sizes, rng) for sizes in
             ([1], [3, 1, 4], [1, 1, 2], [5, 1, 2, 1], [4, 4], [2, 3, 1, 3])]
    for n in (8, 9, 10):
        for extra in range(4):
            edges = tree_plus(n, extra, rng)
            cases += [on_edges(n, edges, rng), on_edges(n, edges, rng, rational),
                      on_edges(n, edges, rng, diagonal=False),
                      per_row(on_edges(n, edges, rng), rng)]
    cases += [per_row(block_diagonal([3, 1, 4], rng), rng),
              per_row(on_edges(8, combinations(range(8), 2), rng), rng)]
    for rows in cases:
        assert list(all_principal_minors(rows)) == det_per_subset(rows)


def one_sided(rows, rng):
    """rows with one of each pair of off-diagonal entries set to zero."""
    rows = [list(row) for row in rows]
    for i, j in combinations(range(len(rows)), 2):
        if rng.random() < 0.5:
            i, j = j, i
        rows[i][j] = 0
    return rows


def test_kernel_on_rows_with_one_sided_entries():
    rng = random.Random(45)
    for n in (4, 6, 8):
        for _ in range(5):
            rows = one_sided(on_edges(n, tree_plus(n, 2, rng), rng, rational), rng)
            assert list(all_principal_minors(rows)) == det_per_subset(rows)
        for edges in (tree_plus(n, 2, rng), combinations(range(n), 2)):
            rows = one_sided(per_row(on_edges(n, edges, rng), rng), rng)
            assert list(all_principal_minors(rows)) == det_per_subset(rows)


def test_kernel_normalizes_products():
    minors = list(all_principal_minors([[Fraction(1, 2), 0], [0, 2]]))
    assert minors == [1, Fraction(1, 2), 2, 1] and type(minors[3]) is int


def count_determinants(monkeypatch):
    """The rows of each det_exact the kernel takes, in a list."""
    calls = []
    monkeypatch.setattr(minor_map, "det_exact", lambda rows: calls.append(rows) or det_exact(rows))
    return calls


def chain_subsets(monkeypatch):
    """The encoding of each subset whose minor the kernel reads off the
    bordered chain, in a list."""
    asked = []
    minor = minor_map._Chain.minor
    monkeypatch.setattr(minor_map._Chain, "minor",
                        lambda chain, enc: asked.append(enc) or minor(chain, enc))
    return asked


def dominant(rows):
    """rows with diagonal 100: strictly diagonally dominant up to n = 12,
    so every principal minor, and so every pivot of the chain, is nonzero."""
    return [[100 if i == j else v for j, v in enumerate(row)] for i, row in enumerate(rows)]


def test_kernel_determinant_counts_on_paths_and_complete_graphs(monkeypatch):
    calls = count_determinants(monkeypatch)
    asked = chain_subsets(monkeypatch)
    rng = random.Random(46)
    for n in range(1, 10):
        path = on_edges(n, [(k, k + 1) for k in range(n - 1)], rng)
        # an entry on one side only still joins its two vertices
        for rows in (path, one_sided(path, rng)):
            calls.clear()
            asked.clear()
            assert list(all_principal_minors(rows)) == det_per_subset(rows)
            assert calls == [] and asked == []  # a forest: every subset has a leaf
    for n in range(1, 9):
        calls.clear()
        asked.clear()
        rows = dominant(on_edges(n, combinations(range(n), 2), rng))
        assert list(all_principal_minors(rows)) == det_per_subset(rows)
        # every subset of 3 or more vertices has minimum degree at least 2,
        # and with no zero pivot the chain takes no determinant
        assert len(asked) == 2 ** n - 1 - n - n * (n - 1) // 2
        assert calls == []


def test_kernel_looks_for_components_only_in_subsets_that_can_have_two(monkeypatch):
    looked = []
    component = minor_map._component
    monkeypatch.setattr(minor_map, "_component",
                        lambda adjacent, enc: looked.append(enc) or component(adjacent, enc))
    rng = random.Random(60)
    for n, zeros in ((6, 0), (8, 0), (8, 3), (9, 6)):
        pairs = list(combinations(range(n), 2))
        dropped = set(rng.sample(pairs, zeros))
        rows = on_edges(n, [e for e in pairs if e not in dropped], rng)
        low = n - min(sum(1 for j in range(n) if j != i and rows[i][j]) for i in range(n))
        looked.clear()
        assert list(all_principal_minors(rows)) == det_per_subset(rows)
        # a vertex of S has (|S| - 1) / 2 neighbours in S or more once |S| is
        # 2 low - 1 or more, so S is connected; the one look at all n
        # vertices is the forest test
        assert all(enc.bit_count() < 2 * low - 1 for enc in looked if enc != (1 << n) - 1)
        assert looked.count((1 << n) - 1) == 1


def test_kernel_factors_two_cliques_without_a_cross_determinant(monkeypatch):
    calls = count_determinants(monkeypatch)
    asked = chain_subsets(monkeypatch)
    rows = dominant(block_diagonal([4, 4], random.Random(48)))
    assert list(all_principal_minors(rows)) == det_per_subset(rows)
    # the 3- and 4-subsets of each clique; a subset that meets both cliques
    # in 3 or more vertices each has no leaf, and would reach the chain
    # (35 in all) unless the kernel multiplies over components
    assert len(asked) == 2 * (4 + 1)
    assert all(enc.bit_count() in (3, 4) for enc in asked)
    assert calls == []


def per_subset_calls(monkeypatch):
    """The encoding of each subset that the kernel visits alone (asks
    `_leaf` about), in a list."""
    visited = []
    leaf = minor_map._leaf
    monkeypatch.setattr(minor_map, "_leaf",
                        lambda adjacent, enc: visited.append(enc) or leaf(adjacent, enc))
    return visited


def star(n, centre):
    return [(min(k, centre), max(k, centre)) for k in range(n) if k != centre]


def test_kernel_takes_a_block_whole_below_at_most_one_lower_neighbour(monkeypatch):
    visited = per_subset_calls(monkeypatch)
    asked = chain_subsets(monkeypatch)
    rng = random.Random(51)
    for n in range(1, 10):
        # a path, and a tree whose vertex k > 0 hangs from one vertex below k
        for edges in ([(k, k + 1) for k in range(n - 1)], tree_plus(n, 0, rng)):
            for rows in (on_edges(n, edges, rng), on_edges(n, edges, rng, rational)):
                visited.clear()
                assert list(all_principal_minors(rows)) == det_per_subset(rows)
                assert visited == [] and asked == []


def relabelled(n, edges, rng):
    """edges with the vertices renamed by a random permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[i], perm[j]))) for i, j in edges)


def sparse_graphs(n, rng):
    """A path, a tree, a cycle and a tree plus 1..3 chords on n vertices,
    each randomly relabelled."""
    graphs = [[(k, k + 1) for k in range(n - 1)], tree_plus(n, 0, rng)]
    if n >= 3:
        graphs.append([(k, k + 1) for k in range(n - 1)] + [(0, n - 1)])
    graphs += [tree_plus(n, extra, rng) for extra in range(1, 4) if extra <= (n - 1) * (n - 2) // 2]
    return [relabelled(n, edges, rng) for edges in graphs]


def test_kernel_equals_one_determinant_per_subset_on_relabelled_sparse_graphs():
    rng = random.Random(56)
    for n in range(1, 10):
        for edges in sparse_graphs(n, rng):
            for rows in (on_edges(n, edges, rng), on_edges(n, edges, rng, rational),
                         per_row(on_edges(n, edges, rng), rng)):
                minors = list(all_principal_minors(rows))
                assert minors == det_per_subset(rows)
                assert list(map(type, minors)) == list(map(type, det_per_subset(rows)))


def leafless(n, edges):
    """The nonempty subsets S whose every vertex has two or more
    neighbours in S, in encoding order."""
    adjacent = [0] * n
    for i, j in edges:
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    return [enc for enc in range(1, 1 << n)
            if all((adjacent[i] & enc).bit_count() >= 2 for i in range(n) if enc >> i & 1)]


def test_kernel_visits_no_subset_of_a_forest_alone(monkeypatch):
    visited = per_subset_calls(monkeypatch)
    asked = chain_subsets(monkeypatch)
    rng = random.Random(57)
    for n in range(1, 11):
        for _ in range(4):
            tree = relabelled(n, tree_plus(n, 0, rng), rng)
            forest = [e for e in tree if rng.random() < 0.7]
            for rows in (on_edges(n, tree, rng), on_edges(n, forest, rng, rational)):
                visited.clear()
                assert list(all_principal_minors(rows)) == det_per_subset(rows)
                assert visited == [] and asked == []


def test_kernel_visits_few_subsets_alone_on_a_tree_plus_chords(monkeypatch):
    visited = per_subset_calls(monkeypatch)
    rng = random.Random(58)
    n, seen, before = 12, 0, 0
    for extra in (1, 2, 3):
        for _ in range(6):
            # vertex k > 0 hangs from one vertex below k, as in the benchmark
            edges = tree_plus(n, extra, rng)
            rows = on_edges(n, edges, rng)
            degrees = [sum(v in e for e in edges) for v in range(n)]
            if min(degrees) > 1:
                continue
            visited.clear()
            assert list(all_principal_minors(rows)) == det_per_subset(rows)
            # a leafless subset can only be visited alone; a range splits
            # only toward a range of eight or more subsets that expands, so
            # a few subsets with a leaf are visited alone too
            assert set(leafless(n, edges)) <= set(visited)
            assert len(visited) <= 2 ** (extra + 4)
            seen += len(visited)
            # taking whole only the blocks of a vertex with at most one lower
            # neighbour visited every other block subset by subset
            before += sum(1 << h for h in range(n)
                          if sum(i < h for e in edges for i in e if h in e) >= 2)
    assert 10 * seen < before


def test_kernel_visits_no_subset_alone_under_a_star_centred_on_the_top_vertex(monkeypatch):
    visited = per_subset_calls(monkeypatch)
    asked = chain_subsets(monkeypatch)
    rng = random.Random(52)
    for n in range(3, 10):
        for centre in (n - 1, 0):
            for rows in (on_edges(n, star(n, centre), rng),
                         on_edges(n, star(n, centre), rng, rational)):
                visited.clear()
                assert list(all_principal_minors(rows)) == det_per_subset(rows)
                # centred on the top vertex, its block splits: base alone, then
                # each range below it fixes a leaf t of the star; a star is a
                # forest, so no subset reaches the chain either
                assert visited == [] and asked == []


def test_kernel_stops_with_the_block_that_holds_the_last_minor_taken(monkeypatch):
    # with a denominator above 1 somewhere, the kernel normalizes each
    # minor it computes exactly once
    computed = []
    monkeypatch.setattr(minor_map, "normalize", lambda v: computed.append(v) or normalize(v))
    rng = random.Random(53)
    n = 9
    graphs = ([(k, k + 1) for k in range(n - 1)], star(n, n - 1), tree_plus(n, 2, rng),
              list(combinations(range(n), 2)))
    for edges in graphs:
        rows = on_edges(n, edges, rng, rational)
        rows[0][0] = Fraction(1, 2)
        expected = det_per_subset(rows)
        for e in sorted({1, 2, 3, 5, 6, 40, 64, 200, 256, 300, 511}
                        | set(rng.sample(range(1, 512), 20))):
            computed.clear()
            assert list(islice(all_principal_minors(rows), e + 1)) == expected[:e + 1]
            # a block is computed whole before its first minor is handed
            # out, and nothing of a later block
            h = e.bit_length() - 1
            assert len(computed) == 2 * (1 << h) - 1


def test_kernel_normalizes_nothing_on_integral_rows(monkeypatch):
    computed = []
    monkeypatch.setattr(minor_map, "normalize", lambda v: computed.append(v) or normalize(v))
    visited = per_subset_calls(monkeypatch)
    rng = random.Random(54)
    # a tree plus edges, and cliques, whose subsets visited alone meet the
    # leaf rule and the component rule; an entry Fraction(v, 1) is integral
    for rows in (on_edges(9, tree_plus(9, 3, rng), rng), block_diagonal([3, 1, 4], rng),
                 [[Fraction(v) for v in row] for row in block_diagonal([2, 3, 3], rng)]):
        visited.clear()
        minors = list(all_principal_minors(rows))
        assert minors == det_per_subset(rows) and all(type(v) is int for v in minors)
        assert visited and computed == []


def test_kernel_hands_the_chain_integer_rows(monkeypatch):
    handed = []
    init = minor_map._Chain.__init__
    monkeypatch.setattr(minor_map._Chain, "__init__",
                        lambda chain, rows: handed.append(rows) or init(chain, rows))
    rng = random.Random(55)
    cases = [on_edges(8, combinations(range(8), 2), rng, rational),
             per_row(on_edges(8, combinations(range(8), 2), rng), rng),
             one_sided(per_row(on_edges(9, tree_plus(9, 3, rng), rng), rng), rng),
             on_edges(8, combinations(range(8), 2), rng)]
    for rows in cases:
        assert list(all_principal_minors(rows)) == det_per_subset(rows)
    assert len(handed) == len(cases)
    assert all(type(v) is int for rows in handed for row in rows for v in row)


def test_kernel_takes_determinants_only_without_a_leaf(monkeypatch):
    asked = chain_subsets(monkeypatch)
    rng = random.Random(47)
    for n in (8, 9, 10):
        rows = on_edges(n, tree_plus(n, 1, rng), rng, rational)
        asked.clear()
        assert list(all_principal_minors(rows)) == det_per_subset(rows)
        adjacent = [sum(1 << j for j in range(n) if j != i and rows[i][j] != 0) for i in range(n)]
        leafless = [enc for enc in range(1, 1 << n)
                    if all((adjacent[i] & enc).bit_count() >= 2 for i in range(n) if enc >> i & 1)]
        # a tree plus one edge has exactly one such subset: its cycle
        assert len(leafless) == 1
        assert asked == leafless


def test_kernel_calls_det_exact_only_at_zero_pivots(monkeypatch):
    calls = count_determinants(monkeypatch)
    rng = random.Random(49)
    for n in range(3, 9):
        rows = on_edges(n, combinations(range(n), 2), rng, diagonal=False)
        calls.clear()
        minors = list(all_principal_minors(rows))
        assert minors == det_per_subset(rows)
        # every subset of 3 or more vertices reaches the chain, so every
        # state R + j with 1 <= j < min(R) is built; from a state R whose
        # minor is 0 (each vertex, at least) it takes j^2 determinants of
        # size |R| + 2, and from any other state none
        sizes = [enc.bit_count() + 2
                 for enc in range(1, 1 << n) if minors[enc] == 0
                 for j in range(1, (enc & -enc).bit_length() - 1) for _ in range(j * j)]
        assert sorted(map(len, calls)) == sorted(sizes)
        assert len(sizes) >= sum(j * j for k in range(n) for j in range(k))


def low_rank(n, rank, rng):
    """sum of rank outer products v v^T: every minor of size above rank
    is 0, so from that depth on every pivot of the chain is."""
    vectors = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
    return [[sum(v[i] * v[j] for v in vectors) for j in range(n)] for i in range(n)]


def twin(rows, rng):
    """rows with vertex b a copy of vertex a, so every subset holding both
    is singular; the copies are symmetric."""
    n = len(rows)
    a, b = rng.sample(range(n), 2)
    rows = [list(row) for row in rows]
    for k in range(n):
        rows[b][k] = rows[k][b] = rows[a][k]
    rows[b][b] = rows[a][b] = rows[b][a] = rows[a][a]
    return rows


def test_kernel_equals_one_determinant_per_subset_on_seeded_matrices():
    rng = random.Random(50)

    def entry(r, kind):
        value = r.choice((-1, 1)) * r.randint(0, 9)
        return Fraction(value, r.randint(1, 9)) if kind == "rational" else value

    for _ in range(120):
        n = rng.randint(1, 8)
        kind = rng.choice(("integer", "rational"))
        edges = [e for e in combinations(range(n), 2) if rng.random() < rng.random() + 0.2]
        rows = on_edges(n, edges, rng, lambda r: entry(r, kind))
        for k in range(n):
            rows[k][k] = entry(rng, kind)
        cases = [rows, one_sided(rows, rng), low_rank(n, rng.randint(1, 3), rng)]
        if n > 1:
            cases.append(twin(rows, rng))
        zero_diagonal = [list(row) for row in rows]
        for k in range(n):
            zero_diagonal[k][k] = 0
        cases.append(zero_diagonal)
        for case in cases:
            minors = list(all_principal_minors(case))
            expected = det_per_subset(case)
            assert minors == expected
            assert list(map(type, minors)) == list(map(type, expected))


@st.composite
def sparse_rows(draw):
    """Rows on a random graph: each pair is unlinked, or linked on both
    sides or on one; rational entries, and a diagonal that may be zero."""
    n = draw(st.integers(1, 7))
    entry = st.fractions(-3, 3, max_denominator=3).map(normalize)
    nonzero = entry.filter(bool)
    zero_diagonal = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = 0 if zero_diagonal else draw(entry)
    for i, j in combinations(range(n), 2):
        link = draw(st.sampled_from(("none", "none", "both", "upper", "lower")))
        if link in ("both", "upper"):
            rows[i][j] = draw(nonzero)
        if link in ("both", "lower"):
            rows[j][i] = draw(nonzero)
    return rows


@given(sparse_rows())
# a path whose leaf 0 has a singular neighbour: A_{1} = A_{2} = 0
@example([[1, 2, 0], [3, 0, 1], [0, 1, 0]])
@settings(max_examples=150, deadline=None)
def test_kernel_matches_one_determinant_per_subset(rows):
    minors = list(all_principal_minors(rows))
    assert minors == det_per_subset(rows)
    assert all(type(value) is int for value in minors if Fraction(value).denominator == 1)


def test_minor_vector_diagonal_2x2():
    a = SymmetricMatrix.diagonal([Fraction(1, 2), 3])
    assert minor_vector(a, 1).coords == (1, Fraction(1, 2), 3, Fraction(3, 2))


def test_minor_vector_example():
    a = SymmetricMatrix.from_rows([[1, 2], [2, 3]])
    assert minor_vector(a, 1).coords == (1, 1, 3, -1)


def test_minor_vector_t_zero_keeps_only_determinant():
    a = SymmetricMatrix.from_rows([[1, 2], [2, 3]])
    assert minor_vector(a, 0).coords == (0, 0, 0, -1)


def test_minor_vector_diag_1_2_3_encoding_order():
    a = SymmetricMatrix.diagonal([1, 2, 3])
    assert minor_vector(a, 1).coords == (1, 1, 2, 2, 3, 3, 6, 6)


@given(symmetric_rows_strategy(3), st.integers(-5, 5), st.integers(1, 5))
@settings(max_examples=40)
def test_homogeneity_in_t(rows, num, den):
    a = SymmetricMatrix.from_rows(rows)
    t = Fraction(num, den)
    base = minor_vector(a, 1)
    scaled = minor_vector(a, t)
    for idx in all_indices(3):
        assert scaled[idx] == t ** (3 - idx.cardinality()) * base[idx]


def test_off_diagonal_relation():
    rng = random.Random(5)
    for _ in range(10):
        a = random_rational_symmetric(4, rng)
        z = minor_vector(a, 1)
        for i in range(4):
            for j in range(i + 1, 4):
                enc = (1 << i) | (1 << j)
                assert a[i, i] * a[j, j] - a[i, j] ** 2 == z[enc]


def test_gauge_invariance_under_sign_conjugation():
    rng = random.Random(6)
    for _ in range(10):
        a = random_rational_symmetric(4, rng)
        signs = [rng.choice((1, -1)) for _ in range(4)]
        assert minor_vector(a.conjugate_signs(signs), 1) == minor_vector(a, 1)


def test_tensor_product_rank_one():
    z1 = MinorVector.from_values(1, [1, "2/1"])
    z2 = MinorVector.from_values(1, [1, 5])
    assert tensor_product(z1, z2).coords == (1, 2, 5, 10)


def test_tensor_product_zero():
    z1 = MinorVector.from_values(1, [0, 0])
    z2 = MinorVector.from_values(2, [1, 2, 3, 4])
    assert tensor_product(z1, z2).is_zero()


def test_block_law_example():
    p = SymmetricMatrix.from_rows([[1, 2], [2, 3]])
    q = SymmetricMatrix.from_rows([[5]])
    lhs = minor_vector(p.block_diag(q), 1)
    rhs = tensor_product(minor_vector(p, 1), minor_vector(q, 1))
    assert lhs == rhs


def test_block_law_random():
    rng = random.Random(7)
    for _ in range(12):
        p_size, q_size = rng.randint(1, 3), rng.randint(1, 3)
        p = random_rational_symmetric(p_size, rng)
        q = random_rational_symmetric(q_size, rng)
        assert minor_vector(p.block_diag(q), 1) == tensor_product(
            minor_vector(p, 1), minor_vector(q, 1)
        )


def test_reversed_minors_examples():
    assert reversed_minors(SymmetricMatrix.diagonal([2, 4])).coords == (
        1,
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
    )
    assert reversed_minors(SymmetricMatrix.diagonal([1, 1, 1])).coords == (1,) * 8
    assert reversed_minors(SymmetricMatrix.from_rows([[1, 2], [2, 3]])).coords == (
        1,
        -3,
        -1,
        -1,
    )


def test_reversed_minors_singular_rejected():
    with pytest.raises(SingularMatrixError):
        reversed_minors(SymmetricMatrix.diagonal([1, 0]))


def test_reversal_law_against_explicit_inverse():
    # dual route: complement/det formula vs minors of the actual inverse
    rng = random.Random(8)
    done = 0
    while done < 8:
        n = rng.randint(2, 5)
        a = random_rational_symmetric(n, rng)
        if a.det() == 0:
            continue
        done += 1
        assert reversed_minors(a) == minor_vector(a.inverse(), 1)
        d = a.det()
        z_inv = minor_vector(a.inverse(), 1)
        for idx in all_indices(n):
            assert d * z_inv[idx] == principal_minor(a, idx.complement())


def test_relabel_consistent_with_factor_permutation():
    rng = random.Random(9)
    for _ in range(8):
        n = rng.randint(2, 4)
        a = random_rational_symmetric(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        g = GroupElement.from_permutation(n, perm)
        assert minor_vector(a.relabel(perm), 1) == act_point(g, minor_vector(a, 1))

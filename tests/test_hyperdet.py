from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from principal_minors import (
    MinorVector,
    SymmetricMatrix,
    cayley_hyperdet,
    evaluate,
    hd_basis,
    hd_dimension,
    is_highest_weight,
    minor_vector,
    split_by_top_variable,
    weight_of,
)
from principal_minors.documents import basis_digest
from principal_minors.polynomials import unpack_monomial
from principal_minors.scalars import scalar_str
from principal_minors.sampling import random_symmetric_matrix

GOLDEN_N4_DIGEST = "sha256:c93bf807aca4926a00eb25a9c46f3e8c26335a70b54852addc28ad0221794825"
GOLDEN_N5_DIGEST = "sha256:14ee0386e43f4975f44dca40e4a4ef4a127598a236559a592b15e03268dd49d5"
GOLDEN_N6_CONTENT = "sha256:fc8ad13843417106fdab9906c7d0781650e5c4d039b729419ecd8513d5853b85"


def test_cayley_two_corner_evaluation():
    hd = cayley_hyperdet(3, (1, 2, 3))
    z = MinorVector.from_values(3, [1, 0, 0, 0, 0, 0, 0, 1])
    assert evaluate(hd, z) == 1


def test_cayley_vanishes_on_all_ones_matrix():
    hd = cayley_hyperdet(3, (1, 2, 3))
    ones = SymmetricMatrix.from_rows([[1, 1, 1]] * 3)
    assert evaluate(hd, minor_vector(ones, 1)) == 0


def test_cayley_weight_with_embedded_triple():
    assert weight_of(cayley_hyperdet(4, (1, 2, 4))) == (0, 0, -4, 0)


def test_cayley_is_highest_weight_everywhere():
    for n in (3, 4, 5):
        for triple in combinations(range(1, n + 1), 3):
            assert is_highest_weight(cayley_hyperdet(n, triple))


def test_cayley_invalid_triples():
    with pytest.raises(ValueError):
        cayley_hyperdet(2, (1, 2, 3))
    with pytest.raises(ValueError):
        cayley_hyperdet(4, (1, 1, 2))
    with pytest.raises(ValueError):
        cayley_hyperdet(4, (1, 2, 5))


def test_hd_dimension_values():
    assert hd_dimension(3) == 1
    assert hd_dimension(4) == 20
    assert hd_dimension(5) == 250
    with pytest.raises(ValueError):
        hd_dimension(2)


def test_basis_cardinalities_match_dimension_formula():
    for n in (3, 4, 5, 6):
        basis = hd_basis(n)
        assert len(basis) == hd_dimension(n) == comb(n, 3) * 5 ** (n - 3)
        assert all(not e.polynomial.is_zero() for e in basis)


def test_basis_n3_is_single_hyperdet():
    basis = hd_basis(3)
    assert len(basis) == 1
    assert basis.entries[0].polynomial == cayley_hyperdet(3, (1, 2, 3)).normalized()


def test_basis_entries_are_degree_4_weight_vectors():
    for entry in hd_basis(4):
        assert entry.polynomial.degree() == 4
        assert entry.polynomial.is_homogeneous()
        assert weight_of(entry.polynomial) == entry.weight
        assert entry.polynomial.normalized() == entry.polynomial


def test_basis_weight_arithmetic():
    for n in (4, 5):
        for entry in hd_basis(n):
            complementary = [k for k in range(1, n + 1) if k not in entry.triple]
            expected = [0] * n
            for k, e in zip(complementary, entry.exponents):
                expected[k - 1] = -4 + 2 * e
            assert entry.weight == tuple(expected)


def test_basis_top_variable_degree_bound():
    for entry in hd_basis(4):
        a, b, c = split_by_top_variable(entry.polynomial)  # raises above degree 2
        assert not (a.is_zero() and b.is_zero() and c.is_zero())


def test_ideal_membership_small_sample():
    rng = random.Random(23)
    for n in (4, 5):
        basis = hd_basis(n)
        for _ in range(5):
            z = minor_vector(random_symmetric_matrix(n, rng), 1)
            assert all(evaluate(e.polynomial, z) == 0 for e in basis)


def _poly_rank(polys):
    monomials = sorted({pairs for p in polys for pairs, _ in p.terms()})
    col = {m: i for i, m in enumerate(monomials)}
    rows = []
    for p in polys:
        row = [Fraction(0)] * len(monomials)
        for pairs, coeff in p.terms():
            row[col[pairs]] = Fraction(coeff)
        rows.append(row)
    return _rank(rows)


def test_basis_linear_independence_exact_rank_n4():
    basis = hd_basis(4)
    assert _poly_rank([e.polynomial for e in basis]) == len(basis) == 20


def test_basis_span_equals_orbit_span_n4():
    # the basis is generated by lowering alone; the orbit-span definition
    # of the module must give the same 20-dimensional space: random
    # determinant-1 images of the triple hyperdeterminants span rank 20,
    # and adjoining the basis does not grow the rank
    from principal_minors import act
    from principal_minors.sampling import random_special_element

    rng = random.Random(61)
    images = []
    for triple in combinations(range(1, 5), 3):
        for _ in range(8):
            g = random_special_element(4, rng)
            images.append(act(g, cayley_hyperdet(4, triple)))
    assert _poly_rank(images) == 20
    basis_polys = [e.polynomial for e in hd_basis(4)]
    assert _poly_rank(images + basis_polys) == 20


def _rank(rows):
    rows = [r[:] for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    pivot_row = 0
    for c in range(cols):
        pivot = next((r for r in range(pivot_row, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        pr = rows[pivot_row]
        inv = 1 / pr[c]
        rows[pivot_row] = [v * inv for v in pr]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


def test_golden_digest_n4():
    assert basis_digest(hd_basis(4)) == GOLDEN_N4_DIGEST


def test_golden_digest_n5():
    # n=6 is pinned by content below: rendering its 759,040 terms for the
    # document digest (sha256:a391247a...) takes longer than the build.
    assert basis_digest(hd_basis(5)) == GOLDEN_N5_DIGEST


def basis_content_digest(basis) -> str:
    """SHA-256 of each entry's triple, exponents, weight and its terms as
    sorted (encodings, coefficient) pairs, without rendering a document."""
    digest = hashlib.sha256()
    for entry in basis:
        terms = sorted((unpack_monomial(key), scalar_str(coeff))
                       for key, coeff in entry.polynomial._terms.items())
        digest.update(repr((entry.triple, entry.exponents, entry.weight, terms)).encode())
    return "sha256:" + digest.hexdigest()


def test_golden_content_n6():
    assert basis_content_digest(hd_basis(6)) == GOLDEN_N6_CONTENT


def test_split_weights_of_lowest_weight_hyperdet():
    # stripping (X^[1..1])^2 or X^[1..1] from the fully lowered
    # hyperdeterminant shifts its weight by (-2,..) resp. (-1,..)
    for n in (4, 5):
        f = cayley_hyperdet(n, (1, 2, 3), outside=1)
        a, b, _ = split_by_top_variable(f)
        assert weight_of(a) == tuple(-2 if k < 3 else 2 for k in range(n))
        assert weight_of(b) == tuple(-1 if k < 3 else 3 for k in range(n))


def test_pair_polynomial_weight_depends_on_triple_overlap():
    cases = [
        (5, (1, 2, 3), (1, 2, 4), (-3, -3, 1, 1, 5)),   # overlap 2
        (5, (1, 2, 3), (1, 4, 5), (-3, 1, 1, 1, 1)),    # overlap 1
        (6, (1, 2, 3), (4, 5, 6), (1, 1, 1, 1, 1, 1)),  # overlap 0
    ]
    for n, t1, t2, expected in cases:
        f = cayley_hyperdet(n, t1, outside=1)
        g = cayley_hyperdet(n, t2, outside=1)
        a_f, b_f, _ = split_by_top_variable(f)
        a_g, b_g, _ = split_by_top_variable(g)
        h = a_f * b_g - a_g * b_f
        assert sorted(weight_of(h)) == sorted(expected)

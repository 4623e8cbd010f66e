from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, prod

import pytest

from principal_minors import (
    MinorVector,
    SymmetricMatrix,
    TensorPolynomial,
    cayley_hyperdet,
    evaluate,
    hd_basis,
    hd_dimension,
    is_highest_weight,
    minor_vector,
    split_by_top_variable,
    weight_basis,
    weight_of,
)
from principal_minors import hyperdet
from principal_minors.documents import basis_digest
from principal_minors.hyperdet import BasisEntry
from principal_minors.polynomials import unpack_monomial
from principal_minors.scalars import normalize, scalar_str
from principal_minors.sampling import random_symmetric_matrix

from conftest import lowering

GOLDEN_N4_DIGEST = "sha256:c93bf807aca4926a00eb25a9c46f3e8c26335a70b54852addc28ad0221794825"
GOLDEN_N5_DIGEST = "sha256:14ee0386e43f4975f44dca40e4a4ef4a127598a236559a592b15e03268dd49d5"
GOLDEN_N6_CONTENT = "sha256:fc8ad13843417106fdab9906c7d0781650e5c4d039b729419ecd8513d5853b85"


# The 12 terms of the 2x2x2 hyperdeterminant: local bit patterns of the
# four variables in one monomial, and the coefficient.
CAYLEY_TERMS = (
    (((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)), 1),
    (((1, 0, 0), (1, 0, 0), (0, 1, 1), (0, 1, 1)), 1),
    (((0, 1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1)), 1),
    (((0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 0)), 1),
    (((0, 0, 0), (1, 0, 0), (0, 1, 1), (1, 1, 1)), -2),
    (((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1)), -2),
    (((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)), -2),
    (((1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 1)), -2),
    (((1, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 0)), -2),
    (((0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)), -2),
    (((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)), 4),
    (((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)), 4),
)


def _table_encodings(triple, patterns, base=0):
    t1, t2, t3 = triple
    return [base | b1 << (t1 - 1) | b2 << (t2 - 1) | b3 << (t3 - 1) for b1, b2, b3 in patterns]


def test_cayley_hyperdet_is_the_twelve_term_table():
    for n in (3, 4, 5):
        for triple in combinations(range(1, n + 1), 3):
            for outside in (0, 1):
                base = sum(1 << (k - 1) for k in range(1, n + 1) if k not in triple) * outside
                terms = [([(enc, 1) for enc in _table_encodings(triple, patterns, base)], coeff)
                         for patterns, coeff in CAYLEY_TERMS]
                assert cayley_hyperdet(n, triple, outside) == TensorPolynomial.from_terms(n, terms)


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
    for n in (4, 5):
        for entry in hd_basis(n):
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


def _lowered_per_triple(n, triples):
    """Reference for hd_basis: the entries of the given triples, each
    triple's hyperdeterminant lowered on its own, without the S_n action."""
    entries = []
    for triple in triples:
        complementary = [k for k in range(1, n + 1) if k not in triple]
        for vector in weight_basis(cayley_hyperdet(n, triple)):
            exps = tuple(vector.exponents[k - 1] for k in complementary)
            entries.append(BasisEntry(triple, exps, vector.polynomial, vector.weight))
    return entries


@pytest.mark.parametrize("n, triples", [
    (3, None), (4, None), (5, None),
    (6, [(1, 2, 3), (1, 5, 6), (2, 4, 6), (4, 5, 6)]),
])
def test_transported_basis_equals_per_triple_lowering(n, triples):
    triples = triples or list(combinations(range(1, n + 1), 3))
    transported = [e for e in hd_basis(n) if e.triple in triples]
    assert transported == _lowered_per_triple(n, triples)


def test_basis_lowers_one_triple_only(monkeypatch):
    calls = []

    def counting(hwv):
        calls.append(hwv)
        return weight_basis(hwv)

    monkeypatch.setattr(hyperdet, "weight_basis", counting)
    basis = hd_basis.__wrapped__(5)  # uncached, so the shared cache stays filled
    assert calls == [cayley_hyperdet(5, (1, 2, 3))]
    assert list(basis) == list(hd_basis(5))


def test_entry_content_is_the_signed_content_of_one_lowering():
    # every entry at n <= 5 (two of n = 5's have sigma < 0), 40 seeded
    # ones at n = 6: lower^e hwv_T = e! P_e = e! sigma * entry.  Observed,
    # not proved: |sigma| = 1 when every e_k is even, 2 otherwise
    rng = random.Random(57)
    for n in (3, 4, 5, 6):
        entries = list(enumerate(hd_basis(n)))
        for index, entry in (entries if n < 6 else rng.sample(entries, 40)):
            sigma = hyperdet.entry_content(n, index)
            e_factorial = prod(factorial(e) for e in entry.exponents)
            assert lowering(n, entry.triple, entry.exponents) == entry.polynomial * (
                sigma * e_factorial)
            assert abs(sigma) == (1 if all(e % 2 == 0 for e in entry.exponents) else 2), (n, index)


def shift_coefficient(n, triple, exponents):
    """P_e by direct expansion: the coefficient of s^e in hwv_T(u(s) . X),
    u(s) = [[1, s_k], [0, 1]] on the factors outside T.  Each variable
    X_t becomes the sum of s^B X_(t|B) over the sets B of outside
    factors, so in each term of the table e_k of the four variables take
    bit k, in C(4, e_k) ways."""
    outside = [k for k in range(1, n + 1) if k not in triple]
    terms = []
    for patterns, coeff in CAYLEY_TERMS:
        encodings = _table_encodings(triple, patterns)
        for chosen in product(*(combinations(range(4), e) for e in exponents)):
            moved = list(encodings)
            for k, positions in zip(outside, chosen):
                for v in positions:
                    moved[v] |= 1 << (k - 1)
            terms.append(([(enc, 1) for enc in moved], coeff))
    return TensorPolynomial.from_terms(n, terms)


def test_entry_is_the_shift_coefficient_over_its_signed_content():
    # every entry at n <= 5, 40 seeded ones at n = 6: P_e normalized is
    # the hd_basis entry, and P_e = sigma * entry
    rng = random.Random(60)
    for n in (3, 4, 5, 6):
        entries = list(enumerate(hd_basis(n)))
        for index, entry in (entries if n < 6 else rng.sample(entries, 40)):
            p_e = shift_coefficient(n, entry.triple, entry.exponents)
            sigma = hyperdet.entry_content(n, index)
            assert p_e.normalized() == entry.polynomial, (n, index)
            assert p_e == entry.polynomial * sigma and type(sigma) is int, (n, index)


def test_first_nonzero_entry_is_homogeneous_of_degree_4():
    # (index, value) at lambda z is (index, lambda^4 value), on integer and
    # rational z and lambda; a member answers None
    rng = random.Random(62)
    for n in (3, 4, 5):
        member = minor_vector(random_symmetric_matrix(n, rng), 1)
        assert hyperdet.first_nonzero_entry(member) is None
        for _ in range(6):
            z = MinorVector.from_values(n, [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 4)))
                                            for _ in range(1 << n)])
            if z.is_zero():
                continue
            lam = Fraction(rng.choice((-3, 2, 5)), rng.choice((1, 7)))
            index, value = hyperdet.first_nonzero_entry(z)
            moved = MinorVector.from_values(n, [lam * c for c in z.coords])
            assert hyperdet.first_nonzero_entry(moved) == (index, normalize(lam ** 4 * value))
            assert evaluate(hd_basis(n).entries[index].polynomial, z) == value


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

from __future__ import annotations

import random
from fractions import Fraction
from itertools import groupby
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from principal_minors import (
    GroupElement,
    MinorVector,
    TensorPolynomial,
    act,
    act_point,
    augment,
    cayley_hyperdet,
    evaluate,
    is_highest_weight,
    linear_subspace_vanishes,
    lower,
    polarize_eval,
    raise_,
    split_by_top_variable,
    tensor_product,
    weight_of,
)
from principal_minors.polynomials import (
    MAX_FACTORS,
    _substitute,
    apply_factor_matrix,
    pack_monomial,
    unpack_monomial,
)
from principal_minors.sampling import random_special_element

X = TensorPolynomial.variable


def random_poly(n, degree, rng, terms=5, exclude_top=False):
    limit = (1 << n) - 1 if exclude_top else (1 << n)
    acc = []
    for _ in range(terms):
        mono: dict[int, int] = {}
        for _ in range(degree):
            enc = rng.randrange(limit)
            mono[enc] = mono.get(enc, 0) + 1
        acc.append((tuple(mono.items()), rng.randint(-4, 4)))
    return TensorPolynomial.from_terms(n, acc)


def random_vector(n, rng, bound=5):
    return MinorVector.from_values(n, [rng.randint(-bound, bound) for _ in range(1 << n)])


# -- evaluate ----------------------------------------------------------

def test_evaluate_product_of_variables():
    p = X(2, 0) * X(2, 3)
    z = MinorVector.from_values(2, [1, 1, 3, -1])
    assert evaluate(p, z) == -1


def test_evaluate_hyperdet_on_member_and_nonmember():
    hd = cayley_hyperdet(3, (1, 2, 3))
    assert evaluate(hd, MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 0])) == 0
    assert evaluate(hd, MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 1])) == 5


def test_evaluate_dimension_mismatch():
    with pytest.raises(ValueError):
        evaluate(X(2, 0), MinorVector.from_values(3, [1] * 8))


def test_evaluate_exact_fractions():
    p = X(1, 0) * X(1, 0) + X(1, 1)
    z = MinorVector.from_values(1, [Fraction(1, 3), Fraction(2, 3)])
    assert evaluate(p, z) == Fraction(7, 9)


# -- monomial keys -----------------------------------------------------

def test_repeated_encoding_is_one_monomial():
    # a monomial listing one encoding twice is the square, not a second key
    p = TensorPolynomial.from_terms(1, [([(0, 1), (0, 1)], 1)])
    square = X(1, 0) ** 2
    assert p == square
    assert repr(p) == repr(square) == "1*X[0]^2"
    assert (p - square).is_zero()
    assert list(p.terms()) == [(((0, 2),), 1)]
    mixed = TensorPolynomial.from_terms(2, [([(3, 1), (0, 2), (3, 1)], 1)])
    assert mixed == X(2, 0) ** 2 * X(2, 3) ** 2


def grlex_key(key: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Reference graded-lex sort key: total degree, then the (encoding,
    exponent) pairs in ascending encoding order."""
    encodings = unpack_monomial(key)
    return (len(encodings), tuple((enc, len(list(run))) for enc, run in groupby(encodings)))


def random_monomials(n, rng):
    """A few random monomials on n factors, from a small pool of encodings
    so that encodings repeat within and across monomials; the largest
    encoding is always in the pool."""
    size = 1 << n
    pool = [size - 1] + [rng.randrange(size) for _ in range(3)]
    return [[rng.choice(pool) for _ in range(rng.randint(0, 6))] for _ in range(rng.randint(1, 12))]


def test_key_order_is_graded_lex():
    rng = random.Random(18)
    ties = 0
    for n in range(1, MAX_FACTORS + 1):
        for _ in range(40):
            keys = {pack_monomial(encodings) for encodings in random_monomials(n, rng)}
            assert sorted(keys) == sorted(keys, key=grlex_key)
            lead = max(keys, key=grlex_key)
            assert max(keys) == lead
            # the lead shares its degree and lowest encoding with another
            # key, so a REPEAT bit or a lower field decides the max
            degree, pairs = grlex_key(lead)
            ties += any(k != lead and grlex_key(k)[0] == degree
                        and grlex_key(k)[1][0][0] == pairs[0][0] for k in keys)
    assert ties > 50


def test_keys_round_trip_at_the_widest_field():
    # at n = 14 the largest encoding 2^14 - 1 fills a field with enc + 1 = 2^14
    # and, repeated, with the REPEAT bit above it
    top = (1 << MAX_FACTORS) - 1
    for encodings in ([top] * 5, [0, top, top], [0, 0, top - 1, top, top]):
        key = pack_monomial(encodings)
        assert unpack_monomial(key) == encodings
        assert key.bit_length() <= 16 * len(encodings)
        poly = TensorPolynomial(MAX_FACTORS, {key: 1})
        assert poly.degree() == len(encodings)
        assert list(poly.terms()) == [(grlex_key(key)[1], 1)]
    with pytest.raises(ValueError):
        TensorPolynomial.variable(MAX_FACTORS, top + 1)


def test_terms_lists_the_reference_pairs_in_graded_lex_order():
    rng = random.Random(19)
    for n in range(1, MAX_FACTORS + 1):
        for _ in range(10):
            terms = {pack_monomial(encodings): rng.randint(1, 9)
                     for encodings in random_monomials(n, rng)}
            expected = [(grlex_key(key)[1], terms[key]) for key in sorted(terms, key=grlex_key)]
            assert list(TensorPolynomial(n, terms).terms()) == expected


def test_normalized_sign_follows_the_graded_lex_leading_term():
    # reference: the graded-lex max over every key
    rng = random.Random(61)
    for n in range(1, 6):
        for _ in range(80):
            pool = rng.sample(range(1 << n), min(3, 1 << n))
            terms = [([(rng.choice(pool), rng.randint(1, 2)) for _ in range(rng.randint(0, 3))],
                      Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
                     for _ in range(rng.randint(1, 12))]
            poly = TensorPolynomial.from_terms(n, terms)
            if poly.is_zero():
                continue
            coeffs = poly._terms
            lead = max(coeffs, key=grlex_key)
            q = poly.normalized()._terms
            assert q.keys() == coeffs.keys()
            assert q[lead] > 0
            assert all(q[k] * coeffs[lead] == q[lead] * c for k, c in coeffs.items())
            assert all(Fraction(c).denominator == 1 for c in q.values())
            assert gcd(*(int(c) for c in q.values())) == 1


def test_content_is_the_signed_content_that_normalized_divides_by():
    rng = random.Random(62)
    for n in range(1, 7):
        for _ in range(40):
            poly = random_rational_poly(n, rng)
            content = poly.content()
            q = poly.normalized()
            assert q * content == poly
            lead = max(poly._terms, key=grlex_key)
            assert (content > 0) == (poly._terms[lead] > 0)
            assert q.content() == 1 and q.normalized() is q
            assert type(content) is (int if all(type(c) is int for c in poly._terms.values())
                                     else Fraction)
    zero = TensorPolynomial.zero(3)
    assert zero.content() == 1 and zero.normalized() is zero
    assert (-6 * X(2, 1) + 4 * X(2, 3) ** 2).content() == 2
    assert (Fraction(3, 4) * X(2, 0) - Fraction(9, 2) * X(2, 1) ** 2).content() == Fraction(-3, 4)


def test_exponents_are_unbounded_but_positive():
    assert list((X(1, 0) ** 32).terms()) == [(((0, 32),), 1)]
    assert (X(1, 0) ** 32).degree() == 32
    for exp in (0, -1):
        with pytest.raises(ValueError):
            TensorPolynomial.from_terms(1, [([(0, exp)], 1)])


def test_substitution_expands_a_power_binomially():
    # X[0] -> 2 X[0] + 3 X[1], so X[0]^20 has the 21 binomial terms
    image = apply_factor_matrix(X(1, 0) ** 20, 1, ((2, 3), (5, 7)))
    expected = {tuple(pair for pair in ((0, k), (1, 20 - k)) if pair[1]):
                comb(20, k) * 2**k * 3**(20 - k) for k in range(21)}
    assert dict(image.terms()) == expected


# -- weights -----------------------------------------------------------

def test_weight_of_examples():
    assert weight_of(cayley_hyperdet(4, (1, 2, 3))) == (0, 0, 0, -4)
    assert weight_of(X(3, 7) * X(3, 0)) == (0, 0, 0)
    with pytest.raises(ValueError):
        weight_of(X(2, 1) + X(2, 2))
    with pytest.raises(ValueError):
        weight_of(TensorPolynomial.zero(2))


# -- lowering and raising ----------------------------------------------

def test_lower_single_variable():
    assert lower(X(2, 0), 1) == X(2, 1)


def test_lower_square_leibniz_twice():
    p = X(1, 0) * X(1, 0)
    assert lower(lower(p, 1), 1) == 2 * (X(1, 1) * X(1, 1))


def test_lower_hyperdet_five_times_vanishes():
    p = cayley_hyperdet(4, (1, 2, 3))
    for step in range(4):
        p = lower(p, 4)
        assert not p.is_zero()
    assert lower(p, 4).is_zero()


def test_raise_annihilates_hyperdet():
    for n in (3, 4):
        hd = cayley_hyperdet(n, (1, 2, 3))
        for k in range(1, n + 1):
            assert raise_(hd, k).is_zero()
        assert is_highest_weight(hd)


def test_raise_examples():
    assert raise_(X(2, 1), 1) == X(2, 0)
    assert raise_(X(2, 0), 1).is_zero()


@given(st.integers(1, 3), st.integers(0, 10**6))
@settings(max_examples=30)
def test_leibniz_rule(n, seed):
    rng = random.Random(seed)
    p = random_poly(n, 2, rng, terms=3)
    q = random_poly(n, 2, rng, terms=3)
    for k in range(1, n + 1):
        assert lower(p * q, k) == lower(p, k) * q + p * lower(q, k)


def test_weight_bookkeeping_under_lowering_and_raising():
    p = cayley_hyperdet(4, (1, 2, 3))
    w = weight_of(p)
    for _ in range(3):
        q = lower(p, 4)
        assert weight_of(q) == tuple(wi + (2 if i == 3 else 0) for i, wi in enumerate(w))
        back = raise_(q, 4)
        assert weight_of(back) == w
        p, w = q, weight_of(q)


# -- group action ------------------------------------------------------

def test_identity_action():
    g = GroupElement.identity(3)
    hd = cayley_hyperdet(3, (1, 2, 3))
    z = MinorVector.from_values(3, range(8))
    assert act(g, hd) == hd
    assert act_point(g, z) == z


def test_permutation_swaps_tensor_blocks():
    rng = random.Random(12)
    z1 = random_vector(1, rng)
    z2 = random_vector(1, rng)
    g = GroupElement.from_permutation(2, [1, 0])
    assert act_point(g, tensor_product(z1, z2)) == tensor_product(z2, z1)


def test_hyperdet_invariance_under_special_group():
    rng = random.Random(13)
    hd = cayley_hyperdet(3, (1, 2, 3))
    for _ in range(6):
        g = random_special_element(3, rng)
        z = random_vector(3, rng)
        assert evaluate(hd, act_point(g, z)) == evaluate(hd, z)
        assert act(g, hd) == hd


def random_invertible_matrix(rng):
    while True:
        m = ((rng.randint(-3, 3), rng.randint(-3, 3)), (rng.randint(-3, 3), rng.randint(-3, 3)))
        if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
            return m


def test_duality_with_general_invertible_elements():
    rng = random.Random(14)
    for n in (2, 3, 4):
        for _ in range(4):
            mats = [random_invertible_matrix(rng) for _ in range(n)]
            g = GroupElement(n, tuple(mats), tuple(random_permutation(n, rng)))
            p = random_poly(n, 3, rng, terms=4)
            z = random_vector(n, rng)
            assert evaluate(act(g, p), act_point(g, z)) == evaluate(p, z)


def random_rational_poly(n, rng):
    """A non-homogeneous polynomial of degree 1..6 with rational
    coefficients, its encodings drawn from a small pool so that keys
    carry REPEAT fields."""
    pool = [rng.randrange(1 << n) for _ in range(3)] + [(1 << n) - 1]
    return TensorPolynomial.from_terms(n, [
        ([(rng.choice(pool), 1) for _ in range(rng.randint(1, 6))],
         Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)))
        for _ in range(rng.randint(1, 10))])


def random_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def permute_by_substitution(poly, perm):
    """Reference for the permutation part of act: substitute X^enc ->
    X^E, one single-term form per variable, where bit p of E is bit
    inverse[p] of enc."""
    n = poly.n
    inverse = [perm.index(p) for p in range(n)]
    forms = [((sum(1 << p for p in range(n) if enc >> inverse[p] & 1), 1),)
             for enc in range(1 << n)]
    return _substitute(poly, n, forms)


def test_act_permutes_factors_as_the_substitution_does():
    rng = random.Random(31)
    repeats = moved = 0
    for n in range(1, 7):
        for _ in range(25):
            poly = random_rational_poly(n, rng)
            perm = random_permutation(n, rng)
            image = act(GroupElement.from_permutation(n, perm), poly)
            assert image == permute_by_substitution(poly, perm)
            assert act(GroupElement.identity(n), poly) == poly
            repeats += any(count > 1 for pairs, _ in poly.terms() for _, count in pairs)
            moved += image != poly
    assert repeats > 100 and moved > 80


def test_act_with_matrices_then_permutation_matches_the_substitutions():
    # identity matrices on all but at most two factors, so degree 6
    # terms expand in at most two factors
    rng = random.Random(32)
    for n in range(1, 7):
        for _ in range(6):
            poly = random_rational_poly(n, rng)
            perm = random_permutation(n, rng)
            mats = [((1, 0), (0, 1))] * n
            for k in rng.sample(range(n), min(n, 2)):
                mats[k] = random_invertible_matrix(rng)
            expected = poly
            for k, ((a, b), (c, d)) in enumerate(mats, 1):
                det = a * d - b * c
                inverse = ((Fraction(d, det), Fraction(-b, det)),
                           (Fraction(-c, det), Fraction(a, det)))
                expected = apply_factor_matrix(expected, k, inverse)
            g = GroupElement(n, tuple(mats), tuple(perm))
            assert act(g, poly) == permute_by_substitution(expected, perm)


def test_act_point_permutes_coordinates():
    rng = random.Random(33)
    for n in range(1, 7):
        for _ in range(10):
            perm = random_permutation(n, rng)
            z = MinorVector.from_values(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                            for _ in range(1 << n)])
            moved = act_point(GroupElement.from_permutation(n, perm), z)
            for enc in range(1 << n):
                source = sum(1 << p for p in range(n) if enc >> perm[p] & 1)
                assert moved[enc] == z[source]


def test_singular_factor_matrix_rejected():
    with pytest.raises(ValueError):
        GroupElement(1, (((1, 1), (1, 1)),), (0,))


# -- polarization ------------------------------------------------------

def test_polarization_worked_example():
    # f(x1, x2) = x1^2 x2 on a 2-coordinate space
    f = X(1, 0) * X(1, 0) * X(1, 1)
    rng = random.Random(15)
    vs = [random_vector(1, rng) for _ in range(3)]
    v = [(z.coords[0], z.coords[1]) for z in vs]
    expected = 2 * (
        v[0][0] * v[1][0] * v[2][1]
        + v[0][0] * v[2][0] * v[1][1]
        + v[1][0] * v[2][0] * v[0][1]
    )
    assert polarize_eval(f, vs) == expected


def test_polarization_of_repeated_vector_is_direct_evaluation():
    rng = random.Random(16)
    for _ in range(10):
        p = random_poly(2, 4, rng)
        if p.is_zero():
            continue
        v = random_vector(2, rng)
        assert polarize_eval(p, [v] * p.degree()) == evaluate(p, v)


@given(st.integers(0, 10**6), st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@settings(max_examples=40)
def test_polarization_repeated_vector_property(seed, coords):
    p = random_poly(2, 3, random.Random(seed), terms=4)
    v = MinorVector.from_values(2, coords)
    assert polarize_eval(p, [v] * p.degree()) == evaluate(p, v)


def test_polarization_symmetric_in_inputs():
    rng = random.Random(17)
    p = random_poly(2, 3, rng)
    vs = [random_vector(2, rng) for _ in range(3)]
    base = polarize_eval(p, vs)
    assert polarize_eval(p, [vs[2], vs[0], vs[1]]) == base
    assert polarize_eval(p, [vs[1], vs[0], vs[2]]) == base


def test_polarization_wrong_count_rejected():
    p = X(1, 0) * X(1, 1)
    with pytest.raises(ValueError):
        polarize_eval(p, [MinorVector.from_values(1, [1, 1])])


def _reference_polarize_eval(poly, vectors):
    # The coefficient of t^beta by enumerating, for each degree-d monomial,
    # every assignment of its variable occurrences to the distinct vectors
    # with multiplicity profile beta.
    def assignments(counts, slots):
        if slots == 0:
            yield ()
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                for rest in assignments(counts, slots - 1):
                    yield (i,) + rest
                counts[i] += 1

    d = poly.degree()
    if d == 0:
        return dict(poly.terms()).get((), 0)
    distinct, counts = [], []
    for v in vectors:
        if v.coords in distinct:
            counts[distinct.index(v.coords)] += 1
        else:
            distinct.append(v.coords)
            counts.append(1)
    total = 0
    for pairs, coeff in poly.terms():
        occurrences = [enc for enc, exp in pairs for _ in range(exp)]
        if len(occurrences) != d:
            continue
        for assignment in assignments(counts, d):
            term = coeff
            for enc, vec_id in zip(occurrences, assignment):
                term *= distinct[vec_id][enc]
            total += term
    return total


def test_polarization_matches_assignment_enumeration():
    rng = random.Random(18)
    for _ in range(120):
        n = rng.randint(1, 3)
        p = sum((random_poly(n, k, rng, terms=2) for k in range(rng.randint(0, 4) + 1)),
                TensorPolynomial.zero(n))
        pool = [random_vector(n, rng) for _ in range(rng.randint(1, 3))]
        vs = [rng.choice(pool) for _ in range(p.degree())]
        if rng.random() < 0.3:
            vs = [MinorVector.from_values(n, [Fraction(c, 3) for c in v.coords]) for v in vs]
        assert polarize_eval(p, vs) == _reference_polarize_eval(p, vs)
    constant = TensorPolynomial.constant(2, Fraction(5, 7))
    assert polarize_eval(constant, []) == Fraction(5, 7)


def test_linear_subspace_vanishes_examples():
    hd = cayley_hyperdet(3, (1, 2, 3))
    basis = [MinorVector.unit(3, 0), MinorVector.unit(3, 1)]
    assert linear_subspace_vanishes(hd, basis)

    p = X(2, 0) * X(2, 3)
    assert not linear_subspace_vanishes(p, [MinorVector.unit(2, 0), MinorVector.unit(2, 3)])

    zero_vec = MinorVector.from_values(2, [0, 0, 0, 0])
    assert linear_subspace_vanishes(p, [zero_vec])

    with pytest.raises(ValueError):
        linear_subspace_vanishes(p, [])


def test_linear_subspace_vanishes_agrees_with_random_combinations():
    rng = random.Random(18)
    hd = cayley_hyperdet(3, (1, 2, 3))
    # span of minors of a fixed diagonal family: single basis vector case
    v = MinorVector.from_values(3, [1, 1, 1, 1, 1, 1, 1, 1])
    flagged = linear_subspace_vanishes(hd, [v])
    sampled = all(
        evaluate(hd, v.scale(rng.randint(1, 9))) == 0 for _ in range(10)
    )
    assert flagged == sampled


# -- splitting ---------------------------------------------------------

def test_split_hyperdet_n3():
    hd = cayley_hyperdet(3, (1, 2, 3))
    a, b, c = split_by_top_variable(hd)
    assert a == X(3, 0) * X(3, 0)
    expected_b = (
        -2 * (X(3, 0) * (X(3, 1) * X(3, 6) + X(3, 2) * X(3, 5) + X(3, 4) * X(3, 3)))
        + 4 * (X(3, 1) * X(3, 2) * X(3, 4))
    )
    assert b == expected_b
    top = X(3, 7)
    assert a * top * top + b * top + c == hd


def test_split_without_top_variable():
    p = X(2, 0) * X(2, 1)
    a, b, c = split_by_top_variable(p)
    assert a.is_zero() and b.is_zero() and c == p


def test_split_rejects_high_degree():
    top = X(2, 3)
    with pytest.raises(ValueError):
        split_by_top_variable(top * top * top)


@given(st.integers(0, 10**6))
@settings(max_examples=25)
def test_split_reconstitution_random(seed):
    rng = random.Random(seed)
    parts = [random_poly(3, 2, rng, terms=4, exclude_top=True) for _ in range(3)]
    top = X(3, 7)
    q = parts[0] * top * top + parts[1] * top + parts[2]
    a, b, c = split_by_top_variable(q)
    assert a * top * top + b * top + c == q
    assert (a, b, c) == (parts[0], parts[1], parts[2])


# -- augmentation ------------------------------------------------------

def test_augment_with_unit_form_matches_trailing_zero_hyperdet():
    hd3 = cayley_hyperdet(3, (1, 2, 3))
    assert augment(hd3, (1, 0)) == cayley_hyperdet(4, (1, 2, 3))


def test_polar_factorization_of_augmented_polynomials():
    rng = random.Random(19)
    for _ in range(10):
        f = random_poly(2, 4, rng, terms=4)
        if f.is_zero() or f.degree() != 4:
            continue
        gamma = (0, 0)
        while gamma == (0, 0):
            gamma = (rng.randint(-3, 3), rng.randint(-3, 3))
        big = augment(f, gamma)
        us = [random_vector(2, rng) for _ in range(4)]
        avs = [random_vector(1, rng) for _ in range(4)]
        zs = [tensor_product(u, a) for u, a in zip(us, avs)]
        gamma_values = 1
        for a in avs:
            gamma_values *= gamma[0] * a.coords[0] + gamma[1] * a.coords[1]
        assert polarize_eval(big, zs) == polarize_eval(f, us) * gamma_values

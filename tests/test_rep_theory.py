from __future__ import annotations

import random
from itertools import permutations
from math import comb, factorial, prod

import pytest

from principal_minors import (
    Partition,
    TensorPolynomial,
    cayley_hyperdet,
    character,
    decompose_symmetric_power,
    identify_isotypic,
    invariant_dim,
    lower,
    lower_to_lowest,
    sl2_dim,
    weight_basis,
    weight_of,
)
from principal_minors.rep_theory import cycle_type_class_size, partitions_of

from conftest import count_ssyt_two_rows, cycle_type_of

X = TensorPolynomial.variable


def count_syt(shape):
    """Standard Young tableaux by corner-removal recursion."""
    if not shape:
        return 1
    total = 0
    for i, part in enumerate(shape):
        below = shape[i + 1] if i + 1 < len(shape) else 0
        if part > below:
            smaller = tuple(p - 1 if k == i else p for k, p in enumerate(shape) if
                            (p - 1 if k == i else p) > 0)
            total += count_syt(smaller)
    return total


def test_partition_from_string_reads_ascii_digit_parts_only():
    assert Partition.from_string("3,1") == Partition.of(3, 1)
    assert Partition.from_string("007") == Partition.of(7)
    for text in ("1_0", "+2,2", "\u0662,\u0662", " 2 , 2 ", "2,", "2,,2", "", "-1", "\u00b2"):
        with pytest.raises(ValueError, match="parts must be nonempty ASCII digits"):
            Partition.from_string(text)


# -- characters --------------------------------------------------------

def test_trivial_character_is_constant_one():
    for d in (3, 4, 5, 6):
        top = Partition.of(d)
        for lam in partitions_of(d):
            assert character(top, Partition(lam)) == 1


def test_identity_class_value_counts_standard_tableaux():
    assert count_syt((2, 2)) == 2
    assert character(Partition.of(2, 2), Partition.of(1, 1, 1, 1)) == 2
    for shape in ((3, 1), (2, 1, 1), (4, 1), (3, 2)):
        d = sum(shape)
        identity = Partition((1,) * d)
        assert character(Partition(shape), identity) == count_syt(shape)


def test_sign_character():
    sign = Partition.of(1, 1, 1, 1)
    lam = Partition.of(2, 1, 1)
    # sign of a class with cycle type lam is (-1)^(d - #cycles)
    assert character(sign, lam) == (-1) ** (4 - 3) == -1


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character(Partition.of(2, 2), Partition.of(3))


def test_character_orthogonality_up_to_5():
    for d in (2, 3, 4, 5):
        parts = [Partition(p) for p in partitions_of(d)]
        for pi in parts:
            for rho in parts:
                total = sum(
                    cycle_type_class_size(lam) * character(pi, lam) * character(rho, lam)
                    for lam in parts
                )
                assert total == (factorial(d) if pi == rho else 0)


# -- multiplicities ----------------------------------------------------

def test_invariant_dim_examples():
    p22, p4 = Partition.of(2, 2), Partition.of(4)
    assert invariant_dim((p22, p22, p22)) == 1
    assert invariant_dim((p4, p4, p4, p4)) == 1
    assert invariant_dim((p22, p22)) == 1


def test_invariant_dim_brute_force_s4():
    # independent oracle: iterate all 24 permutations explicitly
    p22 = Partition.of(2, 2)
    total = 0
    for perm in permutations(range(4)):
        lam = Partition(cycle_type_of(perm))
        total += character(p22, lam) ** 3
    assert total % factorial(4) == 0
    assert invariant_dim((p22, p22, p22)) == total // factorial(4)


def test_invariant_dim_size_mismatch():
    with pytest.raises(ValueError):
        invariant_dim((Partition.of(2, 2), Partition.of(3)))


def test_appending_one_row_partition_preserves_multiplicity():
    rng = random.Random(21)
    for _ in range(50):
        d = rng.choice((3, 4, 5))
        pool = [Partition(p) for p in partitions_of(d)]
        tup = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        assert invariant_dim(tup) == invariant_dim(tup + (Partition.of(d),))


# -- decomposition -----------------------------------------------------

def test_decompose_single_space():
    out = decompose_symmetric_power(4, 1)
    assert len(out) == 1
    assert out[0].partitions == (Partition.of(4),)
    assert out[0].multiplicity == 1


def test_decompose_contains_2_2_cubed_with_multiplicity_one():
    out = decompose_symmetric_power(4, 3)
    match = [sm for sm in out if all(p == Partition.of(2, 2) for p in sm.partitions)]
    assert len(match) == 1 and match[0].multiplicity == 1


def test_dimension_conservation():
    for n in (2, 3):
        total = sum(
            sm.multiplicity * prod(sl2_dim(p) for p in sm.partitions)
            for sm in decompose_symmetric_power(4, n)
        )
        assert total == comb(2**n + 3, 4)


def test_sl2_dim_examples_and_tableau_oracle():
    assert sl2_dim(Partition.of(2, 2)) == 1
    assert sl2_dim(Partition.of(4)) == 5
    assert sl2_dim(Partition.of(4, 1)) == 4
    for shape in ((2, 2), (4,), (4, 1), (5,), (3, 2)):
        assert sl2_dim(Partition(shape)) == count_ssyt_two_rows(shape)
    with pytest.raises(ValueError):
        sl2_dim(Partition.of(2, 1, 1))


# -- isotypic identification -------------------------------------------

def test_identify_isotypic_examples():
    match = identify_isotypic(4, (0, 0, 0, -4))
    assert match.partitions == (
        Partition.of(2, 2), Partition.of(2, 2), Partition.of(2, 2), Partition.of(4)
    )
    assert match.multiplicity == 1 and not match.ambiguous

    match = identify_isotypic(5, (-3, -3, -3, -5))
    assert match.partitions == (
        Partition.of(4, 1), Partition.of(4, 1), Partition.of(4, 1), Partition.of(5)
    )

    match = identify_isotypic(4, (-4, -4))
    assert match.partitions == (Partition.of(4), Partition.of(4))


def test_identify_isotypic_validation():
    with pytest.raises(ValueError):
        identify_isotypic(4, (1, 0))  # parity
    with pytest.raises(ValueError):
        identify_isotypic(4, (-6, 0))  # out of range
    with pytest.raises(ValueError):
        identify_isotypic(4, (2, 0))  # lowest-weight convention not negated


# -- lowering algorithm ------------------------------------------------

def test_lower_to_lowest_single_monomial():
    p = X(3, 0)  # X^[0,0,0]
    lowest, weight = lower_to_lowest(p)
    assert lowest == X(3, 7)
    assert weight == (1, 1, 1)


def test_lower_to_lowest_hyperdet():
    lowest, weight = lower_to_lowest(cayley_hyperdet(4, (1, 2, 3)))
    assert weight == (0, 0, 0, 4)
    for k in range(1, 5):
        assert lower(lowest, k).is_zero()
    assert lowest.normalized() == cayley_hyperdet(4, (1, 2, 3), outside=1).normalized()


def test_lower_to_lowest_rejects_zero():
    with pytest.raises(ValueError):
        lower_to_lowest(TensorPolynomial.zero(2))


# -- weight basis ------------------------------------------------------

def test_weight_basis_standard_module():
    out = weight_basis(X(1, 0))
    assert [v.polynomial for v in out] == [X(1, 0), X(1, 1)]
    assert [v.weight for v in out] == [(-1,), (1,)]


def test_weight_basis_hyperdet_box_sizes():
    hd4 = cayley_hyperdet(4, (1, 2, 3))
    out = weight_basis(hd4)
    assert len(out) == 5
    hd5 = cayley_hyperdet(5, (1, 2, 3))
    out5 = weight_basis(hd5)
    assert len(out5) == 25


def test_weight_basis_distinct_weights_within_summand():
    hd5 = cayley_hyperdet(5, (1, 2, 3))
    out5 = weight_basis(hd5)
    weights = [v.weight for v in out5]
    assert len(set(weights)) == len(weights)


def test_weight_basis_rejects_non_highest_weight():
    p = lower(cayley_hyperdet(4, (1, 2, 3)), 4)
    with pytest.raises(ValueError):
        weight_basis(p)


def test_weight_basis_normalization_is_idempotent():
    hd4 = cayley_hyperdet(4, (1, 2, 3))
    for vec in weight_basis(hd4):
        assert vec.polynomial.normalized() == vec.polynomial

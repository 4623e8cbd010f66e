"""Acceptance suite: one test per criterion, one printed line each.

Run with  pytest tests/test_acceptance.py -v -s  to see the PASS lines;
every tolerance is pinned here (exact equality unless a time bound is
stated).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, prod

import pytest

from principal_minors import (
    MinorVector,
    Partition,
    SymmetricMatrix,
    cayley_hyperdet,
    decompose_symmetric_power,
    evaluate,
    hd_basis,
    hd_dimension,
    identify_isotypic,
    invariant_dim,
    is_member,
    lower_to_lowest,
    minor_vector,
    polarize_eval,
    reconstruct,
    reversed_minors,
    sign_flip_profile,
    sl2_dim,
    split_by_top_variable,
    tensor_product,
    weight_basis,
)
from principal_minors.hyperdet import first_nonzero_entry
from principal_minors.polynomials import TensorPolynomial, act_point, augment
from principal_minors.sampling import (
    random_special_element,
    random_symmetric_matrix,
)

from conftest import cycle_type_of, random_rational_symmetric


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def matrix_pool():
    """The shared 100 random integer matrices per n (entries in [-9, 9])."""
    rng = random.Random(1009)
    return {n: [random_symmetric_matrix(n, rng) for _ in range(100)] for n in (4, 5, 6)}


def test_criterion_1_module_dimensions():
    hd_basis.cache_clear()
    sizes = {}
    for n in (3, 4):
        sizes[n] = len(hd_basis(n))
    start = time.perf_counter()
    sizes[5] = len(hd_basis(5))
    elapsed5 = time.perf_counter() - start
    ok = (
        sizes == {3: 1, 4: 20, 5: 250}
        and all(sizes[n] == comb(n, 3) * 5 ** (n - 3) == hd_dimension(n) for n in sizes)
        and elapsed5 < 30.0
    )
    report(1, ok, f"basis sizes {sizes}, n=5 generation {elapsed5:.2f}s (< 30s)")


def test_criterion_2_multiplicity_one():
    p22 = Partition.of(2, 2)
    fast = invariant_dim((p22, p22, p22))
    brute = sum(
        character_cubed(perm) for perm in permutations(range(4))
    )
    brute, rem = divmod(brute, factorial(4))
    ok = fast == 1 and rem == 0 and brute == 1
    report(2, ok, f"invariant_dim=({fast}) brute-force over 24 permutations=({brute})")


def character_cubed(perm):
    from principal_minors import character

    lam = Partition(cycle_type_of(perm))
    return character(Partition.of(2, 2), lam) ** 3


def test_criterion_3_ideal_membership(matrix_pool):
    start = time.perf_counter()
    checked = 0
    for n in (4, 5):
        basis = hd_basis(n)
        for a in matrix_pool[n]:
            z = minor_vector(a, 1)
            for entry in basis:
                value = evaluate(entry.polynomial, z)
                if value != 0:
                    report(3, False, f"nonzero evaluation {value} at n={n}")
                checked += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    report(3, ok, f"{checked} exact zero evaluations over 100 matrices per n in "
                  f"{{4,5}}, {elapsed:.2f}s (< 60s)")


def test_criterion_4_top_coordinate_rigidity(matrix_pool):
    rejected = 0
    total = 0
    for n in (4, 5):
        basis = hd_basis(n)
        top = (1 << n) - 1
        for a in matrix_pool[n]:
            z = minor_vector(a, 1)
            coords = list(z.coords)
            coords[top] += 1
            bad = MinorVector.from_values(n, coords)
            total += 1
            if any(evaluate(e.polynomial, bad) != 0 for e in basis):
                rejected += 1
    ok = rejected == total == 200
    report(4, ok, f"{rejected}/{total} perturbed vectors rejected (100% required)")


def test_criterion_5_sign_flip_profiles():
    start = time.perf_counter()
    expected = {4: {11, 13, 16}, 5: {16, 19, 20, 21, 23, 25, 32}}
    found = {}
    rng = random.Random(5)
    for n in (4, 5):
        for _ in range(5):
            a = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
            profile = sign_flip_profile(a)
            if profile.distinct_counts == expected[n]:
                found[n] = profile.distinct_counts
                break
    elapsed = time.perf_counter() - start
    ok = (
        found.get(4) == expected[4]
        and found.get(5) == expected[5]
        and 15 not in found.get(4, {15})
        and 31 not in found.get(5, {31})
        and elapsed < 60.0
    )
    report(5, ok, f"profiles {found} with 15/31 absent, {elapsed:.2f}s (< 60s)")


def test_criterion_6_reconstruction_round_trip(matrix_pool):
    successes = 0
    total = 0
    for n in (4, 5, 6):
        for a in matrix_pool[n]:
            total += 1
            z = minor_vector(a, 1)
            b = reconstruct(z, "exact")
            if minor_vector(b, 1) != z:
                continue
            if _sign_conjugate_of(a, b) is None:
                continue
            successes += 1
    ok = successes == total == 300
    report(6, ok, f"{successes}/{total} exact round-trips with A' = D A D (100% required)")


def _sign_conjugate_of(a: SymmetricMatrix, b: SymmetricMatrix):
    for mask in range(1 << a.n):
        signs = [1 if (mask >> i) & 1 else -1 for i in range(a.n)]
        if a.conjugate_signs(signs) == b:
            return signs
    return None


def test_criterion_7_pairwise_lowest_weights():
    checked = 0
    for n in (4, 5):
        triples = list(combinations(range(1, n + 1), 3))
        target_weight = sorted([3, 3, 3] + [5] * (n - 3))
        target_partitions = sorted([str(Partition.of(4, 1))] * 3
                                   + [str(Partition.of(5))] * (n - 3))
        for t1, t2 in combinations(triples, 2):
            f = cayley_hyperdet(n, t1, outside=1)
            g = cayley_hyperdet(n, t2, outside=1)
            a_f, b_f, _ = split_by_top_variable(f)
            a_g, b_g, _ = split_by_top_variable(g)
            h = a_f * b_g - a_g * b_f
            lowest, weight = lower_to_lowest(h)
            if sorted(weight) != target_weight:
                report(7, False, f"weight {weight} for triples {t1},{t2} at n={n}")
            match = identify_isotypic(5, tuple(-w for w in weight))
            if sorted(str(p) for p in match.partitions) != target_partitions:
                report(7, False, f"isotypic {match.partitions} for {t1},{t2} at n={n}")
            checked += 1
    report(7, checked == 6 + 45,
           f"{checked} triple pairs: lowest weight perm of (3,3,3,5,..), "
           f"isotypic ((4,1),(4,1),(4,1),(5),..)")


def test_criterion_8_structural_laws():
    rng = random.Random(88)
    # block law
    for _ in range(20):
        p = random_rational_symmetric(rng.randint(1, 3), rng)
        q = random_rational_symmetric(rng.randint(1, 3), rng)
        assert minor_vector(p.block_diag(q), 1) == tensor_product(
            minor_vector(p, 1), minor_vector(q, 1)
        )
    # inverse reversal
    done = 0
    while done < 20:
        n = rng.randint(2, 5)
        a = random_rational_symmetric(n, rng)
        if a.det() == 0:
            continue
        assert reversed_minors(a) == minor_vector(a.inverse(), 1)
        done += 1
    # gauge invariance
    for _ in range(20):
        n = rng.randint(2, 5)
        a = random_rational_symmetric(n, rng)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        t = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        assert minor_vector(a.conjugate_signs(signs), t) == minor_vector(a, t)
    # group invariance of verdicts: 20 random determinant-1 elements with
    # permutations, half at n=4, half at n=5
    moves = 0
    for n in (4, 5):
        member = minor_vector(random_symmetric_matrix(n, rng), 1)
        coords = list(member.coords)
        coords[-1] += 1
        non_member = MinorVector.from_values(n, coords)
        assert is_member(member, "basis").verdict == "member"
        assert is_member(non_member, "basis").verdict == "non-member"
        for _ in range(10):
            g = random_special_element(n, rng, permute=True)
            moved = act_point(g, member)
            assert is_member(moved, "basis").verdict == "member"
            # the verdict comes from a verified reconstruction; the module vanishes too
            assert first_nonzero_entry(moved) is None
            assert is_member(act_point(g, non_member), "basis").verdict == "non-member"
            moves += 1
    report(8, moves == 20,
           "block law, inverse reversal, gauge invariance, verdict invariance "
           f"under {moves} group moves: all exact")


def test_criterion_9_polarization_identities():
    rng = random.Random(99)
    checked = 0
    while checked < 50:
        f = _random_degree4_poly(2, rng)
        if f.is_zero() or f.degree() != 4:
            continue
        # direct-evaluation identity
        v = MinorVector.from_values(2, [rng.randint(-4, 4) for _ in range(4)])
        assert polarize_eval(f, [v] * 4) == evaluate(f, v)
        # factorization of the polarization of an augmented polynomial
        gamma = (0, 0)
        while gamma == (0, 0):
            gamma = (rng.randint(-3, 3), rng.randint(-3, 3))
        big = augment(f, gamma)
        us = [MinorVector.from_values(2, [rng.randint(-4, 4) for _ in range(4)])
              for _ in range(4)]
        avs = [MinorVector.from_values(1, [rng.randint(-4, 4), rng.randint(-4, 4)])
               for _ in range(4)]
        zs = [tensor_product(u, a) for u, a in zip(us, avs)]
        gamma_values = prod(gamma[0] * a.coords[0] + gamma[1] * a.coords[1] for a in avs)
        assert polarize_eval(big, zs) == polarize_eval(f, us) * gamma_values
        checked += 1
    report(9, checked == 50,
           f"{checked} random degree-4 polynomials: F(v) = polarized F(v,..,v) and "
           "augmented factorization, exact")


def _random_degree4_poly(n, rng):
    acc = []
    for _ in range(5):
        mono: dict[int, int] = {}
        for _ in range(4):
            enc = rng.randrange(1 << n)
            mono[enc] = mono.get(enc, 0) + 1
        acc.append((tuple(mono.items()), rng.randint(-4, 4)))
    return TensorPolynomial.from_terms(n, acc)


def test_criterion_10_dimension_conservation():
    totals = {}
    for n in (2, 3):
        totals[n] = sum(
            sm.multiplicity * prod(sl2_dim(p) for p in sm.partitions)
            for sm in decompose_symmetric_power(4, n)
        )
    ok = totals == {2: comb(7, 4), 3: comb(11, 4)} == {2: 35, 3: 330}
    report(10, ok, f"sum of mult x dim = {totals}, expected C(2^n+3,4) = {{2: 35, 3: 330}}")

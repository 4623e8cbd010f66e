from __future__ import annotations

import random
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from principal_minors import (
    MinorVector,
    SymmetricMatrix,
    hyperdet,
    is_member,
    membership,
    minor_map,
    minor_vector,
    reconstruct,
    sign_flip_profile,
)
from principal_minors.hyperdet import cayley_hyperdet, hd_basis
from principal_minors.membership import (
    BasisViolation,
    MatrixCertificate,
    MembershipReport,
    MinorMismatch,
    NoConsistentSigns,
    NonMemberError,
    NonSquareEntryError,
    ReconstructionError,
    SymmetrizableCertificate,
    ZeroLeadingCoordinateError,
)
from principal_minors.matrices import det_exact
from principal_minors.polynomials import GroupElement, act_point, evaluate
from principal_minors.sampling import random_special_element, random_symmetric_matrix
from principal_minors.scalars import normalize, sqrt_exact

from conftest import laplace_det, laplace_minors, lowering, symmetric_rows_strategy

TRIDIAGONAL = SymmetricMatrix.from_rows(
    [[1, 1, 0, 0], [1, 2, 1, 0], [0, 1, 3, 1], [0, 0, 1, 4]]
)


def perturb(z: MinorVector, encoding: int, delta=1) -> MinorVector:
    coords = list(z.coords)
    coords[encoding] = coords[encoding] + delta
    return MinorVector.from_values(z.n, coords)


# -- is_member ----------------------------------------------------------

def test_member_example_both_methods():
    z = minor_vector(TRIDIAGONAL, 1)
    for method in ("basis", "reconstruct"):
        report = is_member(z, method)
        assert report.verdict == "member"
        assert report.exit_code == 0


def test_top_perturbation_is_rejected_with_certificate():
    z = perturb(minor_vector(TRIDIAGONAL, 1), (1 << 4) - 1)
    report = is_member(z, "basis")
    assert report.verdict == "non-member"
    assert isinstance(report.certificate, BasisViolation)
    assert report.certificate.value != 0
    assert report.exit_code == 1


def test_leading_unit_vector_is_member():
    z = MinorVector.unit(4, 0)
    assert is_member(z, "basis").verdict == "member"
    report = is_member(z, "reconstruct")
    assert report.verdict == "member"
    assert isinstance(report.certificate, MatrixCertificate)
    assert report.certificate.matrix == SymmetricMatrix.zero(4)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        is_member(MinorVector.from_values(2, [0, 0, 0, 0]))


def test_small_n_member_unconditionally():
    z1 = MinorVector.from_values(1, [0, 5])
    assert is_member(z1, "basis").verdict == "member"
    z2 = MinorVector.from_values(2, [1, 2, 3, 100])  # not minors of any real matrix? still member over C
    assert is_member(z2, "basis").verdict == "member"
    assert is_member(z2, "reconstruct").verdict == "member"


def test_small_n_reconstruct_has_checkable_certificate():
    # a_12^2 = 2: the certificate is the rational B, not a symmetric matrix
    z = MinorVector.from_values(2, [1, 1, 1, -1])
    report = is_member(z, "reconstruct")
    assert (report.verdict, report.chart_moves) == ("member", 0)
    assert isinstance(report.certificate, SymmetrizableCertificate)
    assert_symmetrizable_certificate(z, report.certificate.rows, report.certificate.scale)
    # z_[0..0] = 0 at n = 2 takes the chart move like any other size
    for z in (MinorVector.from_values(2, [0, 1, 2, 0]), MinorVector.from_values(2, [0, 1, 1, 0]),
              MinorVector.from_values(1, [0, 3])):
        report = is_member(z, "reconstruct")
        assert (report.verdict, report.chart_moves) == ("member", 1)
        cert = report.certificate
        rows = cert.rows if isinstance(cert, SymmetrizableCertificate) else cert.matrix.entries
        assert_symmetrizable_certificate(weyl_moved(z), rows, cert.scale)
    assert isinstance(is_member(MinorVector.from_values(2, [0, 1, 1, 0]), "reconstruct")
                      .certificate, MatrixCertificate)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        is_member(MinorVector.unit(3, 0), "guess")
    # n <= 2 vectors are members whatever the method, but the method is
    # still checked
    with pytest.raises(ValueError, match="unknown method"):
        is_member(MinorVector.unit(2, 0), "bogus")


def weyl_moved(z: MinorVector) -> MinorVector:
    """J_I . z through the group action, for J = [[0, 1], [-1, 0]] on
    every factor of the first nonzero coordinate I and the identity on
    the others; is_member writes it as a signed permutation."""
    first = next(enc for enc, c in enumerate(z.coords) if c != 0)
    weyl = GroupElement.from_matrices(
        [((0, 1), (-1, 0)) if first >> k & 1 else ((1, 0), (0, 1)) for k in range(z.n)])
    return act_point(weyl, z)


def test_chart_moves_reach_open_chart():
    rng = random.Random(44)
    points = [
        MinorVector.unit(4, 15),  # only the top coordinate
        MinorVector.from_values(3, [0, 1, 1, 0, 1, 0, 0, 0]),
        minor_vector(SymmetricMatrix.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 5]]), 0),
        minor_vector(TRIDIAGONAL, 0),
    ]
    # members with a_11 = 0: J on factor 1 moves the zero z_[1,0,..] to the front
    for n in (3, 4, 5):
        rows = random_symmetric_matrix(n, rng, nonzero_offdiag=True).rows()
        rows[0][0] = 0
        z = minor_vector(SymmetricMatrix.from_rows(rows), 1)
        flip = GroupElement.from_matrices([((0, 1), (-1, 0))] + [((1, 0), (0, 1))] * (n - 1))
        points.append(act_point(flip, z))
    for z in points:
        assert z[0] == 0
        report = is_member(z, "reconstruct")
        assert report.verdict == "member", z
        assert report.chart_moves == 1
        cert = report.certificate
        assert isinstance(cert, MatrixCertificate)
        assert minor_vector(cert.matrix, 1).scale(cert.scale) == weyl_moved(z)


def test_method_agreement_on_mixed_inputs():
    # 200 inputs: per n in {4, 5}, 50 members and 50 single-coordinate
    # perturbations at |I| >= 3 (where exact reconstruction is decisive).
    rng = random.Random(31)
    for n in (4, 5):
        high_encodings = [e for e in range(1 << n) if bin(e).count("1") >= 3]
        for k in range(50):
            a = random_symmetric_matrix(n, rng)
            z = minor_vector(a, 1)
            if k % 2 == 0:
                probe = z
            else:
                probe = perturb(z, rng.choice(high_encodings), rng.choice((1, -1, 2)))
            verdict_basis = is_member(probe, "basis").verdict
            verdict_rec = is_member(probe, "reconstruct").verdict
            assert verdict_basis == verdict_rec
            # a member's basis verdict is reconstruct's; the module scan is asked apart
            assert (hyperdet.first_nonzero_entry(probe) is None) == (verdict_basis == "member")
            if probe is z:
                assert verdict_basis == "member"


def test_low_order_perturbations_basis_and_reconstruct_agree():
    rng = random.Random(32)
    a = random_symmetric_matrix(4, rng, nonzero_offdiag=True)
    z = minor_vector(a, 1)
    assert hyperdet.first_nonzero_entry(z) is None
    probe = perturb(z, (1 << 0) | (1 << 1))  # an |I| = 2 coordinate
    assert is_member(probe, "basis").verdict == "non-member"
    assert is_member(probe, "reconstruct").verdict == "non-member"


def test_group_invariance_of_verdicts():
    rng = random.Random(33)
    member = minor_vector(TRIDIAGONAL, 1)
    non_member = perturb(member, 15)
    for _ in range(6):
        g = random_special_element(4, rng, permute=True)
        assert is_member(act_point(g, member), "basis").verdict == "member"
        assert hyperdet.first_nonzero_entry(act_point(g, member)) is None
        assert is_member(act_point(g, non_member), "basis").verdict == "non-member"


def test_group_invariance_of_reconstruct_and_prefilter_verdicts():
    # a moved member has rational coordinates with large denominators, so
    # its candidate matrix has rational rows, which the kernel normalizes
    rng = random.Random(54)
    for n in (5, 8, 11, 14):
        member = minor_vector(random_symmetric_matrix(n, rng, nonzero_offdiag=True), 1)
        raised = perturb(member, (1 << n) - 1)
        for z, verdicts in ((member, ("member", "indeterminate")),
                            (raised, ("non-member", "non-member"))):
            g = random_special_element(n, rng, permute=True)
            moved = act_point(g, z)
            assert any(Fraction(c).denominator > 1 for c in moved.coords)
            for method, verdict in zip(("reconstruct", "prefilter"), verdicts):
                assert is_member(z, method).verdict == verdict
                assert is_member(moved, method).verdict == verdict
    # the basis verdict at n <= 8.  The dense graph's cycle steps read the
    # triangles through vertex 1 only, so a copy with triple {2, 3, 4}
    # raised, of an integer member or of a moved, rational one, is named
    # by its first mismatch at |I| = 3
    for n in (6, 7, 8):
        member = minor_vector(random_symmetric_matrix(n, rng, nonzero_offdiag=True), 1)
        rational = act_point(random_special_element(n, rng, permute=True), member)
        triples = [perturb(y, 0b1110) for y in (member, rational)]
        for y in triples:
            cert = is_member(y, "reconstruct").certificate
            assert (cert.check, cert.encoding) == ("triple", 0b1110)
        points = [(member, "member"), (rational, "member"),
                  (perturb(member, (1 << n) - 1), "non-member")]
        for z, verdict in points + [(y, "non-member") for y in triples]:
            g = random_special_element(n, rng, permute=True)
            assert is_member(z, "basis").verdict == verdict
            assert is_member(act_point(g, z), "basis").verdict == verdict


# -- prefilter ----------------------------------------------------------

def test_prefilter_accepts_members_n5():
    rng = random.Random(34)
    for _ in range(3):
        z = minor_vector(random_symmetric_matrix(5, rng), 1)
        assert is_member(z, "prefilter").verdict == "indeterminate"


def test_prefilter_soundness_members_always_pass():
    rng = random.Random(35)
    for n in (3, 4, 5):
        for _ in range(4):
            z = minor_vector(random_symmetric_matrix(n, rng), 1)
            assert is_member(z, "basis").verdict == "member"
            assert is_member(z, "prefilter").verdict == "indeterminate"


def test_prefilter_rejects_bad_half():
    bad_half = [1, 1, 1, 0, 1, 0, 0, 1]  # hyperdeterminant value 5
    coords = bad_half + [0] * 8  # x4^0-half holds the bad 3-factor vector
    z = MinorVector.from_values(4, coords)
    report = is_member(z, "prefilter")
    assert report.verdict == "non-member"
    assert report.certificate.value == 5


def test_prefilter_peak_memory_n9():
    # the prefilter holds one shifted integer copy of z, about 38 KB
    z = minor_vector(random_symmetric_matrix(9, random.Random(36)), 1)
    tracemalloc.start()
    try:
        assert is_member(z, "prefilter").verdict == "indeterminate"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256_000


HYPERDET_3 = cayley_hyperdet(3, (1, 2, 3))  # built once: cayley_hyperdet is not memoized


def reference_prefilter_violation(z: MinorVector):
    """The earlier recursive prefilter: split off one factor at a time,
    skip all-zero halves, and evaluate the hyperdeterminant at n = 3."""
    n = z.n
    if n < 3:
        return None
    if n == 3:
        value = evaluate(HYPERDET_3, z)
        return value if value != 0 else None
    for factor in range(1, n + 1):
        for bit_value in (0, 1):
            bit = 1 << (factor - 1)
            low_mask = bit - 1
            half = MinorVector(n - 1, tuple(
                z.coords[((enc & ~low_mask) << 1) | (bit if bit_value else 0) | (enc & low_mask)]
                for enc in range(1 << (n - 1))
            ))
            if half.is_zero():
                continue
            violation = reference_prefilter_violation(half)
            if violation is not None:
                return violation
    return None


def check_prefilter_report(z: MinorVector, report) -> None:
    """A witness is checked from z and the report alone: one act_point and
    the n-factor hyperdeterminant of its triple, outside bits 0; the value
    has the reference's type, int or Fraction."""
    if report.verdict == "indeterminate":
        assert report.certificate is None
        return
    assert report.verdict == "non-member"
    witness = report.certificate
    u = GroupElement.from_matrices([((1, s_k), (0, 1)) for s_k in witness.s])
    assert witness.value != 0
    reference = evaluate(cayley_hyperdet(z.n, witness.triple), act_point(u, z))
    assert reference == witness.value and type(reference) is type(witness.value)


def test_prefilter_rejects_whatever_the_slices_reject():
    # the slices are corner coefficients of the witness polynomial, so the
    # witness rejects every vector the recursive reference rejects
    rng = random.Random(44)
    pick = random.Random(46)  # for the rational probes, so rng's stream is kept
    bad = [1, 1, 1, 0, 1, 0, 0, 1]  # hyperdeterminant value 5
    for n in range(3, 8):
        full = (1 << n) - 1
        z = minor_vector(random_symmetric_matrix(n, rng), 1)
        lower = minor_vector(random_symmetric_matrix(n - 1, rng), 1)
        probes = [
            z,
            perturb(z, full),
            perturb(z, rng.randrange(1, full), rng.choice((1, -1, 2))),
            perturb(z, rng.randrange(1, full), rng.choice((1, -1, 2))),
            MinorVector.from_values(n, [rng.randint(-3, 3) for _ in range(1 << n)]),
            *(MinorVector.from_values(n, [rng.choice((1, -1, 2)) if rng.random() < 0.3 else 0
                                          for _ in range(1 << n)])
              for _ in range(8)),
            # all-zero halves: the bad 3-factor vector on the lowest slice
            MinorVector.from_values(n, bad + [0] * (full + 1 - 8)),
            # the x_n = 0 half is zero, the other half is a perturbed member
            MinorVector.from_values(
                n, [0] * (1 << (n - 1)) + list(perturb(lower, (full >> 1) - 1).coords)),
            # rational points: a member over 6, and one over 7 moved off Z_n by 1/3
            MinorVector.from_values(n, [Fraction(c, 6) for c in z.coords]),
            perturb(MinorVector.from_values(n, [Fraction(c, 7) for c in z.coords]),
                    pick.randrange(full + 1), Fraction(1, 3)),
        ]
        for probe in probes:
            if probe.is_zero():
                continue
            report = is_member(probe, "prefilter")
            if reference_prefilter_violation(probe) is not None:
                assert report.verdict == "non-member"
            check_prefilter_report(probe, report)


def test_prefilter_value_is_the_slice_form_at_its_shifts():
    # the prefilter reads at s the form whose coefficients the basis check
    # reads: on triple T its value is (g/L)^4 sum_e c_e s^e, c_e the
    # coefficients of _slice_form at the primitive integer point, and its
    # triple is the first, in lex order, whose form is nonzero at s
    rng = random.Random(48)
    types = set()
    for n in range(4, 8):
        rng_n = random.Random(n)
        s = tuple(rng_n.getrandbits(32) for _ in range(n))
        member = minor_vector(random_symmetric_matrix(n, rng), 1)
        over_7 = MinorVector.from_values(n, [Fraction(c, 7) for c in member.coords])
        vectors = [
            member,
            perturb(member, (1 << n) - 1),
            perturb(member, rng.randrange(1, 1 << n), rng.choice((1, -1, 2))),
            MinorVector.from_values(n, [Fraction(c, 6) for c in member.coords]),
            perturb(over_7, rng.randrange(1 << n), Fraction(1, 3)),
            MinorVector.from_values(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                        for _ in range(1 << n)]),
        ]
        for z in vectors:
            point, scale = primitive(z)
            first = None
            for triple in combinations(range(n), 3):
                outside = [s[k] for k in range(n) if k not in triple]
                at_s = sum(c * prod(s_k ** (key // 5 ** (n - 4 - j) % 5)
                                    for j, s_k in enumerate(outside))
                           for key, c in hyperdet._slice_form(point, triple).items())
                if at_s:
                    first = tuple(t + 1 for t in triple), normalize(at_s * scale)
                    break
            report = is_member(z, "prefilter")
            if first is None:
                assert report.verdict == "indeterminate" and report.certificate is None
                continue
            witness = report.certificate
            assert (witness.triple, witness.s, witness.value) == (first[0], s, first[1])
            assert type(witness.value) is type(first[1])
            types.add(type(witness.value))
    assert types == {int, Fraction}


def test_prefilter_finds_what_the_slices_miss():
    # every corner slice vanishes, the moved slice of (1,2,3) does not
    z = MinorVector.from_values(4, [1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2])
    assert reference_prefilter_violation(z) is None
    report = is_member(z, "prefilter")
    assert report.verdict == "non-member"
    check_prefilter_report(z, report)


@given(st.integers(3, 8).flatmap(lambda n: st.tuples(symmetric_rows_strategy(n),
                                                     st.integers(0, (1 << n) - 1))))
@settings(max_examples=40, deadline=None)
def test_members_and_their_weyl_moves_get_no_witness(case):
    rows, subset = case
    n = len(rows)
    z = minor_vector(SymmetricMatrix.from_rows(rows), 1)
    weyl = GroupElement.from_matrices(
        [((0, 1), (-1, 0)) if subset >> k & 1 else ((1, 0), (0, 1)) for k in range(n)])
    for point in (z, act_point(weyl, z)):
        report = is_member(point, "prefilter")
        assert report.verdict == "indeterminate" and report.certificate is None


def test_prefilter_witnesses_a_zero_leading_non_member():
    # on three factors: the hyperdeterminant of x_100 = x_010 = x_001 =
    # x_111 = 1 and 0 elsewhere is 4
    z = MinorVector.from_values(3, [0, 1, 1, 0, 1, 0, 0, 1])
    report = is_member(z, "prefilter")
    assert report.certificate.value == 4
    rng = random.Random(45)
    for n in range(3, 9):
        member = minor_vector(random_symmetric_matrix(n, rng), 1)
        z = perturb(member, 0, -member[0])
        report = is_member(z, "prefilter")
        assert report.verdict == "non-member"
        check_prefilter_report(z, report)


def test_prefilter_base_case_is_single_hyperdet():
    z = MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 1])
    assert is_member(z, "prefilter").verdict == "non-member"
    probe = MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 0])
    assert is_member(probe, "prefilter").verdict == "indeterminate"


def test_prefilter_zero_vector_rejected():
    with pytest.raises(ValueError):
        is_member(MinorVector.from_values(3, [0] * 8), "prefilter")


def test_prefilter_is_necessary_not_sufficient_contract():
    # passing the prefilter must yield an indeterminate membership verdict
    z = minor_vector(random_symmetric_matrix(4, random.Random(35)), 1)
    report = is_member(z, "prefilter")
    assert report.verdict == "indeterminate"
    assert report.exit_code == 3


# -- reconstruction ------------------------------------------------------

def test_reconstruct_diagonal():
    z = minor_vector(SymmetricMatrix.diagonal([1, 2, 3]), 1)
    assert reconstruct(z, "exact") == SymmetricMatrix.diagonal([1, 2, 3])


def test_reconstruct_gauge_equivalence():
    a = SymmetricMatrix.from_rows([[1, 1, 0], [1, 2, 1], [0, 1, 3]])
    z = minor_vector(a, 1)
    b = reconstruct(z, "exact")
    assert minor_vector(b, 1) == z
    assert _is_sign_conjugate(a, b)


def _is_sign_conjugate(a: SymmetricMatrix, b: SymmetricMatrix) -> bool:
    n = a.n
    for mask in range(1 << n):
        signs = [1 if (mask >> i) & 1 else -1 for i in range(n)]
        if a.conjugate_signs(signs) == b:
            return True
    return False


def test_reconstruct_round_trip_random():
    rng = random.Random(36)
    for n in (3, 4, 5):
        for _ in range(5):
            a = random_symmetric_matrix(n, rng)
            z = minor_vector(a, 1)
            b = reconstruct(z, "exact")
            assert minor_vector(b, 1) == z
            assert _is_sign_conjugate(a, b)


@given(symmetric_rows_strategy(4))
@settings(max_examples=30, deadline=None)
def test_reconstruct_round_trip_property(rows):
    a = SymmetricMatrix.from_rows(rows)
    z = minor_vector(a, 1)
    b = reconstruct(z, "exact")
    assert minor_vector(b, 1) == z
    assert _is_sign_conjugate(a, b)


def test_reconstruct_detects_top_perturbation_at_verification():
    rng = random.Random(37)
    a = random_symmetric_matrix(4, rng)
    z = perturb(minor_vector(a, 1), 15)
    with pytest.raises(NonMemberError) as err:
        reconstruct(z, "exact")
    assert err.value.certificate == MinorMismatch(15, z[15], z[15] - 1)


def test_reconstruct_rejects_perturbed_triple_with_no_sign_pattern():
    rng = random.Random(43)
    a = random_symmetric_matrix(4, rng, nonzero_offdiag=True)
    z = perturb(minor_vector(a, 1), (1 << 0) | (1 << 1) | (1 << 2))
    with pytest.raises(NonMemberError) as err:
        reconstruct(z, "exact")
    assert isinstance(err.value.certificate, NoConsistentSigns)


def test_reconstruct_names_the_first_mismatch_in_encoding_order():
    # one pass over all 2^n minors: the first mismatching encoding names
    # the certificate, "triple" at |I| = 3 and MinorMismatch above.  The
    # dense graph's cycle steps read only triangles through vertex 1, so
    # the candidate is read from none of 26, 30 and 38
    z = minor_vector(random_symmetric_matrix(6, random.Random(1), nonzero_offdiag=True), 1)
    for raised, want in (((26, 38), NoConsistentSigns("triple", 26, -25, -26)),
                         ((30, 38), MinorMismatch(30, -254, -255))):
        probe = z
        for enc in raised:
            probe = perturb(probe, enc)
        assert is_member(probe, "reconstruct").certificate == want
        with pytest.raises(NonMemberError, match=f"at encoding {want.encoding}:"):
            reconstruct(probe, "exact")


def subset_by_subset_verify(rows, z):
    """The check before whole blocks: each minor against its coordinate."""
    for enc, value in enumerate(minor_map.all_principal_minors(rows)):
        if value * z[0] != z[enc]:
            expected = normalize(Fraction(z[enc]) / z[0])
            raise NonMemberError(NoConsistentSigns("triple", enc, expected, value)
                                 if enc.bit_count() == 3 else MinorMismatch(enc, expected, value))


def test_whole_block_check_names_the_certificates_of_the_subset_by_subset_check(monkeypatch):
    rng = random.Random(59)
    z6 = minor_vector(random_symmetric_matrix(6, random.Random(1), nonzero_offdiag=True), 1)
    members = [z6, minor_vector(sparse_matrix(9, 2, rng), 1),
               minor_vector(with_denominators(sparse_matrix(8, 3, rng), rng), 1)]
    points = []
    for z in members:
        top = len(z.coords) - 1
        for scaled in (z, z.scale(Fraction(7, 3))):
            points += [scaled, perturb(scaled, top), perturb(scaled, 26, Fraction(1, 2))]
    # the first mismatch at |I| = 3 (26) and at |I| = 4 (30), as in the
    # subset-by-subset check, both after a higher one (38)
    points += [perturb(perturb(z6, 26), 38), perturb(perturb(z6, 30), 38)]
    # a member whose leading coordinate is 0, moved into the chart first
    rows = random_symmetric_matrix(5, rng, nonzero_offdiag=True).rows()
    rows[0][0] = 0
    points.append(act_point(GroupElement.from_matrices([((0, 1), (-1, 0))] + [((1, 0), (0, 1))] * 4),
                            minor_vector(SymmetricMatrix.from_rows(rows), 1)))
    blocks = [is_member(z, "reconstruct") for z in points]
    monkeypatch.setattr(membership, "_verify", subset_by_subset_verify)
    assert blocks == [is_member(z, "reconstruct") for z in points]
    kinds = {(type(r.certificate).__name__, getattr(r.certificate, "check", None), r.chart_moves)
             for r in blocks}
    assert {("MatrixCertificate", None, 0), ("MatrixCertificate", None, 1),
            ("NoConsistentSigns", "triple", 0), ("MinorMismatch", None, 0)} <= kinds
    # z6 scaled by 7/3 with its top coordinate raised by 1: w_top moves by 3/7
    assert blocks[4].certificate == MinorMismatch(63, z6[63] + Fraction(3, 7), z6[63])


def test_reconstruct_of_a_member_takes_no_determinant(monkeypatch):
    # diagonal 100 makes the matrix strictly diagonally dominant, so every
    # principal minor, and so every pivot of the bordered chain, is nonzero:
    # checking the candidate takes no det_exact
    calls = []
    for module in (minor_map, membership):
        home = module.det_exact
        monkeypatch.setattr(module, "det_exact",
                            lambda rows, home=home: calls.append(rows) or home(rows))
    rng = random.Random(56)
    for n in (5, 7, 9):
        rows = random_symmetric_matrix(n, rng, nonzero_offdiag=True).rows()
        for i in range(n):
            rows[i][i] = 100
        z = minor_vector(SymmetricMatrix.from_rows(rows), 1)
        assert all(z.coords)
        calls.clear()
        report = is_member(z, "reconstruct")
        assert (report.verdict, report.chart_moves) == ("member", 0)
        assert calls == []


def test_reconstruct_zero_leading_coordinate():
    with pytest.raises(ZeroLeadingCoordinateError):
        reconstruct(MinorVector.unit(3, 7), "exact")


def test_reconstruct_non_square_entry():
    # diag (1, 1) with pair coordinate -1 forces a_12^2 = 2: a real
    # symmetric matrix, but no rational one
    z = MinorVector.from_values(2, [1, 1, 1, -1])
    with pytest.raises(NonSquareEntryError) as err:
        reconstruct(z, "exact")
    assert (err.value.i, err.value.j, err.value.value, err.value.real) == (0, 1, 2, True)
    assert "a real one does" in str(err.value)
    assert_symmetrizable_certificate(z, err.value.certificate.rows, 1)
    # a_12^2 = -2: not even a real one
    z = MinorVector.from_values(2, [1, 1, 1, 3])
    with pytest.raises(NonSquareEntryError) as err:
        reconstruct(z, "exact")
    assert not err.value.real


def test_reconstruct_scales_leading_coordinate():
    a = SymmetricMatrix.from_rows([[1, 2], [2, 3]])
    z = minor_vector(a, 1).scale(Fraction(7, 3))
    b = reconstruct(z, "exact")
    assert minor_vector(b, 1) == minor_vector(a, 1)


def test_reconstruct_numeric_complex_entries():
    # minors of [[1, i, 0], [i, 1, 0], [0, 0, 1]]: all real
    z = MinorVector.from_values(3, [1, 1, 1, 2, 1, 1, 1, 2])
    with pytest.raises(NonSquareEntryError):
        reconstruct(z, "exact")
    b = reconstruct(z, "numeric")
    minors = laplace_minors(b.entries)
    for got, want in zip(minors, z.coords):
        assert abs(got - complex(want)) < 1e-8


def test_reconstruct_numeric_writes_a_rational_off_forest_entry_exactly():
    # a_12^2 = 2 and a_13^2 = +-2 on the forest, a_23^2 = +-1 off it: dividing
    # the cycle product by the two roots gave 0.9999999999999999(j)
    for coords, entry in (([1, 2, 2, 2, 3, 4, 5, 4], 1), ([1, 2, 2, 2, -3, -4, -5, -4], 1j)):
        b = reconstruct(MinorVector.from_values(3, coords), "numeric").entries
        assert b[1][2] == b[2][1] == entry


def test_reconstruct_numeric_round_trip():
    rng = random.Random(38)
    a = random_symmetric_matrix(4, rng)
    z = minor_vector(a, 1)
    b = reconstruct(z, "numeric")
    minors = laplace_minors(b.entries)
    for got, want in zip(minors, z.coords):
        assert abs(got - complex(want)) < 1e-7


def test_reconstruct_numeric_tolerance_is_relative():
    # 7x7 determinants reach 10^6..10^7, where float rounding alone
    # exceeds an absolute 1e-9; relative to the expected value it does not.
    rng = random.Random(2)
    for _ in range(5):
        z = minor_vector(random_symmetric_matrix(7, rng), 1)
        b = reconstruct(z, "numeric")
        minors = laplace_minors(b.entries)
        for got, want in zip(minors, z.coords):
            assert abs(got - want) <= 1e-9 * max(1, abs(want))


def test_reconstruct_numeric_is_projective():
    # a tiny leading coordinate is still in the open chart: exact and
    # numeric mode agree that the 10^-12 multiple has the same matrix
    a = SymmetricMatrix.from_rows([[12345, 0, 0, 7], [0, 67891, 0, 0],
                                   [0, 0, 23456, 0], [7, 0, 0, 98765]])
    z = minor_vector(a, 1)
    tiny = z.scale(Fraction(1, 10**12))
    assert reconstruct(tiny, "exact") == reconstruct(z, "exact")
    b, b_tiny = reconstruct(z, "numeric"), reconstruct(tiny, "numeric")
    for row, row_tiny in zip(b.entries, b_tiny.entries):
        for want, got in zip(row, row_tiny):
            assert abs(got - want) <= 1e-9 * max(1, abs(want))


def test_reconstruct_bad_mode():
    with pytest.raises(ValueError):
        reconstruct(MinorVector.unit(2, 0), "fuzzy")


# -- the rational gauge solve against the earlier sign search ---------------

def reference_reconstruct(z: MinorVector):
    """The earlier exact reconstruction: make a spanning forest of the
    nonzero graph nonnegative, try all 2^cycles sign patterns on the other
    edges, keep those that fit every |I| = 3 coordinate and verify all 2^n
    minors.  Returns ("member", matrix), ("non-square", None),
    ("no-consistent-signs", None) or ("minor-mismatch", (encoding,
    expected, actual)) for the first survivor's first mismatch."""
    n, z0 = z.n, z[0]
    w = [normalize(Fraction(c) / z0) for c in z.coords]
    diag = [w[1 << i] for i in range(n)]
    mag, edges = {}, []
    for i in range(n):
        for j in range(i + 1, n):
            s = diag[i] * diag[j] - w[(1 << i) | (1 << j)]
            if s == 0:
                continue
            root = sqrt_exact(s)
            if root is None:
                return "non-square", None
            mag[(i, j)] = root
            edges.append((i, j))
    # greedy forest in edge order: an edge joining two labelled
    # components merges them, one within a component closes a cycle
    label, forest, cycles = list(range(n)), [], []
    for i, j in edges:
        if label[i] == label[j]:
            cycles.append((i, j))
        else:
            forest.append((i, j))
            label = [label[i] if x == label[j] else x for x in label]
    triples = [((1 << i) | (1 << j) | (1 << k), (i, j, k))
               for i, j, k in combinations(range(n), 3)]
    first_full_mismatch = None
    for signs in product((1, -1), repeat=len(cycles)):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = diag[i]
        for i, j in forest:
            rows[i][j] = rows[j][i] = mag[(i, j)]
        for (i, j), s in zip(cycles, signs):
            rows[i][j] = rows[j][i] = s * mag[(i, j)]
        for enc, ijk in triples:
            if det_exact([[rows[a][b] for b in ijk] for a in ijk]) != w[enc]:
                break
        else:
            # one det_exact per subset, not the kernel that reconstruct uses
            minors = (det_exact([[rows[a][b] for b in range(n) if enc >> b & 1]
                                 for a in range(n) if enc >> a & 1]) for enc in range(1 << n))
            mismatch = next(((enc, w[enc], value) for enc, value in enumerate(minors)
                             if value != w[enc]), None)
            if mismatch is None:
                return "member", SymmetricMatrix.from_rows(rows)
            if first_full_mismatch is None:
                first_full_mismatch = mismatch
    if first_full_mismatch is not None:
        return "minor-mismatch", first_full_mismatch
    return "no-consistent-signs", None


def gauge_reconstruct(z: MinorVector):
    """reconstruct(z, "exact") in the shape of reference_reconstruct."""
    try:
        return "member", reconstruct(z, "exact")
    except ReconstructionError as err:
        cert = err.certificate
        if isinstance(cert, SymmetrizableCertificate):
            return "non-square", None
        if isinstance(cert, NoConsistentSigns):
            return "no-consistent-signs", None
        return "minor-mismatch", (cert.encoding, cert.expected, cert.actual)


def normalized(z: MinorVector) -> list:
    return [Fraction(c) / z[0] for c in z.coords]


def s_value(w: list, i: int, j: int):
    return w[1 << i] * w[1 << j] - w[(1 << i) | (1 << j)]


def assert_symmetrizable_certificate(z: MinorVector, rows, scale):
    """What a reader checks from z alone: rows reproduces z, has a
    symmetric zero pattern with b_ij b_ji = s_ij, and is diagonally
    similar to a symmetric matrix: q_i b_ij = q_j b_ji for some nonzero
    rational q (then D = diag(sqrt(q)) symmetrizes it), which holds
    exactly when forward and backward products agree on every cycle."""
    n = z.n
    assert [scale * m for m in laplace_minors(rows)] == list(z.coords)
    w = normalized(z)
    q = [None] * n
    for root in range(n):
        if q[root] is not None:
            continue
        q[root], queue = Fraction(1), [root]
        for i in queue:
            for j in range(n):
                if j != i and rows[i][j] != 0 and q[j] is None:
                    q[j] = q[i] * rows[i][j] / rows[j][i]
                    queue.append(j)
    for i, j in combinations(range(n), 2):
        assert (rows[i][j] == 0) == (rows[j][i] == 0)
        assert rows[i][j] * rows[j][i] == s_value(w, i, j)
        assert q[i] * rows[i][j] == q[j] * rows[j][i]


def assert_cycle_certificate(z: MinorVector, cert: NoConsistentSigns):
    """Recompute a "cycle" certificate from z and its vertex set alone: the
    set induces one cycle C, expected is the product of its s_e, and
    actual is pi_C^2, pi_C read by expanding det(A_C) along the row of C's
    lowest vertex l, with neighbours p and q on C (four coordinates)."""
    assert cert.check == "cycle"
    w = normalized(z)
    vertices = [v for v in range(z.n) if cert.encoding >> v & 1]
    edges = [(i, j) for i, j in combinations(vertices, 2) if s_value(w, i, j) != 0]
    assert len(edges) == len(vertices)
    cycle = [vertices[0]]
    while len(cycle) < len(vertices):
        cycle.append(next(j for e in edges for i, j in (e, e[::-1])
                          if i == cycle[-1] and j not in cycle))
    assert (cycle[0], cycle[-1]) in edges  # the walk closes: one chordless cycle
    m, l = len(vertices), vertices[0]
    p, q = [j for i, j in edges if i == l]
    squares = 1
    for i, j in edges:
        squares *= s_value(w, i, j)
    path = cert.encoding ^ 1 << l
    pi = (-1) ** (m + 1) * (w[cert.encoding] - w[1 << l] * w[path] + s_value(w, l, p)
                            * w[path ^ 1 << p] + s_value(w, l, q) * w[path ^ 1 << q]) / 2
    assert (cert.expected, cert.actual) == (squares, pi * pi)
    assert cert.expected != cert.actual


def b0_cycle_product(z: MinorVector, cycle: list[int]):
    """pi_C through one determinant, the reference for the four-term read:
    the matrix B0 with b_(c_k, c_(k+1)) = 1 and b_(c_(k+1), c_k) = s_e
    around C has the terms of A_C with s_e for a_e^2, except the two
    cycle terms, 1 + prod s_e in place of 2 pi_C, each with sign
    (-1)^(m+1)."""
    w = normalized(z)
    m = len(cycle)
    b0 = [[0] * m for _ in range(m)]
    squares = 1
    for k, v in enumerate(cycle):
        nxt = (k + 1) % m
        s = s_value(w, v, cycle[nxt])
        b0[k][k], b0[k][nxt], b0[nxt][k] = w[1 << v], 1, s
        squares *= s
    enc = sum(1 << v for v in cycle)
    return ((-1) ** (m + 1) * (w[enc] - laplace_det(b0)) + 1 + squares) / 2


def matrix_on_graph(n: int, edges, rng) -> SymmetricMatrix:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-5, 5)
    for i, j in edges:
        rows[i][j] = rows[j][i] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return SymmetricMatrix.from_rows(rows)


def sparse_matrix(n: int, extra: int, rng) -> SymmetricMatrix:
    """A random spanning tree plus `extra` random edges."""
    edges = {(rng.randrange(k), k) for k in range(1, n)}
    others = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(others, min(extra, len(others))))
    return matrix_on_graph(n, sorted(edges), rng)


def test_gauge_solve_matches_sign_search():
    rng = random.Random(45)
    for n in range(3, 9):
        matrices = [sparse_matrix(n, extra, rng) for extra in (0, 1, 2, 3, 4)]
        if n <= 7:  # the sign search takes 2^21 patterns on a dense 8x8
            matrices.append(random_symmetric_matrix(n, rng, nonzero_offdiag=True))
        for a in matrices:
            dense = all(a[i, j] != 0 for i, j in combinations(range(n), 2))
            z = minor_vector(a, 1)
            full = (1 << n) - 1
            triple = sum(1 << v for v in rng.sample(range(n), 3))
            probes = [z, perturb(z, full, rng.choice((1, -3, 5))),
                      perturb(z, triple, rng.choice((1, -3, 5))),
                      perturb(z, rng.randrange(1, full), rng.choice((1, -1, 2)))]
            for probe in probes:
                want, got = reference_reconstruct(probe), gauge_reconstruct(probe)
                report = is_member(probe, "reconstruct")
                assert report.verdict != "indeterminate"
                cert = report.certificate
                if isinstance(cert, NoConsistentSigns) and cert.check == "cycle":
                    assert_cycle_certificate(probe, cert)
                if want[0] == "non-square":
                    assert got[0] != "member"
                    if got[0] == "non-square":
                        assert report.verdict == "member"
                        assert_symmetrizable_certificate(probe, cert.rows, cert.scale)
                    continue
                if want[0] == "member" or dense:
                    assert got == want, (a, probe)
                elif want[0] == "minor-mismatch":
                    # one candidate: its own first mismatch, or a cycle
                    # step's chordless cycle of length >= 4, which the
                    # triples never see
                    assert got[0] in ("minor-mismatch", "no-consistent-signs"), (a, probe)
                else:
                    assert got == want, (a, probe)
                assert report.verdict == ("member" if want[0] == "member" else "non-member")


def test_gauge_solve_dense_n8():
    # the sign search would take 2^21 patterns; its answers follow from
    # the one matrix with these minors that is nonnegative on the forest
    # (the star at vertex 1 on a complete graph)
    rng = random.Random(46)
    a = random_symmetric_matrix(8, rng, nonzero_offdiag=True)
    z = minor_vector(a, 1)
    b = reconstruct(z, "exact")
    assert _is_sign_conjugate(a, b) and all(b[0, j] > 0 for j in range(1, 8))
    with pytest.raises(NonMemberError) as err:
        reconstruct(perturb(z, 255, 3), "exact")
    assert err.value.certificate == MinorMismatch(255, z[255] + 3, z[255])
    with pytest.raises(NonMemberError) as err:
        reconstruct(perturb(z, 0b1011000, 3), "exact")
    assert isinstance(err.value.certificate, NoConsistentSigns)


# vertex count and edges of graphs whose cycles are not all triangles
GRAPH_FAMILIES = [
    (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),                             # chordless 4-cycle
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),                     # chordless 5-cycle
    (6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)]),             # 4-cycle with a tail
    (6, [(0, 1), (1, 2), (2, 3), (0, 3), (2, 4), (4, 5), (3, 5)]),     # two 4-cycles, one edge shared
    (7, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (4, 5), (5, 6), (4, 6)]),  # cut vertex 5
    (8, [(0, 2), (2, 4), (4, 6), (0, 6), (1, 3), (3, 5), (1, 5)]),     # disconnected, vertex 8 isolated
    (8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)]),  # triangle, bridge, 5-cycle
]


def chordless_cycles(n: int, edges) -> list[int]:
    """Vertex sets (as encodings) of the chordless cycles of length >= 4."""
    found = []
    for size in range(4, n + 1):
        for vertices in combinations(range(n), size):
            inside = [e for e in edges if e[0] in vertices and e[1] in vertices]
            if len(inside) != size or any(sum(v in e for e in inside) != 2 for v in vertices):
                continue
            # every degree is 2: one cycle, or several disjoint ones
            seen = [vertices[0]]
            for x in seen:
                seen += [e[0] + e[1] - x for e in inside
                         if x in e and e[0] + e[1] - x not in seen]
            if len(seen) == size:
                found.append(sum(1 << v for v in vertices))
    return found


def test_gauge_solve_on_sparse_cycles_cut_vertices_and_components():
    rng = random.Random(47)
    for n, edges in GRAPH_FAMILIES:
        a = matrix_on_graph(n, edges, rng)
        z = minor_vector(a, 1)
        b = reconstruct(z, "exact")
        assert minor_vector(b, 1) == z and _is_sign_conjugate(a, b)
        assert reference_reconstruct(z) == ("member", b)
        q = [2, 3, -1, 5, 7, 6, Fraction(1, 2), 10][:n]
        report = is_member(dmd_minors(a, q), "reconstruct")
        assert report.verdict == "member"
        assert_symmetrizable_certificate(dmd_minors(a, q), report.certificate.rows,
                                         report.certificate.scale)
        cycles = chordless_cycles(n, edges)
        assert cycles
        for enc in cycles:
            probe = perturb(z, enc, rng.choice((1, -3)))
            report = is_member(probe, "reconstruct")
            assert report.verdict == "non-member"
            assert report.certificate.encoding == enc
            assert_cycle_certificate(probe, report.certificate)
            # the sign search never looks at a cycle beyond the triples
            assert reference_reconstruct(probe)[0] == "minor-mismatch"


def joined_graph(n: int, rng) -> list[tuple[int, int]]:
    """Edges of a random graph: trees on blocks of the vertices below a
    vertex `top`, which joins several blocks with one or more edges each;
    above it each vertex hangs on a lower one or stays isolated; then
    0..n random extra edges."""
    top = rng.randrange(2, n)
    cuts = sorted(rng.sample(range(1, top), rng.randint(0, min(3, top - 1))))
    edges = set()
    for low, high in zip([0] + cuts, cuts + [top]):
        edges.update((rng.randrange(low, v), v) for v in range(low + 1, high))
        edges.update((v, top) for v in rng.sample(range(low, high), rng.randint(1, high - low)))
    edges.update((rng.randrange(v), v) for v in range(top + 1, n) if rng.random() < 0.8)
    others = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(others, min(rng.randint(0, n), len(others))))
    return sorted(edges)


def test_cycle_steps_read_chordless_cycles_that_span_the_cycle_space():
    # each edge is placed once, below its top vertex; the vertex set of a
    # cycle step induces exactly its cycle, and the cycle steps number
    # |E| - n + c, the dimension of the cycle space
    rng = random.Random(52)
    for trial in range(120):
        n = 3 + trial % 10
        edges = joined_graph(n, rng) if trial % 4 else sorted(
            (rng.randrange(v), v) for v in range(1, n))  # a tree
        z = minor_vector(matrix_on_graph(n, edges, rng), 1)
        diag, s, steps = membership._place(z)
        assert sorted(s) == edges
        assert sorted((i, k) for i, k, *_ in steps) == edges
        label = list(range(n))
        for i, j in edges:
            label = [label[i] if c == label[j] else c for c in label]
        cycle_steps = [(i, k, path) for i, k, path, _ in steps if path is not None]
        assert len(cycle_steps) == len(edges) - n + len(set(label)), edges
        for i, k, path in cycle_steps:
            cycle = [k] + path
            assert len(set(cycle)) == len(cycle) >= 3 and path[0] == i
            around = {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
            induced = {e for e in edges if e[0] in cycle and e[1] in cycle}
            assert induced == around, (edges, cycle)


def with_denominators(a: SymmetricMatrix, rng) -> SymmetricMatrix:
    """a with each entry over a random denominator, kept symmetric."""
    rows = a.rows()
    for i in range(a.n):
        for j in range(i, a.n):
            rows[i][j] = rows[j][i] = Fraction(rows[i][j], rng.randint(1, 4))
    return SymmetricMatrix.from_rows(rows)


def test_four_term_cycle_read_matches_the_b0_determinant(monkeypatch):
    # every chordless cycle that a cycle step reads: on a member the path
    # minors are the continuants that B0 builds from the |I| <= 2
    # coordinates; on a triangle they are those coordinates, so the reads
    # agree on its non-members too
    reads = []
    cycle_product = membership._cycle_product

    def recording(cycle, diag, s, z):
        value = cycle_product(cycle, diag, s, z)
        reads.append((list(cycle), z, value))
        return value

    monkeypatch.setattr(membership, "_cycle_product", recording)
    rng = random.Random(50)
    members = [random_symmetric_matrix(n, rng, nonzero_offdiag=True) for n in range(3, 7)]
    for m in range(3, 10):
        order = rng.sample(range(m), m)  # the lowest vertex anywhere on the cycle
        members.append(matrix_on_graph(
            m, sorted(tuple(sorted(e)) for e in zip(order, order[1:] + order[:1])), rng))
    members += [sparse_matrix(n, 3, rng) for n in range(4, 10)]
    members += [matrix_on_graph(n, edges, rng) for n, edges in GRAPH_FAMILIES]
    lengths = set()
    for a in members:
        for b in (a, with_denominators(a, rng)):
            z = minor_vector(b, 1)
            q = [rng.choice((2, 3, -1, 5, Fraction(1, 2))) for _ in range(b.n)]
            for point, member in ((z, True), (dmd_minors(b, q), True),
                                  (perturb(z, (1 << b.n) - 1), False)):
                reads.clear()
                verdict = is_member(point, "reconstruct").verdict
                assert verdict == "member" or not member
                for cycle, read_from, value in reads:
                    lengths.add(len(cycle))
                    if member or len(cycle) == 3:
                        assert value == b0_cycle_product(read_from, cycle)
    assert lengths == set(range(3, 10))


def test_cycle_read_expands_along_the_lowest_vertex():
    # w_(C-l) moved, l = vertex 1 the lowest: a row at another vertex never
    # reads it, so every rotation and direction of the cycle must read
    # along l, as the certificate's check does from the vertex set alone
    a = matrix_on_graph(5, GRAPH_FAMILIES[1][1], random.Random(51))
    z = perturb(minor_vector(a, 1), 0b11110)
    w = normalized(z)
    diag = [w[1 << i] for i in range(5)]
    s = {(i, j): s_value(w, i, j) for i, j in combinations(range(5), 2) if s_value(w, i, j) != 0}
    report = is_member(z, "reconstruct")
    assert_cycle_certificate(z, report.certificate)
    for start in range(5):
        for cycle in ([0, 1, 2, 3, 4], [0, 4, 3, 2, 1]):
            cycle = cycle[start:] + cycle[:start]
            assert membership._cycle_product(cycle, diag, s, z) ** 2 == report.certificate.actual


def dmd_minors(m: SymmetricMatrix, q) -> MinorVector:
    """Minors of D M D with D = diag(sqrt(q)): det(M_I) * prod_(i in I) q_i."""
    coords = []
    for enc, value in enumerate(minor_vector(m, 1).coords):
        for i in range(m.n):
            if enc >> i & 1:
                value *= q[i]
        coords.append(value)
    return MinorVector.from_values(m.n, coords)


def test_basis_check_evaluates_the_primitive_integer_multiple(monkeypatch):
    # the entries are homogeneous of degree 4, so the value on (L/g) z,
    # scaled by (g/L)^4, is the value on z, with the same type, for
    # rational z and for integer z with g = 1 or g > 1; neither a member
    # nor a non-member evaluates a polynomial
    rng = random.Random(53)
    points = []
    calls = []
    evaluate_home = membership.evaluate

    def recording(poly, point):
        calls.append(point)
        return evaluate_home(poly, point)

    monkeypatch.setattr(membership, "evaluate", recording)
    for n in (3, 4, 5):
        a = with_denominators(random_symmetric_matrix(n, rng), rng)
        z = minor_vector(a, 1).scale(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        points += [z, perturb(z, (1 << n) - 1, Fraction(1, 3)), perturb(z, 0b111, -2)]
        y = minor_vector(random_symmetric_matrix(n, rng), 1)
        points += [y, y.scale(6), perturb(y.scale(6), (1 << n) - 1, 6)]
    for z in points:
        calls.clear()
        report = is_member(z, "basis")
        want = next(((index, value) for index, entry in enumerate(membership.hd_basis(z.n).entries)
                     if (value := evaluate(entry.polynomial, z)) != 0), None)
        assert calls == []
        if want is None:
            assert report.verdict == "member"
        else:
            cert = report.certificate
            assert (cert.entry_index, cert.value) == want and type(cert.value) is type(want[1])


def test_dmd_members_are_decided():
    rng = random.Random(48)
    q = (2, 3, -1, 5, 7, Fraction(1, 3), 6, -2)
    for n in range(4, 9):
        m = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
        z = dmd_minors(m, q[:n])
        report = is_member(z, "reconstruct")
        assert report.verdict == "member"
        assert isinstance(report.certificate, SymmetrizableCertificate)
        assert_symmetrizable_certificate(z, report.certificate.rows, report.certificate.scale)
        with pytest.raises(NonSquareEntryError) as err:
            reconstruct(z, "exact")
        assert not err.value.real  # a_13^2 = 2 * (-1) * m_13^2 < 0
        b = reconstruct(z, "numeric")
        for got, want in zip(laplace_minors(b.entries), normalized(z)):
            assert abs(got - complex(want)) <= 1e-9 * max(1, abs(want))
        # positive q: a real symmetric matrix, still no rational one
        with pytest.raises(NonSquareEntryError) as err:
            reconstruct(dmd_minors(m, [abs(v) for v in q[:n]]), "exact")
        assert err.value.real


def test_numeric_rounding_stays_small_along_chains_of_cycle_steps():
    # on a ladder (rungs 2r - 2r+1, rails v - v+2) each rung's cycle step
    # divides by the previous rung's entry, so rounding could build up;
    # every entry of D M D stays within 8 ulps of +-sqrt(s_e), computed to
    # 50 digits, and each rung square keeps pi_C = prod m_e prod q_v.  The
    # second q makes some cycle-step entries rational squares (b_89: 6 * 6)
    rng = random.Random(54)
    n = 12
    edges = sorted({(2 * r, 2 * r + 1) for r in range(n // 2)}
                   | {(v, v + 2) for v in range(n - 2)})
    for q in ([2, 3, -1, 5, 7, 6, -2, 10, 11, 13, -3, 14],
              [2, 3, 2, 3, 5, -7, 5, -7, 6, 6, -1, 11]):
        for _ in range(5):
            m = matrix_on_graph(n, edges, rng).entries
            z = dmd_minors(SymmetricMatrix.from_rows(m), q)
            depth = {}
            for i, k, path, _ in membership._place(z)[2]:
                if path is not None:
                    depth[i, k] = 1 + max(depth.get((min(x, y), max(x, y)), 0)
                                          for x, y in zip(path, path[1:] + [k]))
            assert max(depth.values()) == n // 2 - 1
            b = reconstruct(z, "numeric").entries
            for i, j in edges:
                s = m[i][j] ** 2 * q[i] * q[j]
                near, off = (b[i][j].real, b[i][j].imag)[::1 if s > 0 else -1]
                with localcontext() as context:
                    context.prec = 50
                    root = Decimal(abs(s)).sqrt()
                    error = (abs(abs(Decimal(near)) - root) ** 2 + Decimal(off) ** 2).sqrt() / root
                assert error <= 8 * 2.0 ** -52, (q, i, j, b[i][j])
            for v in range(0, n - 2, 2):
                square = (v, v + 1, v + 3, v + 2)
                want = prod(m[x][y] * q[x] for x, y in zip(square, square[1:] + square[:1]))
                got = prod(b[x][y] for x, y in zip(square, square[1:] + square[:1]))
                assert abs(got - want) <= 1e-12 * abs(want)


def test_dmd_basis_and_reconstruct_agree():
    rng = random.Random(49)
    for n in (3, 4, 5, 5, 6):
        m = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
        z = dmd_minors(m, [rng.choice((2, 3, -1, 5, Fraction(1, 2))) for _ in range(n)])
        pairs = [(1 << i) | (1 << j) for i, j in combinations(range(n), 2)]
        probes = [z, perturb(z, rng.choice(pairs)), perturb(z, rng.choice(pairs), -2),
                  perturb(z, (1 << n) - 1), perturb(z, 0b111, 3)]
        assert hyperdet.first_nonzero_entry(z) is None
        for probe in probes:
            verdict = is_member(probe, "reconstruct").verdict
            assert verdict == is_member(probe, "basis").verdict
            assert verdict == ("member" if probe is z else "non-member")


def basis_pool(n: int, rng) -> list[MinorVector]:
    """Integer, rational, D.M.D, sparse and z_[0..0] = 0 members, and
    each with one coordinate perturbed."""
    a = random_symmetric_matrix(n, rng)
    sparse = a.rows()
    for i, j in combinations(range(n), 2):
        if rng.random() < 0.6:
            sparse[i][j] = sparse[j][i] = 0
    members = [
        minor_vector(a, 1),
        minor_vector(with_denominators(a, rng), 1).scale(Fraction(rng.randint(1, 9), 7)),
        dmd_minors(random_symmetric_matrix(n, rng, nonzero_offdiag=True),
                   [rng.choice((2, 3, -1, 5, Fraction(1, 2))) for _ in range(n)]),
        minor_vector(SymmetricMatrix.from_rows(sparse), 1),
    ]
    b = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
    while det_exact(b.rows()) == 0:
        b = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
    members.append(minor_vector(b, 0))  # (0, ..., 0, det B)
    return members + [perturb(z, rng.randrange(1 << n), rng.choice((1, -2, Fraction(1, 3))))
                      for z in members]


def primitive(z: MinorVector) -> tuple[MinorVector, Fraction]:
    """The primitive integer multiple (L/g) z, and (g/L)^4."""
    common = lcm(*(c.denominator for c in z.coords))
    ints = [c.numerator * (common // c.denominator) for c in z.coords]
    g = gcd(*ints)
    return MinorVector(z.n, tuple(c // g for c in ints)), Fraction(g, common) ** 4


def first_nonzero_by_evaluation(z: MinorVector):
    """The loop that `is_member(z, "basis")` replaces: every entry of
    hd_basis in order, evaluated on the primitive integer multiple and
    scaled; (index, value) of the first nonzero, or None."""
    point, scale = primitive(z)
    for index, entry in enumerate(hd_basis(z.n).entries):
        value = evaluate(entry.polynomial, point)
        if value != 0:
            return index, normalize(value * scale)
    return None


def test_slice_form_is_cayleys_hyperdeterminant_on_three_factors():
    # d1^2 - 4 d0 d2 of the two halves of the 2x2x2 array
    rng = random.Random(54)
    cayley = cayley_hyperdet(3, (1, 2, 3))
    for _ in range(40):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(8)]
        form = hyperdet._slice_form(MinorVector.from_values(3, x), (0, 1, 2))
        assert set(form) <= {0}
        assert form.get(0, 0) == evaluate(cayley, x)


def test_slice_form_coefficients_vanish_with_the_basis_entries():
    # the entry (T, e) of hd_basis is a nonzero constant multiple of the
    # coefficient of s^e in hwv_T(u(s) . z), keyed by e's odometer rank;
    # that rank after T's lex rank is the entry's index
    rng = random.Random(55)
    for n in (3, 4, 5, 6):
        m = n - 3
        pool = basis_pool(n, rng)
        pool.append(perturb(pool[0], 0, -pool[0][0]))  # z_[0..0] = 0
        if n == 6:  # 2,500 evaluations per vector
            pool = [pool[0], pool[2], pool[4], pool[8], pool[-1]]
        pool = [primitive(z)[0] for z in pool]
        triples = list(combinations(range(n), 3))
        forms = [[hyperdet._slice_form(z, triple) for triple in triples] for z in pool]
        for index, entry in enumerate(hd_basis(n).entries):
            rank = triples.index(tuple(k - 1 for k in entry.triple))
            key = 0
            for e in entry.exponents:
                key = 5 * key + e
            assert index == rank * 5 ** m + key
            ratios = set()
            for z, form in zip(pool, forms):
                coefficient = form[rank].get(key, 0)
                value = evaluate(entry.polynomial, z)
                assert (coefficient != 0) == (value != 0), (n, index, z)
                if value != 0:
                    ratios.add(Fraction(value) / coefficient)
            assert len(ratios) <= 1, (n, index, ratios)


def test_entry_value_is_e_factorial_times_the_coefficient_over_kappa():
    # entry (T, e) = lower^e hwv_T / kappa = P_e / sigma with kappa = e!
    # sigma, so its value at z is e! c_e / kappa = c_e / sigma, in value and
    # type, on integer and rational z alike: every entry at n <= 5 (two of
    # n = 5's have sigma < 0), 40 seeded at n = 6
    rng = random.Random(58)
    for n in (3, 4, 5, 6):
        points = [MinorVector.from_values(n, [rng.randint(-9, 9) for _ in range(1 << n)]),
                  MinorVector.from_values(n, [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                              for _ in range(1 << n)])]
        triples = list(combinations(range(n), 3))
        entries = list(enumerate(hd_basis(n).entries))
        for z in points:
            forms = [hyperdet._slice_form(z, triple) for triple in triples]
            for index, entry in (entries if n < 6 else rng.sample(entries, 40)):
                rank, key = divmod(index, 5 ** (n - 3))
                coefficient = forms[rank].get(key, 0)
                got = normalize(Fraction(coefficient) / hyperdet.entry_content(n, index))
                want = evaluate(entry.polynomial, z)
                assert got == want and type(got) is type(want), (n, index)


def test_basis_certificates_past_the_basis_bound():
    # at n = 7 and 8, where hd_basis is not built, a non-member's value is
    # its entry, the normalized lowering, evaluated on z; reconstruct agrees
    rng = random.Random(59)
    for n in (7, 8):
        z = minor_vector(random_symmetric_matrix(n, rng, nonzero_offdiag=True), 1)
        top = (1 << n) - 1
        for enc, delta in ((top, 1), (0b111, -2), (rng.randrange(1, top), Fraction(1, 3))):
            probe = perturb(z, enc, delta)
            report = is_member(probe, "basis")
            assert report.verdict == is_member(probe, "reconstruct").verdict == "non-member"
            rank, key = divmod(report.certificate.entry_index, 5 ** (n - 3))
            triple = list(combinations(range(1, n + 1), 3))[rank]
            entry = lowering(n, triple, [key // 5 ** (n - 4 - j) % 5 for j in range(n - 3)])
            want, value = evaluate(entry.normalized(), probe), report.certificate.value
            assert value == want != 0 and type(value) is type(want)


def test_basis_check_matches_the_entry_by_entry_loop(monkeypatch):
    # no check builds a basis; a non-member names the first nonzero
    # entry in basis order, with the loop's value and type
    rng = random.Random(56)
    built = []
    monkeypatch.setattr(membership, "hd_basis", lambda n: built.append(n) or hd_basis(n))
    members = 0
    for n in (3, 4, 5, 6):
        for z in basis_pool(n, rng):
            built.clear()
            report = is_member(z, "basis")
            want = first_nonzero_by_evaluation(z)
            if want is None:
                members += 1
                assert report == MembershipReport(n, "member", "basis") and built == []
            else:
                assert report == MembershipReport(n, "non-member", "basis", BasisViolation(*want))
                assert type(report.certificate.value) is type(want[1]) and built == []
    assert members >= 20


def test_basis_check_answers_members_by_reconstruction(monkeypatch):
    # integer, D.M.D, z_[0..0] = 0 and symmetrizable members: a verified
    # reconstruction answers and the module scan is never asked, yet it
    # vanishes there when asked apart; a non-member's report is the scan's
    rng = random.Random(57)
    calls = []
    monkeypatch.setattr(membership, "first_nonzero_entry",
                        lambda z: calls.append(z) or hyperdet.first_nonzero_entry(z))
    members = [MinorVector.from_values(3, [1, 2, 2, 2, 3, 4, 5, 4])]  # a_12^2 = 2
    for n in (3, 4, 5, 6):
        a = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
        b = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
        while det_exact(b.rows()) == 0:
            b = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
        flip = GroupElement.from_matrices([((0, 1), (-1, 0))] + [((1, 0), (0, 1))] * (n - 1))
        members += [minor_vector(a, 1),
                    dmd_minors(a, [rng.choice((2, 3, -1, 5, Fraction(1, 2))) for _ in range(n)]),
                    minor_vector(b, 0),  # (0, ..., 0, det B)
                    act_point(flip, minor_vector(a, 1))]
    routes = set()
    for z in members:
        calls.clear()
        assert is_member(z, "basis") == MembershipReport(z.n, "member", "basis")
        assert calls == []
        assert hyperdet.first_nonzero_entry(z) is None
        report = is_member(z, "reconstruct")
        routes.add((type(report.certificate).__name__, report.chart_moves))
        # (0, ..., 0, det B) stays a member with its top coordinate raised
        probe = perturb(z, (1 << z.n) - 1) if z[0] else perturb(z, 0)
        report = is_member(probe, "basis")
        assert len(calls) == 1
        assert report == MembershipReport(z.n, "non-member", "basis",
                                          BasisViolation(*hyperdet.first_nonzero_entry(probe)))
    assert routes >= {("MatrixCertificate", 0), ("MatrixCertificate", 1),
                      ("SymmetrizableCertificate", 0)}


# -- sign-flip profile ----------------------------------------------------

def test_sign_flip_diagonal_matrix_always_agrees():
    profile = sign_flip_profile(SymmetricMatrix.diagonal([1, 2, 3, 4]))
    assert profile.distinct_counts == {16}
    assert profile.patterns_checked == 64
    assert profile.as_dict()[16] == 64


def test_sign_flip_identity_pattern_present():
    rng = random.Random(39)
    profile = sign_flip_profile(random_symmetric_matrix(4, rng, nonzero_offdiag=True))
    assert 16 in profile.distinct_counts
    assert all(c <= 16 for c in profile.distinct_counts)
    assert sum(freq for _, freq in profile.counts) == profile.patterns_checked


def test_sign_flip_generic_4x4_profile():
    rng = random.Random(40)
    for _ in range(5):
        a = random_symmetric_matrix(4, rng, nonzero_offdiag=True)
        profile = sign_flip_profile(a)
        if profile.distinct_counts == {11, 13, 16}:
            assert 15 not in profile.distinct_counts
            return
    pytest.fail("no generic matrix found in 5 seeded samples")


def test_sign_flip_size_limit():
    with pytest.raises(ValueError):
        sign_flip_profile(SymmetricMatrix.diagonal([1] * 7))


def brute_force_sign_flip(a: SymmetricMatrix) -> dict[int, int]:
    """Histogram over all 2^C(n,2) sign patterns, minors by Laplace
    expansion."""
    pairs = list(combinations(range(a.n), 2))
    base = laplace_minors(a.rows())
    histogram: dict[int, int] = {}
    for mask in range(1 << len(pairs)):
        rows = a.rows()
        for bit, (i, j) in enumerate(pairs):
            if (mask >> bit) & 1:
                rows[i][j], rows[j][i] = -rows[i][j], -rows[j][i]
        agree = sum(got == want for got, want in zip(laplace_minors(rows), base))
        histogram[agree] = histogram.get(agree, 0) + 1
    return histogram


def test_sign_flip_gauge_classes_match_full_enumeration():
    rng = random.Random(41)
    matrices = [SymmetricMatrix.diagonal([2, -1, 3, 5])]
    for n in (1, 2, 4, 5):
        matrices.append(random_symmetric_matrix(n, rng, nonzero_offdiag=True))
        matrices.append(random_symmetric_matrix(n, rng))
        # zero off-diagonals: flipping them changes nothing
        rows = random_symmetric_matrix(n, rng, nonzero_offdiag=True).rows()
        for i, j in combinations(range(n), 2):
            if (i + j) % 2:
                rows[i][j] = rows[j][i] = 0
        matrices.append(SymmetricMatrix.from_rows(rows))
    for a in matrices:
        profile = sign_flip_profile(a)
        assert profile.as_dict() == brute_force_sign_flip(a), a
        assert profile.patterns_checked == 1 << (a.n * (a.n - 1) // 2)

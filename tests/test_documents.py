from __future__ import annotations

import math
import random
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import pytest

from principal_minors import (
    MinorVector,
    SymmetricMatrix,
    cayley_hyperdet,
    hd_basis,
    is_member,
    minor_vector,
)
from principal_minors import documents
from principal_minors.documents import (
    DocumentError,
    basis_digest,
    basis_document,
    dumps,
    loads,
    matrix_document,
    minors_document,
    parse_basis_document,
    parse_matrix_document,
    parse_minors_document,
    parse_polynomial_document,
    polynomial_document,
    report_document,
)
from principal_minors.membership import (
    BasisViolation,
    MatrixCertificate,
    MembershipReport,
    MinorMismatch,
    NoConsistentSigns,
    PrefilterViolation,
    SymmetrizableCertificate,
)
from principal_minors.scalars import MAX_DIGITS, scalar_from_str, scalar_str, scalar_text

from conftest import NOT_P_OVER_Q
from principal_minors.polynomials import MAX_FACTORS


def test_matrix_round_trip_rational():
    m = SymmetricMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 3]])
    doc = matrix_document(m)
    assert doc["entries"][0] == ["1/1", "1/2"]
    assert parse_matrix_document(loads(dumps(doc))) == m


def test_matrix_complex_is_written_not_read():
    # numeric reconstruct renders complex floats; nothing reads them back
    m = SymmetricMatrix(2, ((1 + 0j, 1j), (1j, 2 + 0j)))
    doc = matrix_document(m)
    assert doc["scalar_type"] == "complex"
    assert doc["entries"] == [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [2.0, 0.0]]]
    with pytest.raises(DocumentError, match="complex"):
        parse_matrix_document(loads(dumps(doc)))


def test_minors_round_trip_and_order_marker():
    z = minor_vector(SymmetricMatrix.from_rows([[1, 2], [2, 3]]), 1)
    doc = minors_document(z)
    assert doc["order"] == "lsb-factor-1"
    assert doc["coords"] == ["1/1", "1/1", "3/1", "-1/1"]
    assert parse_minors_document(loads(dumps(doc))) == z


def test_rational_strings_are_reduced_with_positive_denominator():
    z = MinorVector.from_values(1, [Fraction(2, -4), Fraction(6, 3)])
    doc = minors_document(z)
    assert doc["coords"] == ["-1/2", "2/1"]
    for text in doc["coords"]:
        p, q = (int(v) for v in text.split("/"))
        assert q > 0 and math.gcd(p, q) == 1


def test_minors_coords_are_written_like_scalar_str():
    # ints are written in place; a Fraction, or an int past the
    # interpreter's int-to-str limit, is written by scalar_str
    big = -(10 ** (MAX_DIGITS - 1)) + 7
    for coords in ([0, -5, 10 ** 30, 1], [1, Fraction(-7, 3), 2, Fraction(5, 4)], [1, big, 3, 4],
                   [Fraction(1, 10 ** 4400), 2, big, 0]):
        z = MinorVector(2, tuple(coords))
        assert minors_document(z)["coords"] == [scalar_str(c) for c in coords]
    for coords in ([1, 10 ** MAX_DIGITS, 0, 0], [1, Fraction(10 ** MAX_DIGITS, 3), 0, 0]):
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            minors_document(MinorVector(2, tuple(coords)))


def test_rational_strings_read_exactly_the_written_grammar():
    for text, value in (("-3", -3), ("0", 0), ("-0", 0), ("4/2", 2), ("-7/3", Fraction(-7, 3)),
                        ("6/4", Fraction(3, 2)), ("0/5", 0), ("12/1", 12), ("-0/1", 0),
                        ("007/1", 7), ("-007", -7)):
        got = scalar_from_str(text)
        assert got == value and type(got) is type(value)
    # the last seven are at the edge of the "-?digits/1" fast path
    for text in NOT_P_OVER_Q + ("", "-", "1/", "/2", "--1", "1/2/3", "1/1\n", "\u00b2",
                                "\u00b2/1", "\u0661/1", "-/1", "--1/1", "+1/1", "1_0/1", "1/1/1"):
        with pytest.raises(ValueError):
            scalar_from_str(text)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        scalar_from_str("1/0")


def test_rational_strings_up_to_max_digits_round_trip():
    # 10 ** MAX_DIGITS is past the interpreter's 4,300-digit int-to-str limit
    for value in (-(10 ** (MAX_DIGITS - 1)) + 7, Fraction(1, 10 ** (MAX_DIGITS - 1))):
        text = scalar_str(value)
        assert scalar_from_str(text) == value
        assert scalar_text(value) == text.removesuffix("/1")
    assert scalar_from_str("-" + "9" * MAX_DIGITS + "/1") == -(10 ** MAX_DIGITS - 1)
    for text in ("1" * (MAX_DIGITS + 1), "-" + "1" * (MAX_DIGITS + 1), "1/" + "3" * (MAX_DIGITS + 1),
                 "1" * (MAX_DIGITS + 1) + "/1"):
        with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
            scalar_from_str(text)
    with pytest.raises(ValueError, match=f"more than {MAX_DIGITS} digits"):
        scalar_str(10 ** MAX_DIGITS)
    assert (scalar_text(-3), scalar_text(Fraction(7, 2))) == ("-3", "7/2")


def test_json_integers_have_the_rational_digit_bound():
    # json reads integer literals only up to the interpreter's int-to-str limit
    def minors_text(literal):
        return ('{"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",'
                f' "coords": ["1/1", {literal}]}}')
    sevens = "7" * MAX_DIGITS
    assert parse_minors_document(loads(minors_text("-" + sevens))).coords[1] == \
        -7 * (10 ** MAX_DIGITS - 1) // 9
    with pytest.raises(DocumentError, match=f"bad JSON integer: .* more than {MAX_DIGITS} digits"):
        loads(minors_text("7" * (MAX_DIGITS + 1)))


def test_error_messages_cut_a_long_rejected_value():
    for bad, size in (("x" * 100_000, 100_000), ("1" * (MAX_DIGITS + 1), MAX_DIGITS + 1),
                      (["1/1"] * 10_000, len(repr(["1/1"] * 10_000)))):
        doc = {"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",
               "coords": ["1/1", bad]}
        with pytest.raises(DocumentError) as err:
            parse_minors_document(doc)
        assert len(str(err.value)) < 300 and f"... ({size} characters)" in str(err.value)
    # past the int-to-str limit, where repr(n) itself would raise
    with pytest.raises(DocumentError,
                       match=r"^n must be at least 1, got -1000.*\(5002 characters\)$"):
        parse_minors_document({"kind": "minors", "schema_version": 1, "n": -10 ** 5000,
                               "order": "lsb-factor-1", "coords": ["1/1"]})
    # a short value keeps its whole repr
    with pytest.raises(DocumentError, match="^bad rational 'x': not of the form p/q in ASCII"
                                            " digits: 'x'$"):
        parse_minors_document({"kind": "minors", "schema_version": 1, "n": 1,
                               "order": "lsb-factor-1", "coords": ["1/1", "x"]})


def test_minors_coords_read_in_bulk_as_one_at_a_time():
    # a list of "p/1" texts is read in bulk, one match of the joined text
    # and one JSON array; every other list goes through documents._scalar_in
    # one value at a time, with the same values, types and errors
    edges = ("-0/1", "007/1", "", " 1/1", "1/1 ", "-" + "9" * 5000 + "/1",
             "1" + "0" * 4300 + "/1", "-" + "1" * 4301 + "/1", "9" * MAX_DIGITS + "/1",
             "-" + "9" * MAX_DIGITS + "/1", "9" * (MAX_DIGITS + 1) + "/1", "1/1,2/1", "1/1,",
             ",1/1", "1/1\n", "+1/1", "1_0/1", "\u0661/1", "/1", "-/1", "1/2", "1/11", "4/2",
             "-3", "1", 5, -7, 10 ** 5000, Fraction(1, 2), True, 1.0, None, ["1/1"])
    for edge in edges:
        for values in (["1/1", edge], [edge, "-2/1", "3/1", "40/1"], ["1/1", "2/1", "3/1", edge]):
            doc = {"kind": "minors", "schema_version": 1, "n": len(values).bit_length() - 1,
                   "order": "lsb-factor-1", "coords": values}
            rows = [values, ["0/1"] * len(values), list(reversed(values))]
            try:
                expected = tuple(documents._scalar_in(c) for c in values)
            except DocumentError as err:
                with pytest.raises(DocumentError) as got:
                    parse_minors_document(doc)
                assert str(got.value) == str(err)
                with pytest.raises(DocumentError) as got:
                    documents._rows_in(rows)
                assert str(got.value) == str(err)
                continue
            got = parse_minors_document(doc).coords
            assert got == expected and list(map(type, got)) == list(map(type, expected))
            got = documents._rows_in(rows)
            assert got == (expected, (0,) * len(values), expected[::-1])
            assert [list(map(type, row)) for row in got[::2]] == \
                [list(map(type, want)) for want in (expected, expected[::-1])]


def test_exponent_form_is_rejected_before_building_its_integer():
    # fractions.Fraction reads "1e1000000" as a 3.3-million-bit integer
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError) as err:
            parse_minors_document({"kind": "minors", "schema_version": 1, "n": 1,
                                   "order": "lsb-factor-1", "coords": ["1/1", "1e1000000"]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith("bad rational '1e1000000': ")
    assert peak < 100_000


def test_polynomial_round_trip():
    p = cayley_hyperdet(4, (1, 2, 3))
    assert parse_polynomial_document(loads(dumps(polynomial_document(p)))) == p


def test_polynomial_document_beyond_the_factor_bound_is_rejected_before_1_shl_n():
    # 1 << n alone takes 125 MB at n = 10**9
    doc = {"kind": "polynomial", "schema_version": 1, "n": 10 ** 9,
           "terms": [{"monomial": [[0, 1]], "coeff": "1/1"}]}
    tracemalloc.start()
    try:
        with pytest.raises(DocumentError) as err:
            parse_polynomial_document(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"bad polynomial document: factor count must be in 1..{MAX_FACTORS}"
    assert peak < 100_000


def test_basis_round_trip_with_digest_check():
    basis = hd_basis(3)
    doc = basis_document(basis)
    back = parse_basis_document(loads(dumps(doc)))
    assert back == basis
    doc_bad = dict(doc)
    doc_bad["entries"] = list(doc["entries"])
    doc_bad["entries"][0] = dict(doc_bad["entries"][0], weight=[9, 9, 9])
    with pytest.raises(DocumentError):
        parse_basis_document(doc_bad)


def test_report_document_shapes():
    z = minor_vector(SymmetricMatrix.diagonal([1, 2, 3, 4]), 1)
    member = report_document(is_member(z, "reconstruct"))
    assert member["verdict"] == "member"
    assert member["certificate"]["type"] == "matrix"

    coords = list(z.coords)
    coords[-1] += 1
    bad = MinorVector.from_values(4, coords)
    rejected = report_document(is_member(bad, "basis"))
    assert rejected["verdict"] == "non-member"
    assert rejected["certificate"]["type"] == "basis-violation"
    assert Fraction(rejected["certificate"]["value"]) != 0


def test_report_round_trip_every_certificate_shape():
    from principal_minors.documents import parse_report_document

    z = minor_vector(SymmetricMatrix.diagonal([1, 2, 3, 4]), 1)
    coords = list(z.coords)
    coords[-1] += 1
    bad = MinorVector.from_values(4, coords)
    complex_needing = MinorVector.from_values(3, [1, 1, 1, 2, 1, 1, 1, 2])
    prefilter_bad = MinorVector.from_values(4, [1, 1, 1, 0, 1, 0, 0, 1] + [0] * 8)
    reports = [
        is_member(z, "basis"),
        is_member(z, "reconstruct"),
        is_member(z, "prefilter"),
        is_member(bad, "basis"),
        is_member(bad, "reconstruct"),
        is_member(MinorVector.from_values(2, [1, 1, 1, -1]), "reconstruct"),
        is_member(complex_needing, "reconstruct"),
        is_member(MinorVector.from_values(3, [1, 1, 1, 0, 1, 0, 0, 1]), "reconstruct"),
        is_member(prefilter_bad, "prefilter"),
    ]
    for report in reports:
        doc = loads(dumps(report_document(report)))
        assert parse_report_document(doc) == report
    witness = report_document(reports[-1])["certificate"]
    assert witness["triple"] == [1, 2, 3] and len(witness["s"]) == 4
    assert witness["value"] == "5/1"


def test_parse_report_rejects_experiment_documents():
    from principal_minors.documents import parse_report_document, sign_flip_document
    from principal_minors import sign_flip_profile

    a = SymmetricMatrix.diagonal([1, 2, 3])
    doc = sign_flip_document(sign_flip_profile(a), seed=0, trial=0, matrix=a)
    with pytest.raises(DocumentError):
        parse_report_document(doc)


def test_parse_report_rejects_values_outside_their_sets():
    from principal_minors.documents import parse_report_document

    report = {"kind": "report", "schema_version": 1, "n": 3, "verdict": "member",
              "method": "basis", "chart_moves": 0, "certificate": None}
    assert parse_report_document(report).exit_code == 0
    for field, bad, choices in (("verdict", "bogus", "member, non-member, indeterminate"),
                                ("method", "nope", "basis, reconstruct, prefilter"),
                                ("verdict", "Member", "member, non-member, indeterminate")):
        with pytest.raises(DocumentError, match=f"^{field} must be one of {choices},"
                                                f" got '{bad}'$"):
            parse_report_document(dict(report, **{field: bad}))
    with pytest.raises(DocumentError, match=r"^verdict must be one of .*\(100000 characters\)$"):
        parse_report_document(dict(report, verdict="x" * 100_000))
    for check in ("cycle", "triple"):
        certificate = {"type": "no-consistent-signs", "check": check, "encoding": 7,
                       "expected": "1/1", "actual": "2/1"}
        parsed = parse_report_document(dict(report, verdict="non-member", method="reconstruct",
                                            certificate=certificate))
        assert parsed.certificate == NoConsistentSigns(check, 7, 1, 2)
        for bad, tail in (("chord", "'chord'"),
                          ("x" * 100_000, r"'x+\.\.\. \(100000 characters\)")):
            with pytest.raises(DocumentError, match="^bad certificate payload: check must be"
                                                    f" one of cycle, triple, got {tail}$"):
                parse_report_document(dict(report, verdict="non-member", method="reconstruct",
                                           certificate=dict(certificate, check=bad)))


def test_serialization_is_deterministic():
    basis = hd_basis(4)
    assert dumps(basis_document(basis)) == dumps(basis_document(basis))


def test_basis_text_is_the_document_dumped_once():
    for n in (3, 4, 5):
        basis = hd_basis(n)
        text, digest = documents.basis_text(basis)
        assert text == dumps(basis_document(basis))
        assert digest == basis_digest(basis) == basis_document(basis)["digest"]
    assert digest == "sha256:14ee0386e43f4975f44dca40e4a4ef4a127598a236559a592b15e03268dd49d5"


def test_parse_rejects_wrong_kind_and_schema():
    z = minor_vector(SymmetricMatrix.diagonal([1]), 1)
    doc = minors_document(z)
    with pytest.raises(DocumentError):
        parse_matrix_document(doc)
    bad = dict(doc, schema_version=99)
    with pytest.raises(DocumentError):
        parse_minors_document(bad)


def test_parse_rejects_malformed_payload():
    with pytest.raises(DocumentError):
        loads("not json")
    with pytest.raises(DocumentError):
        loads('"just a string"')
    with pytest.raises(DocumentError):
        parse_minors_document(
            {"kind": "minors", "schema_version": 1, "n": 2, "order": "lsb-factor-1",
             "coords": ["1/1"]}
        )
    with pytest.raises(DocumentError):
        parse_minors_document(
            {"kind": "minors", "schema_version": 1, "n": 1, "order": "msb",
             "coords": ["1/1", "1/1"]}
        )
    with pytest.raises(DocumentError):
        parse_matrix_document(
            {"kind": "matrix", "schema_version": 1, "n": 1, "scalar_type": "rational",
             "entries": [["1/0"]]}
        )
    with pytest.raises(DocumentError):
        parse_matrix_document(
            {"kind": "matrix", "schema_version": 1, "n": 1, "scalar_type": ["rational"],
             "entries": [["1/1"]]}
        )


def test_asymmetric_matrix_rejected():
    with pytest.raises(DocumentError):
        parse_matrix_document(
            {"kind": "matrix", "schema_version": 1, "n": 2, "scalar_type": "rational",
             "entries": [["1/1", "2/1"], ["3/1", "1/1"]]}
        )


def test_random_minors_round_trips_exactly():
    rng = random.Random(50)
    for _ in range(10):
        n = rng.randint(1, 4)
        coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(1 << n)]
        z = MinorVector.from_values(n, coords)
        assert parse_minors_document(loads(dumps(minors_document(z)))) == z


# -- strict reading -----------------------------------------------------

MINORS = {"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",
          "coords": ["1/1", "2/1"]}
MATRIX = {"kind": "matrix", "schema_version": 1, "n": 1, "scalar_type": "rational",
          "entries": [["2/1"]]}
POLYNOMIAL = {"kind": "polynomial", "schema_version": 1, "n": 1,
              "terms": [{"monomial": [[0, 2], [1, 1]], "coeff": "1/1"}]}
REPORT = {"kind": "report", "schema_version": 1, "n": 1, "verdict": "non-member",
          "method": "reconstruct", "chart_moves": 0,
          "certificate": {"type": "minor-mismatch", "encoding": 1, "expected": "1/1",
                          "actual": "2/1"}}
PARSERS = {"minors": parse_minors_document, "matrix": parse_matrix_document,
           "polynomial": parse_polynomial_document,
           "report": documents.parse_report_document}
# The CLI subcommands that read each kind; reports are read by no subcommand.
READERS = {
    "minors": [["check", "--method", m] for m in ("basis", "reconstruct", "prefilter")]
              + [["reconstruct", "--mode", m] for m in ("exact", "numeric")],
    "matrix": [["minors"]],
    "polynomial": [["rep", "lower-to-lowest"]],
    "report": [],
}
BASES = {"minors": MINORS, "matrix": MATRIX, "polynomial": POLYNOMIAL, "report": REPORT}


def _certificate(**changes):
    return {"certificate": dict(REPORT["certificate"], **changes)}


# (kind, changed keys): each value was once coerced to a valid one, or crashed
# the parser.
MALFORMED = [
    ("minors", {"coords": [True, 2]}),
    ("minors", {"n": True}),
    ("minors", {"n": 0, "coords": ["1/1"]}),
    ("minors", {"n": -3, "coords": ["1/1"]}),
    ("minors", {"schema_version": True}),
    ("matrix", {"entries": [[True]]}),
    ("matrix", {"n": True}),
    ("matrix", {"entries": ["2"]}),
    ("matrix", {"scalar_type": "complex", "entries": [[[True, 0]]]}),
    ("polynomial", {"terms": [{"monomial": [[0, 1.9]], "coeff": "1/1"}]}),
    ("polynomial", {"terms": [{"monomial": [["0", 1]], "coeff": "1/1"}]}),
    ("polynomial", {"n": True}),
    ("report", {"n": "3"}),
    ("report", {"n": 0}),
    ("report", {"chart_moves": 1.7}),
    ("report", {"chart_moves": -1}),
    ("report", _certificate(encoding=2.5)),
    ("report", _certificate(encoding=True)),
    ("report", _certificate(expected=True)),
    ("report", {"certificate": {"type": "no-consistent-signs", "check": 1, "encoding": 3,
                                "expected": "1/1", "actual": "-1/1"}}),
    ("report", {"certificate": {"type": "symmetrizable-matrix", "rows": ["12"],
                                "scale": "1/1"}}),
    ("report", {"certificate": 5}),
    ("report", {"certificate": {"type": "matrix", "matrix": 5, "scale": "1/1"}}),
    ("polynomial", {"terms": [{"monomial": [[0, 0]], "coeff": "1/1"}]}),
    ("polynomial", {"terms": [{"monomial": [[0, 1000000]], "coeff": "1/1"}]}),
    ("polynomial", {"terms": [{"monomial": [[0, 16], [1, 16]], "coeff": "1/1"}]}),
    # one term of 20 distinct variables: lowering it builds up to C(20, 10) terms
    ("polynomial", {"n": 6, "terms": [{"monomial": [[enc, 1] for enc in range(0, 40, 2)],
                                       "coeff": "1/1"}]}),
]


# every spelling outside -?[0-9]+(/[0-9]+)? in every place a rational is read
MALFORMED += [change for text in NOT_P_OVER_Q for change in (
    ("matrix", {"entries": [[text]]}),
    ("minors", {"coords": ["1/1", text]}),
    ("polynomial", {"terms": [{"monomial": [[0, 1]], "coeff": text}]}),
    ("report", _certificate(expected=text)),
)]


def test_base_documents_parse():
    for kind, doc in BASES.items():
        PARSERS[kind](doc)


@pytest.mark.parametrize("kind,changes", MALFORMED)
def test_malformed_values_are_rejected(kind, changes, tmp_path, capsys):
    from principal_minors.cli import main

    doc = dict(BASES[kind], **changes)
    with pytest.raises(DocumentError):
        PARSERS[kind](doc)
    infile, out = tmp_path / "in.json", tmp_path / "out.json"
    infile.write_text(dumps(doc))
    for command in READERS[kind]:
        assert main(command + ["--in", str(infile), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert not out.exists()


# -- certificates ---------------------------------------------------------

CERTIFICATE_EXAMPLES = [
    BasisViolation(3, Fraction(-1, 2)),
    MatrixCertificate(SymmetricMatrix.from_rows([[1, Fraction(2, 3)], [Fraction(2, 3), 3]]), 2),
    MinorMismatch(7, 1, Fraction(5, 3)),
    SymmetrizableCertificate(((1, 2), (1, 1)), Fraction(1, 3)),
    NoConsistentSigns("cycle", 7, 1, -1),
    PrefilterViolation((1, 2, 4), (3, 0, 7, 1), -4),
]


def test_every_certificate_type_round_trips_through_the_table():
    assert {type(c) for c in CERTIFICATE_EXAMPLES} == set(documents.CERTIFICATES.values())
    for certificate in CERTIFICATE_EXAMPLES:
        report = MembershipReport(2, "member", "reconstruct", certificate, chart_moves=1)
        doc = report_document(report)
        payload = doc["certificate"]
        # "type" first, then the fields in declaration order: `check` prints this dict
        assert list(payload) == ["type"] + [f.name for f in fields(certificate)]
        assert documents.CERTIFICATES[payload["type"]] is type(certificate)
        assert documents.parse_report_document(loads(dumps(doc))) == report


def test_witness_fields_read_as_lists_of_nonnegative_integers():
    report = MembershipReport(4, "non-member", "prefilter",
                              PrefilterViolation((1, 2, 3), (5, 6, 7, 8), 2))
    for name, bad in (("triple", "123"), ("s", {"5": 6}), ("s", [5, 6, True, 8]),
                      ("triple", [1, -2, 3])):
        doc = loads(dumps(report_document(report)))
        doc["certificate"][name] = bad
        with pytest.raises(DocumentError):
            documents.parse_report_document(doc)

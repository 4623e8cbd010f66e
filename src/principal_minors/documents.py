"""Versioned structured-text documents for every CLI input and output.

All documents are JSON objects with "kind" and "schema_version" fields,
serialized canonically (sorted keys, fixed separators) so identical data
yields byte-identical files.  Each value kind has one writer and one
reader.  Integers are JSON integers with a lower bound (n >= 1;
polynomial exponents >= 1; encodings, basis exponents and chart_moves
>= 0).  A polynomial document's n is at most polynomials.MAX_FACTORS,
checked before any 2^n is built, and its monomials have total degree at most
MAX_DOCUMENT_DEGREE: lowering one term of d distinct variables builds up
to C(d, d/2) terms, so one degree-12 term takes about 0.05 s in `pminors
rep lower-to-lowest` and one of degree 20 about 30 s (2-core x86 VM,
Python 3.11).  Rationals are written as reduced "p/q" strings with q > 0
and read from JSON integers or from strings in exactly the grammar
-?[0-9]+(/[0-9]+)? with q >= 1 (scalars.scalar_from_str, which also
reads every JSON integer literal, so both share its digit bound); booleans,
floats, decimals, exponents and every other spelling are rejected.  An
error message shows a long rejected value cut short (scalars.excerpt).
Matrices are read as rationals only: a complex matrix document, numeric
`reconstruct`'s rendering, is written but never read back.  Minor vectors carry the explicit "order":
"lsb-factor-1" marker (factor 1 = least significant bit of the
coordinate position).  A certificate is "type" plus one key per field
of its dataclass in membership.py.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from fractions import Fraction
from typing import Any, Callable

from .hyperdet import BasisEntry, ModuleBasis
from .indices import MinorVector
from .matrices import SymmetricMatrix
from .membership import (
    BasisViolation,
    MatrixCertificate,
    MembershipReport,
    MinorMismatch,
    NoConsistentSigns,
    PrefilterViolation,
    SignFlipProfile,
    SymmetrizableCertificate,
)
from .polynomials import TensorPolynomial
from .scalars import MAX_DIGITS, Scalar, as_scalar, excerpt, scalar_from_str, scalar_str

SCHEMA_VERSION = 1
MINOR_ORDER = "lsb-factor-1"
MAX_DOCUMENT_DEGREE = 12
# integral "p/1" texts, each followed by a comma, in
# scalars.scalar_from_str's grammar and digit bound
_INTEGRAL_LIST = re.compile(f"(?:-?[0-9]{{1,{MAX_DIGITS}}}/1,)*")


class DocumentError(ValueError):
    pass


def _int_in(value: Any, what: str, low: int | None = None) -> int:
    if type(value) is not int:
        raise DocumentError(f"{what} must be a JSON integer, got {excerpt(value)}")
    if low is not None and value < low:
        raise DocumentError(f"{what} must be at least {low}, got {excerpt(value)}")
    return value


def _str_in(value: Any, what: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{what} must be a string, got {excerpt(value)}")
    if choices is not None and value not in choices:
        raise DocumentError(f"{what} must be one of {', '.join(choices)}, got {excerpt(value)}")
    return value


def _ints_in(value: Any) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise DocumentError(f"certificate integers must be a list, got {excerpt(value)}")
    return tuple(_int_in(v, "certificate integer", 0) for v in value)


def _scalar_in(value: Any) -> Scalar:
    if not isinstance(value, (int, str)):
        raise DocumentError(f"expected a rational string, got {excerpt(value)}")
    try:
        return scalar_from_str(value) if type(value) is str else as_scalar(value)
    except (TypeError, ValueError) as err:
        raise DocumentError(f"bad rational {excerpt(value)}: {err}") from err


def _rows_in(rows: Any) -> tuple[tuple[Scalar, ...], ...]:
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise DocumentError(f"expected a list of rows, got {excerpt(rows)}")
    return tuple(map(_coords_in, rows))


def _coords_in(values: list) -> tuple[Scalar, ...]:
    """_scalar_in on each value, read in bulk when every one is "p/1"
    text within the digit bound: one match of the joined text and one
    JSON array of the numerators."""
    try:
        text = ",".join(values) + ","
        if _INTEGRAL_LIST.fullmatch(text):
            ints = json.loads(f"[{text.replace('/1,', ',')[:-1]}]")
            # a value holding a comma of its own would read as two
            if len(ints) == len(values):
                return tuple(ints)
    except (TypeError, ValueError):
        pass  # a value that is not text; a leading zero; past the int-to-str limit
    return tuple(_scalar_in(v) for v in values)


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dumps(obj: dict) -> str:
    return _canonical(obj) + "\n"


def loads(text: str) -> dict:
    try:
        # JSON integers are read like "p/q" text: MAX_DIGITS digits, past
        # the interpreter's int-to-str limit through decimal
        obj = json.loads(text, parse_int=scalar_from_str)
    except json.JSONDecodeError as err:
        raise DocumentError(f"not valid JSON: {err}") from err
    except RecursionError:
        # the decoder's own message differs between Python versions
        raise DocumentError("not valid JSON: nested too deeply") from None
    except ValueError as err:
        raise DocumentError(f"bad JSON integer: {err}") from err
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


def _expect(obj: Any, kind: str) -> dict:
    if not isinstance(obj, dict):
        raise DocumentError(f"expected a {kind} document, got {excerpt(obj)}")
    if obj.get("kind") != kind:
        raise DocumentError(f"expected kind={kind!r}, got {excerpt(obj.get('kind'))}")
    version = obj.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {excerpt(version)}")
    return obj


# -- matrix ------------------------------------------------------------

def matrix_document(matrix: SymmetricMatrix) -> dict:
    rational = all(isinstance(v, (int, Fraction)) for row in matrix.entries for v in row)
    write = scalar_str if rational else (lambda v: [complex(v).real, complex(v).imag])
    return {
        "kind": "matrix",
        "schema_version": SCHEMA_VERSION,
        "n": matrix.n,
        "scalar_type": "rational" if rational else "complex",
        "entries": [[write(v) for v in row] for row in matrix.entries],
    }


def parse_matrix_document(obj: dict) -> SymmetricMatrix:
    obj = _expect(obj, "matrix")
    n = _int_in(obj.get("n"), "n", 1)
    scalar_type = _str_in(obj.get("scalar_type", "rational"), "scalar_type")
    if scalar_type == "complex":
        raise DocumentError("complex matrix documents are written, not read:"
                            " their entries are not exact")
    if scalar_type != "rational":
        raise DocumentError(f"unknown scalar_type {excerpt(scalar_type)}")
    try:
        return SymmetricMatrix(n, _rows_in(obj.get("entries")))
    except (ValueError, TypeError) as err:
        raise DocumentError(f"bad matrix document: {err}") from err


# -- minors ------------------------------------------------------------

def minors_document(z: MinorVector) -> dict:
    return {
        "kind": "minors",
        "schema_version": SCHEMA_VERSION,
        "n": z.n,
        "order": MINOR_ORDER,
        "coords": [scalar_str(c) for c in z.coords],
    }


def parse_minors_document(obj: dict) -> MinorVector:
    obj = _expect(obj, "minors")
    if obj.get("order") != MINOR_ORDER:
        raise DocumentError(f"unsupported coordinate order {excerpt(obj.get('order'))}")
    n = _int_in(obj.get("n"), "n", 1)
    coords = obj.get("coords")
    # compare bit lengths first, so a huge n never builds 1 << n
    if (not isinstance(coords, list) or len(coords).bit_length() != n + 1
            or len(coords) != 1 << n):
        raise DocumentError("minors document needs 2^n coords")
    return MinorVector(n, _coords_in(coords))


# -- polynomial --------------------------------------------------------

def polynomial_document(poly: TensorPolynomial) -> dict:
    terms = [
        {"monomial": pairs, "coeff": scalar_str(coeff)}
        for pairs, coeff in poly.terms()
    ]
    return {
        "kind": "polynomial",
        "schema_version": SCHEMA_VERSION,
        "n": poly.n,
        "terms": terms,
    }


def _monomial_in(monomial: Any) -> tuple[tuple[int, int], ...]:
    pairs = tuple((_int_in(enc, "encoding", 0), _int_in(exp, "exponent", 1))
                  for enc, exp in monomial)
    degree = sum(exp for _, exp in pairs)
    if degree > MAX_DOCUMENT_DEGREE:
        raise DocumentError(f"monomial degree {degree} exceeds {MAX_DOCUMENT_DEGREE}")
    return pairs


def parse_polynomial_document(obj: dict) -> TensorPolynomial:
    obj = _expect(obj, "polynomial")
    n = _int_in(obj.get("n"), "n", 1)
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise DocumentError("polynomial document needs a terms list")
    try:
        parsed = [(_monomial_in(term["monomial"]), _scalar_in(term["coeff"])) for term in terms]
        return TensorPolynomial.from_terms(n, parsed)
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad polynomial document: {err}") from err


# -- basis -------------------------------------------------------------

def _basis_entries_payload(basis: ModuleBasis) -> list[dict]:
    return [
        {
            "triple": entry.triple,
            "exponents": entry.exponents,
            "weight": entry.weight,
            "polynomial": polynomial_document(entry.polynomial),
        }
        for entry in basis.entries
    ]


def _digest(n: int, entries_text: str) -> str:
    """The hash of dumps({"n": n, "entries": entries}), spliced from the
    entries' text."""
    # imported here: loading OpenSSL adds about 3.6 MB resident to every
    # command, and only basis documents carry a digest
    import hashlib

    payload = f'{{"entries":{entries_text},"n":{n}}}\n'
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def basis_digest(basis: ModuleBasis) -> str:
    return _digest(basis.n, _canonical(_basis_entries_payload(basis)))


def basis_document(basis: ModuleBasis) -> dict:
    entries = _basis_entries_payload(basis)
    return {
        "kind": "basis",
        "schema_version": SCHEMA_VERSION,
        "n": basis.n,
        "dimension": len(basis),
        "digest": _digest(basis.n, _canonical(entries)),
        "entries": entries,
    }


def basis_text(basis: ModuleBasis) -> tuple[str, str]:
    """dumps(basis_document(basis)) and the digest, with the entries
    serialized once and spliced into both the hashed payload and the
    document."""
    entries = _canonical(_basis_entries_payload(basis))
    digest = _digest(basis.n, entries)
    # sorted keys: digest, dimension, entries, kind, n, schema_version
    head = _canonical({"digest": digest, "dimension": len(basis)})[:-1]
    tail = _canonical({"kind": "basis", "n": basis.n, "schema_version": SCHEMA_VERSION})[1:]
    return f'{head},"entries":{entries},{tail}\n', digest


def parse_basis_document(obj: dict) -> ModuleBasis:
    obj = _expect(obj, "basis")
    n = _int_in(obj.get("n"), "n", 1)
    entries = obj.get("entries")
    if not isinstance(entries, list):
        raise DocumentError("basis document needs an entries list")
    try:
        parsed = tuple(
            BasisEntry(
                tuple(_int_in(k, "triple factor", 1) for k in entry["triple"]),
                tuple(_int_in(e, "exponent", 0) for e in entry["exponents"]),
                parse_polynomial_document(entry["polynomial"]),
                tuple(_int_in(w, "weight") for w in entry["weight"]),
            )
            for entry in entries
        )
    except (KeyError, TypeError) as err:
        raise DocumentError(f"bad basis document: {err}") from err
    basis = ModuleBasis(n, parsed)
    digest = obj.get("digest")
    if digest is not None and digest != basis_digest(basis):
        raise DocumentError("basis digest mismatch")
    return basis


# -- report ------------------------------------------------------------

# Certificate type name -> dataclass.  The one table a report reader
# dispatches on.
CERTIFICATES = {
    "basis-violation": BasisViolation,
    "matrix": MatrixCertificate,
    "minor-mismatch": MinorMismatch,
    "symmetrizable-matrix": SymmetrizableCertificate,
    "no-consistent-signs": NoConsistentSigns,
    "prefilter-violation": PrefilterViolation,
}
_CERTIFICATE_NAMES = {cls: name for name, cls in CERTIFICATES.items()}

# Field annotation -> (writer, reader) for one certificate field; the one
# str field is NoConsistentSigns.check.
# membership.py postpones annotations, so Field.type is the annotation's
# source text.  matrix_document and parse_matrix_document are looked up
# at call time, so a caller that rebinds them sees every call.
_FIELD_CODECS: dict[str, tuple[Callable, Callable]] = {
    "int": (int, lambda v: _int_in(v, "certificate integer", 0)),
    "tuple[int, ...]": (list, _ints_in),
    "str": (str, lambda v: _str_in(v, "check", ("cycle", "triple"))),
    "Scalar": (scalar_str, _scalar_in),
    "SymmetricMatrix": (lambda m: matrix_document(m), lambda v: parse_matrix_document(v)),
    "tuple[tuple[Scalar, ...], ...]": (lambda rows: [[scalar_str(v) for v in row] for row in rows],
                                       _rows_in),
}


def _certificate_payload(certificate) -> dict | None:
    if certificate is None:
        return None
    name = _CERTIFICATE_NAMES.get(type(certificate))
    if name is None:
        raise DocumentError(f"unknown certificate {certificate!r}")
    payload = {"type": name}
    for field in fields(certificate):
        payload[field.name] = _FIELD_CODECS[field.type][0](getattr(certificate, field.name))
    return payload


def report_document(report: MembershipReport) -> dict:
    return {
        "kind": "report",
        "schema_version": SCHEMA_VERSION,
        "n": report.n,
        "verdict": report.verdict,
        "method": report.method,
        "chart_moves": report.chart_moves,
        "certificate": _certificate_payload(report.certificate),
    }


def _parse_certificate(payload: Any):
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise DocumentError(f"certificate must be an object, got {excerpt(payload)}")
    cls = CERTIFICATES.get(_str_in(payload.get("type"), "certificate type"))
    if cls is None:
        raise DocumentError(f"unknown certificate type {excerpt(payload.get('type'))}")
    try:
        return cls(*(_FIELD_CODECS[field.type][1](payload[field.name])
                     for field in fields(cls)))
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad certificate payload: {err}") from err


def parse_report_document(obj: dict) -> MembershipReport:
    obj = _expect(obj, "report")
    if "experiment" in obj:
        raise DocumentError("experiment reports are not membership reports")
    return MembershipReport(
        n=_int_in(obj.get("n"), "n", 1),
        verdict=_str_in(obj.get("verdict"), "verdict", ("member", "non-member", "indeterminate")),
        method=_str_in(obj.get("method"), "method", ("basis", "reconstruct", "prefilter")),
        certificate=_parse_certificate(obj.get("certificate")),
        chart_moves=_int_in(obj.get("chart_moves", 0), "chart_moves", 0),
    )


def sign_flip_document(profile: SignFlipProfile, seed: int, trial: int,
                       matrix: SymmetricMatrix) -> dict:
    full = 1 << profile.n
    return {
        "kind": "report",
        "schema_version": SCHEMA_VERSION,
        "experiment": "sign-flip",
        "n": profile.n,
        "seed": seed,
        "trial": trial,
        "matrix": matrix_document(matrix),
        "patterns_checked": profile.patterns_checked,
        "counts": [[c, f] for c, f in profile.counts],
        "has_full_agreement": full in profile.distinct_counts,
        "has_almost_agreement": (full - 1) in profile.distinct_counts,
    }

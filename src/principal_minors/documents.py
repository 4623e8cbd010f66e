"""Versioned structured-text documents for every CLI input and output.

All documents are JSON objects with "kind" and "schema_version" fields.
Exact rationals are serialized as reduced "p/q" strings with q > 0;
minor vectors carry the explicit "order": "lsb-factor-1" marker (factor
1 = least significant bit of the coordinate position).  Serialization
is canonical (sorted keys, fixed separators) so identical data yields
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

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
from .scalars import Scalar, normalize, scalar_str

SCHEMA_VERSION = 1
MINOR_ORDER = "lsb-factor-1"


class DocumentError(ValueError):
    pass


def _scalar_out(value: Scalar) -> str:
    return scalar_str(value)


def _scalar_in(text: Any) -> Scalar:
    if isinstance(text, str):
        try:
            return normalize(Fraction(text))
        except (ValueError, ZeroDivisionError) as err:
            raise DocumentError(f"bad rational {text!r}: {err}") from err
    if isinstance(text, int):
        return text
    raise DocumentError(f"expected a rational string, got {text!r}")


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise DocumentError(f"not valid JSON: {err}") from err
    if not isinstance(obj, dict):
        raise DocumentError("document must be a JSON object")
    return obj


def _expect(obj: dict, kind: str) -> dict:
    if obj.get("kind") != kind:
        raise DocumentError(f"expected kind={kind!r}, got {obj.get('kind')!r}")
    if obj.get("schema_version") != SCHEMA_VERSION:
        raise DocumentError(f"unsupported schema_version {obj.get('schema_version')!r}")
    return obj


# -- matrix ------------------------------------------------------------

def matrix_document(matrix: SymmetricMatrix) -> dict:
    if all(isinstance(v, (int, Fraction)) for row in matrix.entries for v in row):
        entries = [[_scalar_out(v) for v in row] for row in matrix.entries]
        return {
            "kind": "matrix",
            "schema_version": SCHEMA_VERSION,
            "n": matrix.n,
            "scalar_type": "rational",
            "entries": entries,
        }
    entries = [[[complex(v).real, complex(v).imag] for v in row] for row in matrix.entries]
    return {
        "kind": "matrix",
        "schema_version": SCHEMA_VERSION,
        "n": matrix.n,
        "scalar_type": "complex",
        "entries": entries,
    }


def parse_matrix_document(obj: dict) -> SymmetricMatrix:
    obj = _expect(obj, "matrix")
    n = obj.get("n")
    entries = obj.get("entries")
    if not isinstance(n, int) or not isinstance(entries, list) or len(entries) != n:
        raise DocumentError("matrix document needs integer n and an n x n entries grid")
    scalar_type = obj.get("scalar_type", "rational")
    try:
        if scalar_type == "rational":
            rows = [[_scalar_in(v) for v in row] for row in entries]
        elif scalar_type == "complex":
            rows = [[complex(v[0], v[1]) for v in row] for row in entries]
        else:
            raise DocumentError(f"unknown scalar_type {scalar_type!r}")
        return SymmetricMatrix(n, tuple(tuple(r) for r in rows))
    except (ValueError, TypeError, IndexError) as err:
        raise DocumentError(f"bad matrix document: {err}") from err


# -- minors ------------------------------------------------------------

def minors_document(z: MinorVector) -> dict:
    return {
        "kind": "minors",
        "schema_version": SCHEMA_VERSION,
        "n": z.n,
        "order": MINOR_ORDER,
        "coords": [_scalar_out(c) for c in z.coords],
    }


def parse_minors_document(obj: dict) -> MinorVector:
    obj = _expect(obj, "minors")
    if obj.get("order") != MINOR_ORDER:
        raise DocumentError(f"unsupported coordinate order {obj.get('order')!r}")
    n = obj.get("n")
    coords = obj.get("coords")
    if not isinstance(n, int) or not isinstance(coords, list) or len(coords) != (1 << n):
        raise DocumentError("minors document needs integer n and 2^n coords")
    return MinorVector(n, tuple(_scalar_in(c) for c in coords))


# -- polynomial --------------------------------------------------------

def polynomial_document(poly: TensorPolynomial) -> dict:
    terms = [
        {"monomial": [[enc, exp] for enc, exp in pairs], "coeff": _scalar_out(coeff)}
        for pairs, coeff in poly.terms()
    ]
    return {
        "kind": "polynomial",
        "schema_version": SCHEMA_VERSION,
        "n": poly.n,
        "terms": terms,
    }


def parse_polynomial_document(obj: dict) -> TensorPolynomial:
    obj = _expect(obj, "polynomial")
    n = obj.get("n")
    terms = obj.get("terms")
    if not isinstance(n, int) or not isinstance(terms, list):
        raise DocumentError("polynomial document needs integer n and a terms list")
    try:
        parsed = [
            (tuple((int(enc), int(exp)) for enc, exp in term["monomial"]),
             _scalar_in(term["coeff"]))
            for term in terms
        ]
        return TensorPolynomial.from_terms(n, parsed)
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad polynomial document: {err}") from err


# -- basis -------------------------------------------------------------

def _basis_entries_payload(basis: ModuleBasis) -> list[dict]:
    return [
        {
            "triple": list(entry.triple),
            "exponents": list(entry.exponents),
            "weight": list(entry.weight),
            "polynomial": polynomial_document(entry.polynomial),
        }
        for entry in basis.entries
    ]


def basis_digest(basis: ModuleBasis) -> str:
    payload = dumps({"n": basis.n, "entries": _basis_entries_payload(basis)})
    return "sha256:" + hashlib.sha256(payload.encode()).hexdigest()


def basis_document(basis: ModuleBasis) -> dict:
    return {
        "kind": "basis",
        "schema_version": SCHEMA_VERSION,
        "n": basis.n,
        "dimension": len(basis),
        "digest": basis_digest(basis),
        "entries": _basis_entries_payload(basis),
    }


def parse_basis_document(obj: dict) -> ModuleBasis:
    obj = _expect(obj, "basis")
    n = obj.get("n")
    entries = obj.get("entries")
    if not isinstance(n, int) or not isinstance(entries, list):
        raise DocumentError("basis document needs integer n and an entries list")
    try:
        parsed = tuple(
            BasisEntry(
                tuple(entry["triple"]),
                tuple(entry["exponents"]),
                parse_polynomial_document(entry["polynomial"]),
                tuple(entry["weight"]),
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

def _certificate_payload(certificate) -> dict | None:
    if certificate is None:
        return None
    if isinstance(certificate, BasisViolation):
        return {
            "type": "basis-violation",
            "entry_index": certificate.entry_index,
            "value": _scalar_out(certificate.value),
        }
    if isinstance(certificate, MatrixCertificate):
        return {
            "type": "matrix",
            "matrix": matrix_document(certificate.matrix),
            "scale": _scalar_out(certificate.scale),
        }
    if isinstance(certificate, MinorMismatch):
        expected, actual = certificate.expected, certificate.actual
        if isinstance(expected, complex) or isinstance(actual, complex):
            expected, actual = str(expected), str(actual)
        else:
            expected, actual = _scalar_out(expected), _scalar_out(actual)
        return {
            "type": "minor-mismatch",
            "encoding": certificate.encoding,
            "expected": expected,
            "actual": actual,
        }
    if isinstance(certificate, SymmetrizableCertificate):
        return {
            "type": "symmetrizable-matrix",
            "rows": [[_scalar_out(v) for v in row] for row in certificate.rows],
            "scale": _scalar_out(certificate.scale),
        }
    if isinstance(certificate, NoConsistentSigns):
        return {
            "type": "no-consistent-signs",
            "check": certificate.check,
            "encoding": certificate.encoding,
            "expected": _scalar_out(certificate.expected),
            "actual": _scalar_out(certificate.actual),
        }
    if isinstance(certificate, PrefilterViolation):
        return {"type": "prefilter-violation", "value": _scalar_out(certificate.value)}
    raise DocumentError(f"unknown certificate {certificate!r}")


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


def _parse_certificate(payload):
    if payload is None:
        return None
    kind = payload.get("type")
    try:
        if kind == "basis-violation":
            return BasisViolation(int(payload["entry_index"]), _scalar_in(payload["value"]))
        if kind == "matrix":
            return MatrixCertificate(
                parse_matrix_document(payload["matrix"]), _scalar_in(payload["scale"])
            )
        if kind == "minor-mismatch":
            expected, actual = payload["expected"], payload["actual"]
            if not (isinstance(expected, str) and "j" in expected):
                expected, actual = _scalar_in(expected), _scalar_in(actual)
            else:
                expected, actual = complex(expected), complex(actual)
            return MinorMismatch(int(payload["encoding"]), expected, actual)
        if kind == "symmetrizable-matrix":
            rows = tuple(tuple(_scalar_in(v) for v in row) for row in payload["rows"])
            return SymmetrizableCertificate(rows, _scalar_in(payload["scale"]))
        if kind == "no-consistent-signs":
            return NoConsistentSigns(payload["check"], int(payload["encoding"]),
                                     _scalar_in(payload["expected"]),
                                     _scalar_in(payload["actual"]))
        if kind == "prefilter-violation":
            return PrefilterViolation(_scalar_in(payload["value"]))
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad certificate payload: {err}") from err
    raise DocumentError(f"unknown certificate type {kind!r}")


def parse_report_document(obj: dict) -> MembershipReport:
    obj = _expect(obj, "report")
    if "experiment" in obj:
        raise DocumentError("experiment reports are not membership reports")
    try:
        return MembershipReport(
            n=int(obj["n"]),
            verdict=obj["verdict"],
            method=obj["method"],
            certificate=_parse_certificate(obj.get("certificate")),
            chart_moves=int(obj.get("chart_moves", 0)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise DocumentError(f"bad report document: {err}") from err


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

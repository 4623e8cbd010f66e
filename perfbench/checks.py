"""Independent checks of every job's outputs, run outside the timer.

Documents are read with `json` and `fractions` only, and recomputed
minors come from the benchmark's own elimination (`exact`), never from
principal_minors.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from . import exact
from .inputs import Job


def _scalar(text: str):
    value = Fraction(text)
    return value.numerator if value.denominator == 1 else value


def _matrix_rows(doc: dict) -> list[list]:
    if doc.get("kind") != "matrix" or doc.get("scalar_type") != "rational":
        raise ValueError(f"not a rational matrix document: kind={doc.get('kind')!r}")
    return [[_scalar(v) for v in row] for row in doc["entries"]]


def _check_minors(job: Job, doc: dict) -> str | None:
    if doc.get("kind") != "minors" or doc.get("order") != "lsb-factor-1":
        return "not a minors document in lsb-factor-1 order"
    if [_scalar(c) for c in doc["coords"]] != job.minors:
        return "minor vector differs from the benchmark's own elimination"
    return None


def _check_report(job: Job, doc: dict) -> str | None:
    if doc.get("verdict") != job.verdict:
        return f"verdict {doc.get('verdict')!r}, expected {job.verdict!r}"
    if job.chart_move and doc.get("chart_moves", 0) < 1:
        return "a zero leading coordinate was decided without a chart move"
    if job.certificate is None:
        return None
    certificate = doc.get("certificate") or {}
    kind = certificate.get("type")
    if kind != job.certificate:
        return f"certificate {kind!r}, expected {job.certificate!r}"
    if kind in ("basis-violation", "prefilter-violation") and _scalar(certificate["value"]) == 0:
        return "violation certificate with value 0"
    if kind == "minor-mismatch" and (_scalar(certificate["expected"])
                                     == _scalar(certificate["actual"])):
        return "minor-mismatch certificate whose values agree"
    if kind == "matrix":
        scale = _scalar(certificate["scale"])
        minors = exact.all_minors(_matrix_rows(certificate["matrix"]))
        if [scale * m for m in minors] != job.target:
            return "certificate matrix does not reproduce the input"
    return None


def _check_matrix(job: Job, doc: dict) -> str | None:
    if exact.all_minors(_matrix_rows(doc)) != job.target:
        return "reconstructed matrix does not reproduce input / z_0"
    return None


def _check_sign_flip(job: Job, doc: dict) -> str | None:
    n = job.flip_n
    counts = dict((c, f) for c, f in doc["counts"])
    if sum(counts.values()) != 1 << (n * (n - 1) // 2):
        return "histogram does not sum to 2^(n(n-1)/2)"
    if (1 << n) not in counts:
        return "full agreement 2^n missing"
    if (1 << n) - 1 in counts:
        return "forbidden count 2^n - 1 present"
    return None


_ROLE_CHECKS = {
    "minors": _check_minors,
    "report": _check_report,
    "matrix": _check_matrix,
    "signflip": _check_sign_flip,
}


class Checker:
    """Checks job outputs.  An output byte-identical to one already
    verified for the same job passes without recomputation: the package
    promises byte-identical outputs for identical inputs."""

    def __init__(self):
        self._verified: dict[tuple[int, str], bytes] = {}

    def check(self, job: Job, exits: list[int]) -> str | None:
        """None when every output is correct, else the first problem."""
        if exits != job.exits:
            return f"exit codes {exits}, expected {job.exits}"
        for role, path in job.outputs.items():
            written = Path(path).exists()
            expected = role != "matrix" or job.target is not None
            if written != expected:
                return f"{role} output {'written' if written else 'missing'}"
            if not written:
                continue
            data = Path(path).read_bytes()
            key = (job.index, role)
            if self._verified.get(key) == data:
                continue
            try:
                problem = _ROLE_CHECKS[role](job, json.loads(data))
            except (ValueError, KeyError, TypeError) as err:
                problem = f"unreadable: {err!r}"
            if problem is not None:
                return f"{role}: {problem}"
            self._verified[key] = data
        return None

"""Command-line interface.

Subcommands: minors, check, reconstruct, hd-basis, rep (multiplicity |
decompose | lower-to-lowest), experiment (sign-flip).  All file I/O is
versioned JSON documents; exit codes are 0 member/success, 1
non-member, 2 input or usage error, 3 indeterminate (check --method
prefilter) or no rational symmetric matrix (reconstruct --mode exact).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from pathlib import Path

from . import documents
from .documents import DocumentError
from .hyperdet import hd_basis, hd_dimension
from .membership import (
    EXIT_INDETERMINATE,
    EXIT_MEMBER,
    EXIT_NON_MEMBER,
    EXIT_USAGE,
    NonMemberError,
    NonSquareEntryError,
    check_sign_flip_size,
    is_member,
    reconstruct,
    sign_flip_profile,
)
from .minor_map import minor_vector
from .rep_theory import (
    Partition,
    decompose_symmetric_power,
    identify_isotypic,
    invariant_dim,
    lower_to_lowest,
    sl2_dim,
)
from .sampling import random_symmetric_matrix
from .scalars import excerpt, scalar_from_str, scalar_str, scalar_text


def _read_document(path: str) -> dict:
    try:
        return documents.loads(Path(path).read_text())
    except OSError as err:
        raise DocumentError(f"cannot read {path}: {err}") from err


def _write_document(path: str, obj: dict):
    try:
        Path(path).write_text(documents.dumps(obj))
    except OSError as err:
        raise DocumentError(f"cannot write {path}: {err}") from err


def _int_arg(text: str) -> int:
    """An integer option in the documents' grammar -?[0-9]+.  A rejected
    value is cut by excerpt: argparse's own message would echo it whole."""
    if "/" not in text:
        try:
            return scalar_from_str(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}")


def _cmd_minors(args) -> int:
    matrix = documents.parse_matrix_document(_read_document(args.infile))
    t = scalar_from_str(args.t)
    z = minor_vector(matrix, t)
    _write_document(args.out, documents.minors_document(z))
    print(f"n={z.n} coords={1 << z.n}")
    return EXIT_MEMBER


def _cmd_check(args) -> int:
    z = documents.parse_minors_document(_read_document(args.infile))
    if z.is_zero():
        raise DocumentError("zero vector is not a projective point")
    report = is_member(z, args.method)
    doc = documents.report_document(report)
    if args.out:
        _write_document(args.out, doc)
    certificate = doc["certificate"]
    print(f"verdict={report.verdict} method={report.method} chart_moves={report.chart_moves}")
    if certificate is not None and report.verdict != "member":
        print(f"certificate: {certificate}")
    return report.exit_code


def _cmd_reconstruct(args) -> int:
    z = documents.parse_minors_document(_read_document(args.infile))
    try:
        matrix = reconstruct(z, args.mode)
    except NonSquareEntryError as err:
        print(f"member, not rational: {err}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except NonMemberError as err:
        print(f"non-member: {err}", file=sys.stderr)
        return EXIT_NON_MEMBER
    _write_document(args.out, documents.matrix_document(matrix))
    print(f"n={matrix.n} scale={(scalar_str if args.mode == 'exact' else scalar_text)(z[0])}")
    return EXIT_MEMBER


def _cmd_hd_basis(args) -> int:
    basis = hd_basis(args.n)
    doc = documents.basis_document(basis)
    _write_document(args.out, doc)
    print(f"n={args.n} dimension={len(basis)} (C(n,3)*5^(n-3)={hd_dimension(args.n)})")
    print(f"digest={doc['digest']}")
    return EXIT_MEMBER


def _parse_partition_tuple(text: str) -> tuple[Partition, ...]:
    try:
        return tuple(Partition.from_string(part) for part in text.split(";") if part.strip())
    except ValueError as err:
        raise DocumentError(f"bad partition tuple {excerpt(text)}: {err}") from err


def _cmd_rep_multiplicity(args) -> int:
    partitions = _parse_partition_tuple(args.partitions)
    if not partitions:
        raise DocumentError("need at least one partition")
    print(invariant_dim(partitions))
    return EXIT_MEMBER


def _cmd_rep_decompose(args) -> int:
    summands = decompose_symmetric_power(args.d, args.n)
    total = 0
    for sm in summands:
        dims = 1
        for p in sm.partitions:
            dims *= sl2_dim(p)
        total += sm.multiplicity * dims
        label = " x ".join(f"({p})" for p in sm.partitions)
        print(f"{label}  multiplicity={sm.multiplicity}  dim={dims}")
    print(f"total dimension={total}")
    return EXIT_MEMBER


def _cmd_rep_lower(args) -> int:
    poly = documents.parse_polynomial_document(_read_document(args.infile))
    if poly.is_zero():
        raise DocumentError("zero polynomial")
    lowest, weight = lower_to_lowest(poly)
    if args.out:
        _write_document(args.out, documents.polynomial_document(lowest))
    print(f"weight={list(weight)}")
    try:
        match = identify_isotypic(lowest.degree(), tuple(-w for w in weight))
        label = " x ".join(f"({p})" for p in match.partitions)
        note = " (embedding ambiguous: multiplicity > 1)" if match.ambiguous else ""
        print(f"isotypic component of the negated weight: {label}{note}")
    except ValueError:
        pass
    return EXIT_MEMBER


def _cmd_experiment_sign_flip(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {excerpt(args.trials)}")
    check_sign_flip_size(args.n, args.trials)  # before sampling an n x n matrix
    rng = random.Random(args.seed)
    full = 1 << args.n
    for trial in range(args.trials):
        matrix = random_symmetric_matrix(args.n, rng, nonzero_offdiag=True)
        profile = sign_flip_profile(matrix)
        doc = documents.sign_flip_document(profile, args.seed, trial, matrix)
        if args.out:
            path = args.out if args.trials == 1 else f"{args.out}.{trial}"
            _write_document(path, doc)
        counts = ", ".join(f"{c}:{f}" for c, f in profile.counts)
        print(f"trial={trial} counts={{{counts}}}")
        print(
            f"  full agreement {full}: {'present' if doc['has_full_agreement'] else 'absent'};"
            f" almost agreement {full - 1}:"
            f" {'PRESENT' if doc['has_almost_agreement'] else 'absent'}"
        )
    return EXIT_MEMBER


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pminors",
        description="Exact principal-minor computations for symmetric matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minors", help="compute the length-2^n minor vector of a matrix")
    p.add_argument("--in", dest="infile", required=True, help="matrix document")
    p.add_argument("--out", required=True, help="minors document to write")
    p.add_argument("--t", default="1", help="homogenizing scalar t, as p/q or p (default 1);"
                   " write a negative fraction as --t=-7/3")
    p.set_defaults(func=_cmd_minors)

    p = sub.add_parser("check", help="decide whether a vector is a vector of principal minors")
    p.add_argument("--in", dest="infile", required=True, help="minors document")
    p.add_argument("--method", choices=("basis", "reconstruct", "prefilter"), default="basis")
    p.add_argument("--out", help="report document to write")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reconstruct", help="rebuild a symmetric matrix from its minors")
    p.add_argument("--in", dest="infile", required=True, help="minors document")
    p.add_argument("--out", required=True, help="matrix document to write")
    p.add_argument("--mode", choices=("exact", "numeric"), default="exact",
                   help="numeric writes complex floats; it decides exactly first")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("hd-basis", help="generate the degree-4 module basis")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--out", required=True, help="basis document to write")
    p.set_defaults(func=_cmd_hd_basis)

    rep = sub.add_parser("rep", help="representation-theoretic computations")
    rep_sub = rep.add_subparsers(dest="rep_command", required=True)

    p = rep_sub.add_parser("multiplicity", help="multiplicity of a Schur-module tensor product")
    p.add_argument("partitions", help='partition tuple, e.g. "2,2;2,2;2,2"')
    p.set_defaults(func=_cmd_rep_multiplicity)

    p = rep_sub.add_parser("decompose", help="decompose a symmetric power into summands")
    p.add_argument("--d", type=_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.set_defaults(func=_cmd_rep_decompose)

    p = rep_sub.add_parser("lower-to-lowest", help="apply lowering operators maximally")
    p.add_argument("--in", dest="infile", required=True, help="polynomial document")
    p.add_argument("--out", help="polynomial document to write")
    p.set_defaults(func=_cmd_rep_lower)

    exp = sub.add_parser("experiment", help="seeded reproduction experiments")
    exp_sub = exp.add_subparsers(dest="experiment_command", required=True)

    p = exp_sub.add_parser("sign-flip", help="off-diagonal sign-flip agreement profile")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--trials", type=_int_arg, default=1)
    p.add_argument("--out", help="report document to write (suffixed per trial)")
    p.set_defaults(func=_cmd_experiment_sign_flip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

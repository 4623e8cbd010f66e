"""Golden outputs of the `pminors` command line, pinned by digest.

Each case runs one command in-process through `cli.main(argv)`, inside a
fresh temporary directory and with relative file names, so no output
depends on where the directory is.  Inputs are built here from literal
rows and from `random.Random` seeded with the input's name; the minor
vectors come from the Laplace oracle of conftest, not from the package.
The manifest `tests/golden.json` keeps one SHA-256 per part of each
case: its argv, its input file, its exit code, stdout, stderr and the
files it wrote.

Of argv that argparse itself rejects, only the last line of stderr, its
error, is kept: the usage text above it wraps with COLUMNS and differs
between Python versions.  `hd-basis --n 6` stays out
too (rendering and digesting its document takes 8-10 s);
tests/test_hyperdet.py pins that basis by content.

After an intended output change, rewrite the manifest with

    python tests/test_golden.py

and name each changed case, and why, in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path

from principal_minors import cli

from conftest import laplace_minors

MANIFEST = Path(__file__).with_name("golden.json")
PARTS = ("argv", "input", "exit", "stdout", "stderr", "files")
INPUT = "in.json"


# -- input documents ---------------------------------------------------

def rational(value) -> str:
    # through decimal, so integers past the int-to-str limit can be written
    f = Fraction(value)
    return f"{Decimal(f.numerator)}/{Decimal(f.denominator)}"


def matrix_doc(rows) -> dict:
    return {"kind": "matrix", "schema_version": 1, "n": len(rows), "scalar_type": "rational",
            "entries": [[rational(v) for v in row] for row in rows]}


def minors_doc(coords) -> dict:
    return {"kind": "minors", "schema_version": 1, "n": len(coords).bit_length() - 1,
            "order": "lsb-factor-1", "coords": [rational(c) for c in coords]}


def polynomial_doc(n: int, terms) -> dict:
    return {"kind": "polynomial", "schema_version": 1, "n": n,
            "terms": [{"monomial": [list(pair) for pair in monomial], "coeff": rational(coeff)}
                      for monomial, coeff in terms]}


def symmetric(n: int, rng: random.Random, entry, diagonal: bool = True) -> list[list]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if diagonal else i + 1, n):
            rows[i][j] = rows[j][i] = entry(rng)
    return rows


def on_graph(n: int, edges, rng: random.Random) -> list[list]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randint(-5, 5)
    for i, j in edges:
        rows[i][j] = rows[j][i] = rng.choice((-1, 1)) * rng.randint(1, 5)
    return rows


def tree_plus(n: int, extra: int, rng: random.Random) -> list[list]:
    """A random spanning tree plus `extra` random edges."""
    edges = {(rng.randrange(k), k) for k in range(1, n)}
    others = [e for e in combinations(range(n), 2) if e not in edges]
    edges.update(rng.sample(others, min(extra, len(others))))
    return on_graph(n, sorted(edges), rng)


def rational_entries(rows, rng: random.Random) -> list[list]:
    """rows with each symmetric pair of entries divided by one random 1..9."""
    n = len(rows)
    out = [list(row) for row in rows]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = Fraction(rows[i][j], rng.randint(1, 9))
    return out


# graphs whose minors the kernel takes mostly or wholly without a determinant
SPARSE_GRAPHS = {
    "path": lambda n, rng: on_graph(n, [(k, k + 1) for k in range(n - 1)], rng),
    "star": lambda n, rng: on_graph(n, [(0, k) for k in range(1, n)], rng),
    "rational-tree-plus-cycle": lambda n, rng: rational_entries(tree_plus(n, 1, rng), rng),
}


def integer(rng: random.Random) -> int:
    return rng.randint(-9, 9)


def nonzero(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


ROWS = {
    "dense": lambda n, rng: symmetric(n, rng, integer),
    "rational": lambda n, rng: symmetric(n, rng, lambda r: Fraction(integer(r), r.randint(1, 9))),
    "sparse": lambda n, rng: tree_plus(n, 1, rng),
    "zero-diagonal": lambda n, rng: symmetric(n, rng, integer, diagonal=False),
}


def rows_of(kind: str, n: int) -> list[list]:
    return ROWS[kind](n, random.Random(f"{kind}/{n}"))


def changed(coords, enc: int, delta) -> list:
    coords = list(coords)
    coords[enc] += delta
    return coords


def dmd(coords, q) -> list:
    """Minors of D M D with D = diag(sqrt(q)), from the minors of M."""
    out = []
    for enc, value in enumerate(coords):
        for i, qi in enumerate(q):
            if enc >> i & 1:
                value *= qi
        out.append(value)
    return out


# D = diag(sqrt(q)) with q_i q_j a square on some edges and not on others,
# negative on some: the forest paths of a sparse D.M.D member mix rational,
# irrational and imaginary roots
SPARSE_DMD_SCALES = (2, 8, 3, 27, 5, -5, Fraction(1, 2))


def sparse_dmd(n: int, cycles: int) -> list:
    """Minors of D.M.D for M on a spanning tree plus `cycles` edges."""
    rows = tree_plus(n, cycles, random.Random(f"sparse-dmd/{n}/{cycles}"))
    return dmd(laplace_minors(rows), SPARSE_DMD_SCALES[:n])


@lru_cache(maxsize=None)
def minor_vectors(n: int) -> dict[str, list]:
    """Members, D.M.D members, perturbed and z_[0..0] = 0 vectors."""
    rng = random.Random(f"vectors/{n}")
    member = laplace_minors(rows_of("dense", n))
    generic = laplace_minors(symmetric(n, rng, nonzero))
    top = (1 << n) - 1
    vectors = {
        "member": member,
        "sparse-member": laplace_minors(tree_plus(n, 2, rng)),
        "dmd-member": dmd(generic, (2, 3, -1, 5, 7, Fraction(1, 3), 6, -2)[:n]),
        "perturbed-top": changed(member, top, 1),
        "perturbed-coordinate": changed(member, rng.randrange(1, 1 << n), -3),
        "zero-leading": changed(member, 0, -member[0]),
        "t=0": [0] * top + [member[top] or 1],
    }
    if n >= 3:
        triple = sum(1 << v for v in rng.sample(range(n), 3))
        vectors["perturbed-triple"] = changed(generic, triple, 5)
    return vectors


# the minor vectors each check method and reconstruction mode runs on
CHECKS = {
    "basis": ("member", "dmd-member", "perturbed-top", "perturbed-triple", "zero-leading"),
    "reconstruct": ("member", "sparse-member", "dmd-member", "perturbed-top",
                    "perturbed-coordinate", "perturbed-triple", "zero-leading", "t=0"),
    "prefilter": ("member", "perturbed-top", "perturbed-triple", "zero-leading"),
}
RECONSTRUCTIONS = {
    "exact": ("member", "sparse-member", "dmd-member", "perturbed-top", "perturbed-triple",
              "zero-leading"),
    "numeric": ("member", "dmd-member", "perturbed-top", "zero-leading"),
}

# graphs with a chordless cycle, whose coordinate a "cycle" certificate reads
CYCLES = {
    "4-cycle": (4, [(0, 1), (1, 2), (2, 3), (0, 3)], 0b1111),
    "5-cycle": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 0b11111),
    "4-cycle-with-tail": (6, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5)], 0b1111),
    # the path left by the 5-cycle's lowest vertex, whose row the cycle is read along
    "5-cycle-path": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 0b11110),
}

# vertex 6 joins two components below it, the path 0-1-2-3 and the edge
# 4-5: a gauge step to each, then a cycle step around the 5-cycle
# 6-3-2-1-0 and one around the triangle 6-5-4
JOINED = (7, [(0, 1), (0, 6), (1, 2), (2, 3), (3, 6), (4, 5), (4, 6), (5, 6)])

# rationals that fractions.Fraction reads and the documents' grammar does not
BAD_RATIONALS = {"decimal": "1.5", "exponent": "1e1000000", "underscore": "1_0/1",
                "leading-space": " 1/1", "plus-sign": "+1/1", "arabic-indic": "\u0661/\u0662"}
DEEPLY_NESTED = "[" * 100_000 + "]" * 100_000
# coordinates at the edge of the reader's "-?digits/1" fast path
INTEGER_COORDS = {"arabic-indic-over-1": "\u0661/1", "superscript-over-1": "\u00b2/1",
                  "negative-zero": "-0/1", "leading-zeros": "007/1",
                  "digits-20000": "1" + "0" * 19999 + "/1",
                  "digits-20001": "1" + "0" * 20000 + "/1"}

MALFORMED_MATRICES = {
    "not-json": "nope",
    "not-an-object": "[]",
    "wrong-kind": {"kind": "minors", "schema_version": 1},
    "schema-version": {"kind": "matrix", "schema_version": 2, "n": 1, "entries": [["1/1"]]},
    "bool-n": {"kind": "matrix", "schema_version": 1, "n": True, "entries": [["1/1"]]},
    "zero-n": {"kind": "matrix", "schema_version": 1, "n": 0, "entries": []},
    "float-entry": {"kind": "matrix", "schema_version": 1, "n": 1, "entries": [[1.5]]},
    "bool-entry": {"kind": "matrix", "schema_version": 1, "n": 1, "entries": [[True]]},
    "zero-denominator": {"kind": "matrix", "schema_version": 1, "n": 1, "entries": [["1/0"]]},
    "rows-not-lists": {"kind": "matrix", "schema_version": 1, "n": 1, "entries": ["2"]},
    "not-square": {"kind": "matrix", "schema_version": 1, "n": 2, "entries": [["1/1", "0/1"]]},
    "not-symmetric": {"kind": "matrix", "schema_version": 1, "n": 2,
                      "entries": [["1/1", "2/1"], ["3/1", "1/1"]]},
    "complex": {"kind": "matrix", "schema_version": 1, "n": 1, "scalar_type": "complex",
                "entries": [[[1.0, 0.0]]]},
    "unknown-scalar-type": {"kind": "matrix", "schema_version": 1, "n": 1,
                            "scalar_type": "real", "entries": [["1/1"]]},
    "deeply-nested": DEEPLY_NESTED,
    **{f"{name}-entry": {"kind": "matrix", "schema_version": 1, "n": 1, "entries": [[text]]}
       for name, text in BAD_RATIONALS.items()},
}

MALFORMED_MINORS = {
    "wrong-order": {"kind": "minors", "schema_version": 1, "n": 1, "order": "msb",
                    "coords": ["1/1", "1/1"]},
    "short-coords": {"kind": "minors", "schema_version": 1, "n": 2, "order": "lsb-factor-1",
                     "coords": ["1/1", "1/1"]},
    "huge-n": {"kind": "minors", "schema_version": 1, "n": 10 ** 9, "order": "lsb-factor-1",
               "coords": ["1/1", "1/1"]},
    "bool-coord": {"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",
                   "coords": [True, "1/1"]},
    "zero-vector": minors_doc([0, 0, 0, 0]),
    "deeply-nested": DEEPLY_NESTED,
    **{f"{name}-coord": {"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",
                         "coords": ["1/1", text]}
       for name, text in BAD_RATIONALS.items()},
}

MALFORMED_POLYNOMIALS = {
    "zero": polynomial_doc(1, []),
    "cancelling": polynomial_doc(1, [([(0, 1)], 1), ([(0, 1)], -1)]),
    "exponent-0": polynomial_doc(1, [([(0, 0)], 1)]),
    "float-exponent": {"kind": "polynomial", "schema_version": 1, "n": 1,
                       "terms": [{"monomial": [[0, 1.5]], "coeff": "1/1"}]},
    "encoding-out-of-range": polynomial_doc(2, [([(4, 1)], 1)]),
    "no-terms": {"kind": "polynomial", "schema_version": 1, "n": 1},
    "missing-coeff": {"kind": "polynomial", "schema_version": 1, "n": 1,
                      "terms": [{"monomial": [[0, 1]]}]},
    "degree-13": polynomial_doc(4, [([(enc, 1) for enc in range(13)], 1)]),
    "n-15": polynomial_doc(15, [([(0, 1)], 1)]),
    "deeply-nested": DEEPLY_NESTED,
}

# the 12 terms of Cayley's hyperdeterminant on three factors
HYPERDET = [
    ([(0, 2), (7, 2)], 1), ([(1, 2), (6, 2)], 1), ([(2, 2), (5, 2)], 1), ([(3, 2), (4, 2)], 1),
    ([(0, 1), (1, 1), (6, 1), (7, 1)], -2), ([(0, 1), (2, 1), (5, 1), (7, 1)], -2),
    ([(0, 1), (3, 1), (4, 1), (7, 1)], -2), ([(1, 1), (2, 1), (5, 1), (6, 1)], -2),
    ([(1, 1), (3, 1), (4, 1), (6, 1)], -2), ([(2, 1), (3, 1), (4, 1), (5, 1)], -2),
    ([(0, 1), (3, 1), (5, 1), (6, 1)], 4), ([(1, 1), (2, 1), (4, 1), (7, 1)], 4),
]


# -- the corpus --------------------------------------------------------

@lru_cache(maxsize=None)
def cases() -> dict[str, tuple[list[str], object]]:
    """Case name -> (argv, input document or raw text or None)."""
    cases: dict[str, tuple[list[str], object]] = {}

    def add(name: str, argv: list[str], document=None):
        assert name not in cases, name
        cases[name] = (argv, document)

    for kind in ROWS:
        for n in range(1, 9):
            for t in ("1", "3/2", "0") if n in (1, 3, 6, 8) else ("1",):
                add(f"minors/{kind}/n={n}/t={t}",
                    ["minors", "--in", INPUT, "--out", "z.json", "--t", t],
                    matrix_doc(rows_of(kind, n)))
    add("minors/dense/n=14", ["minors", "--in", INPUT, "--out", "z.json"],
        matrix_doc(rows_of("dense", 14)))
    add("minors/dense/n=15", ["minors", "--in", INPUT, "--out", "z.json"],
        matrix_doc(rows_of("dense", 15)))
    for name, t in {"zero-denominator": "1/0", "decimal": "1.5",
                    "exponent": "1e1000000"}.items():
        add(f"minors/t-{name}", ["minors", "--in", INPUT, "--out", "z.json", "--t", t],
            matrix_doc([[1, 2], [2, 3]]))
    # argparse reads "-7/3" after a space as an option, so the value is attached
    add("minors/t=-7/3", ["minors", "--in", INPUT, "--out", "z.json", "--t=-7/3"],
        matrix_doc(rows_of("dense", 3)))
    for name, document in MALFORMED_MATRICES.items():
        add(f"minors/malformed/{name}", ["minors", "--in", INPUT, "--out", "z.json"], document)
    add("minors/missing-input", ["minors", "--in", "missing.json", "--out", "z.json"])
    add("minors/unwritable-output", ["minors", "--in", INPUT, "--out", "missing/z.json"],
        matrix_doc([[1]]))

    for n in range(1, 8):
        for vector, coords in minor_vectors(n).items():
            for method, vectors in CHECKS.items():
                # at n = 7 only perturbed-top: a dense member takes about 0.2 s there
                if vector in vectors and (method != "basis" or n < 7 or vector == "perturbed-top"):
                    add(f"check/{method}/{vector}/n={n}",
                        ["check", "--in", INPUT, "--method", method, "--out", "report.json"],
                        minors_doc(coords))
            for mode, vectors in RECONSTRUCTIONS.items():
                if vector in vectors:
                    add(f"reconstruct/{mode}/{vector}/n={n}",
                        ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", mode],
                        minors_doc(coords))
    add("check/basis/member/n=7", ["check", "--in", INPUT, "--method", "basis"],
        minors_doc(minor_vectors(7)["member"]))
    # a dense n = 8 member's check takes 2-3 s, so only a non-member; n = 9 is past the bound
    add("check/basis/perturbed-top/n=8", ["check", "--in", INPUT, "--method", "basis",
                                          "--out", "report.json"],
        minors_doc(minor_vectors(8)["perturbed-top"]))
    add("check/basis/identity/n=9", ["check", "--in", INPUT, "--method", "basis"],
        minors_doc([1] * 512))
    add("check/basis/no-report/n=4", ["check", "--in", INPUT],
        minors_doc(minor_vectors(4)["perturbed-top"]))
    # every slice that fixes factor 4 to 0 or 1 has hyperdeterminant 0
    add("check/prefilter/witness-only/n=4", ["check", "--in", INPUT, "--method", "prefilter",
                                             "--out", "report.json"],
        minors_doc([1, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2]))
    add("check/reconstruct/chart-move/n=3", ["check", "--in", INPUT, "--method", "reconstruct",
                                             "--out", "report.json"],
        minors_doc([0, 1, 1, 0, 1, 0, 0, 0]))
    for name, (n, edges, cycle) in CYCLES.items():
        coords = laplace_minors(on_graph(n, edges, random.Random(name)))
        document = minors_doc(changed(coords, cycle, 1))
        add(f"check/reconstruct/{name}", ["check", "--in", INPUT, "--method", "reconstruct",
                                          "--out", "report.json"], document)
        add(f"reconstruct/exact/{name}", ["reconstruct", "--in", INPUT, "--out", "matrix.json"],
            document)
    n, edges = JOINED
    document = minors_doc(laplace_minors(on_graph(n, edges, random.Random("joined"))))
    add("check/reconstruct/joined-components", ["check", "--in", INPUT, "--method",
                                                "reconstruct", "--out", "report.json"], document)
    for mode in RECONSTRUCTIONS:
        add(f"reconstruct/{mode}/joined-components",
            ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", mode], document)
    for name, document in MALFORMED_MINORS.items():
        for argv in (["check", "--in", INPUT], ["reconstruct", "--in", INPUT, "--out", "m.json"]):
            add(f"{argv[0]}/malformed/{name}", argv, document)
    for name, text in INTEGER_COORDS.items():
        document = {"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",
                    "coords": ["1/1", text]}
        for argv in (["check", "--in", INPUT], ["reconstruct", "--in", INPUT, "--out", "m.json"]):
            add(f"{argv[0]}/coordinate/{name}", argv, document)
    for name, build in SPARSE_GRAPHS.items():
        for n in (8, 9, 10):
            rows = build(n, random.Random(f"{name}/{n}"))
            add(f"minors/{name}/n={n}", ["minors", "--in", INPUT, "--out", "z.json"],
                matrix_doc(rows))
            add(f"reconstruct/exact/{name}/n={n}",
                ["reconstruct", "--in", INPUT, "--out", "matrix.json"],
                minors_doc(laplace_minors(rows)))
    for n in (5, 6, 7):
        for cycles in (2, 3):
            document = minors_doc(sparse_dmd(n, cycles))
            name = f"sparse-dmd/n={n}/cycles={cycles}"
            add(f"check/reconstruct/{name}", ["check", "--in", INPUT, "--method", "reconstruct",
                                              "--out", "report.json"], document)
            for mode in RECONSTRUCTIONS:
                add(f"reconstruct/{mode}/{name}",
                    ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", mode],
                    document)
    # a_23^2 = 1 off a forest whose roots are sqrt(2): a_23 is written as 1
    add("reconstruct/numeric/triangle",
        ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", "numeric"],
        minors_doc([1, 2, 2, 2, 3, 4, 5, 4]))
    add("check/malformed/matrix-document", ["check", "--in", INPUT], matrix_doc([[1]]))
    add("reconstruct/unwritable-output", ["reconstruct", "--in", INPUT, "--out", "missing/m.json"],
        minors_doc([1, 2]))

    # integers past the interpreter's 4,300-digit int-to-str limit
    big = 10 ** 3000
    add("minors/digits/10^3000", ["minors", "--in", INPUT, "--out", "z.json"],
        matrix_doc([[big, 1], [1, big]]))
    add("check/reconstruct/digits/10^3000",
        ["check", "--in", INPUT, "--method", "reconstruct", "--out", "report.json"],
        minors_doc(laplace_minors([[big, 1], [1, big]])))
    big3 = laplace_minors([[big, 1, 0], [1, big, 1], [0, 1, big]])  # a path: a triple check
    add("reconstruct/exact/digits/perturbed-top",
        ["reconstruct", "--in", INPUT, "--out", "matrix.json"], minors_doc(changed(big3, 7, 1)))
    add("reconstruct/numeric/digits/scaled",
        ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", "numeric"],
        minors_doc([c * 10 ** 5000 for c in laplace_minors([[1, 2], [2, 3]])]))
    # a member whose s_12 = 2 * 10^400 is no rational square and no float
    add("reconstruct/numeric/digits/non-square-beyond-float",
        ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", "numeric"],
        minors_doc([1, 1, 1, 1 - 2 * 10 ** 400]))
    # a non-member within the bound whose cycle certificate is not: pi_C^2
    # has about 120,000 digits, so the message names the bound instead
    huge = 10 ** 19998
    for mode in RECONSTRUCTIONS:
        add(f"reconstruct/{mode}/digits/oversized-certificate",
            ["reconstruct", "--in", INPUT, "--out", "matrix.json", "--mode", mode],
            minors_doc([1, huge, huge, 0, huge, 0, 0, 5]))
    add("check/digits/20001", ["check", "--in", INPUT, "--method", "reconstruct"],
        {"kind": "minors", "schema_version": 1, "n": 1, "order": "lsb-factor-1",
         "coords": ["1/1", "1" + "0" * 20000]})
    # the same bound on a JSON integer literal, which json.dumps cannot write
    # past the int-to-str limit
    for digits in (5000, 20001):
        add(f"check/digits/json-integer-{digits}",
            ["check", "--in", INPUT, "--method", "reconstruct"],
            '{"coords": ["1/1", 1%s], "kind": "minors", "n": 1, "order": "lsb-factor-1",'
            ' "schema_version": 1}' % ("0" * (digits - 1)))

    for n in (2, 3, 4, 5, 7):
        add(f"hd-basis/n={n}", ["hd-basis", "--n", str(n), "--out", "basis.json"])

    for name, text in {
        "2,2^3": "2,2;2,2;2,2",
        "2^2": "2;2",
        "3,1;2,2;2,1,1;4": "3,1;2,2;2,1,1;4",
        "12,12^14": ";".join(["12,12"] * 14),
        "2,2^15": ";".join(["2,2"] * 15),
        "24^2": "24;24",
        "25^2": "25;25",
        "sizes-differ": "2;3",
        "increasing": "2,3",
        "empty": " ; ",
        # parts are ASCII digits only
        "underscore": "1_0",
        "plus-sign": "+2,2;2,2",
        "arabic-indic": "\u0662,\u0662;2,2",
        "spaces": " 2 , 2 ;2,2",
        # a long rejected value is cut to 64 characters and its length
        "part-9^4000": "9" * 4000,
        "part-1^5000,x": "1" * 5000 + ",x",
    }.items():
        add(f"rep/multiplicity/{name}", ["rep", "multiplicity", text])
    long = "9" * 4000
    add("rep/decompose/d=9^4000", ["rep", "decompose", "--d", long, "--n", "2"])
    add("rep/decompose/n=9^4000", ["rep", "decompose", "--d", "2", "--n", long])
    add("hd-basis/n=9^4000", ["hd-basis", "--n", long, "--out", "basis.json"])
    # integer options take the documents' grammar -?[0-9]+, at every length
    for name, text in {"+5": "+5", "1_0": "1_0", "9^5000": "9" * 5000}.items():
        add(f"hd-basis/n={name}", ["hd-basis", "--n", text, "--out", "basis.json"])
    add("experiment/sign-flip/trials=-9^4000",
        ["experiment", "sign-flip", "--n", "4", "--trials", "-" + long])
    for d, n in ((4, 3), (2, 4), (3, 3), (24, 1), (25, 1), (1, 14), (1, 15), (2, 12), (2, 13),
                 (0, 3)):
        add(f"rep/decompose/d={d}/n={n}", ["rep", "decompose", "--d", str(d), "--n", str(n)])
    rng = random.Random("polynomials")
    polynomials = {
        "hyperdet": polynomial_doc(3, HYPERDET),
        "degree-12": polynomial_doc(4, [([(enc, 1) for enc in range(12)], 1)]),
        "top-power": polynomial_doc(2, [([(0, 4)], 3)]),
        "n-14": polynomial_doc(14, [([(0, 1), (5, 1)], -2)]),
        "random": polynomial_doc(3, [([(rng.randrange(8), rng.randint(1, 2)) for _ in range(3)],
                                      Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                                     for _ in range(4)]),
    }
    for name, document in polynomials.items():
        add(f"rep/lower-to-lowest/{name}",
            ["rep", "lower-to-lowest", "--in", INPUT, "--out", "lowest.json"], document)
    add("rep/lower-to-lowest/no-output", ["rep", "lower-to-lowest", "--in", INPUT],
        polynomials["hyperdet"])
    for name, document in MALFORMED_POLYNOMIALS.items():
        add(f"rep/lower-to-lowest/malformed/{name}", ["rep", "lower-to-lowest", "--in", INPUT],
            document)

    for n in (2, 3, 4, 5, 6, 7):
        add(f"experiment/sign-flip/n={n}",
            ["experiment", "sign-flip", "--n", str(n), "--seed", "7", "--out", "flip.json"])
    add("experiment/sign-flip/n=4/trials=2",
        ["experiment", "sign-flip", "--n", "4", "--trials", "2", "--out", "flip.json"])
    add("experiment/sign-flip/n=5/no-output", ["experiment", "sign-flip", "--n", "5"])
    add("experiment/sign-flip/trials=0", ["experiment", "sign-flip", "--n", "4", "--trials", "0"])
    # trials * 2^((n-1)(n-2)/2) patterns at most MAX_SIGN_FLIP_PATTERNS = 8192
    for name, trials in {"4096": "4096", "4097": "4097", "9^4000": "9" * 4000}.items():
        add(f"experiment/sign-flip/n=3/trials={name}",
            ["experiment", "sign-flip", "--n", "3", "--trials", trials])
    for n in (0, -3):
        add(f"experiment/sign-flip/n={n}", ["experiment", "sign-flip", "--n", str(n)])
    return cases


# -- running and digesting ---------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], document) -> dict:
    """Run one case in a fresh directory; its parts as bytes, and the
    files it wrote by name."""
    text = None if document is None else (
        document if isinstance(document, str) else json.dumps(document, sort_keys=True))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if text is not None:
                Path(INPUT).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as stop:  # argparse's own rejection
                    code = stop.code
                    err = io.StringIO(err.getvalue().splitlines(keepends=True)[-1])
            written = {str(p): p.read_bytes() for p in sorted(Path(".").rglob("*"))
                       if p.is_file() and str(p) != INPUT}
        finally:
            os.chdir(cwd)
    files = b"".join(f"{name}\0{len(data)}\0".encode() + data for name, data in written.items())
    return {
        "argv": json.dumps(argv).encode(),
        "input": (text or "").encode(),
        "exit": str(code).encode(),
        "stdout": out.getvalue().encode(),
        "stderr": err.getvalue().encode(),
        "files": files,
        "written": written,
        "code": code,
    }


@lru_cache(maxsize=None)
def outcomes() -> dict[str, dict]:
    return {name: run_case(argv, document) for name, (argv, document) in cases().items()}


def digests() -> dict[str, dict[str, str]]:
    return {name: {part: sha256(result[part]) for part in PARTS}
            for name, result in outcomes().items()}


# -- tests -------------------------------------------------------------

def test_outputs_match_the_manifest():
    want = json.loads(MANIFEST.read_text())
    got = digests()
    argv = {name: case[0] for name, case in cases().items()}
    problems = [f"{name}: argv {argv[name]}: "
                + ", ".join(p for p in PARTS if got[name][p] != want[name][p]) + " differ"
                for name in sorted(got.keys() & want.keys()) if got[name] != want[name]]
    problems += [f"{name}: argv {argv[name]}: not in the manifest"
                 for name in sorted(got.keys() - want.keys())]
    problems += [f"{name}: in the manifest, not in the corpus"
                 for name in sorted(want.keys() - got.keys())]
    assert not problems, (f"{len(problems)} golden case(s) changed"
                          " (rewrite with `python tests/test_golden.py`):\n"
                          + "\n".join(problems))


def test_basis_and_reconstruct_agree_on_every_corpus_vector():
    from principal_minors import MinorVector, is_member

    checked = 0
    for n in range(3, 7):
        for name, coords in minor_vectors(n).items():
            z = MinorVector.from_values(n, coords)
            if not z.is_zero():
                verdict = is_member(z, "basis").verdict
                assert verdict == is_member(z, "reconstruct").verdict, (n, name)
                checked += 1
    assert checked == 32


def test_basis_and_reconstruct_agree_on_the_n7_vectors_and_n8_non_members():
    from principal_minors import MinorVector, is_member

    vectors = [(7, coords) for coords in minor_vectors(7).values()]
    vectors += [(8, minor_vectors(8)[name])
                for name in ("perturbed-top", "perturbed-coordinate", "perturbed-triple")]
    for n, coords in vectors:
        z = MinorVector.from_values(n, coords)
        if not z.is_zero():
            verdict = is_member(z, "basis").verdict
            assert verdict == is_member(z, "reconstruct").verdict, (n, coords)
            assert n == 7 or verdict == "non-member"


def test_numeric_matrix_is_exactly_symmetric_on_sparse_dmd_members():
    # the forest paths mix rational, irrational and imaginary roots, and
    # each off-forest entry is written once and copied to its mirror
    import pytest

    from principal_minors import MinorVector
    from principal_minors.membership import NonSquareEntryError, reconstruct

    for n in (5, 6, 7):
        for cycles in (2, 3):
            z = MinorVector.from_values(n, sparse_dmd(n, cycles))
            with pytest.raises(NonSquareEntryError):
                reconstruct(z, "exact")
            entries = reconstruct(z, "numeric").entries
            assert all(entries[i][j] == entries[j][i] for i in range(n) for j in range(i))


def leaf_commands(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()) -> set[str]:
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return {" ".join(prefix)}
    return set().union(*(leaf_commands(sub, prefix + (name,))
                         for group in groups for name, sub in group.choices.items()))


def test_corpus_covers_every_command_exit_code_and_certificate():
    from principal_minors.documents import CERTIFICATES

    commands = leaf_commands(cli.build_parser())
    seen_commands, codes, certificates, chart_moves = set(), set(), set(), set()
    for name, result in outcomes().items():
        argv = cases()[name][0]
        seen_commands.add(" ".join(argv[:2]) if " ".join(argv[:2]) in commands else argv[0])
        codes.add(result["code"])
        report = result["written"].get("report.json")
        if argv[0] == "check" and report is not None:
            doc = json.loads(report)
            chart_moves.add(doc["chart_moves"])
            certificate = doc["certificate"]
            if certificate is not None:
                certificates.add(certificate["type"])
                if certificate["type"] == "no-consistent-signs":
                    certificates.add(f"no-consistent-signs/{certificate['check']}")
    assert seen_commands == commands
    assert codes == {0, 1, 2, 3}
    assert certificates == set(CERTIFICATES) | {"no-consistent-signs/cycle",
                                                "no-consistent-signs/triple"}
    assert 1 in chart_moves


if __name__ == "__main__":
    old = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    new = digests()
    # one line per case, so a changed case is one changed line
    lines = [f" {json.dumps(name)}: {json.dumps(new[name], sort_keys=True)}" for name in sorted(new)]
    MANIFEST.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(new)} cases to {MANIFEST}")
    for name in sorted(new.keys() | old.keys()):
        if new.get(name) != old.get(name):
            print(f"changed: {name}")

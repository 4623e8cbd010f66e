"""Seeded inputs for the three workloads.

Every input is built from the workload seed by the benchmark's own
generator (SplitMix64 below), never by principal_minors.sampling, so a
change to the package cannot change what is measured.  Each job is a
list of `pminors` command lines with the exit code and verdict that
follow from how its input was built:

- A vector of principal minors of an integer matrix with z_0 = 1 is a
  member.
- Perturbing one coordinate of size >= 3 by an odd amount gives a
  non-member.  Flipping off-diagonal signs changes a principal minor of
  an integer matrix only by a multiple of 4, so no matrix with the same
  minors of size <= 2 reaches the perturbed value.  A perturbed size-3
  coordinate therefore fails every sign pattern (no-consistent-signs),
  while a perturbed determinant passes the size-3 checks and fails the
  final verification (minor-mismatch).
- The prefilter rejects a perturbed determinant for certain only when
  some 2x2x2 slice it visits has a nonzero hyperdeterminant; the
  generator checks the slice through the top coordinate itself.
- `minors --t 0` gives det(A) times the top unit vector: a member of
  the closure with z_0 = 0, which `check --method reconstruct` reaches
  by chart moves and `reconstruct` rejects with exit 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

from . import exact

MASK64 = (1 << 64) - 1


class SplitMix64:
    """Small deterministic generator, identical on every Python version."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        return self.next() % k

    def integer(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def nonzero(self, bound: int) -> int:
        v = self.integer(1, bound)
        return v if self.below(2) else -v

    def odd(self, bound: int) -> int:
        """An odd integer in [-bound, bound]."""
        v = 2 * self.integer(0, (bound - 1) // 2) + 1
        return v if self.below(2) else -v


@dataclass
class Job:
    """One user-level job: `pminors` command lines run in order."""

    index: int
    label: str
    steps: list[list[str]]
    exits: list[int]
    verdict: str | None = None        # verdict of the report at outputs["report"]
    certificate: str | None = None    # certificate type; None means not checked
    chart_move: bool = False          # the report must record at least one chart move
    minors: list | None = None        # expected content of outputs["minors"]
    target: list | None = None        # minors the reconstructed matrix must have
    flip_n: int | None = None         # size of the sign-flip experiment
    outputs: dict[str, str] = field(default_factory=dict)


# -- documents ---------------------------------------------------------

def _rational(value) -> str:
    if isinstance(value, int):
        return f"{value}/1"
    return f"{value.numerator}/{value.denominator}"


def matrix_doc(rows) -> dict:
    return {"kind": "matrix", "schema_version": 1, "n": len(rows),
            "scalar_type": "rational",
            "entries": [[_rational(v) for v in row] for row in rows]}


def minors_doc(n: int, coords) -> dict:
    return {"kind": "minors", "schema_version": 1, "n": n, "order": "lsb-factor-1",
            "coords": [_rational(c) for c in coords]}


def write_doc(path: Path, doc: dict):
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


# -- matrices ----------------------------------------------------------

def dense_matrix(rng: SplitMix64, n: int) -> list[list[int]]:
    """Entries in [-9, 9], every off-diagonal entry nonzero."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.integer(-9, 9)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.nonzero(9)
    return rows


def sparse_matrix(rng: SplitMix64, n: int, extra: int) -> list[list[int]]:
    """A random spanning tree plus `extra` random edges, so 2^extra sign
    patterns remain after gauge fixing."""
    edges = {(rng.below(k), k) for k in range(1, n)}
    others = [(i, j) for i, j in combinations(range(n), 2) if (i, j) not in edges]
    for _ in range(extra):
        edges.add(others.pop(rng.below(len(others))))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.integer(-9, 9)
    for i, j in sorted(edges):
        rows[i][j] = rows[j][i] = rng.nonzero(9)
    return rows


def _perturbed(coords: list, enc: int, delta: int) -> list:
    out = list(coords)
    out[enc] += delta
    return out


# -- job builders ------------------------------------------------------

class _Builder:
    """Writes the documents of one job list into a work directory."""

    def __init__(self, workdir: Path, rng: SplitMix64):
        self.workdir = workdir
        self.rng = rng
        self.jobs: list[Job] = []

    def path(self, name: str) -> str:
        return str(self.workdir / f"j{len(self.jobs):04d}-{name}")

    def _add_pipeline(self, label: str, rows, checked: list | None, exits: list[int],
                      expect_minors: list, t_zero: bool = False, **expect):
        """minors -> check --method reconstruct -> reconstruct, where the
        last two read `checked` (the `minors` output when it is None)."""
        matrix_in, minors_out = self.path("matrix.json"), self.path("minors.json")
        report_out, matrix_out = self.path("report.json"), self.path("recon.json")
        write_doc(Path(matrix_in), matrix_doc(rows))
        minors_step = ["minors", "--in", matrix_in, "--out", minors_out]
        if t_zero:
            minors_step += ["--t", "0"]
        source = minors_out
        if checked is not None:
            source = self.path("input.json")
            write_doc(Path(source), minors_doc(len(rows), checked))
        steps = [minors_step,
                 ["check", "--in", source, "--method", "reconstruct", "--out", report_out],
                 ["reconstruct", "--in", source, "--out", matrix_out]]
        outputs = {"minors": minors_out, "report": report_out, "matrix": matrix_out}
        self.jobs.append(Job(len(self.jobs), label, steps, exits, minors=expect_minors,
                             outputs=outputs, **expect))

    def member(self, label: str, rows):
        minors = exact.all_minors(rows)
        self._add_pipeline(label, rows, None, [0, 0, 0], minors,
                           verdict="member", certificate="matrix", target=minors)

    def det_perturbed(self, label: str, rows):
        minors = exact.all_minors(rows)
        bad = _perturbed(minors, len(minors) - 1, self.rng.odd(9))
        self._add_pipeline(label, rows, bad, [0, 1, 1], minors,
                           verdict="non-member", certificate="minor-mismatch")

    def triple_perturbed(self, label: str, rows):
        minors = exact.all_minors(rows)
        triples = list(combinations(range(len(rows)), 3))
        i, j, k = triples[self.rng.below(len(triples))]
        bad = _perturbed(minors, (1 << i) | (1 << j) | (1 << k), self.rng.odd(9))
        self._add_pipeline(label, rows, bad, [0, 1, 1], minors,
                           verdict="non-member", certificate="no-consistent-signs")

    def chart(self, label: str, rows):
        # The certificate of a chart-moved member certifies g.z and g is not
        # recorded in the report, so only the verdict is checked.
        expected = [0] * ((1 << len(rows)) - 1) + [exact.det(rows)]
        self._add_pipeline(label, rows, None, [0, 0, 2], expected,
                           verdict="member", chart_move=True, t_zero=True)

    def sign_flip(self, label: str, n: int):
        out = self.path("signflip.json")
        seed = self.rng.integer(0, (1 << 31) - 1)
        steps = [["experiment", "sign-flip", "--n", str(n), "--seed", str(seed), "--out", out]]
        self.jobs.append(Job(len(self.jobs), label, steps, [0], flip_n=n,
                             outputs={"signflip": out}))

    def equation_check(self, label: str, n: int, method: str, member: bool):
        rows = dense_matrix(self.rng, n)
        coords = exact.all_minors(rows)
        if member:
            exit_code, verdict, certificate = ((0, "member", None) if method == "basis"
                                               else (3, "indeterminate", None))
        else:
            delta = self.rng.odd(9)
            bad = _perturbed(coords, len(coords) - 1, delta)
            while method == "prefilter" and \
                    exact.cayley_hyperdet(exact.top_corner_slice(bad, n)) == 0:
                delta += 2
                bad = _perturbed(coords, len(coords) - 1, delta)
            coords = bad
            exit_code, verdict = 1, "non-member"
            certificate = "basis-violation" if method == "basis" else "prefilter-violation"
        source, report = self.path("input.json"), self.path("report.json")
        write_doc(Path(source), minors_doc(n, coords))
        steps = [["check", "--in", source, "--method", method, "--out", report]]
        self.jobs.append(Job(len(self.jobs), label, steps, [exit_code], verdict=verdict,
                             certificate=certificate, outputs={"report": report}))


# Each workload repeats a fixed, interleaved block of job classes.  A timed
# run ends on a block boundary, so every run has the block's mix; no class
# holds 50% of a block, so job_p50_s falls inside one class.
RECON_BLOCK = ("triple", "det", "triple", "member", "det", "triple", "chart", "det", "triple",
               "det")
ALL_MINORS_BLOCK = ("member-12", "det-12", "sign-flip", "member-12", "det-12", "member-12",
                    "small", "det-12", "member-12", "det-12", "member-12", "det-12")
# The one small job of each all-minors block takes these in turn.
ALL_MINORS_SMALL = ("member-11", "det-10", "det-11", "member-10")
EQUATIONS_BLOCK = ("basis-6-member", "prefilter-6-member", "basis-5-non-member",
                   "prefilter-7-non-member", "basis-5-member", "prefilter-7-member",
                   "prefilter-6-member", "basis-6-non-member", "prefilter-6-non-member",
                   "basis-6-member", "prefilter-6-member", "prefilter-6-member",
                   "prefilter-7-member", "prefilter-7-non-member", "basis-6-non-member",
                   "basis-6-member", "prefilter-6-member", "basis-5-member",
                   "prefilter-6-non-member", "prefilter-6-member")


def _recon_dense(b: _Builder, label: str):
    rows = dense_matrix(b.rng, 7)
    if label == "chart":
        while exact.det(rows) == 0:
            rows = dense_matrix(b.rng, 7)
    {"member": b.member, "det": b.det_perturbed, "triple": b.triple_perturbed,
     "chart": b.chart}[label](label, rows)


def _all_minors(b: _Builder, label: str):
    if label == "sign-flip":
        b.sign_flip(label, 5)
        return
    if label == "small":
        small = sum(job.label in ALL_MINORS_SMALL for job in b.jobs)
        label = ALL_MINORS_SMALL[small % len(ALL_MINORS_SMALL)]
    kind, size = label.rsplit("-", 1)
    # The extra-edge count sets how many sign patterns reconstruct tries.
    # Cycling it through 0..3 per class keeps every run's mix the same.
    made = sum(job.label == label for job in b.jobs)
    rows = sparse_matrix(b.rng, int(size), made % 4)
    (b.member if kind == "member" else b.det_perturbed)(label, rows)


def _equations(b: _Builder, label: str):
    method, size, member = label.split("-", 2)
    b.equation_check(label, int(size), method, member == "member")


WORKLOAD_SPECS = {
    "recon-dense": (RECON_BLOCK, 3, _recon_dense),
    "all-minors": (ALL_MINORS_BLOCK, 5, _all_minors),
    "equations": (EQUATIONS_BLOCK, 4, _equations),
}


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Write every input document of the workload's job list into workdir."""
    block, repeats, build = WORKLOAD_SPECS[workload]
    builder = _Builder(workdir, SplitMix64(seed))
    for _ in range(repeats):
        for label in block:
            build(builder, label)
    return builder.jobs


def warmup_jobs(workload: str, workdir: Path) -> list[Job]:
    """Fixed, seed-independent jobs run during set-up.  On `equations`
    they build hd_basis(5) and hd_basis(6); the inputs are non-members that
    the basis rejects within its first entries."""
    builder = _Builder(workdir, SplitMix64(0))
    if workload == "equations":
        builder.equation_check("warmup-basis-5", 5, "basis", False)
        builder.equation_check("warmup-basis-6", 6, "basis", False)
    else:
        builder.member("warmup", [[2, 1, 0, 1], [1, 3, 1, 0], [0, 1, 4, 1], [1, 0, 1, 5]])
    return builder.jobs

"""Tests of the benchmark itself: seeded inputs, output checks, tracer.

    python -m pytest perfbench/tests -q

They run outside the package's own suite (about a minute: the
`equations` block builds hd_basis(6)).
"""

from __future__ import annotations

import ast
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import exact, inputs, run, tracer  # noqa: E402
from perfbench.checks import Checker  # noqa: E402


def _generated(workload: str, seed: int, workdir: Path):
    workdir.mkdir()
    jobs = inputs.generate(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    steps = [[[a.replace(str(workdir), "<dir>") for a in argv] for argv in job.steps]
             for job in jobs]
    meta = [(job.label, job.exits, job.verdict, job.certificate, job.minors, job.target)
            for job in jobs]
    return files, steps, meta


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOAD_SPECS))
def test_generator_is_deterministic_in_the_seed(workload, tmp_path):
    first = _generated(workload, 7, tmp_path / "a")
    assert first == _generated(workload, 7, tmp_path / "b")
    assert first[0] != _generated(workload, 8, tmp_path / "c")[0]


def test_benchmark_inputs_and_checks_do_not_use_the_package():
    for name in ("inputs", "exact", "checks", "calibration"):
        tree = ast.parse((ROOT / "perfbench" / f"{name}.py").read_text())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        assert not any(m.startswith("principal_minors") for m in imported), name


def test_own_arithmetic_agrees_with_the_package():
    from principal_minors import cayley_hyperdet, det_exact, evaluate

    rng = random.Random(5)
    for n in range(1, 8):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert exact.det(rows) == det_exact(rows)
    point = [rng.randint(-5, 5) for _ in range(8)]
    assert exact.cayley_hyperdet(point) == evaluate(cayley_hyperdet(3, (1, 2, 3)), point)


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail_percentile([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail_percentile([float(i) for i in range(1, 21)]) == (50, 10.0)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)


def _first_blocks(tmp_path: Path) -> list:
    jobs = []
    for workload, (block, _, _) in inputs.WORKLOAD_SPECS.items():
        workdir = tmp_path / workload
        workdir.mkdir()
        jobs += inputs.generate(workload, 3, workdir)[: len(block)]
    return jobs


def test_every_job_class_passes_its_checks_at_this_commit(tmp_path):
    jobs = _first_blocks(tmp_path)
    modules = run.import_package()
    records = run.run_jobs(modules["cli"].main, jobs, Checker(), budget_s=60)
    assert [(r.label, r.failure) for r in records if r.failure] == []
    assert all(r.nominal > 0 for r in records)


def test_checker_rejects_wrong_outputs(tmp_path):
    member = inputs.generate("recon-dense", 3, tmp_path)[3]
    assert member.label == "member"
    modules = run.import_package()
    _, exits, error = run.run_job(modules["cli"].main, member, 60)
    checker = Checker()
    assert error is None and checker.check(member, exits) is None
    assert "exit codes" in checker.check(member, [0, 1, 0])
    matrix = Path(member.outputs["matrix"])
    doc = json.loads(matrix.read_text())
    doc["entries"][0][1] = doc["entries"][1][0] = "100/1"
    matrix.write_text(json.dumps(doc))
    assert "does not reproduce" in checker.check(member, exits)
    Path(member.outputs["report"]).write_text(json.dumps({"verdict": "non-member"}))
    assert "verdict" in checker.check(member, exits)


def _traced_counts(tmp_path: Path, jobs) -> tuple[dict, dict]:
    modules = run.import_package()
    originals = {(module, name): getattr(modules[module], name)
                 for module, name in _patched_names()}
    t = tracer.Tracer()
    t.install(modules)
    try:
        records = run.run_jobs(modules["cli"].main, jobs, Checker(), 60, tracer=t)
    finally:
        t.restore()
    assert [r.failure for r in records if r.failure] == []
    assert t.restored()
    assert all(getattr(modules[module], name) is fn for (module, name), fn in originals.items())
    metrics = t.layer_metrics(1.0)
    counts = {k: v for k, v in metrics.items() if tracer.LAYER_UNITS[k].startswith("count")}
    return dict(t.counts), counts


def _patched_names():
    for _, name, callers, _ in tracer.SPANNED:
        yield from ((caller, name) for caller in callers)
    for _, name, callers in tracer.COUNTED:
        yield from ((caller, name) for caller in callers)
    for name in tracer.DOCUMENT_PARSERS + tracer.DOCUMENT_RENDERERS:
        yield "documents", name
    yield "cli", "is_member"


def test_traced_counters_repeat_exactly_and_wrappers_are_removed(tmp_path):
    picked = []
    for workload, labels in (
        ("recon-dense", ("det", "triple", "member", "chart")),
        ("all-minors", ("member-12", "sign-flip")),
        ("equations", ("basis-5-member", "basis-5-non-member", "prefilter-6-member",
                       "prefilter-7-non-member")),
    ):
        workdir = tmp_path / workload
        workdir.mkdir()
        jobs = inputs.generate(workload, 4, workdir)
        picked += [next(j for j in jobs if j.label == label) for label in labels]
    first = _traced_counts(tmp_path, picked)
    assert first == _traced_counts(tmp_path, picked)
    counts, metrics = first
    for key in ("det_small", "det_bareiss", "det_small_in_reconstruct", "cayley_hyperdet",
                "act_point", "evaluate", "evaluate_in_basis", "lower", "chart_moves",
                "hd_basis_entries", "hd_basis_terms", "bytes_out"):
        assert counts[key] > 0, key
    assert metrics["hyperdet.hd_basis.entries"] == 250
    assert metrics["membership.reconstruct.calls"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recon-dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode != 0
    assert "correct" not in result.stdout

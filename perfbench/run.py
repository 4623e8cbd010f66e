"""Benchmark of the `pminors` command line on three seeded workloads.

    python3 perfbench/run.py --workload recon-dense --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The package is imported from `src/`
without installation.  Each job is what a user types: one or more
`pminors` command lines, run in this process through
`principal_minors.cli.main(argv)` on documents in a work directory under
`.perfbench/`.  One client, closed loop, one thread.

With `--trace 0` the run sets up the package several times and reports
the median set-up time.  It then cycles through the seeded job list, in
whole blocks of the workload's job mix, until `--seconds` of nominal job
time have passed and reports the end-to-end metrics.
Times are reported in nominal seconds, scaled by a reference kernel run
between jobs (see `calibration.py`); the wall-clock figures are printed
beside them.  With `--trace 1` it runs the whole job list once untraced and once with
the per-layer wrappers of `tracer.py`, then reports the per-layer
metrics.  Every output is checked outside the timer (`checks.py`).  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import calibration  # noqa: E402
from perfbench.checks import Checker  # noqa: E402
from perfbench.inputs import WORKLOAD_SPECS, generate, warmup_jobs  # noqa: E402
from perfbench.tracer import LAYER_UNITS, Tracer  # noqa: E402

PACKAGE = "principal_minors"
MODULES = ("cli", "documents", "hyperdet", "matrices", "membership", "minor_map",
           "polynomials", "rep_theory")


# Set-ups per untraced run; setup_s is their median.  Two on `equations`,
# where one set-up builds hd_basis(6) for about 15 s.
SETUP_REPS = {"recon-dense": 5, "all-minors": 5, "equations": 2}
JOB_BUDGET_S = 30         # a job over this is a `timeout` failure
SETUP_BUDGET_S = 120      # per warm-up job
TRACE_PASS_LIMIT_S = 70   # keeps a traced run, with its two passes, under 180 s
CALIBRATE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mb": "MB",
}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Record:
    label: str
    seconds: float          # wall time
    nominal: float          # wall time scaled to the reference speed
    failure: str | None


# -- the package under test --------------------------------------------

def import_package() -> dict[str, ModuleType]:
    """Import principal_minors afresh from src/, as a new process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    gc.collect()
    modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    if not Path(modules["cli"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"{PACKAGE} imported from {modules['cli'].__file__}, not src/")
    return modules


def release(modules: dict[str, ModuleType]):
    """Drop the cached bases so the next import starts from nothing."""
    cache_clear = getattr(modules["hyperdet"].hd_basis, "cache_clear", None)
    if cache_clear:
        cache_clear()


def _exit_code(main, argv: list[str], tracer) -> int:
    try:
        code = tracer.call("cli.main", main, argv) if tracer else main(argv)
    except SystemExit as exit_:
        code = exit_.code
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def run_job(main, job, budget_s: float, tracer=None):
    """Run one job's command lines; returns (seconds, exit codes, error)."""
    for path in job.outputs.values():
        Path(path).unlink(missing_ok=True)
    exits: list[int] = []
    error = None
    sink = io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            for argv in job.steps:
                exits.append(_exit_code(main, argv, tracer))
    except JobTimeout:
        error = f"timeout after {budget_s} s"
    except Exception as err:  # a crash of the package is a failed job, not a failed run
        error = f"exception {err!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, exits, error


def set_up(warmups, tracer=None) -> tuple[dict[str, ModuleType], float, float]:
    """Import the package and run the workload's warm-up jobs.  Returns
    the modules and the wall and nominal set-up times."""
    before = calibration.reference_seconds()
    start = time.perf_counter()
    modules = import_package()
    if tracer:
        tracer.install(modules)
    for job in warmups:
        _, exits, error = run_job(modules["cli"].main, job, SETUP_BUDGET_S, tracer)
        if error or exits != job.exits:
            raise RuntimeError(f"warm-up {job.label} failed: {error or exits}")
    seconds = time.perf_counter() - start
    reference = (before + calibration.reference_seconds()) / 2
    return modules, seconds, seconds * calibration.scale(reference)


def run_jobs(main, jobs, checker, budget_s: float, *, seconds: float | None = None,
             block: int = 1, tracer=None) -> list[Record]:
    """Run each job once when seconds is None.  Otherwise cycle through
    the jobs until `seconds` of nominal job time have passed, finishing
    the block of `block` jobs in progress so that every run has the same
    class mix; twice `seconds` of wall time ends the loop regardless.
    Checks and the reference kernel run outside the timer; the kernel
    runs again after every CALIBRATE_EVERY_S of jobs."""
    records: list[Record] = []
    wall = nominal = 0.0
    since_reference = math.inf
    index = 0
    while True:
        if seconds is None:
            if index == len(jobs):
                break
        elif (nominal >= seconds and index % block == 0) or wall >= 2 * seconds:
            break
        job = jobs[index % len(jobs)]
        index += 1
        if seconds is None and wall > TRACE_PASS_LIMIT_S:
            records.append(Record(job.label, 0.0, 0.0, "not run: pass over its time limit"))
            continue
        if tracer:
            tracer.job = job.index
        if since_reference >= CALIBRATE_EVERY_S:
            factor = calibration.scale(calibration.reference_seconds())
            since_reference = 0.0
        elapsed, exits, error = run_job(main, job, budget_s, tracer)
        wall += elapsed
        nominal += elapsed * factor
        since_reference += elapsed
        records.append(Record(job.label, elapsed, elapsed * factor,
                              error or checker.check(job, exits)))
    return records


# -- reporting ---------------------------------------------------------

def tail_percentile(times: list[float]) -> tuple[int, float]:
    """The highest whole percentile (nearest rank) with at least ten jobs
    beyond it; the median when there are too few jobs for that."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 50, ordered[math.ceil(n / 2) - 1]


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, records: list[Record]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "jobs_per_class": dict(sorted(Counter(r.label for r in records).items())),
    }


def end_to_end(records: list[Record], setups: list[tuple[float, float]]):
    """End-to-end metrics in nominal seconds, with notes giving sample
    counts and the raw wall-clock figures."""
    failed = sum(r.failure is not None for r in records)
    done = len(records) - failed
    nominal = [r.nominal for r in records]
    raw = [r.seconds for r in records]
    p, tail = tail_percentile(nominal)
    beyond = len(records) - math.ceil(p * len(records) / 100)
    setup_raw, setup_nominal = zip(*setups)
    values = {
        "setup_s": statistics.median(setup_nominal),
        "jobs_per_s": done / sum(nominal),
        "job_p50_s": statistics.median(nominal),
        "job_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; wall {statistics.median(setup_raw):.4g} s",
        "jobs_per_s": f"{done} jobs; wall {done / sum(raw):.4g} 1/s over {sum(raw):.2f} s",
        "job_p50_s": f"median of {len(records)} jobs; wall {statistics.median(raw):.4g} s",
        "job_tail_s": f"p{p} of {len(records)} jobs, {beyond} beyond it; "
                      f"wall {tail_percentile(raw)[1]:.4g} s",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def measure(args, jobs, warmups):
    checker = Checker()
    if not args.trace:
        setups = []
        modules = None
        for _ in range(SETUP_REPS[args.workload]):
            if modules:
                release(modules)
            modules, seconds, nominal = set_up(warmups)
            setups.append((seconds, nominal))
        block = len(WORKLOAD_SPECS[args.workload][0])
        records = run_jobs(modules["cli"].main, jobs, checker, JOB_BUDGET_S,
                           seconds=args.seconds, block=block)
        values, notes = end_to_end(records, setups)
        units = END_TO_END_UNITS
        restored = True
    else:
        modules, _, _ = set_up(warmups)
        plain = run_jobs(modules["cli"].main, jobs, checker, JOB_BUDGET_S)
        release(modules)
        tracer = Tracer()
        try:
            modules, _, _ = set_up(warmups, tracer)
            tracer.start_jobs()
            traced = run_jobs(modules["cli"].main, jobs, checker, JOB_BUDGET_S,
                              tracer=tracer)
        finally:
            tracer.restore()
        restored = tracer.restored()
        records = plain + traced
        plain_s = sum(r.nominal for r in plain)
        traced_s = sum(r.nominal for r in traced)
        values = tracer.layer_metrics(traced_s / plain_s)
        notes = {"trace.overhead_ratio": f"{traced_s:.3f} s traced / {plain_s:.3f} s "
                                         f"untraced, nominal, {len(jobs)} jobs each"}
        units = LAYER_UNITS
        out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(out, {"workload": args.workload, "seed": args.seed})
        print(f"  spans and counters (wall-clock) written to {out.relative_to(ROOT)}")
    width = max(map(len, values))
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<{width}} {value:.6g} {units[name]}{note}")
    return records, values, units, restored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    try:
        (workdir / "jobs").mkdir()
        (workdir / "warmup").mkdir()
        jobs = generate(args.workload, args.seed, workdir / "jobs")
        warmups = warmup_jobs(args.workload, workdir / "warmup")
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} job_list={len(jobs)}")
        records, values, units, restored = measure(args, jobs, warmups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in records if r.failure is not None]
    print(f"  {'fail_ratio':<12} {len(failures) / len(records):.6g} ratio "
          f"({len(failures)} of {len(records)} jobs failed)")
    for record in failures[:10]:
        print(f"failed: {record.label}: {record.failure}", file=sys.stderr)
    if not restored:
        print("error: the tracer left a patched function in place", file=sys.stderr)
    print("record " + json.dumps(run_record(args, records), sort_keys=True))
    print(json.dumps({
        "correct": not failures and restored,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

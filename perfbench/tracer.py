"""Per-layer tracing of principal_minors from the benchmark's own files.

The tracer replaces public functions of the package by wrappers, patching
the names that the calling modules look up (for example both
`principal_minors.membership.det_exact` and
`principal_minors.minor_map.det_exact`), so no file of the package
changes.  `restore()` puts every original back.

Coarse calls get spans (name, start, end, parent, job id), kept in memory
and written out at the end.  Hot inner calls (det_exact, cayley_hyperdet,
act_point, evaluate, lower) only bump counters, and evaluate and lower
also accumulate time; spans there would number in the millions and
distort the trace.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import ModuleType

PACKAGE = "principal_minors"

# (home module, function, calling modules, span name).  Each calling
# module's name must be bound to the home module's function.
SPANNED = (
    ("membership", "reconstruct", ("cli", "membership"), "membership.reconstruct"),
    ("minor_map", "minor_vector", ("cli", "membership"), "minor_map.minor_vector"),
    ("membership", "sign_flip_profile", ("cli",), "membership.sign_flip_profile"),
    ("hyperdet", "hd_basis", ("cli", "membership"), "hyperdet.hd_basis"),
    ("rep_theory", "weight_basis", ("hyperdet",), "rep_theory.weight_basis"),
)
# cli calls the documents functions through the module, and documents
# calls them by their global names, so patching the module covers both.
DOCUMENT_PARSERS = ("loads", "parse_matrix_document", "parse_minors_document",
                    "parse_polynomial_document", "parse_basis_document",
                    "parse_report_document")
DOCUMENT_RENDERERS = ("dumps", "matrix_document", "minors_document", "polynomial_document",
                      "basis_document", "report_document", "sign_flip_document")
# (home module, function, calling modules); counters only.
COUNTED = (
    ("matrices", "det_exact", ("matrices", "minor_map", "membership")),
    ("hyperdet", "cayley_hyperdet", ("membership",)),
    ("polynomials", "act_point", ("membership",)),
    ("polynomials", "evaluate", ("membership",)),
    ("polynomials", "lower", ("rep_theory",)),
)

# The work of these layers happens while setting up (the hd_basis builds),
# so their spans and counters cover the set-up as well as the jobs; every
# other per-layer metric covers the traced job pass only.
SETUP_GROUPS = ("hyperdet.hd_basis", "rep_theory.weight_basis")
SETUP_COUNTERS = ("lower", "hd_basis_entries", "hd_basis_terms")

COUNTER_NAMES = (
    "det_small", "det_bareiss", "det_small_in_reconstruct", "cayley_hyperdet", "act_point",
    "evaluate", "evaluate_in_basis", "lower", "chart_moves", "hd_basis_entries",
    "hd_basis_terms", "bytes_out", "basis_checks",
)

# Per-layer metric name -> unit, in report order.
LAYER_UNITS = {
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "documents.parse.busy_s": "s",
    "documents.render.busy_s": "s",
    "documents.bytes_out": "bytes",
    "minor_map.minor_vector.calls": "count",
    "minor_map.minor_vector.busy_s": "s",
    "matrices.det_exact.small_calls": "count",
    "matrices.det_exact.bareiss_calls": "count",
    "membership.is_member.reconstruct.busy_s": "s",
    "membership.reconstruct.calls": "count",
    "membership.reconstruct.busy_s": "s",
    "membership.reconstruct.self_s": "s",
    "membership.reconstruct.small_dets_per_call": "count/call",
    "membership.sign_flip_profile.busy_s": "s",
    "membership.is_member.basis.busy_s": "s",
    "membership.basis.evals_per_check": "count/check",
    "membership.is_member.prefilter.busy_s": "s",
    "membership.chart_moves": "count",
    "polynomials.evaluate.calls": "count",
    "polynomials.evaluate.busy_s": "s",
    "polynomials.lower.calls": "count",
    "polynomials.lower.busy_s": "s",
    "polynomials.act_point.calls": "count",
    "hyperdet.hd_basis.busy_s": "s",
    "hyperdet.hd_basis.entries": "count",
    "hyperdet.hd_basis.terms": "count",
    "hyperdet.cayley_hyperdet.calls": "count",
    "rep_theory.weight_basis.busy_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans and counters for one traced run; install() patches the
    package, restore() undoes it."""

    def __init__(self):
        self.job: int | str = "setup"
        # Each span is [name, group, start, end, parent index, job, outermost in group].
        self.spans: list[list] = []
        self._open: list[int] = []
        self._group_depth: dict[str, int] = {}
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self.evaluate_s = 0.0
        self.lower_s = 0.0
        self._patches: list[tuple[ModuleType, str, object]] = []

    # -- spans ---------------------------------------------------------

    def call(self, name: str, fn, *args, group: str | None = None, **kwargs):
        """Run fn inside a span."""
        group = group or name
        depth = self._group_depth.get(group, 0)
        index = len(self.spans)
        span = [name, group, time.perf_counter(), None,
                self._open[-1] if self._open else None, self.job, depth == 0]
        self.spans.append(span)
        self._open.append(index)
        self._group_depth[group] = depth + 1
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()
            self._group_depth[group] = depth

    def start_jobs(self):
        """Mark the end of set-up: job-scope counters restart from zero."""
        for key in self.counts:
            if key not in SETUP_COUNTERS:
                self.counts[key] = 0
        self.evaluate_s = 0.0

    def _in_group(self, group: str) -> bool:
        return self._group_depth.get(group, 0) > 0

    # -- wrappers ------------------------------------------------------

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _is_member(self, fn):
        def wrapper(z, method="basis", **kwargs):
            if method == "basis":
                self.counts["basis_checks"] += 1
            report = self.call(f"membership.is_member.{method}", fn, z, method, **kwargs)
            self.counts["chart_moves"] += report.chart_moves
            return report
        return wrapper

    def _hd_basis(self, fn):
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(n):
            misses = cache_info().misses if cache_info else 0
            basis = self.call("hyperdet.hd_basis", fn, n)
            if cache_info is None or cache_info().misses > misses:
                self.counts["hd_basis_entries"] += len(basis.entries)
                self.counts["hd_basis_terms"] += sum(
                    sum(1 for _ in entry.polynomial.terms()) for entry in basis.entries)
            return basis
        return wrapper

    def _document(self, name: str, fn, group: str):
        def wrapper(*args, **kwargs):
            outermost = not self._in_group(group)
            result = self.call(f"documents.{name}", fn, *args, group=group, **kwargs)
            if name == "dumps" and outermost:
                self.counts["bytes_out"] += len(result.encode())
            return result
        return wrapper

    def _det_exact(self, fn):
        counts = self.counts

        def wrapper(rows):
            if len(rows) <= 3:
                counts["det_small"] += 1
                if self._in_group("membership.reconstruct"):
                    counts["det_small_in_reconstruct"] += 1
            else:
                counts["det_bareiss"] += 1
            return fn(rows)
        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _evaluate(self, fn):
        counts = self.counts

        def wrapper(poly, point):
            counts["evaluate"] += 1
            if self._in_group("membership.is_member.basis"):
                counts["evaluate_in_basis"] += 1
            start = time.perf_counter()
            try:
                return fn(poly, point)
            finally:
                self.evaluate_s += time.perf_counter() - start
        return wrapper

    def _lower(self, fn):
        counts = self.counts

        def wrapper(poly, factor):
            counts["lower"] += 1
            start = time.perf_counter()
            try:
                return fn(poly, factor)
            finally:
                self.lower_s += time.perf_counter() - start
        return wrapper

    # -- patching ------------------------------------------------------

    def _patch(self, modules: dict, home: str, name: str, callers, wrapper):
        original = getattr(modules[home], name)
        for caller in callers:
            module = modules[caller]
            if getattr(module, name) is not original:
                raise RuntimeError(f"{PACKAGE}.{caller}.{name} is not {home}.{name}")
            self._patches.append((module, name, original))
            setattr(module, name, wrapper)

    def install(self, modules: dict[str, ModuleType]):
        """Patch the package; `modules` maps short names ("cli", ...) to
        the imported submodules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        is_member = modules["membership"].is_member
        self._patch(modules, "membership", "is_member", ("cli",), self._is_member(is_member))
        for home, name, callers, span in SPANNED:
            fn = getattr(modules[home], name)
            wrapper = self._hd_basis(fn) if name == "hd_basis" else self._spanned(span, fn)
            self._patch(modules, home, name, callers, wrapper)
        for names, group in ((DOCUMENT_PARSERS, "documents.parse"),
                             (DOCUMENT_RENDERERS, "documents.render")):
            for name in names:
                fn = getattr(modules["documents"], name)
                self._patch(modules, "documents", name, ("documents",),
                            self._document(name, fn, group))
        for home, name, callers in COUNTED:
            fn = getattr(modules[home], name)
            wrapper = {"det_exact": self._det_exact, "evaluate": self._evaluate,
                       "lower": self._lower}.get(name)
            wrapper = wrapper(fn) if wrapper else self._counted(name, fn)
            self._patch(modules, home, name, callers, wrapper)

    def restore(self):
        """Put every original function back, newest patch first."""
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)

    def restored(self) -> bool:
        """True when every patched name holds its original function again."""
        return all(getattr(module, name) is original
                   for module, name, original in self._patches)

    # -- results -------------------------------------------------------

    def _span_totals(self):
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        children = [0.0] * len(self.spans)
        for name, group, start, end, parent, _job, outermost in self.spans:
            if parent is not None:
                children[parent] += end - start
        for index, (name, group, start, end, _parent, job, outermost) in enumerate(self.spans):
            if job == "setup" and group not in SETUP_GROUPS:
                continue
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + (end - start) - children[index]
            if outermost:
                busy[group] = busy.get(group, 0.0) + end - start
        return busy, self_s, calls

    def layer_metrics(self, overhead_ratio: float) -> dict[str, float]:
        busy, self_s, calls = self._span_totals()
        c = self.counts
        recon_calls = calls.get("membership.reconstruct", 0)
        values = {
            "cli.main.calls": calls.get("cli.main", 0),
            "cli.main.busy_s": busy.get("cli.main", 0.0),
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "documents.parse.busy_s": busy.get("documents.parse", 0.0),
            "documents.render.busy_s": busy.get("documents.render", 0.0),
            "documents.bytes_out": c["bytes_out"],
            "minor_map.minor_vector.calls": calls.get("minor_map.minor_vector", 0),
            "minor_map.minor_vector.busy_s": busy.get("minor_map.minor_vector", 0.0),
            "matrices.det_exact.small_calls": c["det_small"],
            "matrices.det_exact.bareiss_calls": c["det_bareiss"],
            "membership.is_member.reconstruct.busy_s":
                busy.get("membership.is_member.reconstruct", 0.0),
            "membership.reconstruct.calls": recon_calls,
            "membership.reconstruct.busy_s": busy.get("membership.reconstruct", 0.0),
            "membership.reconstruct.self_s": self_s.get("membership.reconstruct", 0.0),
            "membership.reconstruct.small_dets_per_call":
                c["det_small_in_reconstruct"] / recon_calls if recon_calls else 0.0,
            "membership.sign_flip_profile.busy_s":
                busy.get("membership.sign_flip_profile", 0.0),
            "membership.is_member.basis.busy_s": busy.get("membership.is_member.basis", 0.0),
            "membership.basis.evals_per_check":
                c["evaluate_in_basis"] / c["basis_checks"] if c["basis_checks"] else 0.0,
            "membership.is_member.prefilter.busy_s":
                busy.get("membership.is_member.prefilter", 0.0),
            "membership.chart_moves": c["chart_moves"],
            "polynomials.evaluate.calls": c["evaluate"],
            "polynomials.evaluate.busy_s": self.evaluate_s,
            "polynomials.lower.calls": c["lower"],
            "polynomials.lower.busy_s": self.lower_s,
            "polynomials.act_point.calls": c["act_point"],
            "hyperdet.hd_basis.busy_s": busy.get("hyperdet.hd_basis", 0.0),
            "hyperdet.hd_basis.entries": c["hd_basis_entries"],
            "hyperdet.hd_basis.terms": c["hd_basis_terms"],
            "hyperdet.cayley_hyperdet.calls": c["cayley_hyperdet"],
            "rep_theory.weight_basis.busy_s": busy.get("rep_theory.weight_basis", 0.0),
            "trace.overhead_ratio": overhead_ratio,
        }
        return values

    def write(self, path: Path, header: dict):
        """Write the spans and counters as one JSON document."""
        keys = ("name", "group", "start", "end", "parent", "job", "outermost")
        path.write_text(json.dumps({
            **header,
            "counts": self.counts,
            "spans": [dict(zip(keys, span)) for span in self.spans],
        }) + "\n")

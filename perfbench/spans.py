"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the program: each wrap point replaces a
module attribute (the name a harness module imported, or the defining
module's name for the benchmark's own direct calls) with a wrapper for the
duration of one traced unit, then puts the original back.  Nothing under
``src/`` is edited.

A span is (name, start, end, parent, unit).  A layer's self time is its
span minus the spans nested directly inside it.  Counter bookkeeping runs
in its own ``trace`` span so it never lands in a layer's self time.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import time
import types
from contextlib import contextmanager
from pathlib import Path

# Span names double as the per-layer self-time metric names.
GRID_PATH_SUMS = "grid.path_sums_s"
GRID_BUILD = "grid.parse_build_s"
MODEL = "moments.model_s"
SAMPLE = "moments.sample_s"
ANALYTIC = "moments.analytic_s"
LC = "powerflow.lc_s"
DISTFLOW = "powerflow.distflow_s"
LEARNER = "learner.reconstruct_s"
GRIDFILE_PARSE = "harness.gridfile.parse_s"
GRIDFILE_WRITE = "harness.gridfile.write_s"
GRIDFILE_READ = "harness.gridfile.read_s"
EXPERIMENT = "harness.experiment.self_s"
UNIT = "unit"            # root span: benchmark and click glue, no layer
BOOKKEEPING = "trace"    # counter bookkeeping, excluded from every layer

LAYER_SPANS = (GRID_PATH_SUMS, GRID_BUILD, MODEL, SAMPLE, ANALYTIC, LC, DISTFLOW, LEARNER,
               GRIDFILE_PARSE, GRIDFILE_WRITE, GRIDFILE_READ, EXPERIMENT)

# Outermost spans of these layers are counted as calls.
CALL_COUNTS = {
    SAMPLE: "moments.sample_calls",
    MODEL: "moments.model_calls",
    ANALYTIC: "moments.analytic_calls",
    GRID_PATH_SUMS: "grid.path_sum_calls",
    LC: "powerflow.lc_calls",
    DISTFLOW: "powerflow.distflow_calls",
    LEARNER: "learner.calls",
    EXPERIMENT: "harness.experiment.calls",
}

COUNT_NAMES = tuple(CALL_COUNTS.values()) + (
    "moments.samples_drawn",
    "grid.path_sum_entries",
    "powerflow.lc_flops",
    "powerflow.distflow_iters",
    "powerflow.errors",
    "learner.pairs_tested",
    "learner.pairs_with_line",
    "learner.pairs_accepted",
    "harness.gridfile.bytes",
)

# Deviation extremes kept as max/min rather than sums.
DEV_MAX = "learner.accept_dev_max"
DEV_MIN = "learner.reject_dev_min"


def _source_bytes(source) -> int:
    text = str(source)
    if isinstance(source, Path) or not text.lstrip().startswith("{"):
        return os.path.getsize(text)
    return len(text.encode())


def _count_path_sums(c, args, kwargs, result):
    # Entries the dense assembly touches: sum over load nodes of |desc|^2.
    forest = args[0]
    c["grid.path_sum_entries"] += sum(len(m) ** 2 for m in forest.descendant_load_indices.values())


def _count_lc(c, args, kwargs, result):
    # Four dense (m x N) @ (N x N) products, 2 m N^2 flops each.
    m, n = result.eps.shape
    c["powerflow.lc_flops"] += 8 * m * n * n


def _count_distflow(c, args, kwargs, result):
    c["powerflow.distflow_iters"] += result.iterations


def _count_sample(c, args, kwargs, result):
    c["moments.samples_drawn"] += len(result)


def _count_learner(c, args, kwargs, result):
    for rec in result.trace:
        c["learner.pairs_tested"] += 1
        if rec.deviation is None:
            continue
        c["learner.pairs_with_line"] += 1
        if rec.accepted:
            c["learner.pairs_accepted"] += 1
            c[DEV_MAX] = max(c.get(DEV_MAX, -math.inf), rec.deviation)
        else:
            c[DEV_MIN] = min(c.get(DEV_MIN, math.inf), rec.deviation)


def _count_parse(c, args, kwargs, result):
    c["harness.gridfile.bytes"] += _source_bytes(args[0])


def _count_file_arg(position):
    def count(c, args, kwargs, result):
        c["harness.gridfile.bytes"] += os.path.getsize(args[position])
    return count


# (module, attribute, span, counter).  An attribute "A.b" wraps method b of
# the object bound to A, by binding A to a namespace holding the wrapper.
WRAP_POINTS = (
    ("gridtop.harness.experiment", "run_experiment", EXPERIMENT, None),
    ("gridtop.harness.experiment", "resolve_plan_grid", EXPERIMENT, None),
    ("gridtop.harness.experiment", "model_from_dict", MODEL, None),
    ("gridtop.harness.experiment", "sample_injections", SAMPLE, _count_sample),
    ("gridtop.harness.experiment", "lcpf_solve_many", LC, _count_lc),
    ("gridtop.harness.experiment", "distflow_solve", DISTFLOW, _count_distflow),
    ("gridtop.harness.experiment", "reconstruct", LEARNER, _count_learner),
    ("gridtop.harness.experiment", "analytic_moment_set", ANALYTIC, None),
    ("gridtop.harness.experiment", "parse_grid", GRIDFILE_PARSE, _count_parse),
    ("gridtop.harness.cli", "parse_grid", GRIDFILE_PARSE, _count_parse),
    ("gridtop.harness.cli", "model_from_dict", MODEL, None),
    ("gridtop.harness.cli", "simulate_voltage", EXPERIMENT, None),
    ("gridtop.harness.cli", "write_samples", GRIDFILE_WRITE, _count_file_arg(0)),
    ("gridtop.harness.cli", "read_samples", GRIDFILE_READ, _count_file_arg(0)),
    ("gridtop.harness.cli", "reconstruct", LEARNER, _count_learner),
    # fixtures.load_fixture looks parse_grid up here at call time; the
    # feeder workload calls it here directly.
    ("gridtop.harness.gridfile", "parse_grid", GRIDFILE_PARSE, _count_parse),
    ("gridtop.harness.gridfile", "GridGraph", GRID_BUILD, None),
    ("gridtop.harness.gridfile", "ForestConfig.from_closed_edges", GRID_BUILD, None),
    ("gridtop.powerflow", "path_sum_matrix", GRID_PATH_SUMS, _count_path_sums),
    ("gridtop.moments", "path_sum_matrix", GRID_PATH_SUMS, _count_path_sums),
    ("gridtop.moments", "default_model", MODEL, None),
    ("gridtop.moments", "analytic_moment_set", ANALYTIC, None),
    ("gridtop.learner", "reconstruct", LEARNER, _count_learner),
)


class MissingWrapPoint(RuntimeError):
    """A wrap point names an attribute the program no longer has."""


def resolve_wrap_points():
    """Look every wrap point up once; fail with its name if one is gone."""
    resolved = []
    for module_name, attr, span, counter in WRAP_POINTS:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.partition(".")
        owner = getattr(module, owner_name, None)
        target = getattr(owner, method, None) if method else owner
        if target is None or not callable(target):
            raise MissingWrapPoint(f"wrap point {module_name}.{attr} does not exist")
        resolved.append((module, owner_name, owner, method, target, span, counter))
    return resolved


class Tracer:
    """Spans and counts of the traced units of one run, kept in memory."""

    def __init__(self):
        self._points = resolve_wrap_points()
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[int] = []
        self._key = 0  # distinguishes repeated traced runs of one unit index

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), math.nan, parent, self._key))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int):
        name, start, _, parent, key = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent, key)
        self._stack.pop()

    def _wrap(self, fn, span, counter):
        def traced(*args, **kwargs):
            index = self._open(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(index)
                if span in (LC, DISTFLOW):
                    self.counts[self._key]["powerflow.errors"] += 1
                raise
            self._close(index)
            if counter is not None:
                book = self._open(BOOKKEEPING)
                counter(self.counts[self._key], args, kwargs, result)
                self._close(book)
            return result
        return traced

    @contextmanager
    def unit(self, key: int):
        """Trace one unit: install every wrapper, restore the originals after."""
        self._key = key
        self.counts[key] = dict.fromkeys(COUNT_NAMES, 0)
        installed = []
        for module, owner_name, owner, method, target, span, counter in self._points:
            wrapped = self._wrap(target, span, counter)
            if method:
                wrapped = types.SimpleNamespace(**{method: wrapped})
            installed.append((module, owner_name, owner))
            setattr(module, owner_name, wrapped)
        root = self._open(UNIT)
        try:
            yield
        finally:
            self._close(root)
            for module, owner_name, owner in reversed(installed):
                setattr(module, owner_name, owner)

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per traced unit key: seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, key in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = {}
        for i, (name, start, end, parent, key) in enumerate(self.spans):
            per_unit = out.setdefault(key, dict.fromkeys(LAYER_SPANS + (UNIT, BOOKKEEPING), 0.0))
            per_unit[name] += (end - start) - child_time[i]
        return out

    def unit_counts(self, key: int) -> dict[str, float]:
        """Counts of one traced unit, calls included."""
        c = dict(self.counts[key])
        for name, start, end, parent, k in self.spans:
            if k == key and name in CALL_COUNTS and (parent < 0 or self.spans[parent][0] != name):
                c[CALL_COUNTS[name]] += 1
        return c

    def write_spans(self, path: Path, unit_of_key) -> None:
        """Write every span once, as JSON lines, at the end of the run."""
        with open(path, "w") as fh:
            for name, start, end, parent, key in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "unit": unit_of_key(key)}) + "\n")

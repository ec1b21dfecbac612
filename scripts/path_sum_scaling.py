#!/usr/bin/env python
"""Scaling of the infinite-sample path with the number of loads.

Times six calls on two kinds of forest and fits the exponent k of
t ~ N^k by least squares on the log-log points of each (call, kind):

* ``parse_grid``: the grid file reader on the JSON text of the case, its
  declared forest included (for a feeder the text ``feeder_document``
  writes, for a chain that of ``grid_to_dict``);
* ``forest_build``: ``ForestConfig.from_closed_edges`` on the grid and its
  closed lines;
* ``default_model``: the injection model every other call is fed;
* ``lcpf_response``: the dense response matrices (A, B) of the linear model,
  which the sample solves use;
* ``analytic_moment_set``: the exact voltage moments of the default model;
* ``reconstruct``: the learner fed those moments, at the ``feeder_scale``
  benchmark's tau = 1e-4.  The relative error it reaches is recorded at
  that tau and at 1e-12, where an error above 0 means the statistic lost
  its digits to rounding (a learner that rejects every pair also merges
  nothing, so its time at 1e-12 would not be comparable).

The forests are chains of N loads whose ids are shuffled along the line
(one deep tree: ids are not in depth order, and descendant sets sum to
N^2 / 2 loads), and the benchmark's feeders (``perfbench/feeder.py``: four
trees, one of them a spine of N / 5 loads).  Each timing is the best of
``--repeats`` calls, each on a freshly built forest, so no call reuses what
an earlier one kept in the forest's memo.  After the timed calls each call
runs once more under ``tracemalloc``, which slows it, on an input built
before tracing starts, and ``peak_mib`` records the peak of the memory it
traced, its result included.  Writes one JSON document, with the peak
resident set size of the process (the largest case's arrays: the dense
response matrices of ``lcpf_response`` are 128 MB each at N = 4000).

    PYTHONPATH=src python scripts/path_sum_scaling.py --out BENCH_scaling.json
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from gridtop.grid import LOAD, SUBSTATION, ForestConfig, GridGraph, GridNode, LineEdge
from gridtop.harness import grid_to_dict, parse_grid
from gridtop.learner import LearnerConfig, reconstruct
from gridtop.moments import analytic_moment_set, default_model
from gridtop.powerflow import lcpf_response

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from feeder import feeder_document  # noqa: E402

TIMED_TAU = 1e-4
TAUS = (1e-4, 1e-12)


def shuffled_chain(n_loads: int, rng: np.random.Generator) -> GridGraph:
    """Substation 0 and loads 1..n in one line, in a random order of ids."""
    line = [0] + [int(i) for i in 1 + rng.permutation(n_loads)]
    nodes = (GridNode(0, SUBSTATION),) + tuple(GridNode(i, LOAD) for i in range(1, n_loads + 1))
    edges = tuple(LineEdge(u, v, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3)))
                  for u, v in zip(line, line[1:]))
    return GridGraph(nodes=nodes, edges=edges, name=f"shuffled_chain_{n_loads}")


def forests(kind: str, n: int, rng: np.random.Generator):
    """The grid of one case, its grid file text and a function that builds a
    fresh forest of it."""
    if kind == "shuffled_chain":
        grid, closed = shuffled_chain(n, rng), range(n)
        text = json.dumps(grid_to_dict(grid, ForestConfig.from_closed_edges(grid, closed)))
    else:
        text = feeder_document(rng, n_loads=n, n_subs=4, spine=n // 5, name=f"feeder_{n}")
        grid, forest = parse_grid(text)
        closed = forest.closed_edges
    return grid, text, lambda: ForestConfig.from_closed_edges(grid, closed)


def best(repeats: int, build, call) -> float:
    """Best wall time of ``call(build())`` over ``repeats`` runs; the build
    is not timed.  One run's input is dropped before the next is built, so
    the peak memory is that of one run."""
    out = float("inf")
    for _ in range(repeats):
        arg = build()
        started = time.perf_counter()
        call(arg)
        out = min(out, time.perf_counter() - started)
        del arg
    return out


def traced_peak(build, call) -> float:
    """The peak of traced memory, in MiB, of one untimed ``call(build())``;
    the build is not traced."""
    arg = build()
    tracemalloc.start()
    try:
        call(arg)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def exponent(sizes, seconds) -> float:
    return round(float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0]), 3)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000, 4000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_scaling.json")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    cases = {}
    for kind in ("shuffled_chain", "feeder"):
        rows = {"parse_grid": [], "forest_build": [], "default_model": [], "lcpf_response": [],
                "analytic_moment_set": [], "reconstruct": []}
        peaks = {name: [] for name in rows}
        errors = []
        for n in args.sizes:
            grid, text, fresh = forests(kind, n, rng)

            def learned(prepared, tau=TIMED_TAU):
                forest, model, mset = prepared
                return reconstruct(mset, model, grid, LearnerConfig(tau=tau), truth=forest)

            def prepare():
                forest = fresh()
                model = default_model(forest)
                return forest, model, analytic_moment_set(forest, model)

            calls = {  # name: (untimed build of the input, timed call)
                "parse_grid": (lambda: text, parse_grid),
                "forest_build": (lambda: None, lambda _: fresh()),
                "default_model": (fresh, default_model),
                "lcpf_response": (fresh, lcpf_response),
                "analytic_moment_set": (lambda: (f := fresh(), default_model(f)), lambda fm: analytic_moment_set(*fm)),
                "reconstruct": (prepare, learned),
            }
            for name, (build, call) in calls.items():
                rows[name].append(best(args.repeats, build, call))
            for name, (build, call) in calls.items():
                peaks[name].append(round(traced_peak(build, call), 3))
            prepared = prepare()
            errors.append([learned(prepared, tau).relative_error for tau in TAUS])
        cases[kind] = {
            "seconds": {name: [round(s, 6) for s in seconds] for name, seconds in rows.items()},
            "exponent": {name: exponent(args.sizes, seconds) for name, seconds in rows.items()},
            "peak_mib": peaks,
            "relative_error": {f"tau_{tau:g}": [e[k] for e in errors] for k, tau in enumerate(TAUS)},
        }
    doc = {
        "sizes": args.sizes,
        "repeats": args.repeats,
        "seed": args.seed,
        "cases": cases,
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

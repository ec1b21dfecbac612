#!/usr/bin/env python
"""Scaling of the dense response matrices on deep chains.

Times ``lcpf_response`` (the two path-sum matrices of the linear model) on
chains of N loads whose ids are shuffled along the line, so that ids are not
in depth order, and fits the exponent k of t ~ N^k by least squares on the
log-log points.  A chain is the worst case for root-path sums: its
descendant sets sum to N^2 / 2 entries.  Each timing is the best of
``--repeats`` calls, each on a freshly built forest.  Prints one JSON
object.

    PYTHONPATH=src python scripts/path_sum_scaling.py
"""

import argparse
import json
import os
import platform
import time

import numpy as np

from gridtop.grid import LOAD, SUBSTATION, ForestConfig, GridGraph, GridNode, LineEdge
from gridtop.powerflow import lcpf_response


def shuffled_chain(n_loads: int, rng: np.random.Generator) -> GridGraph:
    """Substation 0 and loads 1..n in one line, in a random order of ids."""
    line = [0] + [int(i) for i in 1 + rng.permutation(n_loads)]
    nodes = (GridNode(0, SUBSTATION),) + tuple(GridNode(i, LOAD) for i in range(1, n_loads + 1))
    edges = tuple(LineEdge(u, v, float(rng.uniform(0.05, 0.3)), float(rng.uniform(0.05, 0.3)))
                  for u, v in zip(line, line[1:]))
    return GridGraph(nodes=nodes, edges=edges, name=f"shuffled_chain_{n_loads}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    seconds = []
    for n in args.sizes:
        grid = shuffled_chain(n, rng)
        best = float("inf")
        for _ in range(args.repeats):
            forest = ForestConfig.from_closed_edges(grid, range(n))
            started = time.perf_counter()
            lcpf_response(forest)
            best = min(best, time.perf_counter() - started)
        seconds.append(best)
    exponent = float(np.polyfit(np.log(args.sizes), np.log(seconds), 1)[0])
    print(json.dumps({
        "sizes": args.sizes,
        "seconds": [round(s, 6) for s in seconds],
        "exponent": round(exponent, 3),
        "repeats": args.repeats,
        "machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
    }))


if __name__ == "__main__":
    main()

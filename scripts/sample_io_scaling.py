#!/usr/bin/env python
"""Scaling of voltage-sample file I/O with the number of samples.

Times three calls on the samples of two bundled fixtures (N = 13 and 83
load columns) at several sample counts m, and fits the exponent k of
t ~ m^k by least squares on the log-log points of each (call, N):

* ``write_samples``: one ``orjson`` dump per row, written in blocks of
  rows, with ``repr`` rewriting the rows whose values orjson lays out
  otherwise;
* ``read_samples``: one ``orjson`` array per row of a well-formed file,
  read one block at a time into an array sized from a first pass;
* ``checked``: the cell-by-cell ``csv``/``float`` parser that
  ``read_samples`` falls back to on a file its row-wise parse refuses,
  called directly on the same text (file read included, as in
  ``read_samples``).

Each timing is the best of ``--repeats`` rounds on the same file, where a
round runs the three calls once each.  Every read is checked to return the
written array bit for bit.  After the timed rounds each call runs once more
under ``tracemalloc``, which slows it, and ``peak_mib`` records the peak of
the memory it traced, returned array included.  Writes one JSON document.

    PYTHONPATH=src python scripts/sample_io_scaling.py --out BENCH_sample_io.json
"""

import argparse
import json
import os
import platform
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from gridtop.fixtures import load_fixture
from gridtop.harness import read_samples, simulate_voltage, write_samples
from gridtop.harness.gridfile import _parse_samples_checked
from gridtop.moments import default_model

GRIDS = {13: "bus_13_3", 83: "bus_83_11"}


def best(repeats: int, calls: dict) -> tuple[dict, dict]:
    """Best wall time of each call over ``repeats`` rounds, and its last
    result.  Each round runs every call once, so a slow spell of the
    machine reaches all three alike."""
    seconds = dict.fromkeys(calls, float("inf"))
    results = {}
    for _ in range(repeats):
        for name, call in calls.items():
            started = time.perf_counter()
            results[name] = call()
            seconds[name] = min(seconds[name], time.perf_counter() - started)
    return seconds, results


def traced_peaks(calls: dict) -> dict:
    """Each call's peak of traced memory in MiB, from one untimed run."""
    peaks = {}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    return peaks


def exponent(sizes, seconds) -> float:
    return round(float(np.polyfit(np.log(sizes), np.log(seconds), 1)[0]), 3)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", type=int, nargs="+", default=[200, 800, 3200, 12800])
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_sample_io.json")
    args = ap.parse_args()

    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.csv"
        for n, name in GRIDS.items():
            _, forest = load_fixture(name)
            model = default_model(forest)
            rows = {"write_samples": [], "read_samples": [], "checked": []}
            peaks = {call: [] for call in rows}
            sizes_bytes = []
            for m in args.sizes:
                samples = simulate_voltage(forest, model, m, args.seed)
                write_samples(path, samples)
                sizes_bytes.append(path.stat().st_size)
                calls = {
                    "write_samples": lambda: write_samples(path, samples),
                    "read_samples": lambda: read_samples(path),
                    "checked": lambda: _parse_samples_checked(path.read_text(), str(path)),
                }
                seconds, results = best(args.repeats, calls)
                for call in ("read_samples", "checked"):
                    back = results[call]
                    if back.nodes != samples.nodes or back.eps.tobytes() != samples.eps.tobytes():
                        raise SystemExit(f"{call} did not read back what was written ({name}, m={m})")
                for call, s in seconds.items():
                    rows[call].append(s)
                for call, mib in traced_peaks(calls).items():
                    peaks[call].append(round(mib, 3))
            cases[f"N_{n}"] = {
                "grid": name,
                "bytes": sizes_bytes,
                "seconds": {call: [round(s, 6) for s in seconds] for call, seconds in rows.items()},
                "exponent": {call: exponent(args.sizes, seconds) for call, seconds in rows.items()},
                "peak_mib": peaks,
            }
    doc = {
        "sizes": args.sizes,
        "repeats": args.repeats,
        "seed": args.seed,
        "cases": cases,
        "machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc))


if __name__ == "__main__":
    main()

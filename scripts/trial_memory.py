#!/usr/bin/env python
"""Time, minor page faults and peak memory per Monte-Carlo experiment unit.

Runs two experiment plans through ``run_experiment``, one unit after
another, each unit on a seed derived from the script seed and the unit
index:

* ``mc_fixture``: bus_13_3, m = 200, 800, 3200 and 12800, ten trials each,
  on the linear model;
* ``distflow_mc``: bus_83_11, one trial of m = 100 on DistFlow.

Each case runs in a fresh child process, which imports gridtop from the
``src`` directory of its side.  After one warm-up unit, the child times
every unit and reads ``ru_minflt`` before and after them; ``ru_maxrss`` is
the child's peak resident set over its whole life.  With several
``--side LABEL=SRC`` the sides alternate, round by round and case by case,
so a slow spell of the machine reaches them alike.  Writes one JSON
document with every round and, per case and side, the medians over the
rounds.

    python scripts/trial_memory.py --side after=src
    python scripts/trial_memory.py --side before=../parent/src --side after=src --rounds 5
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

PLANS = {
    "mc_fixture": {"grid": "bus_13_3", "sample_counts": [200, 800, 3200, 12800], "taus": [0.05],
                   "model": {"sigma_ratio": 0.8}, "trials": 10},
    "distflow_mc": {"grid": "bus_83_11", "engine": "distflow", "sample_counts": [100], "taus": [0.05],
                    "trials": 1},
}
UNITS = {"mc_fixture": 15, "distflow_mc": 100}


def child(case: str, src: str, units: int, seed: int) -> dict:
    """Run one case in this process and measure it."""
    sys.path.insert(0, src)
    import numpy as np

    from gridtop.harness import plan_from_dict, run_experiment

    def unit(index: int):
        unit_seed = int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
        result = run_experiment(plan_from_dict(dict(PLANS[case], seed=unit_seed)))
        if result.failures:
            raise SystemExit(f"{case}: {result.failures} failed trials in unit {index}")

    unit(0)  # warm-up: imports, lazy set-up and the first heap growth
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    unit_ms = []
    for index in range(1, units + 1):
        started = time.perf_counter()
        unit(index)
        unit_ms.append((time.perf_counter() - started) * 1e3)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"units": units, "unit_ms_p50": round(statistics.median(unit_ms), 3),
            "minflt_per_unit": round((usage.ru_minflt - faults) / units, 1),
            "maxrss_mib": round(usage.ru_maxrss / 1024, 2)}  # Linux reports KiB


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--side", action="append", metavar="LABEL=SRC",
                    help="a label and the src directory to import gridtop from (default: after=src)")
    ap.add_argument("--cases", nargs="+", choices=list(PLANS), default=list(PLANS))
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_trial_memory.json")
    ap.add_argument("--child", choices=list(PLANS), help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    ap.add_argument("--units", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.src, args.units, args.seed)))
        return

    sides = dict(side.split("=", 1) for side in (args.side or ["after=src"]))
    runs = []
    for round_index in range(args.rounds):
        order = list(sides.items())
        if round_index % 2:
            order.reverse()
        for case in args.cases:
            for label, src in order:
                proc = subprocess.run([sys.executable, __file__, "--child", case, "--src", str(Path(src).resolve()),
                                       "--units", str(UNITS[case]), "--seed", str(args.seed)],
                                      capture_output=True, text=True, check=True)
                runs.append(dict(json.loads(proc.stdout), case=case, side=label, round=round_index))
                print(json.dumps(runs[-1]), file=sys.stderr)

    def median(case, label, key):
        return statistics.median(run[key] for run in runs if run["case"] == case and run["side"] == label)

    keys = ("unit_ms_p50", "minflt_per_unit", "maxrss_mib")
    doc = {
        "seed": args.seed,
        "rounds": args.rounds,
        "plans": PLANS,
        "medians": {case: {label: {key: median(case, label, key) for key in keys} for label in sides}
                    for case in args.cases},
        "runs": runs,
        "machine": {"cpus": os.cpu_count(), "processor": platform.machine(),
                    "python": platform.python_version()},
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["medians"]))


if __name__ == "__main__":
    main()

"""gridtop benchmark: one workload per process, timed from outside the program.

    python3 perfbench/run.py --workload mc_fixture --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --smoke

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the units run untraced and the last stdout line holds the
end-to-end metrics.  With ``--trace 1`` every unit index runs twice, once
untraced and once traced, in alternating order, and the last line holds the
per-layer metrics and the tracing overhead.  Metric names and units come
from BENCHMARK.json.  Every time is normalized by the calibration probe
(see probe.py); the report keeps the raw wall times beside them.

``--workload all`` runs every workload in its own child process.
``--smoke`` runs two units at small sizes, in both trace modes under
``all``, and makes no timing assertion.  The line before the last is a JSON
report: environment, every layer's self time, p90 where a run holds enough
units, raw wall times and every check that failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_UNITS = 3        # every run holds at least this many unit indices; counts total over them
SMOKE_UNITS = 2
SETUP_REPS = 5
P90_MIN_UNITS = 100  # so that at least ten units lie beyond p90
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import gridtop.harness.cli"


def cap_blas_threads() -> int:
    """Cap BLAS threads at nproc (or a lower value already set) before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and 0 < int(value) < threads:
            threads = int(value)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def environment(threads_set: int) -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads_seen = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads_seen = fn()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads_set,
        "blas_threads_reported": threads_seen,
    }


def run_unit(workload, unit, probe, tracer=None, key=None):
    """Run one unit between two probes.

    Returns (seconds of the timed calls, mean probe seconds, problem or None).
    """
    inputs = workload.inputs(unit)
    before = probe()
    started = time.perf_counter()
    try:
        if tracer is None:
            output = workload.run(inputs)
        else:
            with tracer.unit(key):
                output = workload.run(inputs)
    except Exception as exc:  # a unit that raises counts as failed; the loop goes on
        elapsed = time.perf_counter() - started
        traceback.print_exc(file=sys.stderr)
        return elapsed, (before + probe()) / 2, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    probe_s = (before + probe()) / 2
    return elapsed, probe_s, workload.check(unit, inputs, output)


def measure_setup(cls, seed, smoke, workdir, probe):
    """Median of several set-ups, each a fresh interpreter importing the
    program plus this process building the workload and its first inputs.

    Returns (normalized median, raw median, the last workload built).
    """
    from probe import normalized

    raw, norm = [], []
    workload = None
    for _ in range(1 if smoke else SETUP_REPS):
        before = probe()
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True)
        workload = cls(seed, smoke, workdir)
        workload.inputs(0)
        raw.append(time.perf_counter() - started)
        norm.append(normalized(raw[-1], (before + probe()) / 2))
    return statistics.median(norm), statistics.median(raw), workload


def keep_going(unit, started, seconds, smoke):
    if smoke:
        return unit < SMOKE_UNITS
    return unit < MIN_UNITS or time.perf_counter() - started < seconds


def latency_ms(times):
    """p50, and p90 only where at least ten units lie beyond it."""
    out = {"units": len(times), "unit_ms.p50": statistics.median(times) * 1e3}
    if len(times) >= P90_MIN_UNITS:
        out["unit_ms.p90"] = statistics.quantiles(times, n=10)[-1] * 1e3
    else:
        out["unit_ms.p90"] = None
        out["unit_ms.p90_note"] = f"omitted: {len(times)} units, p90 needs {P90_MIN_UNITS}"
    return out


def untraced_run(workload, seconds, smoke, probe):
    from probe import normalized

    times, wall, problems = [], [], []
    started = time.perf_counter()
    unit = 0
    while keep_going(unit, started, seconds, smoke):
        elapsed, probe_s, problem = run_unit(workload, unit, probe)
        wall.append(elapsed)
        times.append(normalized(elapsed, probe_s))
        if problem:
            problems.append(f"unit {unit}: {problem}")
        unit += 1
    metrics = {"units_per_s": len(times) / sum(times), "unit_ms.p50": statistics.median(times) * 1e3}
    report = latency_ms(times)
    report["wall"] = dict(latency_ms(wall), units_per_s=len(wall) / sum(wall))
    return metrics, report, len(times), problems


def traced_run(workload, seconds, smoke, probe, spans_path):
    from probe import normalized
    from spans import BOOKKEEPING, COUNT_NAMES, DEV_MAX, DEV_MIN, LAYER_SPANS, UNIT, Tracer

    tracer = Tracer()
    traced, untraced, problems = {}, {}, []  # unit -> (normalized seconds, key)
    probe_of_key, unit_of_key = [], []
    started = time.perf_counter()
    unit = 0
    attempted = 0
    while keep_going(unit, started, seconds, smoke):
        for traced_turn in ((False, True) if unit % 2 == 0 else (True, False)):
            key = len(unit_of_key) if traced_turn else None
            elapsed, probe_s, problem = run_unit(workload, unit, probe, tracer if traced_turn else None, key)
            if traced_turn:
                unit_of_key.append(unit)
                probe_of_key.append(probe_s)
            (traced if traced_turn else untraced)[unit] = (normalized(elapsed, probe_s), key)
            attempted += 1
            if problem:
                problems.append(f"unit {unit}{' traced' if traced_turn else ''}: {problem}")
        unit += 1

    # The same unit traced again must give exactly the same counts.
    rerun_key = len(unit_of_key)
    _, probe_s, problem = run_unit(workload, 0, probe, tracer, rerun_key)
    unit_of_key.append(0)
    probe_of_key.append(probe_s)
    attempted += 1
    if problem:
        problems.append(f"unit 0 traced rerun: {problem}")
    first, again = tracer.unit_counts(traced[0][1]), tracer.unit_counts(rerun_key)
    if first != again:
        diff = {k: (first.get(k), again.get(k)) for k in first.keys() | again.keys() if first.get(k) != again.get(k)}
        problems.append(f"counts differ between two traced runs of unit 0: {diff}")

    self_times = tracer.self_times()
    keys = [traced[u][1] for u in sorted(traced)]
    layer_s = {name: statistics.median(normalized(self_times[k][name], probe_of_key[k]) for k in keys)
               for name in LAYER_SPANS + (UNIT, BOOKKEEPING)}
    counts = dict.fromkeys(COUNT_NAMES, 0)
    dev_max, dev_min = [], []
    count_units = min(MIN_UNITS, unit)
    for u in range(count_units):
        c = tracer.unit_counts(traced[u][1])
        for name in COUNT_NAMES:
            counts[name] += c[name]
        if DEV_MAX in c:
            dev_max.append(c[DEV_MAX])
        if DEV_MIN in c:
            dev_min.append(c[DEV_MIN])
    counts["learner.accept_ratio"] = counts["learner.pairs_accepted"] / counts["learner.pairs_with_line"]
    counts[DEV_MAX] = max(dev_max)
    # Exact moments can leave every open line untested, so this may be absent.
    counts[DEV_MIN] = min(dev_min) if dev_min else None

    traced_times = [traced[u][0] for u in traced]
    untraced_times = [untraced[u][0] for u in traced]
    metrics = dict(layer_s, **counts)
    metrics["trace.unit_ms.p50"] = statistics.median(traced_times) * 1e3
    metrics["trace.overhead_ms"] = metrics["trace.unit_ms.p50"] - statistics.median(untraced_times) * 1e3
    report = {
        "untraced": latency_ms(untraced_times),
        "traced": latency_ms(traced_times),
        "self_share_of_traced_p50": {name: s / statistics.median(traced_times) for name, s in layer_s.items()},
        "count_units": count_units,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write_spans(spans_path, lambda k: unit_of_key[k])
    return metrics, report, attempted, problems


def run_workload(args, spec) -> int:
    threads = cap_blas_threads()
    if not (SRC / "gridtop" / "__init__.py").is_file():
        print(f"error: no program source under {SRC.name}/gridtop; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import gridtop

    if Path(gridtop.__file__).resolve().parent != (SRC / "gridtop").resolve():
        print(f"error: imported gridtop from {gridtop.__file__}, not from {SRC.name}/", file=sys.stderr)
        return 2
    from probe import Probe
    from workloads import WORKLOADS

    probe = Probe()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, setup_wall_s, workload = measure_setup(WORKLOADS[args.workload], args.seed, args.smoke,
                                                        workdir, probe)
        if args.trace:
            spans = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
            metrics, report, attempted, problems = traced_run(workload, args.seconds, args.smoke, probe, spans)
            wanted = spec["per_layer"]
        else:
            metrics, report, attempted, problems = untraced_run(workload, args.seconds, args.smoke, probe)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            workdir.parent.rmdir()

    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "setup_s": setup_s, "setup_wall_s": setup_wall_s,
        "failed_ratio": len(problems) / attempted, "problems": problems,
        "environment": environment(threads),
        "metrics": metrics,
    })
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in result.items():
        print(f"{args.workload} {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(problems),
                      "metrics": result}))
    return 0


def run_all(args, names) -> int:
    """Every workload in its own child process; both trace modes under --smoke."""
    status = 0
    for name in names:
        for trace in ((0, 1) if args.smoke else (args.trace,)):
            cmd = [sys.executable, str(Path(__file__).relative_to(ROOT)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            for line in lines:
                if not line.startswith("{"):
                    print(line)
            try:
                correct = proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                correct = False
            if not correct:
                status = 1
                print(f"{name} trace={trace}: FAILED (exit {proc.returncode})\n{proc.stdout[-2000:]}"
                      f"\n{proc.stderr[-2000:]}", file=sys.stderr)
    return status


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two units per workload at small sizes")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())

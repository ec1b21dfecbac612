#!/usr/bin/env python
"""Which lines of ``src/gridtop`` no command, plan or workload reaches.

Runs, in this one process and under a ``sys.settrace`` line tracer that
records the lines of ``src/gridtop`` it sees execute:

* every CLI command through click's test runner: ``gen-grid``; ``simulate``
  with the lc and the distflow engine; ``moments`` to stdout and to a file;
  ``learn`` with the lc and the dc variant, with ``--trace`` and with
  ``--json``; ``validate`` with a model, on a grid with a declared forest
  and on one without; ``experiment`` with ``--verbose``, ``--timing`` and
  ``--gnuplot``;
* the golden plans (``tests/golden/plans.json``) and the study plans
  (``scripts/*.json``), each at 2 trials, through ``run_experiment``;
* two units of each benchmark workload of ``perfbench/workloads.py``, at
  full size, each run as the benchmark's traced mode runs it, inside
  ``perfbench/spans.py``'s ``Tracer().unit``, so the lines its counters
  reach count too; then its check.

The executable lines of a function are those its compiled code maps
instructions to (``co_lines``), its lambdas and comprehensions included.
Code that runs at import is not counted: tracing starts after every module
is imported.  Prints one JSON document: the totals, and for each function
(``path::qualname``) its executable lines and the ones nothing reached.

    python scripts/runtime_reach.py > reach.json
"""

import dataclasses
import json
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridtop"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from click.testing import CliRunner  # noqa: E402

from gridtop.harness import cli, plan_from_dict, plan_from_json, run_experiment  # noqa: E402
from gridtop.fixtures import fixture_path, load_fixture  # noqa: E402
from gridtop.moments import default_model, model_to_dict  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

_FUNCTION = 0x1  # CO_OPTIMIZED: a function, lambda or comprehension; not a module or class body


def executable_lines(path: Path) -> dict[str, set[int]]:
    """Each named function of a source file, as ``qualname``, with its lines.
    A lambda or comprehension counts with the function it sits in; a lambda
    outside any function counts under ``qualname:line``, and a comprehension
    there not at all, as only the import runs it."""
    out: dict[str, set[int]] = {}

    def walk(code, owner):
        for const in code.co_consts:
            if not hasattr(const, "co_lines"):
                continue
            inner = owner  # a class body, or a lambda or comprehension inside a function
            if const.co_flags & _FUNCTION and not const.co_name.startswith("<"):
                inner = const.co_qualname
            elif owner is None and const.co_name == "<lambda>":
                inner = f"{const.co_qualname}:{const.co_firstlineno}"
            if inner is not None:
                out.setdefault(inner, set()).update(line for *_, line in const.co_lines() if line is not None)
            walk(const, inner)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return out


def traced(work) -> dict[str, set[int]]:
    """Run ``work()`` and return the lines of the package it executed, per file."""
    reached: dict[str, set[int]] = {}
    prefix = str(PACKAGE)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        work()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def _invoke(runner, args):
    res = runner.invoke(cli.main, [str(arg) for arg in args])
    if res.exit_code != 0:
        raise SystemExit(f"gridtop {' '.join(map(str, args))} exited with {res.exit_code}: {res.output}")


def run_everything(tmp: Path):
    runner = CliRunner()
    grid, samples = tmp / "grid.json", tmp / "samples.csv"
    _invoke(runner, ["gen-grid", "--loads", 13, "--subs", 3, "--ties", 3, "--extra", 10, "--seed", 7,
                     "-o", grid])
    _invoke(runner, ["simulate", "--grid", grid, "-m", 400, "--seed", 3, "--engine", "distflow",
                     "-o", samples])
    _invoke(runner, ["simulate", "--grid", grid, "-m", 2000, "--seed", 3, "-o", samples])
    _invoke(runner, ["moments", "--samples", samples])
    _invoke(runner, ["moments", "--samples", samples, "-o", tmp / "moments.json"])
    _invoke(runner, ["learn", "--grid", grid, "--samples", samples, "--tau", 0.1, "--trace", tmp / "trace.csv"])
    _invoke(runner, ["learn", "--grid", grid, "--samples", samples, "--variant", "dc", "--json"])

    _, forest = load_fixture("bus_13_3")
    model = tmp / "model.json"
    model.write_text(json.dumps(model_to_dict(default_model(forest))))
    bare = json.loads(fixture_path("bus_13_3").read_text())
    for edge in bare["edges"]:
        edge.pop("closed", None)
    (tmp / "bare.json").write_text(json.dumps(bare))
    _invoke(runner, ["validate", "--grid", "bus_13_3", "--model", model])
    _invoke(runner, ["validate", "--grid", tmp / "bare.json", "--model", model, "--json"])

    plans = json.loads((ROOT / "tests" / "golden" / "plans.json").read_text())
    plan_path = tmp / "plan.json"
    plan_path.write_text(json.dumps(plans["criterion_9"]))
    _invoke(runner, ["experiment", "--plan", plan_path, "-o", tmp / "results.csv", "--verbose", "--timing",
                     "--gnuplot"])
    for doc in plans.values():
        run_experiment(plan_from_dict(dict(doc, trials=2)))
    for path in sorted((ROOT / "scripts").glob("*.json")):
        run_experiment(dataclasses.replace(plan_from_json(path), trials=2))

    tracer = Tracer()
    for name, cls in WORKLOADS.items():
        workdir = tmp / name
        workdir.mkdir()
        workload = cls(1, False, workdir)
        for unit in range(2):
            inputs = workload.inputs(unit)
            with tracer.unit(unit):
                output = workload.run(inputs)
            problem = workload.check(unit, inputs, output)
            if problem:
                raise SystemExit(f"{name} unit {unit}: {problem}")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        reached = traced(lambda: run_everything(Path(tmp)))
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        seen = reached.get(str(path), set())
        for qualname, lines in executable_lines(path).items():
            functions[f"{path.relative_to(ROOT / 'src')}::{qualname}"] = {
                "executable": sorted(lines), "unreached": sorted(lines - seen)}
    totals = {
        "functions": len(functions),
        "functions_never_called": sum(not (set(f["executable"]) - set(f["unreached"]))
                                      for f in functions.values()),
        "executable_lines": sum(len(f["executable"]) for f in functions.values()),
        "unreached_lines": sum(len(f["unreached"]) for f in functions.values()),
    }
    json.dump({"totals": totals, "functions": functions}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

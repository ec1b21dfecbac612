"""The four benchmark workloads.

Each workload is a closed loop of units.  A unit's inputs are derived from
the workload seed and the unit index only, so no unit reuses an object (a
ForestConfig and its cached properties, a model) built by an earlier one.
``run`` holds the timed top-level public calls; ``check`` verifies the
outputs afterwards, outside the timed section.

Program functions are looked up on their modules at call time, so the
traced run's wrappers see the calls.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from gridtop import learner, moments
from gridtop.fixtures import load_fixture
from gridtop.harness import cli, experiment, gridfile
from gridtop.learner import LearnerConfig

from feeder import feeder_document

REFERENCE = Path(__file__).with_name("reference.json")


def unit_seed(seed: int, unit: int) -> int:
    """Seed of one unit, derived from the workload seed and the unit index."""
    return int(np.random.SeedSequence([seed, unit]).generate_state(1)[0])


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def inputs(self, unit: int):
        raise NotImplementedError

    def run(self, inputs):
        raise NotImplementedError

    def check(self, unit: int, inputs, output) -> str | None:
        """None when the output is correct, else why it is not."""
        raise NotImplementedError


class _ExperimentWorkload(Workload):
    """One run_experiment call per unit; the error CSV of unit 0 at the
    default seed must match the bytes recorded at the seed commit."""

    plan: dict = {}

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.reference = json.loads(REFERENCE.read_text())

    def inputs(self, unit):
        return experiment.plan_from_dict(dict(self.plan, seed=unit_seed(self.seed, unit)))

    def run(self, plan):
        return experiment.run_experiment(plan)

    def check(self, unit, plan, result):
        if result.failures:
            return f"{result.failures} failed trials"
        if self.seed == self.reference["seed"] and unit == self.reference["unit"]:
            path = self.workdir / "errors.csv"
            experiment.write_error_csv(path, result)
            if path.read_text() != self.reference["csv"][self.name]:
                return "error CSV differs from the reference recorded at the seed commit"
        return None


class McFixture(_ExperimentWorkload):
    name = "mc_fixture"
    plan = {"grid": "bus_13_3", "sample_counts": [200, 800, 3200, 12800], "taus": [0.05],
            "model": {"sigma_ratio": 0.8}, "trials": 10}

    def check(self, unit, plan, result):
        problem = super().check(unit, plan, result)
        if problem is None and result.rows[-1]["mean_error"] > result.rows[0]["mean_error"]:
            problem = "mean error at m=12800 is above the mean error at m=200"
        return problem


class DistflowMc(_ExperimentWorkload):
    name = "distflow_mc"
    plan = {"grid": "bus_83_11", "engine": "distflow", "sample_counts": [100], "taus": [0.05],
            "trials": 1}


class FeederScale(Workload):
    """Infinite-sample limit on a ~1000-load, 4-substation feeder."""

    name = "feeder_scale"
    tau = 1e-4

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.size = dict(n_loads=120, n_subs=4, spine=30) if smoke else dict(n_loads=1000, n_subs=4, spine=200)

    def inputs(self, unit):
        rng = np.random.default_rng(unit_seed(self.seed, unit))
        return feeder_document(rng, name=f"feeder_{self.seed}_{unit}", **self.size)

    def run(self, text):
        grid, forest = gridfile.parse_grid(text)
        model = moments.default_model(forest)
        mset = moments.analytic_moment_set(forest, model)
        return learner.reconstruct(mset, model, grid, LearnerConfig(tau=self.tau), truth=forest)

    def check(self, unit, text, result):
        if result.relative_error != 0.0:
            return f"relative error {result.relative_error} at tau={self.tau}; exact recovery expected"
        return None


class CliPipeline(Workload):
    """simulate then learn through the click entry point, with a file between."""

    name = "cli_pipeline"
    grid = "bus_83_11"
    m = 3200
    tau = 0.05

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.runner = CliRunner()
        self.grid_graph, self.forest = load_fixture(self.grid)
        self.model = moments.default_model(self.forest)

    def inputs(self, unit):
        return unit_seed(self.seed, unit), self.workdir / f"samples_{unit}.csv"

    def run(self, inputs):
        seed, path = inputs
        sim = self.runner.invoke(cli.main, ["simulate", "--grid", self.grid, "-m", str(self.m),
                                            "--seed", str(seed), "-o", str(path)])
        learn = self.runner.invoke(cli.main, ["learn", "--grid", self.grid, "--samples", str(path),
                                              "--tau", str(self.tau), "--json"])
        return sim, learn

    def check(self, unit, inputs, output):
        seed, path = inputs
        path.unlink(missing_ok=True)
        for step, res in zip(("simulate", "learn"), output):
            if res.exit_code != 0:
                return f"{step} exited with {res.exit_code}: {res.output.strip()[-200:]}"
        learned = json.loads(output[1].output)
        samples = experiment.simulate_voltage(self.forest, self.model, self.m, seed)
        ref = learner.reconstruct(samples, self.model, self.grid_graph, LearnerConfig(tau=self.tau),
                                  truth=self.forest)
        if learned["learned_edges"] != [list(e) for e in sorted(ref.learned_edges)]:
            return "edges learned through the sample file differ from the in-process result"
        return None


WORKLOADS = {cls.name: cls for cls in (McFixture, FeederScale, CliPipeline, DistflowMc)}

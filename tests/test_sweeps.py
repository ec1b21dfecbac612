"""Batched tree sweeps against the scalar per-node recursions they replace."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridtop.harness.experiment as experiment
from gridtop.errors import ConvergenceError, DomainError, InfeasibleStateError
from gridtop.fixtures import load_fixture
from gridtop.grid import LOAD, SUBSTATION
from gridtop.harness import generate_random_grid
from gridtop.powerflow import VoltageSamples, _distflow, distflow_solve, distflow_solve_many, lcpf_solve_many

from conftest import chain_grid, make_grid, random_instance, star_grid
from scalar_oracles import scalar_distflow, scalar_sweep

FIXTURES = ("bus_13_3", "bus_29_1", "bus_83_11")
KINDS = FIXTURES + ("random_300_4", "chain", "star")


def _grid(kind, seed):
    if kind in FIXTURES:
        return load_fixture(kind)
    if kind == "random_300_4":
        return generate_random_grid(300, 4, 40, seed=seed)
    if kind == "chain":
        return chain_grid(50 + seed % 31, seed=seed)
    return star_grid(5 + seed % 20, seed)


def _graded_batch(forest, seed, m=6):
    """m random load patterns scaled so that their linear-model voltage drops
    run from 1e-4 to 5e-2: light samples stop after fewer sweeps than heavy
    ones, so every batch mixes stopping iterations."""
    rng = np.random.default_rng(seed)
    p = -rng.uniform(0.2, 1.0, (m, forest.grid.n_loads))
    q = p * rng.uniform(0.2, 0.6, p.shape)
    drop = np.abs(lcpf_solve_many(forest, p, q).eps).max(axis=1)
    scale = np.geomspace(1e-4, 5e-2, m) / drop
    return p * scale[:, None], q * scale[:, None]


def _assert_same_result(got, want):
    assert np.array_equal(got.eps, want.eps)
    assert list(got.flows) == list(want.flows) and got.flows == want.flows
    assert got.iterations == want.iterations
    assert got.max_residual == want.max_residual


# -- linear sweeps ---------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_linear_sweeps_match_scalar_recursion(kind, seed):
    # The batch forms eps as p A + q B with dense path-sum matrices, the
    # recursion node by node, so the two agree to rounding, not bit for bit.
    grid, forest = _grid(kind, seed)
    p, q = _graded_batch(forest, seed, m=2)
    many = lcpf_solve_many(forest, p, q)
    for j in range(2):
        want, _ = scalar_sweep(forest, p[j], q[j], "lc")
        np.testing.assert_allclose(many.eps[j], want, rtol=1e-10, atol=1e-15)


# -- DistFlow --------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
# On bus_83_11 these seeds reach flows whose square by libm pow(x, 2) and
# by x * x differ in the last bit; the oracle must square as the kernel does.
@example(seed=7835)
@example(seed=547)
def test_batched_distflow_matches_scalar_recursion(kind, seed):
    grid, forest = _grid(kind, seed)
    p, q = _graded_batch(forest, seed)
    batch = _distflow(forest, p, q, 1e-10, 100)
    many = distflow_solve_many(forest, p, q)
    assert many.nodes == grid.load_ids
    assert len(set(batch.iterations.tolist())) >= 2  # samples stop at different sweeps
    edges = [forest.parent_edge[nid] for nid in grid.load_ids]
    for j in range(len(p)):
        want = scalar_distflow(forest, p[j], q[j])
        _assert_same_result(distflow_solve(forest, p[j], q[j]), want)
        assert np.array_equal(many.eps[j], want.eps)
        assert np.array_equal(batch.fp[j], [want.flows[e][0] for e in edges])
        assert np.array_equal(batch.fq[j], [want.flows[e][1] for e in edges])
        assert batch.iterations[j] == want.iterations
        assert batch.residual[j] == want.max_residual


def _first_failure(forest, p, q, **kwargs):
    """The error the one-sample-at-a-time loop meets first, or None."""
    for j in range(len(p)):
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # the scalar loop lets numpy warn of overflow
                scalar_distflow(forest, p[j], q[j], **kwargs)
        except (InfeasibleStateError, ConvergenceError) as exc:
            return exc
    return None


def _two_line_grid():
    """Loads 1 and 2 on the substation over r = x = 0.5, node 3 under load 1."""
    return make_grid([(0, SUBSTATION), (1, LOAD), (2, LOAD), (3, LOAD)],
                     [(0, 1, 0.5, 0.5), (0, 2, 0.5, 0.5), (1, 3, 0.02, 0.01)], closed=[0, 1, 2])


def _assert_batch_raises_first_failure(forest, batches, **kwargs):
    for rows in batches:
        p = np.array(rows)
        want = _first_failure(forest, p, p, **kwargs)
        with pytest.raises(type(want)) as caught:
            distflow_solve_many(forest, p, p, **kwargs)
        assert str(caught.value) == str(want)
        if isinstance(want, ConvergenceError):
            assert (caught.value.residual, caught.value.iterations) == (want.residual, want.iterations)


def test_batch_raises_the_lowest_failing_sample_error():
    # A load of L = (sqrt(5) - 1) / 2 at r = x = 0.5 drives a line's first
    # voltage sweep to v^2 = (1 - L - L^2)^2 = 0: the sample fails at load 1,
    # and node 3 below it must never see that zero.
    grid, forest = _two_line_grid()
    golden = (5 ** 0.5 - 1) / 2
    converges = [-1e-5, -2e-5, -1e-5]
    infeasible = [-golden, -golden, 0.0]
    slow = [-0.1, -0.05, -0.02]
    outcomes = []
    for row in (converges, infeasible, slow):
        try:
            outcomes.append(scalar_distflow(forest, row, row, max_iter=4).iterations)
        except (InfeasibleStateError, ConvergenceError) as exc:
            outcomes.append(type(exc))
    assert outcomes == [outcomes[0], InfeasibleStateError, ConvergenceError] and outcomes[0] <= 4

    _assert_batch_raises_first_failure(
        forest, ((converges, infeasible, slow), (converges, slow, infeasible), (slow, converges)), max_iter=4)
    assert "at node 1 fell to 0.0" in str(_first_failure(forest, np.array([infeasible]), np.array([infeasible])))


def test_diverging_sample_fails_at_the_sweep_it_diverges():
    # A load of 0.5 behind r = x = 0.5 makes the loss term outgrow the flow:
    # the flows overflow in sweep 13 while no squared voltage reaches 0.  The
    # sample fails there; it must not stop as converged with NaN voltages.
    grid, forest = _two_line_grid()
    converges = [-1e-5, -2e-5, -1e-5]
    diverges = [-0.5, -0.01, 0.0]
    slow = [-0.4, -0.01, 0.0]  # converges, but only after more than 20 sweeps
    with pytest.raises(ConvergenceError) as caught:
        distflow_solve(forest, diverges, diverges)
    assert str(caught.value) == "sweep 13 diverged: flows or voltages are no longer finite"
    assert (caught.value.residual, caught.value.iterations) == (np.inf, 13)
    assert isinstance(_first_failure(forest, np.array([slow]), np.array([slow]), max_iter=20), ConvergenceError)
    _assert_batch_raises_first_failure(
        forest, ((converges, diverges), (diverges, converges, slow), (converges, slow, diverges)), max_iter=20)


def test_a_diverging_plan_writes_its_trial_notes_without_a_numpy_warning():
    # No np.errstate here: pytest turns a RuntimeWarning into an error, so a
    # warning that numpy announces before the refusal fails this test.
    plan = experiment.plan_from_dict({"grid": "bus_13_3", "model": {"mu_p": -0.6}, "engine": "distflow",
                                      "sample_counts": [50], "taus": [0.05], "trials": 3, "seed": 1})
    rows = experiment.run_experiment(plan).trial_rows
    assert [row["note"] for row in rows] == [f"sweep {k} diverged: flows or voltages are no longer finite"
                                             for k in (10, 10, 9)]


def test_experiment_trial_notes_unchanged(monkeypatch):
    # Heavy loads on bus_13_3: some trials diverge (overflowing flows, which
    # only the one-sample loop lets numpy report as warnings), some stop
    # short of the tolerance, some succeed.  A diverging sample fails its
    # trial with the solver's error; no non-finite voltages reach the
    # learner.
    def one_at_a_time(forest, p, q):
        with np.errstate(over="ignore", invalid="ignore"):
            eps = [scalar_distflow(forest, p[j], q[j]).eps for j in range(len(p))]
        return VoltageSamples(nodes=forest.grid.load_ids, eps=np.array(eps))

    notes = {}
    for sigma_ratio in (0.6, 0.5):
        plan = experiment.plan_from_dict({"grid": "bus_13_3", "engine": "distflow", "sample_counts": [3, 20],
                                          "taus": [0.1], "trials": 4, "seed": 7,
                                          "model": {"mu_p": -0.08, "sigma_ratio": sigma_ratio}})
        batched = experiment.run_experiment(plan)
        with monkeypatch.context() as patch:
            patch.setattr(experiment, "distflow_solve_many", one_at_a_time)
            scalar = experiment.run_experiment(plan)
        assert batched.trial_rows == scalar.trial_rows
        assert any(row["error"] is not None for row in batched.trial_rows)
        notes[sigma_ratio] = [row["note"] for row in batched.trial_rows]
    diverged = [note for note in notes[0.6] if note]
    assert len(diverged) == 5
    assert all(re.fullmatch(r"sweep \d+ diverged: flows or voltages are no longer finite", n) for n in diverged)
    assert "" in notes[0.5] and any("did not converge" in note for note in notes[0.5])
    assert any("diverged" in note for note in notes[0.5])
    assert not any("mean square" in note for note in notes[0.5] + notes[0.6])


def test_batch_solvers_reject_bad_input(fig3):
    grid, forest = fig3
    p = np.full((3, 5), -0.01)
    bad_arrays = [
        (p[0], p[0], "expected"),
        (p, p[:2], "expected"),
        (p[:, :4], p[:, :4], "injection dimension 4 does not match 5 load nodes"),
        (np.where(np.eye(3, 5) > 0, np.nan, p), p, "must be finite"),
        (p, np.where(np.eye(3, 5) > 0, np.inf, p), "must be finite"),
        ([[-0.01] * 5, [-0.01]], p, "p must be an array of numbers"),
        ([["x"] * 5] * 3, p, "p must be an array of numbers"),
        (p, [["-0.01"] * 5] * 3, "q must be an array of numbers"),
        (p.astype(str), p, "p must be an array of numbers"),
    ]
    for bp, bq, message in bad_arrays:
        for solve_many in (distflow_solve_many, lcpf_solve_many):
            with pytest.raises(DomainError, match=message):
                solve_many(forest, bp, bq)
    with pytest.raises(DomainError, match="injection dimension 4 does not match 5 load nodes"):
        distflow_solve(forest, p[0, :4], p[0, :4])
    one_sample = [
        (p, p, "expected 1-d arrays of one sample, got (3, 5) and (3, 5)"),
        (p[0], p[:1], "expected 1-d arrays of one sample, got (5,) and (1, 5)"),
        (-0.01, p[0], "expected 1-d arrays of one sample, got () and (5,)"),
        (p[0], p[0, :4], "expected (m, 5) sample arrays, got (1, 5) and (1, 4)"),
        (np.where(np.arange(5) == 0, np.nan, p[0]), p[0], "injections must be finite"),
    ]
    for bp, bq, message in one_sample:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            distflow_solve(forest, bp, bq)

    for kwargs in ({"tol": 0.0}, {"tol": np.nan}, {"max_iter": 0}, {"max_iter": 2.5}):
        with pytest.raises(DomainError) as many:
            distflow_solve_many(forest, p, p, **kwargs)
        with pytest.raises(DomainError) as single:
            distflow_solve(forest, p[0], p[0], **kwargs)
        assert str(many.value) == str(single.value)


@pytest.mark.parametrize("p, q, name", [([[1.0], [2.0, 3.0]], [0.0, 0.0], "p"), (["a"], [0.0], "p"),
                                        ([0.0], ["1"], "q"), ([0.0], np.array([1j]), "q")])
def test_distflow_solve_names_an_entry_it_cannot_hold(p, q, name):
    _, forest = random_instance(7)
    with pytest.raises(DomainError, match=f"^{name} must be an array of numbers"):
        distflow_solve(forest, p, q)


def test_level_plan_is_built_once_on_first_use():
    grid, forest = random_instance(7)
    assert "level_plan" not in forest.memo  # nothing is derived at construction
    rng = np.random.default_rng(0)
    p = rng.normal(-0.01, 0.003, (3, grid.n_loads))
    distflow_solve_many(forest, p, 0.3 * p)
    plan = forest.memo["level_plan"]
    lcpf_solve_many(forest, p, 0.3 * p)
    distflow_solve(forest, p[1], p[1])
    assert forest.memo["level_plan"] is plan

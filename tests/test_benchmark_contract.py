"""The benchmark under ``perfbench/`` wraps package functions by name and
writes every scenario key into its INI files. These checks read its
definitions without running it, so a change that renames or deletes one of
those names, or a scenario key, fails here instead of in a traced run."""

from __future__ import annotations

import configparser
import importlib
import importlib.util
import itertools
import logging
import os
import sys
import tracemalloc

import numpy as np
import pytest

from mfcache import costs, experiments, simulation, solver
from mfcache.experiments import (
    compare_experiment,
    grid_from_scenario,
    ipi_sweep_experiment,
    problem_from_scenario,
    solve_scenario,
)
from mfcache.geometry import GeometryConfig
from mfcache.policies import BaselinePolicy, MfPolicy, RandomPolicy
from mfcache.scenario import (
    DemandConfig,
    ExperimentSweeps,
    ScenarioConfig,
    SimulationSettings,
    SolverSettings,
    parse_scenario,
    serialize_scenario,
)
from mfcache.simulation import build_world
from mfcache.solver import SolverConfig

from support import ConstantPolicy

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module_name, attr",
                         [(module, attr) for _, module, attr in tracer.TARGETS])
def test_traced_name_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_scenario_parses(workload):
    values = workloads.scenario_values(workload, 1)
    parse_scenario(workloads.render_ini(values))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_scenario_keeps_every_key_in_order(workload):
    values = workloads.scenario_values(workload, 1)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(serialize_scenario(parse_scenario(workloads.render_ini(values))))
    assert [(s, list(parser[s])) for s in parser.sections()] == \
        [(s, list(keys)) for s, keys in workloads.BASE.items()]


def _tiny_scenario(horizon=1.0):
    return ScenarioConfig(
        demand=DemandConfig(catalog_size=3, requests_per_user=1.0),
        solver=SolverSettings(grid_nt=5, grid_nx=5, grid_nq=5),
        simulation=SimulationSettings(horizon=horizon),
    )


def test_world_length_is_the_station_count():
    # The tracer's simulation.station_steps counter adds len(args[0]) of step.
    world, _ = build_world(_tiny_scenario(), np.random.default_rng(0))
    assert len(world) == world.position.shape[0] == world.remaining.shape[0]
    assert len(world) == len(world.histories)


@pytest.mark.parametrize("policies, arms", [
    ({"baseline": BaselinePolicy()}, (False,)),
    ({"baseline": BaselinePolicy(), "random": RandomPolicy(),
      "constant": ConstantPolicy(0.2)}, (False, True)),
], ids=["1_lane", "6_lanes"])
def test_step_is_called_once_per_world_step(monkeypatch, policies, arms):
    # The tracer's simulation.steps counts calls of step and its
    # station_steps adds len(args[0]): both count world steps, whether a
    # replication runs 1 lane or 6.
    worlds = []
    step = simulation.step

    def counting(*args, **kwargs):
        worlds.append(args[0])
        return step(*args, **kwargs)

    monkeypatch.setattr(simulation, "step", counting)
    scenario = _tiny_scenario(horizon=2.0)
    logs = simulation.run_replication(scenario, policies, arms=arms, seed=3)
    assert len(logs) == len(policies) * len(arms)
    assert len(worlds) == 2 * (scenario.solver.grid_nt - 1)
    assert all(isinstance(w, simulation.World) for w in worlds)
    assert len({id(w) for w in worlds}) == 1


def _count_calls(monkeypatch, module, names):
    """Replace each function ``names`` binds in ``module`` by a counting
    wrapper, as the tracer wraps every binding of a target, and return the
    call counts by name."""
    counts = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return counts


def _solve_working_set(scenario):
    """Traced peak and retained bytes of one solve, in grid fields."""
    field = 8 * int(np.prod(grid_from_scenario(scenario).shape))
    solve_scenario(scenario)   # first-call allocations are not the solve's
    tracemalloc.start()
    try:
        solution = solve_scenario(scenario)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return solution, peak / field, retained / field


def test_solve_holds_at_most_five_grid_fields():
    # peak_rss_mb on solve-export reads the solver's working set: a sweep
    # keeps three (t, x, Q) fields, the value, the control and the running
    # density, plus buffers of a block of time levels, and the solution
    # keeps the three fields.
    scenario = parse_scenario(workloads.render_ini(
        workloads.scenario_values("solve-export", 1)))
    solution, peak, retained = _solve_working_set(scenario)
    assert solution.iterations == 2
    assert peak <= 3.5
    assert retained == pytest.approx(3, rel=0.01)


def test_solve_at_paper_scale_holds_three_grid_fields():
    # On the default 201x41x41 grid a block of time levels is a small part
    # of a field, so the peak stays within a quarter field of the three.
    solution, peak, retained = _solve_working_set(ScenarioConfig())
    assert solution.grid.shape == (201, 41, 41)
    assert peak <= 3.25
    assert retained == pytest.approx(3, rel=0.01)


def test_passes_take_the_grid_where_the_tracer_reads_it(monkeypatch):
    # perfbench/tracer.py counts solver.hjb_levels and solver.fpk_levels
    # from the grid each pass is called with: args[2] of hjb_backward and
    # args[3] of fpk_forward, else the keyword. A signature that moves the
    # grid fails here, not as a silently wrong solver.hjb_level_us.
    scenario = ScenarioConfig(
        demand=DemandConfig(catalog_size=3),
        solver=SolverSettings(grid_nt=21, grid_nx=11, grid_nq=11))
    grid = grid_from_scenario(scenario)
    problem = problem_from_scenario(scenario, grid)
    levels = {"hjb": 0, "fpk": 0}

    def counting(key, fn, index, per_call):
        def wrapper(*args, **kwargs):
            read = args[index] if len(args) > index else kwargs["grid"]
            assert read is grid
            levels[key] += per_call(read)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "hjb_backward", counting(
        "hjb", solver.hjb_backward, 2, lambda g: g.shape[0]))
    monkeypatch.setattr(solver, "fpk_forward", counting(
        "fpk", solver.fpk_forward, 3, lambda g: g.shape[0] - 1))
    sweeps = solver.solve_mfe(problem, grid, SolverConfig()).iterations
    nt = grid.shape[0]
    assert sweeps == 2
    assert levels == {"hjb": sweeps * nt, "fpk": sweeps * (nt - 1)}


def test_one_sweep_calls_each_formula_by_its_traced_name(monkeypatch):
    # The tracer's solver.optimal_control_calls, costs.mf_overlap_calls and
    # costs.backhaul_cost_calls count calls through every binding: the
    # control and the overlap through the solver's, the barrier and the
    # storage charge through those of mfcache.costs, whose running_cost
    # calls both. Per backward pass, the control twice and the overlap once
    # per level, the barrier and the charge once per stepped level.
    scenario = ScenarioConfig(
        demand=DemandConfig(catalog_size=3),
        solver=SolverSettings(grid_nt=21, grid_nx=11, grid_nq=11))
    grid = grid_from_scenario(scenario)
    problem = problem_from_scenario(scenario, grid)
    counts = _count_calls(monkeypatch, solver,
                          ("optimal_control", "mf_overlap"))
    charges = _count_calls(monkeypatch, costs,
                           ("backhaul_cost", "storage_cost"))
    solver.solve_mfe(problem, grid, SolverConfig(max_iterations=1))
    nt = grid.shape[0]
    assert counts == {"optimal_control": 2 * nt, "mf_overlap": nt}
    assert charges == {"backhaul_cost": nt - 1, "storage_cost": nt - 1}


@pytest.mark.parametrize("horizon", [3.0, 2.5])
def test_metrics_pass_charges_the_barrier_once_per_period(monkeypatch,
                                                          horizon):
    # costs.backhaul_cost_calls on compare-sim and ipi-demand counts the
    # metrics pass's one barrier charge over all lanes and a block of steps
    # (the last period may be partial): the simulator's running_cost and
    # overlap, and the barrier and charge of mfcache.costs that the running
    # cost calls. These periods fit in one block, and no pass holds more
    # than a period.
    scenario = _tiny_scenario(horizon)
    steps_per_period = scenario.solver.grid_nt - 1
    counts = _count_calls(monkeypatch, simulation,
                          ("running_cost", "empirical_overlap"))
    charges = _count_calls(monkeypatch, costs,
                           ("backhaul_cost", "storage_cost"))
    passes = []
    metrics = simulation.hood_metrics

    def recording(p, *args):
        passes.append(p.shape[0])
        return metrics(p, *args)

    monkeypatch.setattr(simulation, "hood_metrics", recording)
    policies = {"baseline": BaselinePolicy(), "constant": ConstantPolicy(0.2)}
    logs = simulation.run_replication(scenario, policies, arms=(False, True),
                                      seed=3)
    n_steps = round(horizon * steps_per_period)
    assert all(log.cost.size == n_steps for log in logs.values())
    assert counts == dict.fromkeys(counts, 3)
    assert charges == dict.fromkeys(charges, 3)
    assert len(passes) == 3
    assert all(rows <= steps_per_period for rows in passes)
    assert sum(passes) == n_steps


def test_a_period_over_the_block_budget_is_passed_in_blocks(monkeypatch):
    # A period whose hood rows exceed _BLOCK_BYTES is passed in blocks of at
    # most the budget's steps, none crossing a period; each block charges
    # the barrier once, and its rows are those of one whole-period pass.
    scenario = ScenarioConfig(
        geometry=GeometryConfig(lambda_b=0.3),
        demand=DemandConfig(catalog_size=20),
        solver=SolverSettings(grid_nt=51, grid_nx=11, grid_nq=11),
        simulation=SimulationSettings(horizon=2.5))
    steps_per_period = scenario.solver.grid_nt - 1
    counts = _count_calls(monkeypatch, costs, ("backhaul_cost",))
    passes = []
    metrics = simulation.hood_metrics

    def recording(p, q, x, *args):
        passes.append((p.copy(), q.copy(), x.copy(), args))
        return metrics(p, q, x, *args)

    monkeypatch.setattr(simulation, "hood_metrics", recording)
    policies = {"baseline": BaselinePolicy(), "constant": ConstantPolicy(0.2)}
    logs = simulation.run_replication(scenario, policies, arms=(False, True),
                                      seed=3)
    n_steps = round(2.5 * steps_per_period)
    row_bytes = passes[0][0][0].nbytes
    budget = max(1, solver._BLOCK_BYTES // row_bytes)
    assert 1 < budget < steps_per_period   # the test's premise
    sizes = np.array([p.shape[0] for p, *_ in passes])
    starts = np.cumsum(sizes) - sizes
    assert (sizes <= budget).all()
    periods = starts // steps_per_period
    assert np.array_equal(periods, (starts + sizes - 1) // steps_per_period)
    assert sum(sizes) == n_steps
    assert counts["backhaul_cost"] == len(passes) > 3
    # Each period's blocks against one pass over the whole period.
    rows = []
    for period in range(3):
        block = np.flatnonzero(periods == period)
        whole = [np.concatenate([passes[i][j] for i in block])
                 for j in range(3)]
        period_rows, period_hits = metrics(*whole, *passes[0][3])
        blocks = [metrics(*passes[i][:3], *passes[i][3]) for i in block]
        assert np.array_equal(
            np.concatenate([r for r, _ in blocks], axis=2), period_rows)
        assert np.array_equal(sum(h for _, h in blocks), period_hits)
        rows.append(period_rows)
    rows = np.concatenate(rows, axis=2)
    for i, log in enumerate(logs.values()):
        assert np.array_equal(log.cost, rows[0, i])
        assert np.array_equal(log.overlap, rows[1, i])
        assert np.array_equal(log.storage_usage, rows[2, i])


def test_request_sampler_is_called_as_the_tracer_unpacks_it(monkeypatch):
    # The tracer's demand hook unpacks (state, n_requests, rng) positionally
    # and reads state.counts. A one-period run samples no arrivals, so the
    # run spans two periods.
    calls = []
    sampler = simulation.simulate_requests

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return sampler(*args, **kwargs)

    monkeypatch.setattr(simulation, "simulate_requests", recording)
    simulation.run_scenario(_tiny_scenario(horizon=2.0), BaselinePolicy(),
                            seed=3)
    assert calls
    for args, kwargs in calls:
        assert len(args) == 3 and not kwargs
        assert isinstance(args[0].counts, np.ndarray)


def test_compare_calls_the_mf_policy_once_per_step(monkeypatch, forks,
                                                    shared_lines):
    # The tracer's policies.mf_calls, a home counter of compare-sim, wraps
    # the class attribute MfPolicy.__call__: every step of every
    # replication and sweep point must reach the policy through it, on the
    # inline path and through the sweep helper. The helper's calls are
    # recorded in a file it shares, by a label each policy gets when it is
    # built: the pid that built it and a serial number.
    init, call = MfPolicy.__init__, MfPolicy.__call__
    serial = itertools.count()

    def labelled(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.label = f"{os.getpid()}-{next(serial)}"

    def counting(self, *args, **kwargs):
        shared_lines.append(self.label)
        return call(self, *args, **kwargs)

    monkeypatch.setattr(MfPolicy, "__init__", labelled)
    monkeypatch.setattr(MfPolicy, "__call__", counting)
    scenario = ScenarioConfig(
        demand=DemandConfig(catalog_size=3),
        solver=SolverSettings(grid_nt=21, grid_nx=11, grid_nq=11),
        simulation=SimulationSettings(horizon=2.0, replications=2, seed=3),
        experiments=ExperimentSweeps(lambda_u_values=(1e-4, 2e-4),
                                     x0_values=(0.3,)))
    compare_experiment(scenario)
    calls = shared_lines.read()
    steps = 2 * (scenario.solver.grid_nt - 1)   # two periods
    points = 3   # two user densities and one initial popularity
    assert len(calls) == points * 2 * steps
    # One helper for the recipe's six tasks. Each point's policy is built
    # once, in the command, before the fork, so the second user density's
    # seeds, which straddle the split, share one.
    assert len(forks.pids) == forks.expected
    assert len(set(calls)) == points


def test_one_barrier_warning_per_excluded_lane(monkeypatch, caplog):
    # perfbench/run.py counts "hit the barrier" lines on stderr as failed
    # operations: a recipe must warn once per excluded lane, that is per
    # policy, arm and seed, as separate runs of each lane would. Here both
    # arms of an extra lane over the cap are excluded, seeds 3 and 4.
    policies_for, log_exclusions = (experiments._policies_for,
                                    experiments.log_exclusions)
    monkeypatch.setattr(experiments, "_policies_for", lambda solution: {
        "over": ConstantPolicy(1.0), **policies_for(solution)})
    lanes = []

    def recording(logs):
        logs = list(logs)
        lanes.extend(logs)
        log_exclusions(logs)

    monkeypatch.setattr(experiments, "log_exclusions", recording)
    scenario = ScenarioConfig(
        demand=DemandConfig(catalog_size=3),
        solver=SolverSettings(grid_nt=21, grid_nx=11, grid_nq=11),
        simulation=SimulationSettings(replications=2, seed=3),
        experiments=ExperimentSweeps(lambda_b_values=(0.05,)))
    with caplog.at_level(logging.WARNING, logger="mfcache.simulation"):
        ipi_sweep_experiment(scenario)
    excluded = [log.seed for log in lanes if log.excluded]
    assert excluded == [3, 3, 4, 4]
    warnings = [record.getMessage() for record in caplog.records
                if "hit the barrier" in record.getMessage()]
    assert warnings == [f"replication {seed} hit the barrier; trajectory "
                        "flagged and excluded from aggregates"
                        for seed in excluded]

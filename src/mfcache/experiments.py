"""Experiment recipes behind the command-line front end.

Each recipe turns a scenario into table data: the equilibrium solve shared
by every content, the three-policy cost comparison under common random
numbers across the user density and initial-popularity sweeps, the paired
perfect/imperfect popularity-information study across station densities,
and the solver iteration-count sweep.

Inside :func:`one_solve_per_input` (every recipe, and every command of the
command-line front end, runs in one) equilibrium solves are memoized on the
solver's actual inputs: sweep points that differ only in settings the
solver never sees share one solve.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields, is_dataclass, replace
from typing import Iterator

import numpy as np

from .errors import BarrierExclusionError
from .geometry import average_rate, rate_model_from_config, request_region_count
from .policies import BaselinePolicy, MfPolicy, RandomPolicy
from .scenario import ScenarioConfig
from .simulation import ipi_experiment, run_scenario
from .solver import (
    Grid,
    MfeSolution,
    MfgProblem,
    gaussian_initial_density,
    solve_mfe,
)

__all__ = [
    "grid_from_scenario",
    "problem_from_scenario",
    "one_solve_per_input",
    "solve_scenario",
    "solve_all_contents",
    "control_trajectory",
    "compare_experiment",
    "ipi_sweep_experiment",
    "iteration_sweep",
]

log = logging.getLogger(__name__)

POLICY_NAMES = ("mf", "baseline", "random")


def grid_from_scenario(scenario: ScenarioConfig) -> Grid:
    """Solver grid spanning one popularity period."""
    sol, dem, cst = scenario.solver, scenario.demand, scenario.costs
    return Grid.make(sol.grid_nt, sol.grid_nx, sol.grid_nq,
                     horizon=dem.period, storage=cst.storage,
                     x_min=dem.ipi.floor_eps)


def problem_from_scenario(scenario: ScenarioConfig, grid: Grid,
                          x0: float | None = None) -> MfgProblem:
    """Reduced problem for one content under the scenario's prior.

    With a fresh request history every content shares the uniform mean
    ``1 / catalog_size``; the wireless rate path is the deterministic
    density-normalized value held constant over the horizon.
    """
    dem, cst, geo = scenario.demand, scenario.costs, scenario.geometry
    if x0 is None:
        x0 = dem.x0
    rate = average_rate(rate_model_from_config(geo), geo)
    m0 = gaussian_initial_density(
        grid,
        x_mean=max(x0, dem.ipi.floor_eps), x_std=scenario.solver.m0_x_std,
        q_mean=scenario.solver.m0_q_mean, q_std=scenario.solver.m0_q_std,
    )
    return MfgProblem(
        mu=1.0 / dem.catalog_size,
        reversion_rate=dem.reversion_rate,
        volatility=dem.volatility,
        costs=cst,
        rate_path=np.full(grid.t.size, rate),
        m0=m0,
        neighbor_count=max(0, request_region_count(geo) - 1),
    )


_SOLVES: ContextVar[dict | None] = ContextVar("mfcache_solves", default=None)


@contextmanager
def one_solve_per_input() -> Iterator[None]:
    """Scope in which :func:`solve_scenario` solves each distinct set of
    solver inputs once and hands every later caller the same solution.

    Nested scopes share the outermost memo; it is dropped when that scope
    exits. Callers must not modify a returned solution.
    """
    if _SOLVES.get() is not None:
        yield
        return
    token = _SOLVES.set({})
    try:
        yield
    finally:
        _SOLVES.reset(token)


def _exact(value) -> object:
    """Hashable, bit-exact stand-in for a solver input."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return value.hex()
    if is_dataclass(value):
        return (type(value).__name__,) + tuple(
            _exact(getattr(value, f.name)) for f in fields(value))
    return value


def solve_scenario(scenario: ScenarioConfig, x0: float | None = None) -> MfeSolution:
    """Equilibrium of the scenario, at initial popularity ``x0`` when given.

    Inside :func:`one_solve_per_input`, a solve whose grid, reduced problem
    and solver settings equal an earlier one's returns that solution.
    """
    grid = grid_from_scenario(scenario)
    problem = problem_from_scenario(scenario, grid, x0=x0)
    config = scenario.solver.config
    memo = _SOLVES.get()
    if memo is None:
        return solve_mfe(problem, grid, config)
    key = (_exact(grid), _exact(problem), _exact(config))
    if key not in memo:
        memo[key] = solve_mfe(problem, grid, config)
    return memo[key]


def solve_all_contents(scenario: ScenarioConfig) -> MfeSolution:
    """The equilibrium every content of the scenario shares.

    Contents of this scenario format share size, backhaul, storage, discard
    rate and prior mean, so the reduced problem never depends on the
    content: one solve serves the whole catalog.
    """
    return solve_scenario(scenario)


def control_trajectory(solution: MfeSolution, scenario: ScenarioConfig,
                       x0: float) -> list[tuple[float, float, float]]:
    """Deterministic (t, Q, p) path of the mean station: storage integrates
    the equilibrium control from the initial mean, popularity pinned at x0."""
    g = solution.grid
    cst = scenario.costs
    x_idx = int(np.argmin(np.abs(g.x - x0)))
    q = scenario.solver.m0_q_mean
    rows = []
    for level in range(g.t.size):
        q_idx = int(np.argmin(np.abs(g.q - q)))
        p = float(solution.p.values[level, x_idx, q_idx])
        rows.append((float(g.t[level]), q, p))
        q = float(np.clip(q + (cst.discard_rate - cst.content_size * p) * g.dt,
                          0.0, cst.storage))
    return rows


def _policies_for(solution: MfeSolution) -> dict[str, object]:
    return {
        "mf": MfPolicy(solution),
        "baseline": BaselinePolicy(),
        "random": RandomPolicy(),
    }


def _replication_seeds(scenario: ScenarioConfig) -> list[int]:
    base = scenario.simulation.seed
    return [base + r for r in range(scenario.simulation.replications)]


def _mean_excluding(values: list[float], excluded: list[bool], label: str) -> float:
    kept = [v for v, skip in zip(values, excluded) if not skip]
    dropped = len(values) - len(kept)
    if dropped:
        log.warning("%s: excluded %d barrier-hit replication(s)", label, dropped)
    if not kept:
        raise BarrierExclusionError(f"{label}: every replication hit the barrier")
    return float(np.mean(kept))


@one_solve_per_input()
def compare_experiment(scenario: ScenarioConfig) -> dict[str, list]:
    """Three-policy comparison under common random numbers.

    Produces the cost trajectories and final-cost summary across the user
    density sweep, and the overlap-per-storage sweep across initial
    popularity values.
    """
    trajectory_rows: list[tuple] = []
    summary_rows: list[tuple] = []
    for lambda_u in scenario.experiments.lambda_u_values:
        sc = replace(scenario,
                     geometry=replace(scenario.geometry, lambda_u=lambda_u))
        solution = solve_scenario(sc)
        policies = _policies_for(solution)
        finals: dict[str, float] = {}
        dt = sc.demand.period / (sc.solver.grid_nt - 1)
        for name in POLICY_NAMES:
            lras, cum, flags = [], [], []
            for seed in _replication_seeds(sc):
                log_ = run_scenario(sc, policies[name], seed=seed)
                lras.append(log_.lra)
                cum.append(log_.cumulative_cost)
                flags.append(log_.excluded)
            finals[name] = _mean_excluding(
                lras, flags, f"compare lambda_u={lambda_u} policy={name}")
            kept = [c for c, skip in zip(cum, flags) if not skip]
            mean_cum = np.mean(np.stack(kept), axis=0)
            for i, value in enumerate(mean_cum):
                trajectory_rows.append((lambda_u, name, (i + 1) * dt, value))
        for name in POLICY_NAMES:
            reduction = ((finals["baseline"] - finals[name]) / finals["baseline"]
                         if finals["baseline"] > 0 else 0.0)
            summary_rows.append((lambda_u, name, finals[name], reduction))

    overlap_rows: list[tuple] = []
    for x0 in scenario.experiments.x0_values:
        sc = replace(scenario, demand=replace(scenario.demand, x0=x0))
        solution = solve_scenario(sc)
        policies = _policies_for(solution)
        for name in POLICY_NAMES:
            ratios, flags = [], []
            for seed in _replication_seeds(sc):
                log_ = run_scenario(sc, policies[name], seed=seed)
                ratios.append(log_.overlap_per_storage)
                flags.append(log_.excluded)
            overlap_rows.append((x0, name, _mean_excluding(
                ratios, flags, f"overlap x0={x0} policy={name}")))
    return {
        "trajectories": trajectory_rows,
        "summary": summary_rows,
        "overlap": overlap_rows,
    }


@one_solve_per_input()
def ipi_sweep_experiment(scenario: ScenarioConfig) -> list[tuple]:
    """Paired-seed popularity-information study across station densities.

    Rows: (lambda_b, policy, mean perfect-information cost, mean
    imperfect-information cost, mean increment).
    """
    rows: list[tuple] = []
    for lambda_b in scenario.experiments.lambda_b_values:
        sc = replace(scenario,
                     geometry=replace(scenario.geometry, lambda_b=lambda_b))
        solution = solve_scenario(sc)
        policies = _policies_for(solution)
        sums = {name: {"lra_ppi": [], "lra_ipi": [], "increment": [], "flags": []}
                for name in POLICY_NAMES}
        for seed in _replication_seeds(sc):
            paired = ipi_experiment(sc, policies, seed=seed)
            for name, pair in paired.items():
                sums[name]["lra_ppi"].append(pair.perfect.lra)
                sums[name]["lra_ipi"].append(pair.imperfect.lra)
                sums[name]["increment"].append(pair.increment)
                sums[name]["flags"].append(pair.excluded)
        for name in POLICY_NAMES:
            label = f"ipi lambda_b={lambda_b} policy={name}"
            rows.append((
                lambda_b, name,
                _mean_excluding(sums[name]["lra_ppi"], sums[name]["flags"], label),
                _mean_excluding(sums[name]["lra_ipi"], sums[name]["flags"], label),
                _mean_excluding(sums[name]["increment"], sums[name]["flags"], label),
            ))
    return rows


@one_solve_per_input()
def iteration_sweep(scenario: ScenarioConfig) -> list[tuple]:
    """Solver iteration counts across the station-density sweep."""
    rows = []
    for lambda_b in scenario.experiments.lambda_b_values:
        sc = replace(scenario,
                     geometry=replace(scenario.geometry, lambda_b=lambda_b))
        solution = solve_scenario(sc)
        rows.append((lambda_b, solution.iterations, int(solution.converged),
                     solution.residual_history[-1]))
    return rows

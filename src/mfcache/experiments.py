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

The replications of a sweep point are independent (each seed has its own
world, policy and observation streams). Where :func:`io.two_cpus` allows,
a point of two replications or more runs them on two processes
(:func:`_per_seed`): a forked helper runs the later half of the seeds while
the command runs the first half, and the results, log records and errors
come back in seed order, as the inline loop gives them.
"""

from __future__ import annotations

import logging
import pickle
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields, is_dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BarrierExclusionError
from .geometry import average_rate, rate_model_from_config, request_region_count
from .io import fork_helper, two_cpus
from .policies import BaselinePolicy, MfPolicy, RandomPolicy
from .scenario import ScenarioConfig, sweep_points
from .simulation import MetricsLog, ipi_experiment, run_replication
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


def problem_from_scenario(scenario: ScenarioConfig, grid: Grid) -> MfgProblem:
    """Reduced problem for one content under the scenario's prior.

    With a fresh request history every content shares the uniform mean
    ``1 / catalog_size``; the wireless rate path is the deterministic
    density-normalized value held constant over the horizon.
    """
    dem, cst, geo = scenario.demand, scenario.costs, scenario.geometry
    rate = average_rate(rate_model_from_config(geo), geo)
    m0 = gaussian_initial_density(
        grid,
        x_mean=max(dem.x0, dem.ipi.floor_eps), x_std=scenario.solver.m0_x_std,
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


def solve_scenario(scenario: ScenarioConfig) -> MfeSolution:
    """Equilibrium of the scenario.

    Inside :func:`one_solve_per_input`, a solve whose grid, reduced problem
    and solver settings equal an earlier one's returns that solution.
    """
    grid = grid_from_scenario(scenario)
    problem = problem_from_scenario(scenario, grid)
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
        p = float(solution.p[level, x_idx, q_idx])
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


class _Records(logging.Handler):
    """Keeps every record it handles, with its text rendered (as
    ``logging.handlers.QueueHandler`` does), so that the records pickle.
    ``logging.handlers`` itself would cost the helper about 9 ms of imports
    (``socket``, ``queue``)."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def _per_seed(run: Callable[[int], object], seeds: list[int]) -> list:
    """``[run(seed) for seed in seeds]``, on two processes where
    :func:`io.two_cpus` allows and there are two seeds or more.

    A helper forked by :func:`io.fork_helper` runs the seeds from
    ``ceil(n/2)`` on while this process runs those before them. The helper
    stops at its first error and pickles its results, that error and its
    log records, which reach none of its own handlers. This process then
    re-emits the records and raises the error after its own seeds, so the
    earliest failing seed's error wins and every record is handled once,
    in seed order, as in the inline loop. The simulator path the helper
    runs uses no BLAS; the solve and the quadrature nodes it needs are
    computed before the fork. A helper that dies, or whose results, error
    or records do not pickle, raises ``OSError``.
    """
    if len(seeds) < 2 or not two_cpus():
        return [run(seed) for seed in seeds]
    half = (len(seeds) + 1) // 2

    def helper() -> bytes:
        kept = _Records()
        logging.root.handlers = [kept]
        results, error = [], None
        try:
            for seed in seeds[half:]:
                results.append(run(seed))
        except Exception as exc:
            error = exc
        return pickle.dumps((kept.records, results, error))

    what = f"the replication helper for seeds {seeds[half:]}"
    with fork_helper(helper, what) as chunks:
        results = [run(seed) for seed in seeds[:half]]
        payload = b"".join(chunks)
    try:
        records, theirs, error = pickle.loads(payload)
    except Exception as exc:
        raise OSError(f"{what} sent back what does not unpickle: "
                      f"{exc}") from exc
    for record in records:
        logging.getLogger(record.name).handle(record)
    if error is not None:
        raise error
    return results + theirs


def _replications(scenario: ScenarioConfig) -> dict[str, list[MetricsLog]]:
    """Each policy's metrics over the replications of one sweep point, in
    seed order. Every replication runs the three policies of the point's
    equilibrium on one shared world."""
    policies = _policies_for(solve_scenario(scenario))
    runs = _per_seed(lambda seed: run_replication(scenario, policies, seed=seed),
                     _replication_seeds(scenario))
    return {name: [run[name, False] for run in runs] for name in POLICY_NAMES}


def _kept(runs: list, label: str) -> list:
    """The runs that are not ``.excluded``, in order; one warning names how
    many were dropped, and none left fails the sweep point."""
    kept = [run for run in runs if not run.excluded]
    if len(kept) < len(runs):
        log.warning("%s: excluded %d barrier-hit replication(s)",
                    label, len(runs) - len(kept))
    if not kept:
        raise BarrierExclusionError(f"{label}: every replication hit the barrier")
    return kept


@one_solve_per_input()
def compare_experiment(scenario: ScenarioConfig) -> dict[str, list]:
    """Three-policy comparison under common random numbers.

    Produces the cost trajectories and final-cost summary across the user
    density sweep, and the overlap-per-storage sweep across initial
    popularity values. Each replication of a sweep point runs all three
    policies on one shared world. A bad sweep value fails before any solve.
    """
    user_points = sweep_points(scenario, "lambda_u_values")
    x0_points = sweep_points(scenario, "x0_values")
    trajectory_rows: list[tuple] = []
    summary_rows: list[tuple] = []
    for lambda_u, sc in user_points:
        runs = _replications(sc)
        finals: dict[str, float] = {}
        for name in POLICY_NAMES:
            kept = _kept(runs[name], f"compare lambda_u={lambda_u} policy={name}")
            finals[name] = float(np.mean([log_.lra for log_ in kept]))
            mean_cum = np.mean(np.stack([log_.cumulative_cost for log_ in kept]),
                               axis=0)
            for i, value in enumerate(mean_cum):
                trajectory_rows.append((lambda_u, name, (i + 1) * kept[-1].dt,
                                        value))
        for name in POLICY_NAMES:
            reduction = ((finals["baseline"] - finals[name]) / finals["baseline"]
                         if finals["baseline"] > 0 else 0.0)
            summary_rows.append((lambda_u, name, finals[name], reduction))

    overlap_rows: list[tuple] = []
    for x0, sc in x0_points:
        runs = _replications(sc)
        for name in POLICY_NAMES:
            kept = _kept(runs[name], f"overlap x0={x0} policy={name}")
            overlap_rows.append((x0, name, float(np.mean(
                [log_.overlap_per_storage for log_ in kept]))))
    return {
        "trajectories": trajectory_rows,
        "summary": summary_rows,
        "overlap": overlap_rows,
    }


@one_solve_per_input()
def ipi_sweep_experiment(scenario: ScenarioConfig) -> list[tuple]:
    """Paired-seed popularity-information study across station densities.

    Rows: (lambda_b, policy, mean perfect-information cost, mean
    imperfect-information cost, mean increment) over the unexcluded pairs.
    """
    rows: list[tuple] = []
    for lambda_b, sc in sweep_points(scenario, "lambda_b_values"):
        policies = _policies_for(solve_scenario(sc))
        runs = _per_seed(lambda seed: ipi_experiment(sc, policies, seed=seed),
                         _replication_seeds(sc))
        for name in POLICY_NAMES:
            kept = _kept([run[name] for run in runs],
                         f"ipi lambda_b={lambda_b} policy={name}")
            rows.append((
                lambda_b, name,
                float(np.mean([pair.perfect.lra for pair in kept])),
                float(np.mean([pair.imperfect.lra for pair in kept])),
                float(np.mean([pair.increment for pair in kept])),
            ))
    return rows


@one_solve_per_input()
def iteration_sweep(scenario: ScenarioConfig) -> list[tuple]:
    """Solver iteration counts across the station-density sweep."""
    rows = []
    for lambda_b, sc in sweep_points(scenario, "lambda_b_values"):
        solution = solve_scenario(sc)
        rows.append((lambda_b, solution.iterations, int(solution.converged),
                     solution.residual_history[-1]))
    return rows

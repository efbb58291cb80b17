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

The comparison and information-study recipes run their sweeps as one
ordered list of independent tasks: each seed of each sweep point is one
replication, with its own world, policy and observation streams. Where
:func:`io.two_cpus` allows and numpy's BLAS is the build checked to run in
a forked helper (:func:`io.forked_blas_checked`), a list of two tasks or
more runs on two processes (:func:`_sweep`): a forked helper runs the later
half of the tasks while the command runs the first half. Each process
solves each distinct equilibrium of its own half once, so one that both
halves need is solved in both; the helper shows none of what its duplicate
solve logs. The helper's results, log records, warnings and error come back
and are used in task order, as the inline loop gives them.
"""

from __future__ import annotations

import logging
import pickle
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import fields, is_dataclass
from functools import partial
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .costs import storage_drift
from .errors import BarrierExclusionError
from .geometry import average_rate, rate_model_from_config, request_region_count
from .io import forked_blas_checked, fork_helper, two_cpus
from .policies import BaselinePolicy, MfPolicy, RandomPolicy
from .scenario import ScenarioConfig, sweep_points
from .simulation import ipi_experiment, run_replication
from .solver import (
    Grid,
    MfeSolution,
    MfgProblem,
    SolverConfig,
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
    ``1 / catalog_size``; the wireless rate is the deterministic
    density-normalized value, held constant over the horizon.
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
        rate=rate,
        m0=m0,
        neighbor_count=max(0, request_region_count(geo) - 1),
    )


_SOLVES: ContextVar[dict | None] = ContextVar("mfcache_solves", default=None)


@contextmanager
def one_solve_per_input() -> Iterator[None]:
    """Scope in which :func:`solve_scenario` solves each distinct set of
    solver inputs once and hands every later caller the same solution.

    Nested scopes share the outermost memo; it is dropped when that scope
    exits. Callers must not modify a returned solution. The memo is per
    process: a sweep helper (see :func:`_sweep`) solves in its own copy, so
    an equilibrium both halves need is solved in both (the helper shows
    none of what its duplicate solve logs), and a later call for a
    helper's point in the same scope solves it again; the commands that
    split a sweep make no such call.
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


class _Inputs(NamedTuple):
    """Grid, reduced problem and solver settings of a scenario's solve, and
    the bit-exact key :func:`one_solve_per_input` keeps its solution under."""

    grid: Grid
    problem: MfgProblem
    config: SolverConfig
    key: tuple


def _solver_inputs(scenario: ScenarioConfig) -> _Inputs:
    grid = grid_from_scenario(scenario)
    problem = problem_from_scenario(scenario, grid)
    config = scenario.solver.config
    return _Inputs(grid, problem, config,
                   (_exact(grid), _exact(problem), _exact(config)))


def solve_scenario(scenario: ScenarioConfig, *,
                   inputs: _Inputs | None = None) -> MfeSolution:
    """Equilibrium of the scenario; ``inputs`` are its solver inputs, if
    the caller has built them already.

    Inside :func:`one_solve_per_input`, a solve whose grid, reduced problem
    and solver settings equal an earlier one's returns that solution.
    """
    grid, problem, config, key = inputs or _solver_inputs(scenario)
    memo = _SOLVES.get()
    if memo is None:
        return solve_mfe(problem, grid, config)
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
        q = float(np.clip(q + storage_drift(p, cst) * g.dt, 0.0, cst.storage))
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


class _Kept(logging.Handler):
    """Keeps, in order, every log record it handles and the arguments of
    every warning shown through :meth:`show`. A record's text is rendered
    (as ``logging.handlers.QueueHandler`` does), so that the records
    pickle. ``logging.handlers`` itself would cost the helper about 9 ms of
    imports (``socket``, ``queue``)."""

    def __init__(self) -> None:
        super().__init__()
        self.kept: list = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg = self.format(record)
        record.args = record.exc_info = record.exc_text = record.stack_info = None
        self.kept.append(record)

    def show(self, message, category, filename, lineno, file=None, line=None):
        self.kept.append((message, category, filename, lineno, file, line))


def _captured(step: Callable, *args) -> tuple[list, object, Exception | None]:
    """``step(*args)`` with the log records it makes and the warnings it
    shows kept, in order, not handled: ``(kept, value, None)``, or
    ``(kept, None, error)`` if it raised. The warning filters still apply,
    so a warning shown once per process is kept once."""
    keeper = _Kept()
    handlers, logging.root.handlers = logging.root.handlers, [keeper]
    show, warnings.showwarning = warnings.showwarning, keeper.show
    try:
        return keeper.kept, step(*args), None
    except Exception as exc:
        return keeper.kept, None, exc
    finally:
        logging.root.handlers = handlers
        warnings.showwarning = show


def _handle(kept: list) -> None:
    """Hand what :func:`_captured` kept to the loggers and to
    ``warnings.showwarning``, in order."""
    for item in kept:
        if isinstance(item, logging.LogRecord):
            logging.getLogger(item.name).handle(item)
        else:
            warnings.showwarning(*item)


class _Point(NamedTuple):
    """A sweep point of a recipe: its scenario, one task per entry of
    ``seeds``, and ``finish``, which takes the tasks' results in seed order
    once they are all in (it makes the point's rows and may log or raise)."""

    scenario: ScenarioConfig
    seeds: Sequence
    finish: Callable[[list], None]


def _quietly(step: Callable[[], object]) -> object:
    """``step()``, dropping what it logs and the warnings it shows."""
    _, value, error = _captured(step)
    if error is not None:
        raise error
    return value


def _sweep(points: list[_Point], prepare: Callable[[MfeSolution], object],
           run: Callable[[ScenarioConfig, object, object], object]) -> None:
    """Run the tasks ``(point, seed)`` of ``points`` in order. A point's
    first task builds its solver inputs, solves them and keeps
    ``prepare(solution)``; every task's result is ``run(scenario,
    prepared, seed)``; and once a point's results are all in, they go to
    its ``finish``.

    Where :func:`io.two_cpus` and :func:`io.forked_blas_checked` allow and
    there are two tasks or more, a helper forked by :func:`io.fork_helper`
    runs the tasks from ``ceil(n/2)`` on, while this process runs those
    before them; nothing runs before the fork. Each process solves the
    points it runs, so a straddling point, or solver inputs shared across
    the split, are solved in both. The helper first builds this process's
    points' solver inputs, dropping what that logs: this gives the memo
    keys this process solves, and marks the warnings it shows as shown, as
    in the inline loop. It drops what its solves of those keys log.

    The helper stops at its first error and pickles, task by task, what it
    kept of its log records (which reach none of its own handlers) and
    warnings, the result, and that error. This process handles them, and
    finishes the helper's points, after its own tasks, so the earliest
    failing task's error wins and every record, warning, and point's
    warning or error from ``finish`` comes in task order, as in the inline
    loop. An error in this process's half kills the helper. A helper that
    dies, or whose results, errors or records do not pickle, raises
    ``OSError``.
    """
    tasks = [(i, seed) for i, point in enumerate(points) for seed in point.seeds]
    split = len(tasks)
    if split > 1 and two_cpus() and forked_blas_checked():
        split = (split + 1) // 2
    quiet: set[tuple] = set()   # filled in the helper's copy only
    prepared: dict[int, object] = {}
    results: list[list] = [[] for _ in points]

    def task(i: int, seed) -> object:
        scenario = points[i].scenario
        if i not in prepared:
            inputs = _solver_inputs(scenario)
            solve = partial(solve_scenario, scenario, inputs=inputs)
            prepared[i] = prepare(_quietly(solve) if inputs.key in quiet
                                  else solve())
        return run(scenario, prepared[i], seed)

    def done(i: int, result) -> None:
        results[i].append(result)
        if len(results[i]) == len(points[i].seeds):
            points[i].finish(results[i])

    def own_tasks() -> None:
        for i, seed in tasks[:split]:
            done(i, task(i, seed))

    if split == len(tasks):
        own_tasks()
        return
    theirs = tasks[split:]

    def helper() -> bytes:
        # The keys this process solves; building them marks the warnings
        # that this shows as shown here too.
        ours = {i for i, _ in tasks[:split]}
        quiet.update(_quietly(lambda: {_solver_inputs(points[i].scenario).key
                                       for i in ours}))
        outcomes = []
        for i, seed in theirs:
            outcomes.append(_captured(task, i, seed))
            if outcomes[-1][2] is not None:
                break
        return pickle.dumps(outcomes)

    what = f"the sweep helper for tasks {split} to {len(tasks) - 1}"
    with fork_helper(helper, what) as chunks:
        own_tasks()
        payload = b"".join(chunks)
    try:
        outcomes = pickle.loads(payload)
    except Exception as exc:
        raise OSError(f"{what} sent back what does not unpickle: "
                      f"{exc}") from exc
    for (i, _), (kept, result, error) in zip(theirs, outcomes):
        _handle(kept)
        if error is not None:
            raise error
        done(i, result)


def _compare_task(scenario: ScenarioConfig, policies: dict[str, object],
                  seed: int) -> dict:
    """One replication of ``compare``: its logs, without the ``q_final`` the
    recipe never reads, so that a sweep point does not hold every station's
    storage until it finishes, and the sweep helper does not pickle it."""
    logs = run_replication(scenario, policies, seed=seed)
    for metrics in logs.values():
        metrics.q_final = None
    return logs


def _ipi_task(scenario: ScenarioConfig, policies: dict[str, object],
              seed: int) -> dict:
    """One paired replication of ``ipi``, without ``q_final`` (as in
    :func:`_compare_task`)."""
    pairs = ipi_experiment(scenario, policies, seed=seed)
    for pair in pairs.values():
        pair.perfect.q_final = pair.imperfect.q_final = None
    return pairs


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
    policies on one shared world. The sweep's tasks are the user density
    points' replications, then the initial popularity points' (see
    :func:`_sweep`). A bad sweep value fails before any solve.
    """
    user_points = sweep_points(scenario, "lambda_u_values")
    x0_points = sweep_points(scenario, "x0_values")
    trajectory_rows: list[tuple] = []
    summary_rows: list[tuple] = []
    overlap_rows: list[tuple] = []

    def user_rows(lambda_u: float, runs: list) -> None:
        finals: dict[str, float] = {}
        for name in POLICY_NAMES:
            kept = _kept([run[name, False] for run in runs],
                         f"compare lambda_u={lambda_u} policy={name}")
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

    def x0_rows(x0: float, runs: list) -> None:
        for name in POLICY_NAMES:
            kept = _kept([run[name, False] for run in runs],
                         f"overlap x0={x0} policy={name}")
            overlap_rows.append((x0, name, float(np.mean(
                [log_.overlap_per_storage for log_ in kept]))))

    _sweep([_Point(sc, _replication_seeds(sc), partial(user_rows, lambda_u))
            for lambda_u, sc in user_points]
           + [_Point(sc, _replication_seeds(sc), partial(x0_rows, x0))
              for x0, sc in x0_points],
           _policies_for, _compare_task)
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
    The sweep's tasks are the station density points' paired replications
    (see :func:`_sweep`).
    """
    rows: list[tuple] = []

    def point_rows(lambda_b: float, runs: list) -> None:
        for name in POLICY_NAMES:
            kept = _kept([run[name] for run in runs],
                         f"ipi lambda_b={lambda_b} policy={name}")
            rows.append((
                lambda_b, name,
                float(np.mean([pair.perfect.lra for pair in kept])),
                float(np.mean([pair.imperfect.lra for pair in kept])),
                float(np.mean([pair.increment for pair in kept])),
            ))

    _sweep([_Point(sc, _replication_seeds(sc), partial(point_rows, lambda_b))
            for lambda_b, sc in sweep_points(scenario, "lambda_b_values")],
           _policies_for, _ipi_task)
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

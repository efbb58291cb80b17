"""Time-stepped multi-station network simulation.

One replication, a ``(scenario, seed)`` pair, samples a station pattern once
and holds it as one :class:`World` of ``(stations, contents)`` arrays, plus
one request history per station. Every policy under test, and in the
popularity-information study both the perfect and the imperfect arm of each,
runs on that world as a lane: one (policy, arm) pair with its own metrics.
The remaining storage of all lanes is one ``(lanes, stations, contents)``
array, ordered policies first, then arms, so each policy's lanes are
consecutive rows; the lanes advance in lockstep, one world step at a time,
and no trajectory is stored.

A step runs in a fixed order: popularity diffuses, every arm's observation
is built once (the imperfect one is drawn once if an arm needs it), and
then each policy is called once, at the step's time node within the
period, on its rows of the storage stack for all of its arms: its context
stacks them ``(arms, stations, contents)``, one arm included. The output
check and the storage update (the solver's storage drift) then run once over
the whole stack. No step reads the metrics, so they are computed apart from
the state transition: the hood's rows of each step (the stations within the
request radius of a typical user at the region center) are buffered in
blocks of at most 64 KiB of rows (or one step) that end at every period
end, and once per block :func:`hood_metrics` computes the content overlap,
the solver's running cost, the storage usage and the barrier hits of its
steps at once. At every period boundary that another step follows, each
history folds its sampled arrivals once into new means.

Randomness is split into three independent streams per seed. The world
stream (pattern, initial storage, popularity noise, request arrivals) and
the observation-error stream are drawn once per step and shared by every
lane; each policy owns a fresh copy of the policy stream, and a policy that
draws draws once per step over ``(stations, contents)``, the draw serving
every arm. Each lane therefore sees exactly what a one-lane run of its
policy, arm and seed sees, and is bit-identical to it; policies and arms
compare under common random numbers.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .costs import (
    CostParams,
    empirical_overlap,
    lra_cost,
    running_cost,
    storage_drift,
)
from .demand import (
    CrpState,
    crp_request_distribution,
    ou_step_array,
    perturb_popularity,
    refresh_period,
    simulate_requests,
)
from .errors import ConfigurationError
from .geometry import sample_ppp
from .policies import PolicyContext
from .scenario import ScenarioConfig
from .solver import _BLOCK_BYTES

__all__ = ["World", "MetricsLog", "PairedRun", "build_world", "step",
           "hood_metrics", "run_replication", "run_scenario", "ipi_experiment",
           "log_exclusions"]

log = logging.getLogger(__name__)


@dataclass
class World:
    """One replication's stations: positions ``(K, 2)``, and per station and
    content the remaining storage every lane starts from, true request
    probabilities and current period means ``(K, M)``, plus each station's
    request history."""

    position: np.ndarray
    remaining: np.ndarray   # initial Q, data units left per station and content
    x: np.ndarray           # true request probabilities
    mu: np.ndarray          # current period means
    histories: list[CrpState]

    def __len__(self) -> int:
        return self.remaining.shape[0]


@dataclass
class MetricsLog:
    """Per-replication time series plus the derived summary metrics.

    ``q_final`` is the lane's storage ``(K, M)`` after the last step, or
    ``None`` for a run of no steps. The ``compare`` and ``ipi`` recipes read
    only the summaries and drop it from every log they keep.
    """

    seed: int
    dt: float
    cost: np.ndarray = field(default_factory=lambda: np.empty(0))
    cumulative_cost: np.ndarray = field(default_factory=lambda: np.empty(0))
    overlap: np.ndarray = field(default_factory=lambda: np.empty(0))
    storage_usage: np.ndarray = field(default_factory=lambda: np.empty(0))
    barrier_hits: int = 0
    lra: float = 0.0
    overlap_per_storage: float = 0.0
    excluded: bool = False
    q_final: np.ndarray | None = None

    def finalize(self) -> None:
        """Derive the summaries; an infinite LRA (a barrier hit) sets
        ``excluded``. It logs nothing: see :func:`log_exclusions`."""
        self.lra = lra_cost(self.cost, self.dt)
        self.excluded = not math.isfinite(self.lra)
        usage = float(self.storage_usage.mean()) if self.storage_usage.size else 0.0
        mean_overlap = float(self.overlap.mean()) if self.overlap.size else 0.0
        self.overlap_per_storage = mean_overlap / usage if usage > 1e-12 else 0.0
        if self.cost.size:
            self.cumulative_cost = np.concatenate(
                ([0.0], np.cumsum((self.cost[1:] + self.cost[:-1]) / 2.0 * self.dt)))
        else:
            self.cumulative_cost = np.empty(0)


def _replication_streams(seed: int) -> tuple[np.random.Generator, ...]:
    """Independent (world, policy, observation) streams for one seed."""
    children = SeedSequence(seed).spawn(3)
    return tuple(default_rng(c) for c in children)


def build_world(scenario: ScenarioConfig, rng: np.random.Generator
                ) -> tuple[World, np.ndarray]:
    """Sample the station layout and initial states.

    Returns the world and the index array of the typical user's
    neighborhood (stations within the request radius of the region center).
    A pattern with no stations gets one forced at the center so the typical
    user always has a serving candidate; an off-center pattern with an empty
    neighborhood falls back to the nearest station.
    """
    geo, dem, cst, sol = (scenario.geometry, scenario.demand, scenario.costs,
                          scenario.solver)
    region = (geo.region_width_km, geo.region_height_km)
    points = sample_ppp(geo.lambda_b, region, rng)
    center = np.array(region) / 2.0
    if not len(points):
        points = center[None, :]
    k, m = points.shape[0], dem.catalog_size
    histories = [CrpState.empty(m, theta=dem.theta, nu=dem.nu) for _ in range(k)]
    q0 = np.clip(rng.normal(sol.m0_q_mean, sol.m0_q_std, (k, m)), 0.0, cst.storage)
    world = World(position=points, remaining=q0, x=np.full((k, m), dem.x0),
                  mu=np.tile(crp_request_distribution(histories[0]), (k, 1)),
                  histories=histories)
    dist = np.hypot(points[:, 0] - center[0], points[:, 1] - center[1])
    hood = np.flatnonzero(dist <= geo.request_radius_km)
    if hood.size == 0:
        hood = np.array([int(np.argmin(dist))])
    return world, hood


def step(world: World, policies: list[tuple[object, np.random.Generator]],
         arms: tuple[bool, ...], remaining: np.ndarray, level: int, dt: float,
         rate: float, scenario: ScenarioConfig,
         world_rng: np.random.Generator, ipi_rng: np.random.Generator | None
         ) -> tuple[np.ndarray, np.ndarray]:
    """Advance the world and every lane by ``dt``.

    ``policies`` holds each policy with its stream, and ``arms`` the
    information arms (``True`` for imperfect); ``remaining`` stacks the
    lanes' storage ``(lanes, K, M)`` in policy, then arm order, so a
    policy's lanes are ``len(arms)`` consecutive rows, and ``level`` is the
    index of the step's time node within the period. Returns the new
    storage stack (a new array: a context keeps its rows of the old one)
    and the stack of the lanes' cache fractions, of the same shape. The
    caller buffers the hood's rows of both stacks for :func:`hood_metrics`.

    Order: popularity step and every arm's observation, shared by all
    policies (an imperfect arm needs ``ipi_rng``); each policy called once
    on its rows of the stack; then, once over all lanes, the output check
    and the storage update (clamped to [0, C]; discarding pauses at full
    remaining storage). A context's ``x_hat`` stacks the arms'
    observations and its ``remaining`` the policy's rows, both
    ``(arms, K, M)``, also under one arm. The context holds arrays the step
    has clipped and is not checked; the policies' outputs are checked (each
    of its context's storage shape, then no NaN and values in ``[0, 1]``
    over all lanes and stations) and raise :class:`ConfigurationError`
    otherwise.
    """
    dem, cst = scenario.demand, scenario.costs
    floor = dem.ipi.floor_eps
    x = ou_step_array(world.x, world.mu, dem.reversion_rate, dem.volatility,
                      dt, world_rng)
    world.x = x
    observed = {False: x.clip(floor, 1.0)}
    if True in arms:
        observed[True] = perturb_popularity(x, dem.ipi, ipi_rng)
    n = len(arms)
    x_hat = np.array([observed[imperfect] for imperfect in arms])
    p_max = scenario.solver.config.p_max(cst.backhaul, cst.content_size)

    p = np.empty(remaining.shape)
    for i, (policy, rng) in enumerate(policies):
        rows = slice(i * n, (i + 1) * n)
        ctx = PolicyContext(
            level=level, nodes=scenario.solver.grid_nt, x_hat=x_hat,
            remaining=remaining[rows], rate=rate, backhaul=cst.backhaul,
            content_size=cst.content_size, p_max=p_max,
        )
        out = np.asarray(policy(ctx, rng), dtype=float)
        # Checked before the write, which would broadcast a (M,) row.
        if out.shape != ctx.remaining.shape:
            raise ConfigurationError(f"policy output of shape {out.shape} "
                                     "must have the storage shape "
                                     f"{ctx.remaining.shape}")
        p[rows] = out
    if not (p.min() >= 0 and p.max() <= 1):   # a NaN fails both
        raise ConfigurationError("policy output must be cache fractions in "
                                 "[0, 1], with no NaN")
    q = (remaining + storage_drift(p, cst) * dt).clip(0.0, cst.storage)
    return q, p


def hood_metrics(p: np.ndarray, q: np.ndarray, x: np.ndarray, rate: float,
                 costs: CostParams, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Metrics of buffered steps over the typical neighborhood.

    ``p`` and ``q`` hold the hood's cache fractions and storage after each
    step, ``(steps, lanes, H, M)``, and ``x`` its true request
    probabilities, ``(steps, H, M)``. Returns the rows ``(3, lanes,
    steps)`` (cost, overlap, storage usage) and the barrier hits per lane.
    The overlap is the leave-one-out sum over the hood; the cost floors the
    true popularity at ``floor``, and a barrier hit is a cost of ``inf``.
    Each row sums over contents, then averages over the hood, so a step's
    row does not depend on how many steps share the call:
    :func:`run_replication` calls it once per block of steps, and the rows
    equal those of one pass over a whole period.
    """
    # Row-major inputs make every sum run over each row in memory order, as
    # a one-lane run's do; run_replication's buffers already are, so this
    # copies nothing there.
    p, q, x = (np.ascontiguousarray(a) for a in (p, q, x))
    overlap = empirical_overlap(p, costs.storage, costs.similar_count)
    cost = running_cost(p, q, rate * np.maximum(x, floor)[:, None], overlap,
                        costs)
    steps, lanes = p.shape[:2]
    rows = np.stack([cost.sum(axis=3).mean(axis=2),
                     overlap.reshape(steps, lanes, -1).mean(axis=2),
                     (costs.storage - q).reshape(steps, lanes, -1).mean(axis=2)])
    hits = (~np.isfinite(cost)).reshape(steps, lanes, -1).sum(axis=(0, 2))
    return rows.swapaxes(1, 2), hits


def run_replication(scenario: ScenarioConfig, policies: dict[str, object],
                    arms: tuple[bool, ...] = (False,), seed: int | None = None
                    ) -> dict[tuple[str, bool], MetricsLog]:
    """Simulate one replication of the scenario under every policy and
    information arm (``True`` for imperfect) at once.

    The world is built and stepped once; each ``(name, arm)`` lane starts
    from the world's initial storage, as one row of a ``(lanes, K, M)``
    storage stack, and its metrics are returned under that key, in
    ``policies`` then ``arms`` order. Each policy gets a fresh policy
    stream and is called once per step for all of its arms. :func:`step` does
    not see the hood: after each step, this loop gathers the hood's rows of
    the cache fractions, storage and true popularity into buffers allocated
    once, each of at most the solver's block budget (``_BLOCK_BYTES``,
    64 KiB) of ``(lanes, hood, contents)`` rows, or one step, and at most
    one period. When the buffers fill, at each period end and after the
    last step, :func:`hood_metrics` turns the buffered steps into their
    columns of one ``(3, lanes, n_steps)`` series, which is split into the
    logs at the end; no pass crosses a period. The run covers the
    scenario's simulation horizon on the solver grid's time nodes: a period
    is ``grid_nt - 1`` steps, and step ``k`` hands the policies the node
    index ``k % (grid_nt - 1)``, so equilibrium policies evaluate on their
    own time nodes in every period.
    Request histories refresh the popularity means at every period boundary
    that another step follows, with arrivals Poisson-distributed in the user
    mass of the search region. Each lane's storage after the last step is
    kept in ``q_final``; a run of no steps keeps none. ``policies`` and
    ``arms`` must each hold at least one entry.
    The run reads the geometry's cached ``rate`` and logs nothing: a lane
    that hits the barrier is only marked ``excluded`` (see
    :func:`log_exclusions`).
    """
    if not policies:
        raise ConfigurationError("policies must hold at least one policy")
    if not arms:
        raise ConfigurationError("arms must hold at least one arm")
    if seed is None:
        seed = scenario.simulation.seed
    dem, geo = scenario.demand, scenario.geometry
    steps_per_period = scenario.solver.grid_nt - 1
    dt = dem.period / steps_per_period
    n_steps = int(round(scenario.simulation.horizon / dt))
    world_rng, _, ipi_rng = _replication_streams(seed)

    world, hood = build_world(scenario, world_rng)
    keys = [(name, imperfect) for name in policies for imperfect in arms]
    policy_streams = [(policy, _replication_streams(seed)[1])
                      for policy in policies.values()]
    remaining = np.repeat(world.remaining[None], len(keys), axis=0)
    series = np.empty((3, len(keys), n_steps))
    hits = np.zeros(len(keys), dtype=np.int64)
    if n_steps:
        rate = geo.rate
        arrival_rate = (geo.lambda_u * np.pi * geo.search_radius_km ** 2
                        * dem.requests_per_user)
        # The hood's rows of the steps since the last metrics pass: at most
        # _BLOCK_BYTES of (lanes, hood, contents) rows per buffer, or one
        # step, and never more than a period. The gathers keep lanes
        # outermost in memory (p[:, hood] would lay the hood axis out
        # first), so each lane's means reduce the same contiguous runs, in
        # the same order, as a one-lane run does.
        row_bytes = 8 * len(keys) * hood.size * dem.catalog_size
        size = min(max(1, _BLOCK_BYTES // row_bytes), steps_per_period,
                   n_steps)
        p_hood = np.empty((size, len(keys), hood.size, dem.catalog_size))
        q_hood = np.empty_like(p_hood)
        x_hood = np.empty((size, hood.size, dem.catalog_size))
        start = 0
        for k in range(n_steps):
            remaining, p = step(
                world, policy_streams, arms, remaining, k % steps_per_period,
                dt, rate, scenario, world_rng, ipi_rng)
            j = k - start
            p.take(hood, axis=1, out=p_hood[j])
            remaining.take(hood, axis=1, out=q_hood[j])
            world.x.take(hood, axis=0, out=x_hood[j])
            period_end = (k + 1) % steps_per_period == 0
            if j + 1 == size or period_end or k + 1 == n_steps:
                series[:, :, start:k + 1], block_hits = hood_metrics(
                    p_hood[:j + 1], q_hood[:j + 1], x_hood[:j + 1], rate,
                    scenario.costs, dem.ipi.floor_eps)
                hits += block_hits
                start = k + 1
            # The means after the last step are never read.
            if period_end and k + 1 < n_steps:
                for i, history in enumerate(world.histories):
                    increments = simulate_requests(
                        history, int(world_rng.poisson(arrival_rate)), world_rng)
                    world.mu[i] = refresh_period(history, increments)
    logs = {}
    for i, key in enumerate(keys):
        metrics = MetricsLog(seed=seed, dt=dt, barrier_hits=int(hits[i]),
                             q_final=remaining[i] if n_steps else None)
        metrics.cost, metrics.overlap, metrics.storage_usage = series[:, i]
        metrics.finalize()
        logs[key] = metrics
    return logs


def run_scenario(scenario: ScenarioConfig, policy, seed: int | None = None,
                 use_ipi: bool = False) -> MetricsLog:
    """Simulate one replication of the scenario under one policy: a
    one-lane :func:`run_replication` under the perfect information arm or,
    with ``use_ipi``, the imperfect one.

    The lane owns a fresh policy stream of the seed and reads the seed's
    world and observation streams, so its metrics equal those of the same
    (policy, arm) lane in any shared run of that seed.
    """
    (metrics,) = run_replication(scenario, {"policy": policy}, arms=(use_ipi,),
                                 seed=seed).values()
    return metrics


@dataclass
class PairedRun:
    """One policy's perfect/imperfect-information pair under one seed."""

    perfect: MetricsLog
    imperfect: MetricsLog

    @property
    def increment(self) -> float:
        return self.imperfect.lra - self.perfect.lra

    @property
    def excluded(self) -> bool:
        return self.perfect.excluded or self.imperfect.excluded


def ipi_experiment(scenario: ScenarioConfig, policies: dict[str, object],
                   seed: int | None = None) -> dict[str, PairedRun]:
    """Paired perfect/imperfect-information runs under common random numbers.

    One :func:`run_replication` carries both arms of every policy: the
    seed's world is built and stepped once, every lane advances on it in
    lockstep, each policy is called once per step for both of its arms
    (a random policy's one draw serves both), and all imperfect lanes read
    the same observation error. Both arms thus see one world realization, and
    the reported cost increment isolates the observation error.
    """
    logs = run_replication(scenario, policies, arms=(False, True), seed=seed)
    return {name: PairedRun(perfect=logs[name, False],
                            imperfect=logs[name, True])
            for name in policies}


def log_exclusions(logs: Iterable[MetricsLog]) -> None:
    """Log one warning per excluded log of ``logs``, in order. A replication
    logs nothing itself: the recipes call this with each sweep point's
    lanes, in seed order, then lane order."""
    for metrics in logs:
        if metrics.excluded:
            log.warning("replication %d hit the barrier; trajectory flagged "
                        "and excluded from aggregates", metrics.seed)

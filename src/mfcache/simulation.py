"""Time-stepped multi-station network simulation.

One replication samples a station pattern, gives every station its own
request history and per-content popularity state, and steps the world with a
fixed order per step: popularity diffuses, observations are (optionally)
perturbed, the policy picks cache fractions, storage integrates the
cache/discard balance, content overlap is measured over the stations within
the request radius of a typical user at the region center, and the running
cost is accumulated. Request histories fold into new popularity means at
every period boundary.

Randomness is split into three independent streams per replication — world
(pattern, popularity noise, request arrivals), policy draws, and observation
error — so different policies and the perfect/imperfect-information arms of
an experiment share common random numbers. Metrics are bit-identical for an
identical (scenario, seed) pair.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import backhaul_cost, lra_cost, storage_cost
from .demand import (
    FLOOR_EPS,
    CrpState,
    crp_mean_popularity,
    ou_step_array,
    perturb_popularity,
    refresh_period,
    simulate_requests,
)
from .errors import ConfigurationError
from .geometry import average_rate, rate_model_from_config, sample_ppp
from .policies import PolicyContext
from .scenario import ScenarioConfig

__all__ = ["SbsState", "MetricsLog", "PairedRun", "build_world", "step",
           "run_scenario", "ipi_experiment"]

log = logging.getLogger(__name__)


@dataclass
class SbsState:
    """One station: position, per-content storage and popularity state, and
    the request history of its search region."""

    position: np.ndarray
    remaining: np.ndarray   # Q_j, data units left for content j
    x: np.ndarray           # true request probabilities
    mu: np.ndarray          # current period means
    crp: CrpState

    def __post_init__(self) -> None:
        if not (self.remaining.shape == self.x.shape == self.mu.shape):
            raise ConfigurationError("per-content arrays must share a shape")

    def cached(self, storage: float) -> np.ndarray:
        return storage - self.remaining


@dataclass
class MetricsLog:
    """Per-replication time series plus the derived summary metrics."""

    seed: int
    dt: float
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    cost: np.ndarray = field(default_factory=lambda: np.empty(0))
    cumulative_cost: np.ndarray = field(default_factory=lambda: np.empty(0))
    overlap: np.ndarray = field(default_factory=lambda: np.empty(0))
    storage_usage: np.ndarray = field(default_factory=lambda: np.empty(0))
    hit_ratio: np.ndarray = field(default_factory=lambda: np.empty(0))
    barrier_hits: int = 0
    lra: float = 0.0
    overlap_per_storage: float = 0.0
    excluded: bool = False
    q_snapshot: np.ndarray | None = None

    def finalize(self) -> None:
        self.lra = lra_cost(self.cost, self.dt) if self.cost.size else 0.0
        if not math.isfinite(self.lra):
            self.excluded = True
            log.warning("replication %d hit the barrier; trajectory flagged "
                        "and excluded from aggregates", self.seed)
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
    children = np.random.SeedSequence(seed).spawn(3)
    return tuple(np.random.default_rng(c) for c in children)


def build_world(scenario: ScenarioConfig, rng: np.random.Generator
                ) -> tuple[list[SbsState], np.ndarray]:
    """Sample the station layout and initial states.

    Returns the stations and the index array of the typical user's
    neighborhood (stations within the request radius of the region center).
    A pattern with no stations gets one forced at the center so the typical
    user always has a serving candidate; an off-center pattern with an empty
    neighborhood falls back to the nearest station.
    """
    geo, dem, cst, sol = (scenario.geometry, scenario.demand, scenario.costs,
                          scenario.solver)
    pattern = sample_ppp(geo.lambda_b, geo.region_km, rng)
    center = np.array([geo.region_km[0] / 2.0, geo.region_km[1] / 2.0])
    points = pattern.points if len(pattern) else center[None, :]
    m = dem.catalog_size
    stations: list[SbsState] = []
    for k in range(points.shape[0]):
        q0 = np.clip(rng.normal(sol.m0_q_mean, sol.m0_q_std, m), 0.0, cst.storage)
        crp = CrpState.empty(m, theta=dem.theta, nu=dem.nu)
        stations.append(SbsState(
            position=points[k].copy(),
            remaining=q0,
            x=np.full(m, dem.x0),
            mu=crp_mean_popularity(crp),
            crp=crp,
        ))
    dist = np.hypot(points[:, 0] - center[0], points[:, 1] - center[1])
    hood = np.flatnonzero(dist <= geo.request_radius_km)
    if hood.size == 0:
        hood = np.array([int(np.argmin(dist))])
    return stations, hood


def step(world: list[SbsState], hood: np.ndarray, policy, t: float, dt: float,
         rate: float, scenario: ScenarioConfig,
         world_rng: np.random.Generator, policy_rng: np.random.Generator,
         ipi_rng: np.random.Generator | None) -> dict[str, float]:
    """Advance every station by ``dt`` and return the step's metrics row.

    Order: popularity step, observation, policy, storage update (clamped to
    [0, C]; discarding pauses at full remaining storage), overlap over the
    typical neighborhood, cost accumulation with the true popularity floored
    at the observation floor.
    """
    dem, cst = scenario.demand, scenario.costs
    floor = max(dem.ipi.floor_eps, FLOOR_EPS)
    x = np.stack([s.x for s in world])
    mu = np.stack([s.mu for s in world])
    q = np.stack([s.remaining for s in world])

    x = ou_step_array(x, mu, dem.reversion_rate, dem.volatility, dt, world_rng)
    if ipi_rng is not None:
        x_hat = np.clip(perturb_popularity(x, dem.ipi, ipi_rng), floor, 1.0)
    else:
        x_hat = np.clip(x, floor, 1.0)

    ctx = PolicyContext(
        t=t, x_hat=x_hat, remaining=q, rate=rate,
        backhaul=cst.backhaul, content_size=cst.content_size,
        storage=cst.storage, similar_count=cst.similar_count,
        p_max=scenario.solver.config.p_max(cst.backhaul, cst.content_size),
    )
    p = np.asarray(policy(ctx, policy_rng), dtype=float)
    q = np.clip(q + (cst.discard_rate - cst.content_size * p) * dt,
                0.0, cst.storage)

    for k, s in enumerate(world):
        s.x = x[k]
        s.remaining = q[k]

    p_hood = p[hood]
    q_hood = q[hood]
    x_hood = np.maximum(x[hood], floor)
    overlap = ((p_hood.sum(axis=0)[None, :] - p_hood)
               / (cst.storage * cst.similar_count))
    phi = backhaul_cost(p_hood, cst.backhaul, cst.content_size)
    psi = storage_cost(q_hood, cst.storage, cst.gamma)
    cost_kj = phi * (1.0 + overlap) / (rate * x_hood) + psi
    barrier = int(np.sum(~np.isfinite(phi)))

    weights = x_hood.sum(axis=1)
    hit = (x_hood * np.minimum(1.0, (cst.storage - q_hood) / cst.content_size)
           ).sum(axis=1) / np.where(weights > 0, weights, 1.0)
    return {
        "cost": float(cost_kj.sum(axis=1).mean()),
        "overlap": float(overlap.mean()),
        "storage_usage": float((cst.storage - q_hood).mean()),
        "hit_ratio": float(hit.mean()),
        "barrier_hits": barrier,
    }


def run_scenario(scenario: ScenarioConfig, policy, horizon: float | None = None,
                 seed: int | None = None, use_ipi: bool = False,
                 snapshot_time: float | None = None) -> MetricsLog:
    """Simulate one replication of the scenario under one policy.

    ``horizon`` defaults to the scenario's simulation horizon; the step size
    is the solver grid's, so equilibrium policies evaluate on their own time
    nodes. Request histories refresh the popularity means at every period
    boundary with arrivals Poisson-distributed in the user mass of the
    search region.
    """
    if seed is None:
        seed = scenario.simulation.seed
    if horizon is None:
        horizon = scenario.simulation.horizon
    if horizon < 0:
        raise ConfigurationError("horizon must be >= 0")
    dem, geo = scenario.demand, scenario.geometry
    dt = dem.period / (scenario.solver.grid_nt - 1)
    n_steps = int(round(horizon / dt))
    world_rng, policy_rng, ipi_rng = _replication_streams(seed)

    metrics = MetricsLog(seed=seed, dt=dt)
    world, hood = build_world(scenario, world_rng)
    if n_steps == 0:
        metrics.finalize()
        return metrics

    rate = average_rate(rate_model_from_config(geo), geo)
    arrival_rate = (geo.lambda_u * np.pi * geo.search_radius_km ** 2
                    * dem.requests_per_user)
    steps_per_period = max(1, int(round(dem.period / dt)))
    snap_step = (int(round(snapshot_time / dt))
                 if snapshot_time is not None else None)

    rows = {key: np.empty(n_steps) for key in
            ("cost", "overlap", "storage_usage", "hit_ratio")}
    times = np.empty(n_steps)
    barrier_hits = 0
    for k in range(n_steps):
        t = k * dt
        row = step(world, hood, policy, t, dt, rate, scenario,
                   world_rng, policy_rng, ipi_rng if use_ipi else None)
        barrier_hits += row.pop("barrier_hits")
        for key, value in row.items():
            rows[key][k] = value
        times[k] = t + dt
        if snap_step is not None and k + 1 == snap_step:
            metrics.q_snapshot = np.stack([s.remaining for s in world]).copy()
        if (k + 1) % steps_per_period == 0:
            for s in world:
                draft = CrpState(s.crp.counts.copy(), theta=s.crp.theta,
                                 nu=s.crp.nu)
                arrivals = simulate_requests(
                    draft, int(world_rng.poisson(arrival_rate)), world_rng)
                s.mu = refresh_period(s.crp, arrivals)
    metrics.times = times
    metrics.cost = rows["cost"]
    metrics.overlap = rows["overlap"]
    metrics.storage_usage = rows["storage_usage"]
    metrics.hit_ratio = rows["hit_ratio"]
    metrics.barrier_hits = barrier_hits
    metrics.finalize()
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

    Both arms of each policy reuse the same seed, so the world realization is
    identical and the reported cost increment isolates the observation error.
    """
    out: dict[str, PairedRun] = {}
    for name, policy in policies.items():
        out[name] = PairedRun(
            perfect=run_scenario(scenario, policy, seed=seed, use_ipi=False),
            imperfect=run_scenario(scenario, policy, seed=seed, use_ipi=True),
        )
    return out

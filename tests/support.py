"""Shared test oracles and helpers, kept independent of the package paths
they are used to check."""

from __future__ import annotations

import logging
import math
from types import SimpleNamespace

import numpy as np

from mfcache.costs import CostParams, running_cost
from mfcache.demand import (
    FLOOR_EPS,
    ou_step_array,
    perturb_popularity,
    refresh_period,
    simulate_requests,
)
from mfcache.errors import ConfigurationError
from mfcache.geometry import (
    GeometryConfig,
    RateModel,
    average_rate,
    path_loss,
    rate_model_from_config,
)
from mfcache.policies import PolicyContext
from mfcache.simulation import MetricsLog, build_world
from mfcache.solver import SolverConfig, control_scale, optimal_control

log = logging.getLogger(__name__)


def urn_request_ids(state, n_requests: int, rng: np.random.Generator) -> np.ndarray:
    """Reference sampler: the ids of the next ``n_requests`` arrivals drawn
    one at a time, leaving ``state`` unchanged.

    A proposal is drawn from the token urn (probability proportional to
    ``n_j`` for seen contents, ``nu*K + theta`` for the new-content branch)
    and accepted with ratio ``(n_j - nu) / n_j``, which reproduces the
    discounted law exactly. Once the catalog is exhausted the new-content
    mass collapses onto the seen contents in proportion to ``n_j - nu``.
    Needs ``theta > 0`` on an empty history.
    """
    counts = state.counts.copy()
    tokens = np.repeat(np.arange(counts.size), counts).tolist()
    unseen = list(np.flatnonzero(counts == 0)[::-1])
    rng.shuffle(unseen)
    theta, nu = state.theta, state.nu
    out = np.empty(n_requests, dtype=np.int64)
    total = int(counts.sum())
    k = int(np.count_nonzero(counts))
    uniform = rng.random
    for i in range(n_requests):
        while True:
            new_mass = nu * k + theta if unseen else 0.0
            u = uniform() * (total + new_mass)
            if u < new_mass:
                j = unseen.pop()
                k += 1
                break
            j = tokens[int(u - new_mass)]
            if uniform() * counts[j] <= counts[j] - nu:
                break
        counts[j] += 1
        total += 1
        tokens.append(j)
        out[i] = j
    return out


def expected_distinct_contents(total_requests: int, theta: float, nu: float) -> float:
    """Asymptotic mean number of distinct contents after ``total_requests``.

    ``Gamma(theta+1) / (nu Gamma(theta+nu)) * N^nu`` for a positive discount,
    ``theta * log(N + theta)`` at ``nu = 0``.
    """
    from scipy.special import gammaln

    if total_requests < 1:
        raise ConfigurationError("total_requests must be >= 1")
    if theta <= 0:
        raise ConfigurationError("theta must be > 0")
    if not 0.0 <= nu < 1.0:
        raise ConfigurationError("nu must lie in [0, 1)")
    if nu == 0.0:
        return float(theta * np.log(total_requests + theta))
    return float(np.exp(gammaln(theta + 1.0) - gammaln(theta + nu)) / nu
                 * total_requests ** nu)


def exact_distinct_mean(total_requests: int, theta: float, nu: float) -> float:
    """Exact mean number of distinct contents after ``total_requests``
    arrivals of the two-parameter process on an unbounded catalog, by the
    recursion ``E[K_{n+1}] = E[K_n] + (theta + nu E[K_n]) / (theta + n)``."""
    mean = 0.0
    for n in range(total_requests):
        mean += (theta + nu * mean) / (theta + n)
    return mean


def reference_joins_before_opening(a: float, b: float, left: int,
                                   log_u: float) -> int:
    """Plain bisection over ``[0, left]`` for the largest ``s`` whose
    survival ``Gamma(a + s) Gamma(b) / (Gamma(a) Gamma(b + s))`` exceeds
    ``exp(log_u)``; ``s = 0`` is taken to survive and ``s = left + 1`` not."""
    base = math.lgamma(b) - math.lgamma(a)
    lo, hi = 0, left + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if math.lgamma(a + mid) - math.lgamma(b + mid) + base > log_u:
            lo = mid
        else:
            hi = mid
    return lo


def wasserstein1_grid(samples: np.ndarray, nodes: np.ndarray,
                      weights: np.ndarray) -> float:
    """1-Wasserstein distance between an empirical sample and a discrete
    density on a uniform node array, via integrated CDF difference."""
    qs = np.sort(np.asarray(samples, dtype=float))
    w = np.asarray(weights, dtype=float)
    w = w / w.sum()
    pts = np.linspace(nodes[0], nodes[-1], 2001)
    cdf_emp = np.searchsorted(qs, pts, side="right") / qs.size
    cdf_grid = np.interp(pts, nodes, np.cumsum(w))
    return float(np.trapezoid(np.abs(cdf_emp - cdf_grid), pts))


def _reference_locate(coord, nodes):
    rel = (np.asarray(coord, dtype=float) - nodes[0]) / (nodes[1] - nodes[0])
    rel = np.clip(rel, 0.0, nodes.size - 1.0)
    idx = np.minimum(rel.astype(np.int64), nodes.size - 2)
    return idx, rel - idx


def reference_mf_plane(solution, level: int, x_hat: np.ndarray,
                       remaining: np.ndarray) -> np.ndarray:
    """Reference bilinear read of the time plane ``solution.p[level]`` at
    ``(x_hat, Q)``: both coordinates are clamped to their node range, and
    every corner index is clamped to the last node again, in the same
    2 x 2 term order and weight association as
    :class:`mfcache.policies.MfPolicy`."""
    g = solution.grid
    x_i, x_w = _reference_locate(x_hat, g.x)
    q_i, q_w = _reference_locate(remaining, g.q)
    plane = solution.p[level]
    p = np.zeros(np.shape(x_hat))
    for step_x, wx in ((0, 1.0 - x_w), (1, x_w)):
        xi = np.minimum(x_i + step_x, g.x.size - 1)
        for step_q, wq in ((0, 1.0 - q_w), (1, q_w)):
            qi = np.minimum(q_i + step_q, g.q.size - 1)
            p = p + wx * wq * plane[xi, qi]
    return np.clip(p, 0.0, solution.p_max)


def reference_mf_interpolation(solution, t: float, x_hat: np.ndarray,
                               remaining: np.ndarray) -> np.ndarray:
    """Reference trilinear read of ``solution.p`` at ``(t, x_hat, Q)``, as
    the equilibrium policy read a floating-point time within the period
    before it read its time node by index: every coordinate is clamped to
    its node range, and every corner index is clamped to the last node
    again, in a 2 x 2 x 2 term order with ``((wt * wx) * wq) * value``
    association."""
    g = solution.grid
    t_idx, t_frac = _reference_locate(t, g.t)
    t_i, t_w = int(t_idx), float(t_frac)
    x_i, x_w = _reference_locate(x_hat, g.x)
    q_i, q_w = _reference_locate(remaining, g.q)
    p = np.zeros(np.shape(x_hat))
    for step_t, wt in ((0, 1.0 - t_w), (1, t_w)):
        plane = solution.p[min(t_i + step_t, g.t.size - 1)]
        for step_x, wx in ((0, 1.0 - x_w), (1, x_w)):
            xi = np.minimum(x_i + step_x, g.x.size - 1)
            for step_q, wq in ((0, 1.0 - q_w), (1, q_w)):
                qi = np.minimum(q_i + step_q, g.q.size - 1)
                p = p + wt * wx * wq * plane[xi, qi]
    return np.clip(p, 0.0, solution.p_max)


def reference_solution_csv(solution) -> str:
    """Reference text of :func:`mfcache.io.write_solution_csv`: the header,
    then every ``(t, x, Q)`` node in row-major order, all six columns of
    each row rendered by one ``%.17g`` template."""
    g = solution.grid
    nt, nx, nq = g.shape
    block = np.empty((nx * nq, 6))
    block[:, 1] = np.repeat(g.x, nq)
    block[:, 2] = np.tile(g.q, nx)
    row = ",".join(["%.17g"] * 6) + "\n"
    parts = ["t,x,Q,v,m,p\n"]
    for level in range(nt):
        block[:, 0] = g.t[level]
        for col, values in enumerate((solution.v, solution.m, solution.p),
                                     start=3):
            block[:, col] = values[level].ravel()
        parts.append((row * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def flip_storage_charge(monkeypatch):
    """Charge unused storage, ``gamma Q / C``, in place of occupied storage
    (at ``gamma = 30`` the control is live), by one patch of
    ``mfcache.costs``, which the solver, the simulator and the oracles read."""
    import mfcache.costs

    monkeypatch.setattr(mfcache.costs, "storage_cost",
                        lambda q, storage, gamma: gamma * q / storage)


class ConstantPolicy:
    """Caches a fixed fraction of every content at every step."""

    def __init__(self, level: float):
        self.level = level

    def __call__(self, ctx, rng=None):
        return np.full(ctx.x_hat.shape, self.level)


def reference_replication(scenario, policies: dict, arms=(False,),
                          seed: int | None = None) -> dict:
    """Reference :func:`mfcache.simulation.run_replication`, lane by lane.

    The same world, streams and step order, but every lane keeps its own
    storage array, and the storage update, overlap and running cost are
    written out here and computed one lane at a time on 2-D hood arrays; the
    barrier and the storage charge are the package's, looked up at call
    time. Returns ``{(name, imperfect): MetricsLog}`` in ``policies`` then
    ``arms`` order."""
    from mfcache.costs import backhaul_cost, storage_cost

    seed = scenario.simulation.seed if seed is None else seed
    dem, geo, cst = scenario.demand, scenario.geometry, scenario.costs

    def streams():
        return [np.random.default_rng(c)
                for c in np.random.SeedSequence(seed).spawn(3)]

    steps_per_period = scenario.solver.grid_nt - 1
    dt = dem.period / steps_per_period
    n_steps = int(round(scenario.simulation.horizon / dt))
    world_rng, _, ipi_rng = streams()
    world, hood = build_world(scenario, world_rng)
    lanes = {(name, imperfect): SimpleNamespace(
                 policy=policy, imperfect=imperfect, rng=streams()[1],
                 remaining=world.remaining.copy(),
                 log=MetricsLog(seed=seed, dt=dt,
                                times=np.arange(n_steps) * dt + dt,
                                cost=np.empty(n_steps),
                                overlap=np.empty(n_steps),
                                storage_usage=np.empty(n_steps)))
             for name, policy in policies.items() for imperfect in arms}
    rate = average_rate(rate_model_from_config(geo), geo)
    arrival_rate = (geo.lambda_u * np.pi * geo.search_radius_km ** 2
                    * dem.requests_per_user)
    floor = max(dem.ipi.floor_eps, FLOOR_EPS)
    p_max = scenario.solver.config.p_max(cst.backhaul, cst.content_size)
    for k in range(n_steps):
        x = ou_step_array(world.x, world.mu, dem.reversion_rate,
                          dem.volatility, dt, world_rng)
        world.x = x
        observed = {False: np.clip(x, floor, 1.0)}
        if True in arms:
            observed[True] = np.clip(perturb_popularity(x, dem.ipi, ipi_rng),
                                     floor, 1.0)
        demand_hood = rate * np.maximum(x[hood], floor)
        for lane in lanes.values():
            ctx = PolicyContext(
                level=k % steps_per_period, nodes=steps_per_period + 1,
                x_hat=observed[lane.imperfect],
                remaining=lane.remaining, rate=rate, backhaul=cst.backhaul,
                content_size=cst.content_size, p_max=p_max)
            p = np.asarray(lane.policy(ctx, lane.rng), dtype=float)
            lane.remaining = np.clip(
                lane.remaining + (cst.discard_rate - cst.content_size * p) * dt,
                0.0, cst.storage)
            p_hood, q_hood = p[hood], lane.remaining[hood]
            overlap = ((p_hood.sum(axis=0) - p_hood)
                       / (cst.storage * cst.similar_count))
            phi = backhaul_cost(p_hood, cst.backhaul, cst.content_size)
            cost = (phi * (1.0 + overlap) / demand_hood
                    + storage_cost(q_hood, cst.storage, cst.gamma))
            lane.log.cost[k] = cost.sum(axis=1).mean()
            lane.log.overlap[k] = overlap.mean()
            lane.log.storage_usage[k] = (cst.storage - q_hood).mean()
            lane.log.barrier_hits += int(np.sum(~np.isfinite(phi)))
        if (k + 1) % steps_per_period == 0 and k + 1 < n_steps:
            for i, history in enumerate(world.histories):
                increments = simulate_requests(
                    history, int(world_rng.poisson(arrival_rate)), world_rng)
                world.mu[i] = refresh_period(history, increments)
    for lane in lanes.values():
        if n_steps:
            lane.log.q_final = lane.remaining
        lane.log.finalize()
    return {key: lane.log for key, lane in lanes.items()}


# --- Reference control and geometry paths --------------------------------
#
# Brute-force and Monte-Carlo counterparts of the package's closed forms:
# the control-dependent bracket of the backward equation with a convexity
# audit of the water-filling control, and sampled interference and rate.

def instantaneous_cost(p, remaining, x, rate: float, overlap: float,
                       params: CostParams):
    """Running cost of one station/content state, or of arrays of states,
    through the package's running cost; propagates the barrier sentinel
    instead of raising."""
    out = running_cost(np.asarray(p, dtype=float), remaining,
                       rate * np.asarray(x, dtype=float), overlap, params)
    return float(out) if np.ndim(out) == 0 else out


def control_bracket(p, x: float, rate: float, overlap: float, dq_v: float,
                    remaining: float, costs: CostParams):
    """Control-dependent part of the backward equation's minimand:
    running cost plus the storage-drift term ``(e - L p) v_Q``."""
    drift = (costs.discard_rate - costs.content_size * np.asarray(p, dtype=float)) * dq_v
    return running_cost(p, remaining, rate * x, overlap, costs) + drift


def audited_optimal_control(x: float, rate: float, overlap: float, dq_v: float,
                            remaining: float, costs: CostParams,
                            config: SolverConfig,
                            control_step: float = 1e-3) -> tuple[float, int]:
    """Closed-form control with a convexity audit of the sampled bracket.

    Evaluates the bracket on the admissible control grid, counts second
    differences below ``-1e-8``, and falls back to the grid-search infimum at
    audited states where convexity fails (none are expected: the barrier's
    curvature is strictly positive). Returns ``(control, violations)``.
    """
    p_cap = config.p_max(costs.backhaul, costs.content_size)
    # Uniform grid with spacing as close to control_step as the cap allows;
    # uneven trailing spacing would corrupt the second-difference audit.
    n_points = max(2, int(round(p_cap / control_step)) + 1)
    grid = np.linspace(0.0, p_cap, n_points)
    values = control_bracket(grid, x, rate, overlap, dq_v, remaining, costs)
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    violations = int(np.sum(second < -1e-8))
    active, scale = control_scale(np.asarray(rate * x), np.asarray(dq_v), config)
    p_star = float(optimal_control(active, scale, overlap, costs.backhaul,
                                   costs.content_size, p_cap))
    if violations:
        log.warning("control bracket convexity violated at %d grid points; "
                    "using grid-search infimum", violations)
        p_star = float(grid[int(np.argmin(values))])
    return p_star, violations


def monte_carlo_interference(pattern: np.ndarray, user_xy, cfg: GeometryConfig,
                             p_a: float, rng: np.random.Generator,
                             n_samples: int) -> np.ndarray:
    """``n_samples`` independent samples of the aggregate interference power
    at ``user_xy`` from the stations of an ``(n, 2)`` position array.

    Stations inside the reception ball are kept independently with
    probability ``p_a`` (dormant stations do not transmit); each retained
    station contributes ``P * min(1, d^-alpha) * g`` with ``g ~ Exp(1)``
    Rayleigh power fading. The thinning and fading of all samples are drawn
    in one array each. Returns raw milliwatts; the sectored-beam factor is
    applied downstream when forming an SINR.
    """
    if not 0.0 <= p_a <= 1.0:
        raise ConfigurationError("p_a must lie in [0, 1]")
    user = np.asarray(user_xy, dtype=float)
    d = np.hypot(pattern[:, 0] - user[0], pattern[:, 1] - user[1])
    gains = path_loss(d[d <= cfg.reception_radius_km], cfg.path_loss_alpha)
    active = rng.random((n_samples, gains.size)) < p_a
    fading = rng.exponential(1.0, (n_samples, gains.size))
    return cfg.tx_power_mw * (active * fading) @ gains


def average_rate_monte_carlo(model: RateModel, cfg: GeometryConfig,
                             rng: np.random.Generator, n_samples: int = 10 ** 6) -> float:
    """Monte-Carlo estimate of :func:`average_rate` over fading draws.

    Validation path for the quadrature; same SINR structure, random fading.
    """
    denom = model.noise_term + model.interference_normalized * cfg.beam_gain_factor
    if denom <= 0:
        raise ConfigurationError("degenerate SINR: zero noise and interference")
    signal = (cfg.num_antennas * cfg.tx_power_mw
              * path_loss(model.serving_distance_km, cfg.path_loss_alpha))
    g = rng.exponential(1.0, n_samples)
    return float(np.mean(np.log1p(signal * g / denom)))


# --- Reference backward/forward passes -----------------------------------
#
# The level steps of the coupled solver as first written: every level
# evaluates the water-filling control in one expression, calls the
# package's cost formulas, allocates its upwind differences afresh, solves
# the diffusion with LAPACK and checks the density mass as it goes. The
# package checks once on entry and reuses buffers; the arithmetic must stay
# the same, so its fields equal these bit for bit.

def _reference_upwind_advection(v, drift, step, axis):
    sl = [slice(None)] * v.ndim

    def shifted(lo, hi):
        s = sl.copy()
        s[axis] = slice(lo, hi)
        return tuple(s)

    diff = np.diff(v, axis=axis) / step
    fwd = np.zeros_like(v)
    bwd = np.zeros_like(v)
    fwd[shifted(None, -1)] = diff
    bwd[shifted(1, None)] = diff
    return np.where(drift > 0, drift * fwd, drift * bwd)


def _reference_dq_centered(v, dq):
    out = np.empty_like(v)
    out[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dq)
    out[:, 0] = (v[:, 1] - v[:, 0]) / dq
    out[:, -1] = (v[:, -1] - v[:, -2]) / dq
    return out


def reference_diffusion_band(nx, dx, dt, eta):
    c = dt * eta ** 2 / (2.0 * dx ** 2)
    ab = np.zeros((3, nx))
    ab[0, 1:] = -c
    ab[2, :-1] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = 1.0 + c
    ab[1, -1] = 1.0 + c
    return ab


def _reference_control(x, rate, overlap, dq_v, backhaul, content_size, config):
    # The water-filling control as the backward pass first wrote it, in one
    # expression per level.
    active = dq_v > config.grad_eps
    denom = rate * x * np.where(active, dq_v, 1.0)
    raw = (backhaul - (1.0 + overlap) / denom) / content_size
    return np.where(active, raw.clip(0.0, config.p_max(backhaul, content_size)),
                    0.0)


def reference_hjb_backward(m, problem, grid, config):
    from mfcache.costs import backhaul_cost, mf_overlap, storage_cost
    from mfcache.errors import SolverError

    c = problem.costs
    nt, nx, nq = grid.shape
    v = np.empty(grid.shape)
    p = np.empty(grid.shape)
    v[-1] = config.terminal_value
    x_col = grid.x[:, None]
    bx = problem.reversion_rate * (problem.mu - x_col) * np.ones((1, nq))
    psi = storage_cost(grid.q, c.storage, c.gamma)[None, :]
    ab = reference_diffusion_band(nx, grid.dx, grid.dt, problem.volatility)
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    inverse = np.linalg.inv(dense)
    overlap_lag = 0.0
    for level in range(nt - 1, -1, -1):
        rate = problem.rate
        dqv = _reference_dq_centered(v[level], grid.dq)
        p_lvl = _reference_control(x_col, rate, overlap_lag, dqv,
                                   c.backhaul, c.content_size, config)
        overlap = mf_overlap(m[level], p_lvl, grid.cell_area, c.storage,
                             c.similar_count, problem.neighbor_count)
        p_lvl = _reference_control(x_col, rate, overlap, dqv,
                                   c.backhaul, c.content_size, config)
        p[level] = p_lvl
        overlap_lag = overlap
        if level == 0:
            break
        source = (backhaul_cost(p_lvl, c.backhaul, c.content_size)
                  * (1.0 + overlap) / (rate * x_col) + psi)
        bq = c.discard_rate - c.content_size * p_lvl
        adv = (_reference_upwind_advection(v[level], bx, grid.dx, axis=0)
               + _reference_upwind_advection(v[level], bq, grid.dq, axis=1))
        rhs = v[level] + grid.dt * (source + adv)
        v[level - 1] = inverse @ rhs
        if not np.isfinite(v[level - 1]).all():
            raise SolverError(f"non-finite values at t index {level - 1}")
    return v, p


def reference_fpk_forward(p, m0, problem, grid):
    from mfcache.errors import SolverError

    c = problem.costs
    nt = grid.shape[0]
    dt, dx, dq = grid.dt, grid.dx, grid.dq
    diff = problem.volatility ** 2 / 2.0
    x_faces = (grid.x[:-1] + grid.x[1:]) / 2.0
    bxf = problem.reversion_rate * (problem.mu - x_faces)[:, None]
    bxf_pos = np.maximum(bxf, 0.0)
    bxf_neg = np.minimum(bxf, 0.0)
    m = np.empty(grid.shape)
    m[0] = m0
    for level in range(nt - 1):
        cur = m[level]
        flux_x = bxf_pos * cur[:-1, :] + bxf_neg * cur[1:, :]
        if diff > 0.0:
            flux_x = flux_x - diff * (cur[1:, :] - cur[:-1, :]) / dx
        p_face = (p[level][:, :-1] + p[level][:, 1:]) / 2.0
        bqf = c.discard_rate - c.content_size * p_face
        flux_q = np.maximum(bqf, 0.0) * cur[:, :-1] + np.minimum(bqf, 0.0) * cur[:, 1:]
        nxt = cur.copy()
        nxt[:-1, :] -= dt / dx * flux_x
        nxt[1:, :] += dt / dx * flux_x
        nxt[:, :-1] -= dt / dq * flux_q
        nxt[:, 1:] += dt / dq * flux_q
        m[level + 1] = nxt
        mass = nxt.sum() * grid.cell_area
        if abs(mass - 1.0) > 1e-6 or nxt.min() < -1e-12:
            raise SolverError(f"forward pass failed at t index {level + 1}")
    return m


def reference_solve_mfe(problem, grid, config):
    """Fixed point over the reference passes: full Picard sweeps whose
    density step is multiplied by ``config.damping`` after every rise of the
    residual; returns ``(v, m, p, residual_history)``."""
    nt = grid.shape[0]
    m_prev = np.repeat(np.asarray(problem.m0, dtype=float)[None, :, :], nt, axis=0)
    v_prev = np.zeros(grid.shape)
    residuals = []
    v, p, m = v_prev, np.zeros(grid.shape), m_prev
    step = 1.0
    for _ in range(config.max_iterations):
        v, p = reference_hjb_backward(m_prev, problem, grid, config)
        m_new = reference_fpk_forward(p, problem.m0, problem, grid)
        m = step * m_new + (1.0 - step) * m_prev
        residual = max(float(np.abs(v - v_prev).max()),
                       float(np.abs(m - m_prev).max()))
        if residuals and residual > residuals[-1]:
            step *= config.damping
        residuals.append(residual)
        v_prev, m_prev = v, m
        if residual < config.tolerance:
            break
    return v, m, p, residuals

"""Shared test oracles and helpers, kept independent of the package paths
they are used to check."""

from __future__ import annotations

import numpy as np


def naive_crp_distinct(n_requests: int, theta: float, nu: float,
                       rng: np.random.Generator) -> int:
    """Reference two-parameter seating process, one categorical draw per
    arrival; returns the number of distinct contents requested."""
    counts: list[int] = []
    total = 0
    for _ in range(n_requests):
        k = len(counts)
        if rng.random() < (nu * k + theta) / (total + theta):
            counts.append(1)
        else:
            weights = np.asarray(counts, dtype=float) - nu
            j = rng.choice(k, p=weights / weights.sum())
            counts[j] += 1
        total += 1
    return len(counts)


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


class ConstantPolicy:
    """Caches a fixed fraction of every content at every step."""

    def __init__(self, level: float):
        self.level = level

    def __call__(self, ctx, rng=None):
        return np.full(ctx.x_hat.shape, self.level)


# --- Reference backward/forward passes -----------------------------------
#
# The level steps of the coupled solver as first written: every level calls
# the validating public cost and control functions, allocates its upwind
# differences afresh and checks the density mass as it goes. The package
# hoists that validation out of the level loop and reuses buffers; the
# arithmetic must stay the same, so its fields equal these bit for bit.

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


def _reference_diffusion_factor(nx, dx, dt, eta):
    if eta == 0.0:
        return None
    c = dt * eta ** 2 / (2.0 * dx ** 2)
    ab = np.zeros((3, nx))
    ab[0, 1:] = -c
    ab[2, :-1] = -c
    ab[1, :] = 1.0 + 2.0 * c
    ab[1, 0] = 1.0 + c
    ab[1, -1] = 1.0 + c
    return ab


def reference_hjb_backward(m, problem, grid, config):
    from scipy.linalg import solve_banded

    from mfcache.costs import backhaul_cost, mf_overlap, storage_cost
    from mfcache.errors import SolverError
    from mfcache.solver import optimal_control

    c = problem.costs
    nt, nx, nq = grid.shape
    v = np.empty(grid.shape)
    p = np.empty(grid.shape)
    v[-1] = config.terminal_value
    x_col = grid.x[:, None]
    bx = problem.reversion_rate * (problem.mu - x_col) * np.ones((1, nq))
    psi = storage_cost(grid.q, c.storage, c.gamma)[None, :]
    ab = _reference_diffusion_factor(nx, grid.dx, grid.dt, problem.volatility)
    overlap_lag = 0.0
    for level in range(nt - 1, -1, -1):
        rate = float(problem.rate_path[level])
        dqv = _reference_dq_centered(v[level], grid.dq)
        p_lvl = optimal_control(x_col, rate, overlap_lag, dqv,
                                c.backhaul, c.content_size, config)
        overlap = mf_overlap(m[level], p_lvl, grid.cell_area, c.storage,
                             c.similar_count, problem.neighbor_count)
        p_lvl = optimal_control(x_col, rate, overlap, dqv,
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
        v[level - 1] = rhs if ab is None else solve_banded((1, 1), ab, rhs)
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
    """Damped fixed point over the reference passes; returns
    ``(v, m, p, residual_history)``."""
    nt = grid.shape[0]
    m_prev = np.repeat(np.asarray(problem.m0, dtype=float)[None, :, :], nt, axis=0)
    v_prev = np.zeros(grid.shape)
    residuals = []
    v, p, m = v_prev, np.zeros(grid.shape), m_prev
    for _ in range(config.max_iterations):
        v, p = reference_hjb_backward(m_prev, problem, grid, config)
        m_new = reference_fpk_forward(p, problem.m0, problem, grid)
        m = config.damping * m_new + (1.0 - config.damping) * m_prev
        residual = max(float(np.abs(v - v_prev).max()),
                       float(np.abs(m - m_prev).max()))
        residuals.append(residual)
        v_prev, m_prev = v, m
        if residual < config.tolerance:
            break
    return v, m, p, residuals

"""Coupled backward value / forward density solver for the caching game.

One content class is reduced to a representative station with state
``(x, Q)`` — instantaneous request probability and remaining storage — whose
population distribution ``m_t(x, Q)`` evolves forward under the chosen
control while the cost-to-go ``v(t, x, Q)`` is filled in backward:

    backward:  0 = v_t + inf_p [ J(p) + (eta^2/2) v_xx
                                 + (e - L p) v_Q + r (mu - x) v_x ]
    forward:   0 = m_t + div( (r (mu - x), e - L p) m ) - (eta^2/2) m_xx

The minimizing control has a water-filling closed form with the backhaul
budget as the water level,

    p* = (1/L) [ B - (1 + I_r) / (rate * x * v_Q) ]+,

guarded to zero when ``v_Q`` is non-positive or vanishing (the bracket is
then increasing in ``p``). The two equations are coupled through the
mean-field overlap ``I_r`` and iterated to a damped fixed point.

Discretization: uniform tensor grid; explicit upwind differencing for both
drifts in the backward pass (one-sided inward stencils at boundaries, zero
advection where the drift pushes against a boundary, matching the reflected
state) and implicit centered differencing for the diffusion; conservative
finite-volume upwind fluxes with zero-flux boundaries in the forward pass,
so total mass is preserved to round-off and nonnegativity is maintained
under the step-size condition checked on entry.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .costs import (
    CostParams,
    backhaul_cost,
    check_density,
    log_barrier,
    overlap_integral,
    storage_cost,
)
from .demand import FLOOR_EPS
from .errors import ConfigurationError, SolverError

__all__ = [
    "Grid",
    "ScalarField",
    "SolverConfig",
    "MfgProblem",
    "MfeSolution",
    "optimal_control",
    "control_bracket",
    "audited_optimal_control",
    "hjb_backward",
    "fpk_forward",
    "solve_mfe",
    "gaussian_initial_density",
]

log = logging.getLogger(__name__)

DENSITY_MASS_TOL = 1e-6


@dataclass(frozen=True)
class Grid:
    """Uniform discretization of time x popularity x remaining storage."""

    t: np.ndarray
    x: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        for name, nodes in (("t", self.t), ("x", self.x), ("q", self.q)):
            arr = np.asarray(nodes, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.size < 3:
                raise ConfigurationError(f"grid.{name} needs at least 3 nodes")
            steps = np.diff(arr)
            if steps.min() <= 0:
                raise ConfigurationError(f"grid.{name} must be strictly increasing")
            if np.ptp(steps) > 1e-9 * steps[0]:
                raise ConfigurationError(f"grid.{name} must be uniform")

    @classmethod
    def make(cls, nt: int, nx: int, nq: int, horizon: float,
             storage: float, x_min: float = FLOOR_EPS) -> "Grid":
        if horizon <= 0 or storage <= 0 or not 0 < x_min < 1:
            raise ConfigurationError("grid bounds must be positive with x_min in (0, 1)")
        return cls(
            t=np.linspace(0.0, horizon, nt),
            x=np.linspace(x_min, 1.0, nx),
            q=np.linspace(0.0, storage, nq),
        )

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def dx(self) -> float:
        return float(self.x[1] - self.x[0])

    @property
    def dq(self) -> float:
        return float(self.q[1] - self.q[0])

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.t.size, self.x.size, self.q.size)

    @property
    def cell_area(self) -> float:
        """Quadrature weight of one (x, q) node under the cell rule."""
        return self.dx * self.dq

    def check_cfl(self, max_drift_x: float, max_drift_q: float, eta: float) -> None:
        """Reject step sizes for which the explicit upwind/diffusion update
        is not monotone (advective plus diffusive Courant number > 1)."""
        courant = self.dt * (abs(max_drift_x) / self.dx
                             + abs(max_drift_q) / self.dq
                             + eta ** 2 / self.dx ** 2)
        if courant > 1.0:
            raise ConfigurationError(
                f"grid violates the step-size condition (courant={courant:.3f} > 1); "
                "refine dt or coarsen the state grid"
            )


@dataclass(frozen=True)
class ScalarField:
    """Values sampled on a grid, tagged by their role.

    ``density`` fields are nonnegative with unit mass at every time level;
    ``control`` fields live in ``[0, p_max]``; ``value`` fields are finite.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", arr)
        if self.kind not in ("value-function", "density", "control"):
            raise ConfigurationError(f"unknown field kind {self.kind!r}")

    def validate(self, grid: Grid, p_max: float | None = None) -> None:
        v = self.values
        if v.shape != grid.shape:
            raise ConfigurationError("field shape does not match the grid")
        if self.kind == "value-function":
            if not np.isfinite(v).all():
                raise SolverError("value function contains non-finite entries")
        elif self.kind == "density":
            if v.min() < -1e-12:
                raise SolverError("density has negative entries")
            mass = v.reshape(v.shape[0], -1).sum(axis=1) * grid.cell_area
            drift = np.abs(mass - 1.0).max()
            if drift > DENSITY_MASS_TOL:
                raise SolverError(f"density mass drifts by {drift:.3e}")
        elif self.kind == "control":
            if v.min() < 0 or (p_max is not None and v.max() > p_max + 1e-12):
                raise SolverError("control leaves its admissible range")


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs of the fixed-point solve."""

    tolerance: float = 1e-4
    max_iterations: int = 200
    damping: float = 0.5
    terminal_value: float = 0.0
    grad_eps: float = 1e-8
    backhaul_margin_scale: float = 1e-3  # eps_b = scale * B keeps the barrier finite

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ConfigurationError("solver.tolerance must be > 0")
        if self.max_iterations < 1:
            raise ConfigurationError("solver.max_iterations must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ConfigurationError("solver.damping must lie in (0, 1]")
        if self.grad_eps <= 0:
            raise ConfigurationError("solver.grad_eps must be > 0")
        if self.backhaul_margin_scale <= 0:
            raise ConfigurationError("solver.backhaul_margin_scale must be > 0")

    def p_max(self, backhaul: float, content_size: float) -> float:
        """Largest admissible cache fraction: keeps the barrier finite and
        never exceeds a whole file."""
        return min(1.0, max(0.0, backhaul * (1.0 - self.backhaul_margin_scale)
                            / content_size))


@dataclass(frozen=True)
class MfgProblem:
    """Reduced per-content problem fed to the solver.

    ``rate_path`` holds the exogenous wireless rate at every time node (the
    rate is dropped from the population state and treated as a known path);
    ``neighbor_count`` scales the mean-field overlap to the expected number
    of other stations in the request region.
    """

    mu: float
    reversion_rate: float
    volatility: float
    costs: CostParams
    rate_path: np.ndarray
    m0: np.ndarray
    neighbor_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rate_path", np.asarray(self.rate_path, dtype=float))
        object.__setattr__(self, "m0", np.asarray(self.m0, dtype=float))
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigurationError("problem.mu must lie in [0, 1]")
        if self.reversion_rate < 0 or self.volatility < 0:
            raise ConfigurationError("problem rates must be >= 0")
        if (self.rate_path <= 0).any():
            raise ConfigurationError("rate path must be strictly positive")
        if self.neighbor_count < 0:
            raise ConfigurationError("problem.neighbor_count must be >= 0")


@dataclass
class MfeSolution:
    """Converged (or best-effort) equilibrium triple plus diagnostics."""

    v: ScalarField
    m: ScalarField
    p: ScalarField
    grid: Grid
    iterations: int
    residual_history: list[float]
    converged: bool
    p_max: float

    def __post_init__(self) -> None:
        if self.converged and self.residual_history:
            if not np.isfinite(self.residual_history).all():
                raise SolverError("converged solution with non-finite residuals")


def optimal_control(x, rate, overlap, dq_v, backhaul: float, content_size: float,
                    config: SolverConfig):
    """Water-filling minimizer of the backward equation's bracket.

    ``p* = (1/L) [B - (1 + I_r) / (rate * x * v_Q)]+`` clamped to the
    admissible range; zero whenever ``v_Q`` is negative or smaller than the
    degeneracy guard (the bracket is then monotone increasing in ``p``).
    """
    x_arr = np.asarray(x, dtype=float)
    dqv_arr = np.asarray(dq_v, dtype=float)
    rate_arr = np.asarray(rate, dtype=float)
    if np.any(x_arr < FLOOR_EPS):
        raise ConfigurationError("optimal_control requires x >= floor_eps")
    if np.any(rate_arr <= 0):
        raise ConfigurationError("optimal_control requires rate > 0")
    p_cap = config.p_max(backhaul, content_size)
    active, denom = _water_fill_terms(rate_arr * x_arr, dqv_arr, config.grad_eps)
    p = _water_fill(active, denom, overlap, backhaul, content_size, p_cap)
    return float(p) if np.ndim(p) == 0 else p


def _water_fill_terms(rate_x, dq_v: np.ndarray, grad_eps: float):
    """Overlap-free part of :func:`optimal_control`: the mask of states whose
    ``v_Q`` clears the degeneracy guard, and the denominator
    ``rate * x * v_Q`` (``rate_x`` is the product ``rate * x``) with ``v_Q``
    replaced by 1 outside the mask."""
    active = dq_v > grad_eps
    return active, rate_x * np.where(active, dq_v, 1.0)


def _water_fill(active: np.ndarray, denom: np.ndarray, overlap: float,
                backhaul: float, content_size: float, p_cap: float) -> np.ndarray:
    """Unchecked core of :func:`optimal_control` on the terms of
    :func:`_water_fill_terms`."""
    raw = (backhaul - (1.0 + overlap) / denom) / content_size
    return np.where(active, raw.clip(0.0, p_cap), 0.0)


def control_bracket(p, x: float, rate: float, overlap: float, dq_v: float,
                    remaining: float, costs: CostParams):
    """Control-dependent part of the backward equation's minimand:
    running cost plus the storage-drift term ``(e - L p) v_Q``."""
    phi = backhaul_cost(p, costs.backhaul, costs.content_size)
    psi = storage_cost(remaining, costs.storage, costs.gamma)
    drift = (costs.discard_rate - costs.content_size * np.asarray(p, dtype=float)) * dq_v
    return phi * (1.0 + overlap) / (rate * x) + psi + drift


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
    p_star = optimal_control(x, rate, overlap, dq_v, costs.backhaul,
                             costs.content_size, config)
    if violations:
        log.warning("control bracket convexity violated at %d grid points; "
                    "using grid-search infimum", violations)
        p_star = float(grid[int(np.argmin(values))])
    return p_star, violations


class _Upwind:
    """Advection term ``drift * dv`` of one time level along one axis, with
    the one-sided difference chosen by the drift sign (forward where
    positive, so the stencil reaches into the domain of dependence of the
    reversed-time transport).

    At a boundary whose drift points out of the domain the term is zero: the
    underlying state is reflected there, matching the zero-flux treatment of
    the forward equation. Where the boundary drift points inward the
    available one-sided difference is already the upwind one.

    The buffers are reused from level to level, so the returned array is
    overwritten by the next call.
    """

    def __init__(self, shape: tuple[int, int], axis: int, step: float):
        nx, nq = shape
        size = nx * nq
        self._lag = nq if axis == 0 else 1   # flat distance to the next node
        self._step = step
        # Differences of the flattened level, padded with zeros at both
        # ends: entry k + lag holds (v[k + lag] - v[k]) / step, so the
        # forward and backward differences are the two windows of length
        # size, and the outflow end of each stays 0. Along Q the flat
        # difference also spans the end of one row and the start of the
        # next; those entries are zeroed after every update.
        padded = np.zeros(size + self._lag)
        self._diff = padded[self._lag:size]
        self._row_ends = padded[nq:size:nq] if axis == 1 else None
        self._fwd = padded[self._lag:].reshape(shape)
        self._bwd = padded[:size].reshape(shape)
        self._out = np.empty(shape)

    def __call__(self, v: np.ndarray, drift: np.ndarray,
                 forward: np.ndarray) -> np.ndarray:
        """``forward`` is the mask ``drift > 0``."""
        flat = v.reshape(-1)
        np.subtract(flat[self._lag:], flat[:-self._lag], out=self._diff)
        np.divide(self._diff, self._step, out=self._diff)
        if self._row_ends is not None:
            self._row_ends[...] = 0.0
        return np.multiply(drift, np.where(forward, self._fwd, self._bwd),
                           out=self._out)


def _dq_centered(v: np.ndarray, dq: float, out: np.ndarray) -> np.ndarray:
    """Storage derivative of one time level, written into ``out``: centered
    inside, one-sided at the storage boundaries."""
    # Centered differences on the flattened level are contiguous; the ones
    # that straddle two rows land on the boundary columns, overwritten below.
    flat, inner = v.reshape(-1), out.reshape(-1)[1:-1]
    np.subtract(flat[2:], flat[:-2], out=inner)
    np.divide(inner, 2.0 * dq, out=inner)
    np.subtract(v[:, 1], v[:, 0], out=out[:, 0])
    np.subtract(v[:, -1], v[:, -2], out=out[:, -1])
    edges = out[:, ::out.shape[1] - 1]
    np.divide(edges, dq, out=edges)
    return out


def _diffusion_factor(nx: int, dx: float, dt: float, eta: float):
    """Banded LHS of the implicit diffusion solve ``(I - dt D Lxx) v = rhs``
    with reflecting ends; ``None`` when there is no diffusion."""
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


def hjb_backward(m_values: np.ndarray, problem: MfgProblem, grid: Grid,
                 config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fill the value function backward from the terminal condition and
    record the minimizing control at every node.

    The inputs are validated once on entry, the density on all levels at
    once; the level loop then runs the unchecked formula cores. At each time
    level the storage gradient of the already-computed later
    level drives the closed-form control; the overlap term is resolved by a
    one-sweep fixed point (control from the lagged overlap, overlap from
    that control, control refreshed) and the level is then stepped with
    explicit upwind drifts, an implicit diffusion solve in the popularity
    direction, and the running cost as source.
    """
    c = problem.costs
    nt, nx, nq = grid.shape
    m = np.asarray(m_values, dtype=float)
    if m.shape != grid.shape:
        raise ConfigurationError("density shape does not match the grid")
    if problem.rate_path.size != nt:
        raise ConfigurationError("rate path length must match the time grid")
    check_density(m, grid.cell_area, DENSITY_MASS_TOL)
    if np.any(grid.x < FLOOR_EPS):
        raise ConfigurationError("optimal_control requires x >= floor_eps")
    if np.any(problem.rate_path <= 0):
        raise ConfigurationError("optimal_control requires rate > 0")
    p_cap = config.p_max(c.backhaul, c.content_size)
    max_bq = max(c.discard_rate, abs(c.discard_rate - c.content_size * p_cap))
    max_bx = problem.reversion_rate * max(problem.mu - grid.x[0],
                                          1.0 - problem.mu, 0.0)
    grid.check_cfl(max_bx, max_bq, problem.volatility)

    v = np.empty(grid.shape)
    p = np.empty(grid.shape)
    v[-1] = config.terminal_value
    x_col = grid.x[:, None]
    bx = problem.reversion_rate * (problem.mu - x_col) * np.ones((1, nq))
    bx_forward = bx > 0
    psi = storage_cost(grid.q, c.storage, c.gamma)[None, :]
    ab = _diffusion_factor(nx, grid.dx, grid.dt, problem.volatility)
    advect_x = _Upwind((nx, nq), 0, grid.dx)
    advect_q = _Upwind((nx, nq), 1, grid.dq)
    dqv = np.empty((nx, nq))
    dt, dq, cell_area = grid.dt, grid.dq, grid.cell_area
    backhaul, size, discard = c.backhaul, c.content_size, c.discard_rate
    overlap_lag = 0.0

    for level in range(nt - 1, -1, -1):
        rate = float(problem.rate_path[level])
        rate_x = rate * x_col
        _dq_centered(v[level], dq, dqv)
        active, denom = _water_fill_terms(rate_x, dqv, config.grad_eps)
        p_lvl = _water_fill(active, denom, overlap_lag, backhaul, size, p_cap)
        overlap = overlap_integral(m[level], p_lvl, cell_area, c.storage,
                                   c.similar_count, problem.neighbor_count)
        p_lvl = _water_fill(active, denom, overlap, backhaul, size, p_cap)
        p[level] = p_lvl
        overlap_lag = overlap
        if level == 0:
            break

        source = (log_barrier(p_lvl, backhaul, size)
                  * (1.0 + overlap) / rate_x + psi)
        bq = discard - size * p_lvl
        adv = (advect_x(v[level], bx, bx_forward)
               + advect_q(v[level], bq, bq > 0))
        rhs = v[level] + dt * (source + adv)
        if ab is None:
            v[level - 1] = rhs
        else:
            # A non-finite right-hand side is caught by the check below.
            v[level - 1] = solve_banded((1, 1), ab, rhs, check_finite=False)
        if not np.isfinite(v[level - 1]).all():
            raise SolverError(
                f"backward pass produced non-finite values at t index {level - 1} "
                f"(rate={rate:.3e}, overlap={overlap:.3e})"
            )
    return v, p


def fpk_forward(p_values: np.ndarray, m0: np.ndarray, problem: MfgProblem,
                grid: Grid, config: SolverConfig) -> np.ndarray:
    """Transport the population density forward under the given control.

    Conservative finite-volume update: upwind advective fluxes and centered
    diffusive fluxes across cell interfaces, zero flux through every
    boundary. Interior fluxes cancel in the total, so mass is conserved to
    round-off; under the step-size condition all update coefficients are
    nonnegative, so no negative densities appear. Mass and sign are checked
    on all levels at once after the pass; the error names the first failing
    level.
    """
    c = problem.costs
    nt, nx, nq = grid.shape
    p = np.asarray(p_values, dtype=float)
    if p.shape != grid.shape:
        raise ConfigurationError("control shape does not match the grid")
    start = np.asarray(m0, dtype=float)
    if start.shape != (nx, nq):
        raise ConfigurationError("initial density shape does not match the grid")
    if start.min() < 0:
        raise ConfigurationError("initial density must be nonnegative")
    mass0 = start.sum() * grid.cell_area
    if abs(mass0 - 1.0) > DENSITY_MASS_TOL:
        raise ConfigurationError("initial density must integrate to 1 on the grid")

    p_cap = config.p_max(c.backhaul, c.content_size)
    max_bq = max(c.discard_rate, abs(c.discard_rate - c.content_size * p_cap))
    max_bx = problem.reversion_rate * max(problem.mu - grid.x[0],
                                          1.0 - problem.mu, 0.0)
    grid.check_cfl(max_bx, max_bq, problem.volatility)

    dt, dx, dq = grid.dt, grid.dx, grid.dq
    dt_dx, dt_dq = dt / dx, dt / dq
    diff = problem.volatility ** 2 / 2.0
    # Interface drift in x is control-free; precompute once.
    x_faces = (grid.x[:-1] + grid.x[1:]) / 2.0
    bxf = problem.reversion_rate * (problem.mu - x_faces)[:, None]
    bxf_pos = np.maximum(bxf, 0.0)
    bxf_neg = np.minimum(bxf, 0.0)

    m = np.empty(grid.shape)
    m[0] = start
    # The Q fluxes are formed on flattened levels, where neighbouring nodes
    # are contiguous; the flat interfaces that join the end of one x row to
    # the start of the next carry no flux. They are set to +0.0 for the
    # outflow update and to -0.0 for the inflow update, the two values that
    # leave every density, signed zeros included, unchanged.
    row_joins = slice(nq - 1, None, nq)

    for level in range(nt - 1):
        cur = m[level]
        # Advective flux through x interfaces (upwind).
        flux_x = bxf_pos * cur[:-1, :] + bxf_neg * cur[1:, :]
        if diff > 0.0:
            flux_x = flux_x - diff * (cur[1:, :] - cur[:-1, :]) / dx
        # Advective flux through q interfaces; interface control is the mean
        # of the adjacent nodes of this level's control surface.
        cur_flat, p_flat = cur.reshape(-1), p[level].reshape(-1)
        p_face = (p_flat[:-1] + p_flat[1:]) / 2.0
        bqf = c.discard_rate - c.content_size * p_face
        flux_q = (np.maximum(bqf, 0.0) * cur_flat[:-1]
                  + np.minimum(bqf, 0.0) * cur_flat[1:])

        nxt = m[level + 1]
        nxt[...] = cur
        out_x = dt_dx * flux_x
        nxt[:-1, :] -= out_x
        nxt[1:, :] += out_x
        nxt_flat = nxt.reshape(-1)
        out_q = dt_dq * flux_q
        out_q[row_joins] = 0.0
        nxt_flat[:-1] -= out_q
        out_q[row_joins] = -0.0
        nxt_flat[1:] += out_q

    later = m[1:].reshape(nt - 1, -1)
    drift = later.sum(axis=1) * grid.cell_area - 1.0
    lost = np.abs(drift) > DENSITY_MASS_TOL
    negative = later.min(axis=1) < -1e-12
    if lost.any() or negative.any():
        level = int(np.argmax(lost | negative)) + 1
        if lost[level - 1]:
            raise SolverError(f"forward pass lost mass at t index {level}: "
                              f"{drift[level - 1]:+.3e}")
        raise SolverError(f"forward pass produced negative density at "
                          f"t index {level}")
    return m


def solve_mfe(problem: MfgProblem, grid: Grid, config: SolverConfig) -> MfeSolution:
    """Damped fixed point of the backward/forward pair.

    The density is initialized by holding the initial distribution constant
    in time; each sweep solves the backward equation against the current
    density, transports the density forward under the resulting control, and
    relaxes the density update. The iteration stops when both the value and
    the (damped) density move less than the tolerance in sup norm; on
    exhaustion the best iterate is returned flagged unconverged.
    """
    nt = grid.shape[0]
    m_prev = np.repeat(np.asarray(problem.m0, dtype=float)[None, :, :], nt, axis=0)
    v_prev = np.zeros(grid.shape)
    residuals: list[float] = []
    converged = False
    v = v_prev
    p = np.zeros(grid.shape)
    m = m_prev

    for iteration in range(1, config.max_iterations + 1):
        v, p = hjb_backward(m_prev, problem, grid, config)
        m_new = fpk_forward(p, problem.m0, problem, grid, config)
        m = config.damping * m_new + (1.0 - config.damping) * m_prev
        residual = max(float(np.abs(v - v_prev).max()),
                       float(np.abs(m - m_prev).max()))
        residuals.append(residual)
        v_prev, m_prev = v, m
        if residual < config.tolerance:
            converged = True
            break
    iterations = len(residuals)
    if not converged:
        log.warning("fixed point not converged after %d sweeps "
                    "(last residual %.3e)", iterations, residuals[-1])

    p_cap = config.p_max(problem.costs.backhaul, problem.costs.content_size)
    solution = MfeSolution(
        v=ScalarField(v, "value-function"),
        m=ScalarField(m, "density"),
        p=ScalarField(p, "control"),
        grid=grid,
        iterations=iterations,
        residual_history=residuals,
        converged=converged,
        p_max=p_cap,
    )
    solution.v.validate(grid)
    solution.m.validate(grid)
    solution.p.validate(grid, p_max=p_cap)
    return solution


def gaussian_initial_density(grid: Grid, x_mean: float, x_std: float,
                             q_mean: float, q_std: float) -> np.ndarray:
    """Truncated product Gaussian on the (x, q) grid, normalized to unit mass
    under the cell rule."""
    if x_std <= 0 or q_std <= 0:
        raise ConfigurationError("initial density widths must be > 0")
    gx = np.exp(-0.5 * ((grid.x - x_mean) / x_std) ** 2)
    gq = np.exp(-0.5 * ((grid.q - q_mean) / q_std) ** 2)
    m0 = gx[:, None] * gq[None, :]
    total = m0.sum() * grid.cell_area
    if total <= 0:
        raise ConfigurationError("initial density vanishes on the grid")
    return m0 / total

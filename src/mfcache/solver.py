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
then increasing in ``p``). Its one home is a pair: :func:`control_scale`
forms the guard and the scale ``rate * x * v_Q``, which are fixed for a
time level, and :func:`optimal_control` the water level from them and the
overlap, so the backward pass forms the scale once per level and the
control twice. The two equations are coupled through the mean-field
overlap ``I_r`` and iterated to a fixed point by full Picard sweeps, with
the density step shrunk only after a sweep whose residual rises (the
finite-difference scheme of Achdou & Capuzzo-Dolcetta, SIAM J. Numer.
Anal. 48(3), 2010).

Discretization: uniform tensor grid. The backward pass uses explicit upwind
differencing for both drifts (one-sided inward stencils at boundaries, zero
advection where the drift pushes against a boundary, matching the reflected
state) and implicit centered differencing for the diffusion. The diffusion
matrix is the same at every level, so its inverse is formed once per pass
and each level's implicit step is one matrix product; the values agree with
a LAPACK tridiagonal solve to round-off. The forward pass uses conservative
finite-volume upwind fluxes with zero-flux boundaries, so total mass is
preserved to round-off and nonnegativity is maintained under the step-size
condition checked on entry. Each pass checks its inputs once, on entry; the
level loop calls the control and the running cost and storage drift of
:mod:`.costs` unchecked.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .costs import (
    CostParams,
    check_density,
    mf_overlap,
    running_cost,
    storage_drift,
)
from .demand import FLOOR_EPS
from .errors import ConfigurationError, SolverError, require_finite

__all__ = [
    "Grid",
    "SolverConfig",
    "MfgProblem",
    "MfeSolution",
    "control_scale",
    "optimal_control",
    "hjb_backward",
    "fpk_forward",
    "solve_mfe",
    "gaussian_initial_density",
]

log = logging.getLogger(__name__)

# Densities the solver produces may dip this far below zero from round-off.
ROUND_OFF_FLOOR = -1e-12


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
        """Uniform grid on ``[0, horizon] x [x_min, 1] x [0, storage]``;
        bounds that span no interval fail the node checks."""
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
class SolverConfig:
    """Numerical knobs of the fixed-point solve."""

    tolerance: float = 1e-4
    max_iterations: int = 200
    damping: float = 0.5  # density step factor applied after a rising residual
    terminal_value: float = 0.0
    grad_eps: float = 1e-8
    backhaul_margin_scale: float = 1e-3  # eps_b = scale * B keeps the barrier finite

    def __post_init__(self) -> None:
        require_finite("solver", vars(self))
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

    ``rate`` is the exogenous wireless rate, finite and positive, held at
    every time node (the rate is dropped from the population state);
    ``neighbor_count`` scales the mean-field overlap to the expected number
    of other stations in the request region.
    """

    mu: float
    reversion_rate: float
    volatility: float
    costs: CostParams
    rate: float
    m0: np.ndarray
    neighbor_count: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "m0", np.asarray(self.m0, dtype=float))
        if not 0.0 <= self.mu <= 1.0:
            raise ConfigurationError("problem.mu must lie in [0, 1]")
        if self.reversion_rate < 0 or self.volatility < 0:
            raise ConfigurationError("problem rates must be >= 0")
        if not 0.0 < self.rate < math.inf:
            raise ConfigurationError("problem.rate must be finite and > 0")
        if self.neighbor_count < 0:
            raise ConfigurationError("problem.neighbor_count must be >= 0")


@dataclass
class MfeSolution:
    """Converged (or best-effort) equilibrium triple plus diagnostics.

    The fields are checked once, here: the value function is finite, the
    density is a density at every time level and the control lies in
    ``[0, p_max]``; a failure is a :class:`SolverError`.
    """

    v: np.ndarray
    m: np.ndarray
    p: np.ndarray
    grid: Grid
    iterations: int
    residual_history: list[float]
    converged: bool
    p_max: float

    def __post_init__(self) -> None:
        if self.converged and self.residual_history:
            if not np.isfinite(self.residual_history).all():
                raise SolverError("converged solution with non-finite residuals")
        if not np.isfinite(self.v).all():
            raise SolverError("value function contains non-finite entries")
        check_density(self.m, self.grid.cell_area, floor=ROUND_OFF_FLOOR,
                      error=SolverError, name="equilibrium density")
        if not ((self.p >= 0.0).all() and (self.p <= self.p_max + 1e-12).all()):
            raise SolverError("control leaves its admissible range")


def control_scale(rate_x, dq_v, config: SolverConfig):
    """The level-fixed part of the water-filling control: the mask ``v_Q >
    grad_eps`` of states with an active control and the scale ``rate * x *
    v_Q`` of the overlap term (``rate * x`` where the mask is off, so it
    never divides by zero). ``rate_x`` is the positive product ``rate * x``,
    ``(nx, 1)`` against ``v_Q`` of shape ``(nx, nq)`` in the backward pass.
    """
    active = dq_v > config.grad_eps
    return active, rate_x * np.where(active, dq_v, 1.0)


def optimal_control(active, scale, overlap, backhaul: float,
                    content_size: float, cap: float) -> np.ndarray:
    """Water-filling minimizer of the backward equation's bracket.

    ``p* = (1/L) [B - (1 + I_r) / (rate * x * v_Q)]+`` clamped to ``[0,
    cap]``, the admissible range (``SolverConfig.p_max``), from the mask
    and scale of :func:`control_scale`; zero wherever the mask is off
    (``v_Q`` negative or below the degeneracy guard: the bracket is then
    monotone increasing in ``p``).
    """
    raw = (backhaul - (1.0 + overlap) / scale) / content_size
    return np.where(active, raw.clip(0.0, cap), 0.0)


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


def _diffusion_inverse(nx: int, dx: float, dt: float, eta: float) -> np.ndarray:
    """Inverse of the implicit diffusion matrix ``I - dt D Lxx`` with
    reflecting ends, formed once per backward pass; the identity when there
    is no diffusion."""
    c = dt * eta ** 2 / (2.0 * dx ** 2)
    matrix = np.diag(np.full(nx, 1.0 + 2.0 * c))
    matrix[0, 0] = matrix[-1, -1] = 1.0 + c
    off = np.arange(nx - 1)
    matrix[off, off + 1] = matrix[off + 1, off] = -c
    return np.linalg.inv(matrix)


def solve_banded(inverse: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Apply the diffusion step, the inverse of :func:`_diffusion_inverse`,
    to the columns of ``rhs`` (one row per popularity node)."""
    return inverse @ rhs


def _check_step_size(problem: MfgProblem, grid: Grid,
                     config: SolverConfig) -> None:
    """Check the step-size condition at the largest drifts an admissible
    control can produce."""
    c = problem.costs
    p_cap = config.p_max(c.backhaul, c.content_size)
    max_bq = max(abs(storage_drift(p, c)) for p in (0.0, p_cap))
    max_bx = problem.reversion_rate * max(problem.mu - grid.x[0],
                                          1.0 - problem.mu, 0.0)
    grid.check_cfl(max_bx, max_bq, problem.volatility)


def hjb_backward(m_values: np.ndarray, problem: MfgProblem, grid: Grid,
                 config: SolverConfig) -> tuple[np.ndarray, np.ndarray]:
    """Fill the value function backward from the terminal condition and
    record the minimizing control at every node.

    The inputs are validated once on entry, the density on all levels at
    once (the rate is positive by construction of the problem); the
    level loop then calls the unchecked formulas of the control, overlap,
    running cost and storage drift. At each time level the storage gradient
    of the already-computed later level drives the closed-form control, whose
    scale is formed once for the level; the overlap term is resolved by a
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
    check_density(m, grid.cell_area)
    if np.any(grid.x < FLOOR_EPS):
        raise ConfigurationError("grid.x must be >= the observation floor "
                                 f"{FLOOR_EPS!r}")
    _check_step_size(problem, grid, config)

    v = np.empty(grid.shape)
    p = np.empty(grid.shape)
    v[-1] = config.terminal_value
    x_col = grid.x[:, None]
    bx = problem.reversion_rate * (problem.mu - x_col) * np.ones((1, nq))
    bx_forward = bx > 0
    inverse = _diffusion_inverse(nx, grid.dx, grid.dt, problem.volatility)
    advect_x = _Upwind((nx, nq), 0, grid.dx)
    advect_q = _Upwind((nx, nq), 1, grid.dq)
    dqv = np.empty((nx, nq))
    dt, dq, cell_area = grid.dt, grid.dq, grid.cell_area
    backhaul, size = c.backhaul, c.content_size
    rate = problem.rate
    rate_x = rate * x_col
    cap = config.p_max(backhaul, size)
    overlap_lag = 0.0

    for level in range(nt - 1, -1, -1):
        _dq_centered(v[level], dq, dqv)
        active, scale = control_scale(rate_x, dqv, config)
        p_lvl = optimal_control(active, scale, overlap_lag, backhaul, size, cap)
        overlap = mf_overlap(m[level], p_lvl, cell_area, c.storage,
                             c.similar_count, problem.neighbor_count)
        p_lvl = optimal_control(active, scale, overlap, backhaul, size, cap)
        p[level] = p_lvl
        overlap_lag = overlap
        if level == 0:
            break

        source = running_cost(p_lvl, grid.q, rate_x, overlap, c)
        bq = storage_drift(p_lvl, c)
        adv = (advect_x(v[level], bx, bx_forward)
               + advect_q(v[level], bq, bq > 0))
        rhs = v[level] + dt * (source + adv)
        # A non-finite right-hand side is caught by the check below.
        v[level - 1] = solve_banded(inverse, rhs)
        if not np.isfinite(v[level - 1]).all():
            raise SolverError(
                f"backward pass produced non-finite values at t index {level - 1} "
                f"(rate={rate:.3e}, overlap={overlap:.3e})"
            )
    return v, p


# Element-wise work over many time levels (the forward pass's storage
# drifts, the sweep's residual and relaxation) runs on blocks of time levels
# of at most this many bytes (or one level), so its temporaries stay small
# next to a grid field and its Python cost stays small next to the passes'.
_BLOCK_BYTES = 1 << 16


def _level_blocks(levels: int, level_bytes: int) -> list[slice]:
    """Consecutive blocks covering time levels ``[0, levels)``, each of at
    most ``_BLOCK_BYTES`` at ``level_bytes`` per level (or one level)."""
    size = max(1, _BLOCK_BYTES // level_bytes)
    return [slice(start, min(start + size, levels))
            for start in range(0, levels, size)]


def fpk_forward(p_values: np.ndarray, m0: np.ndarray, problem: MfgProblem,
                grid: Grid, config: SolverConfig) -> np.ndarray:
    """Transport the population density forward under the given control.

    Conservative finite-volume update: upwind advective fluxes and centered
    diffusive fluxes across cell interfaces, zero flux through every
    boundary. Interior fluxes cancel in the total, so mass is conserved to
    round-off; under the step-size condition all update coefficients are
    nonnegative, so no negative densities appear. The storage drifts at the
    interfaces depend on the control only and are formed a block of levels
    at a time. Mass and sign are checked on all levels at once after the
    pass; the error names the first failing level.
    """
    c = problem.costs
    nt, nx, nq = grid.shape
    p = np.asarray(p_values, dtype=float)
    if p.shape != grid.shape:
        raise ConfigurationError("control shape does not match the grid")
    start = np.asarray(m0, dtype=float)
    if start.shape != (nx, nq):
        raise ConfigurationError("initial density shape does not match the grid")
    check_density(start, grid.cell_area, name="initial density")
    _check_step_size(problem, grid, config)

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
    # A block's positive and negative Q-face drifts fit in _BLOCK_BYTES.
    p_rows = p.reshape(nt, -1)

    for block in _level_blocks(nt - 1, 2 * 8 * (nx * nq - 1)):
        # The drift at each Q face, under the mean of its two nodes' controls.
        bqf = storage_drift((p_rows[block, :-1] + p_rows[block, 1:]) / 2.0, c)
        bqf_pos = np.maximum(bqf, 0.0)
        bqf_neg = np.minimum(bqf, 0.0, out=bqf)
        for level, pos, neg in zip(range(block.start, block.stop),
                                   bqf_pos, bqf_neg):
            cur = m[level]
            # Advective flux through x interfaces (upwind).
            flux_x = bxf_pos * cur[:-1, :] + bxf_neg * cur[1:, :]
            if diff > 0.0:
                flux_x = flux_x - diff * (cur[1:, :] - cur[:-1, :]) / dx
            # Advective flux through q interfaces (upwind).
            cur_flat = cur.reshape(-1)
            flux_q = pos * cur_flat[:-1] + neg * cur_flat[1:]

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

    check_density(m, grid.cell_area, floor=ROUND_OFF_FLOOR, error=SolverError,
                  name="forward-pass density")
    return m


def _sup_distance(a: np.ndarray, b: np.ndarray):
    """``max |a - b|`` through one temporary of ``a``'s size; NaN propagates."""
    diff = np.subtract(a, b)
    return np.abs(diff, out=diff).max()


def solve_mfe(problem: MfgProblem, grid: Grid, config: SolverConfig) -> MfeSolution:
    """Fixed point of the backward/forward pair by Picard sweeps that back
    off only when they misbehave.

    The density is initialized by holding the initial distribution constant
    in time; each sweep solves the backward equation against the current
    density, transports the density forward under the resulting control, and
    moves the density a fraction ``step`` of the way to the transported one,
    ``step * m_new + (1 - step) * m_prev`` with the operands in that order.
    The step starts at 1 (a full fixed-point step) and is multiplied by
    ``config.damping`` after every sweep whose residual exceeds the one
    before. The iteration stops when both the value and the density move
    less than the tolerance in sup norm (a NaN residual never passes); on
    exhaustion the last iterate is returned flagged unconverged.

    At most four grid fields are live at once: the backward pass's value and
    control, the running density and the forward pass's density. The value
    residual is taken as soon as the backward pass returns, so the previous
    value and control are released before the forward pass; the relaxation
    overwrites the running density a block of time levels at a time. The
    first sweep starts from a read-only broadcast of ``problem.m0``, which is
    never written. The solution owns the last sweep's value and control and
    the running density; the array the forward pass returned is not written.
    """
    nt, nx, nq = grid.shape
    blocks = _level_blocks(nt, 8 * nx * nq)
    m = np.broadcast_to(problem.m0, grid.shape)
    v = np.broadcast_to(0.0, grid.shape)   # the first value residual is max |v|
    residuals: list[float] = []
    converged = False
    step = 1.0

    for iteration in range(1, config.max_iterations + 1):
        # The previous control is not read again; release it before the pass.
        v_prev, p = v, None
        v, p = hjb_backward(m, problem, grid, config)
        sups = [_sup_distance(v[s], v_prev[s]) for s in blocks]
        del v_prev
        m_new = fpk_forward(p, problem.m0, problem, grid, config)
        relaxed = np.empty(grid.shape) if iteration == 1 else m
        for s in blocks:
            # A block's distance is taken before the block is overwritten.
            new = step * m_new[s]
            new += (1.0 - step) * m[s]
            sups.append(_sup_distance(new, m[s]))
            relaxed[s] = new
        m = relaxed
        del m_new
        residual = float(np.max(sups))
        log.debug("sweep %d: residual %.3e at step %.3g", iteration, residual, step)
        if residuals and residual > residuals[-1]:
            step *= config.damping
        residuals.append(residual)
        if residual < config.tolerance:
            converged = True
            break
    iterations = len(residuals)
    if not converged:
        log.warning("fixed point not converged after %d sweeps "
                    "(last residual %.3e)", iterations, residuals[-1])

    return MfeSolution(
        v=v, m=m, p=p, grid=grid, iterations=iterations,
        residual_history=residuals, converged=converged,
        p_max=config.p_max(problem.costs.backhaul, problem.costs.content_size),
    )


def gaussian_initial_density(grid: Grid, x_mean: float, x_std: float,
                             q_mean: float, q_std: float) -> np.ndarray:
    """Truncated product Gaussian on the (x, q) grid, normalized to unit mass
    under the cell rule; the widths are positive."""
    gx = np.exp(-0.5 * ((grid.x - x_mean) / x_std) ** 2)
    gq = np.exp(-0.5 * ((grid.q - q_mean) / q_std) ** 2)
    m0 = gx[:, None] * gq[None, :]
    total = m0.sum() * grid.cell_area
    if total <= 0:
        raise ConfigurationError("initial density vanishes on the grid")
    return m0 / total

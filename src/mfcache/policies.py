"""Caching policies compared by the simulator.

A policy is a callable ``(ctx, rng) -> p`` returning the cache fraction of
every station and content: ``p.shape == ctx.x_hat.shape``, values in
``[0, 1]``, checked once per step by the simulator. The simulator calls a
policy once per step for all of its information arms, with a context that
stacks them ``(arms, stations, contents)``, one arm included, and the
policy answers every arm at once. A policy that draws draws once per step
over ``(stations, contents)``, and the draw serves every arm, so its arms
differ only by what they observe. The policies here stay
inside ``[0, p_max]``, the solver's admissible cap
``min(1, B (1 - margin) / L)`` (``SolverConfig.p_max``) handed over in the
context, so the backhaul barrier stays finite on every output. The
equilibrium policy interpolates the solved control surface at the step's
time node; the popularity baseline reacts to the observed request
probability but ignores overlap; the random policy draws uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, PolicyError
from .solver import MfeSolution

__all__ = ["PolicyContext", "MfPolicy", "BaselinePolicy", "RandomPolicy"]


@dataclass(frozen=True)
class PolicyContext:
    """Observed state handed to a policy at one simulation step.

    ``level`` is the index of the step's time node within the period, on
    the solver grid the simulator steps on, and ``nodes`` that grid's
    number of time nodes (``grid_nt``), so ``level < nodes - 1``; ``x_hat``
    (in ``[floor, 1]``) and ``remaining`` (in ``[0, C]``) stack the policy's
    information arms, ``(arms, stations, contents)``, also when it has one;
    the rest are the shared cost parameters of the step, with ``rate > 0``.
    ``p_max`` in ``[0, 1]`` is the largest cache fraction any policy may
    emit (``SolverConfig.p_max`` of the scenario). The simulator builds the
    context within these ranges, so it is not rechecked.
    """

    level: int
    nodes: int
    x_hat: np.ndarray
    remaining: np.ndarray
    rate: float
    backhaul: float
    content_size: float
    p_max: float


class MfPolicy:
    """Equilibrium policy: reads the solved control surface at the step's
    time node, ``p[ctx.level]``, interpolating it bilinearly at
    ``(x_hat, Q)`` and clamping out-of-grid coordinates to the boundary.
    The solution must be solved on the scenario's grid, whose time nodes
    the simulator steps on: a context whose ``nodes`` differs from the
    solution's time nodes is a :class:`ConfigurationError` naming both, at
    the first call. Every element is read on its own, so a stacked
    context of several arms gets, arm by arm, what a context of that arm
    alone would."""

    def __init__(self, solution: MfeSolution):
        if not solution.converged:
            raise PolicyError(
                "refusing to build a policy from an unconverged solve "
                f"(last residual {solution.residual_history[-1]:.3e} after "
                f"{solution.iterations} sweeps)"
            )
        self._grid = solution.grid
        self._p = solution.p
        self._cap = solution.p_max

    def __call__(self, ctx: PolicyContext, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        g = self._grid
        if ctx.nodes != g.t.size:
            raise ConfigurationError(
                f"equilibrium policy solved on {g.t.size} time nodes run on "
                f"a grid of {ctx.nodes}: solve on the scenario's grid_nt")
        x_i, x_w = _locate(ctx.x_hat, g.x)
        q_i, q_w = _locate(ctx.remaining, g.q)
        # The plane is read at the lower corners' flat cell indices, through
        # a view that starts at each corner's offset; the four terms keep the
        # order and the (wx * wq) * value association of the bilinear form,
        # so the result does not depend on this layout.
        nq = g.q.size
        lo = x_i * nq + q_i
        plane = self._p[ctx.level].ravel()
        wx, wq = (1.0 - x_w, x_w), (1.0 - q_w, q_w)
        p = np.zeros(ctx.x_hat.shape)
        for dx in (0, 1):
            for dq in (0, 1):
                term = wx[dx] * wq[dq]
                term *= plane[dx * nq + dq:].take(lo)
                p += term
        return p.clip(0.0, self._cap)


def _locate(coord, nodes: np.ndarray):
    """Lower cell index and fractional offset of ``coord`` in a uniform node
    array, clamped to the grid; the index is at most ``size - 2``, so the
    upper corner ``index + 1`` is a node too."""
    step = nodes[1] - nodes[0]
    rel = (np.asarray(coord, dtype=float) - nodes[0]) / step
    rel = rel.clip(0.0, nodes.size - 1.0)
    idx = np.minimum(rel.astype(np.int64), nodes.size - 2)
    return idx, rel - idx


class BaselinePolicy:
    """Popularity-proportional policy ignoring cache overlap:
    ``p = (1/L) [B - 1 / (1 + rate * x_hat)]+``."""

    def __call__(self, ctx: PolicyContext, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        raw = (ctx.backhaul - 1.0 / (1.0 + ctx.rate * ctx.x_hat)) / ctx.content_size
        return raw.clip(0.0, ctx.p_max)


class RandomPolicy:
    """Uniformly random cache fraction, independent across stations,
    contents and steps. One draw over the trailing ``(stations, contents)``
    axes is broadcast over the arms of the context, so the arms share it;
    the result is a read-only view."""

    def __call__(self, ctx: PolicyContext, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        if rng is None:
            raise ConfigurationError("random policy needs a random stream")
        shape = ctx.x_hat.shape
        return np.broadcast_to(rng.uniform(0.0, ctx.p_max, shape[-2:]), shape)

"""Caching policies compared by the simulator.

All policies map an observed station state to a per-content cache fraction
inside ``[0, p_max]``, the solver's admissible cap
``min(1, B (1 - margin) / L)`` (``SolverConfig.p_max``) handed over in the
policy context, so the backhaul barrier stays finite on every output. The
equilibrium policy interpolates the solved control surface; the popularity
baseline reacts to the observed request probability but ignores overlap;
the random policy draws uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import FLOOR_EPS
from .errors import ConfigurationError, PolicyError
from .solver import MfeSolution

__all__ = ["PolicyContext", "MfPolicy", "BaselinePolicy", "RandomPolicy"]


@dataclass(frozen=True)
class PolicyContext:
    """Observed state handed to a policy at one simulation step.

    ``x_hat`` and ``remaining`` are per-content arrays; the rest are the
    shared cost parameters of the step. ``p_max`` is the largest cache
    fraction any policy may emit (``SolverConfig.p_max`` of the scenario).
    """

    t: float
    x_hat: np.ndarray
    remaining: np.ndarray
    rate: float
    backhaul: float
    content_size: float
    storage: float
    similar_count: int
    p_max: float

    def __post_init__(self) -> None:
        x = np.asarray(self.x_hat, dtype=float)
        q = np.asarray(self.remaining, dtype=float)
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "remaining", q)
        if x.shape != q.shape:
            raise ConfigurationError("x_hat and remaining must share a shape")
        if np.any(x < FLOOR_EPS) or np.any(x > 1.0):
            raise ConfigurationError("observed popularity must lie in [floor_eps, 1]")
        if np.any(q < -1e-12) or np.any(q > self.storage + 1e-12):
            raise ConfigurationError("remaining storage must lie in [0, C]")
        if self.rate <= 0:
            raise ConfigurationError("rate must be > 0")
        if not 0.0 <= self.p_max <= 1.0:
            raise ConfigurationError("p_max must lie in [0, 1]")


class MfPolicy:
    """Equilibrium policy: interpolates the solved control surface at
    ``(t, x_hat, Q)``, clamping out-of-grid coordinates to the boundary."""

    def __init__(self, solution: MfeSolution):
        if not solution.converged:
            raise PolicyError(
                "refusing to build a policy from an unconverged solve "
                f"(last residual {solution.residual_history[-1]:.3e} after "
                f"{solution.iterations} sweeps)"
            )
        self._grid = solution.grid
        self._p = solution.p.values
        self._cap = solution.p_max

    def __call__(self, ctx: PolicyContext, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        g = self._grid
        t_idx, t_frac = _locate(ctx.t, g.t)
        t_i, t_w = int(t_idx), float(t_frac)
        x_i, x_w = _locate(ctx.x_hat, g.x)
        q_i, q_w = _locate(ctx.remaining, g.q)
        p = np.zeros(ctx.x_hat.shape)
        for step_t, wt in ((0, 1.0 - t_w), (1, t_w)):
            plane = self._p[min(t_i + step_t, g.t.size - 1)]
            for step_x, wx in ((0, 1.0 - x_w), (1, x_w)):
                xi = np.minimum(x_i + step_x, g.x.size - 1)
                for step_q, wq in ((0, 1.0 - q_w), (1, q_w)):
                    qi = np.minimum(q_i + step_q, g.q.size - 1)
                    p = p + wt * wx * wq * plane[xi, qi]
        return np.clip(p, 0.0, self._cap)


def _locate(coord, nodes: np.ndarray):
    """Lower cell index and fractional offset of ``coord`` in a uniform node
    array, clamped to the grid."""
    step = nodes[1] - nodes[0]
    rel = (np.asarray(coord, dtype=float) - nodes[0]) / step
    rel = np.clip(rel, 0.0, nodes.size - 1.0)
    idx = np.minimum(rel.astype(np.int64), nodes.size - 2)
    return idx, rel - idx


class BaselinePolicy:
    """Popularity-proportional policy ignoring cache overlap:
    ``p = (1/L) [B - 1 / (1 + rate * x_hat)]+``."""

    def __call__(self, ctx: PolicyContext, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        raw = (ctx.backhaul - 1.0 / (1.0 + ctx.rate * ctx.x_hat)) / ctx.content_size
        return np.clip(raw, 0.0, ctx.p_max)


class RandomPolicy:
    """Uniformly random cache fraction, independent across contents/steps."""

    def __call__(self, ctx: PolicyContext, rng: np.random.Generator | None = None
                 ) -> np.ndarray:
        if rng is None:
            raise ConfigurationError("random policy needs a random stream")
        return rng.uniform(0.0, ctx.p_max, ctx.x_hat.shape)

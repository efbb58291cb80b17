"""Running-cost functions and the inter-station content-overlap terms.

The instantaneous cost of caching a fraction ``p`` of a content is a
log-barrier on the backhaul budget, scaled up by the overlap with
neighboring caches and down by the wireless rate and the content's request
probability, plus a linear charge on occupied storage:

    J = -log(B - L p) * (1 + I_r) / (rate * x) + gamma * (C - Q) / C

Overlap comes in two forms: the empirical sum over observed neighbor
controls, and its mean-field limit, an integral of the population density
against the control surface scaled by the expected neighbor count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "CostParams",
    "backhaul_cost",
    "storage_cost",
    "empirical_overlap",
    "mf_overlap",
    "instantaneous_cost",
    "lra_cost",
]


@dataclass(frozen=True)
class CostParams:
    """Cost weights and capacities for one content class.

    ``similar_count`` is the number of contents with asymptotically equal
    request probability (the overlap denominator); ``popularity_eps`` is the
    half-width of the band defining that set.
    """

    gamma: float = 1.0
    content_size: float = 1.0     # L, data units
    backhaul: float = 1.0         # B, data units per unit time
    storage: float = 1.0          # C, unit storage per content
    discard_rate: float = 0.1     # e, data units per unit time
    similar_count: int = 20       # N_r
    popularity_eps: float = 0.05

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ConfigurationError("costs.gamma must be > 0")
        if self.content_size <= 0:
            raise ConfigurationError("costs.content_size must be > 0")
        if self.backhaul <= 0:
            raise ConfigurationError("costs.backhaul must be > 0")
        if self.storage <= 0:
            raise ConfigurationError("costs.storage must be > 0")
        if self.discard_rate < 0:
            raise ConfigurationError("costs.discard_rate must be >= 0")
        if self.similar_count < 1:
            raise ConfigurationError("costs.similar_count must be >= 1")


def backhaul_cost(p, backhaul: float, content_size: float):
    """Log-barrier ``-log(B - L p)`` on the download rate.

    Finite exactly when ``L p < B``; returns an ``inf`` sentinel (never
    raises) once the budget is hit. Strictly increasing and convex in ``p``.
    """
    arr = np.asarray(p, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ConfigurationError("cache fraction must lie in [0, 1]")
    cost = log_barrier(arr, backhaul, content_size)
    return float(cost) if np.ndim(p) == 0 else cost


def log_barrier(p: np.ndarray, backhaul: float, content_size: float) -> np.ndarray:
    """Unchecked core of :func:`backhaul_cost` for callers that validated
    ``p`` already."""
    slack = backhaul - content_size * p
    inside = slack > 0
    if inside.all():
        return -np.log(slack)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside, -np.log(np.where(inside, slack, 1.0)), np.inf)


def storage_cost(remaining, storage: float, gamma: float):
    """Linear charge ``gamma (C - Q) / C`` on occupied storage."""
    q = np.asarray(remaining, dtype=float)
    if np.any(q < 0) or np.any(q > storage):
        raise ConfigurationError("remaining storage must lie in [0, C]")
    out = gamma * (storage - q) / storage
    return float(out) if np.ndim(remaining) == 0 else out


def empirical_overlap(others_p, storage: float, similar_count: int) -> float:
    """Expected overlapping cached amount per unit storage, from observed
    neighbor controls: ``sum_i p_i / (C * N_r)``."""
    arr = np.asarray(others_p, dtype=float)
    if arr.size and (arr.min() < 0 or arr.max() > 1):
        raise ConfigurationError("neighbor cache fractions must lie in [0, 1]")
    if similar_count < 1:
        raise ConfigurationError("similar_count must be >= 1")
    return float(arr.sum() / (storage * similar_count))


def mf_overlap(m_slice: np.ndarray, p_slice: np.ndarray, cell_area: float,
               storage: float, similar_count: int, neighbor_count: int,
               mass_tol: float = 1e-6) -> float:
    """Mean-field overlap: neighbor count times the population-average
    control, per unit storage and similar-content count.

    ``m_slice`` is a density over the (popularity, storage) grid integrating
    to 1 under the cell rule; ``neighbor_count`` is the expected number of
    other stations in the request region.
    """
    m = np.asarray(m_slice, dtype=float)
    p = np.asarray(p_slice, dtype=float)
    if m.shape != p.shape:
        raise ConfigurationError("density and control slices must share a shape")
    check_density(m, cell_area, mass_tol)
    if neighbor_count < 0:
        raise ConfigurationError("neighbor_count must be >= 0")
    return overlap_integral(m, p, cell_area, storage, similar_count, neighbor_count)


def overlap_integral(m: np.ndarray, p: np.ndarray, cell_area: float,
                     storage: float, similar_count: int,
                     neighbor_count: int) -> float:
    """Unchecked core of :func:`mf_overlap` for callers that validated the
    density already."""
    return float(neighbor_count * (m * p).sum() * cell_area
                 / (storage * similar_count))


def check_density(m: np.ndarray, cell_area: float, mass_tol: float = 1e-6) -> None:
    """Reject a density that has a negative entry or whose mass under the
    cell rule is off 1 by more than ``mass_tol``.

    ``m`` is one slice or a stack of ``(x, Q)`` time levels on the leading
    axis; a stack is checked on all levels at once and the error names the
    first failing level.
    """
    stack = m.ndim == 3
    levels = m.reshape(m.shape[0] if stack else 1, -1)
    negative = (levels < 0).any(axis=1)
    mass = levels.sum(axis=1) * cell_area
    off = np.abs(mass - 1.0) > mass_tol
    if not (negative.any() or off.any()):
        return
    level = int(np.argmax(negative | off))
    where = f" at t index {level}" if stack else ""
    if negative[level]:
        raise ConfigurationError(f"density must be nonnegative{where}")
    raise ConfigurationError(f"density mass {float(mass[level])!r}{where} "
                             "deviates from 1 beyond tolerance")


def instantaneous_cost(p, remaining, x, rate: float, overlap: float,
                       params: CostParams):
    """Running cost of one station/content state; propagates the barrier
    sentinel instead of raising."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0):
        raise ConfigurationError("request probability must be > 0 (floor observations)")
    if rate <= 0:
        raise ConfigurationError("rate must be > 0")
    phi = backhaul_cost(p, params.backhaul, params.content_size)
    psi = storage_cost(remaining, params.storage, params.gamma)
    out = phi * (1.0 + overlap) / (rate * x_arr) + psi
    return float(out) if np.ndim(out) == 0 else out


def lra_cost(cost_samples, dt: float) -> float:
    """Long-run-average cost: trapezoidal time integral of uniformly sampled
    running costs. Returns ``inf`` when the trajectory hit the barrier so the
    caller can exclude and count it."""
    samples = np.asarray(cost_samples, dtype=float)
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    if samples.size == 0:
        return 0.0
    if not np.isfinite(samples).all():
        return math.inf
    return float(np.trapezoid(samples, dx=dt))

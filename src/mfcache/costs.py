"""Running-cost functions and the inter-station content-overlap terms.

The instantaneous cost of caching a fraction ``p`` of a content is a
log-barrier on the backhaul budget, scaled up by the overlap with
neighboring caches and down by the wireless rate and the content's request
probability, plus a linear charge on occupied storage:

    J = -log(B - L p) * (1 + I_r) / (rate * x) + gamma * (C - Q) / C

The solver and the simulator call only :func:`running_cost`, the barrier
:func:`backhaul_cost` plus the charge :func:`storage_cost`, and
:func:`storage_drift`, ``e - L p``: a model variant patches one name here.

Overlap comes in two forms: :func:`empirical_overlap`, the leave-one-out sum
over the controls of the other stations of a neighbourhood (the simulator's
overlap), and its mean-field limit :func:`mf_overlap`, an integral of the
population density against the control surface scaled by the expected
neighbor count. :func:`check_density` is the one test of whether a field is
a population density.

The formulas do not check their arguments: values are checked once, where
they enter the program (the configuration objects, the entry of each solver
pass and a policy's output in the simulator's step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_finite

__all__ = [
    "CostParams",
    "backhaul_cost",
    "storage_cost",
    "empirical_overlap",
    "mf_overlap",
    "check_density",
    "running_cost",
    "storage_drift",
    "lra_cost",
]


@dataclass(frozen=True)
class CostParams:
    """Cost weights and capacities for one content class.

    ``similar_count`` is the number of contents with asymptotically equal
    request probability (the overlap denominator); ``popularity_eps`` is the
    half-width of the band defining that set. It is parsed and hashed with
    the scenario, but nothing reads it yet.
    """

    gamma: float = 1.0
    content_size: float = 1.0     # L, data units
    backhaul: float = 1.0         # B, data units per unit time
    storage: float = 1.0          # C, unit storage per content
    discard_rate: float = 0.1     # e, data units per unit time
    similar_count: int = 20       # N_r
    popularity_eps: float = 0.05

    def __post_init__(self) -> None:
        require_finite("costs", vars(self))
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
    """Log-barrier ``-log(B - L p)`` on the download rate, for cache
    fractions ``p`` the caller has checked.

    Finite exactly when ``L p < B``; returns an ``inf`` sentinel (never
    raises) once the budget is hit. Strictly increasing and convex in ``p``.
    """
    slack = backhaul - content_size * p
    inside = np.greater(slack, 0)   # an array for scalar fractions too
    if inside.all():
        return -np.log(slack)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(inside, -np.log(np.where(inside, slack, 1.0)), np.inf)


def storage_cost(remaining, storage: float, gamma: float):
    """Linear charge ``gamma (C - Q) / C`` on occupied storage; ``remaining``
    lies in ``[0, C]`` (grid nodes or storage the simulator has clipped)."""
    return gamma * (storage - remaining) / storage


def empirical_overlap(p: np.ndarray, storage: float,
                      similar_count: int) -> np.ndarray:
    """Leave-one-out overlap of every station of a neighbourhood.

    ``p`` holds the cache fractions of the neighbourhood, one row per
    station and one column per content, optionally behind leading axes (the
    simulator's lanes); each entry of the result is the sum of the *other*
    stations' fractions of that content per unit storage and similar-content
    count, ``(sum_i p_i - p_k) / (C * N_r)``. Unchecked: the simulator
    checks a policy's fractions once per step, before they reach this
    function or the barrier.
    """
    return (p.sum(axis=-2, keepdims=True) - p) / (storage * similar_count)


def mf_overlap(m_slice: np.ndarray, p_slice: np.ndarray, cell_area: float,
               storage: float, similar_count: int, neighbor_count: int) -> float:
    """Mean-field overlap: neighbor count times the population-average
    control, per unit storage and similar-content count.

    ``m_slice`` is a density over the (popularity, storage) grid integrating
    to 1 under the cell rule, of the shape of ``p_slice``; ``neighbor_count``
    is the expected number of other stations in the request region.
    Unchecked: the backward pass checks the density on entry.
    """
    return float(neighbor_count * (m_slice * p_slice).sum() * cell_area
                 / (storage * similar_count))


# Largest deviation of a density's mass from 1 under the cell rule.
MASS_TOL = 1e-6


def check_density(m: np.ndarray, cell_area: float, *, floor: float = 0.0,
                  error: type[Exception] = ConfigurationError,
                  name: str = "density") -> None:
    """Raise ``error`` unless ``m`` is a density: no entry is NaN or below
    ``floor``, and the mass under the cell rule is within ``MASS_TOL`` of 1.

    ``m`` is one ``(x, Q)`` slice or a stack of time levels on the leading
    axis; a stack is checked on all levels at once and the message, which
    starts with ``name``, names the first failing level. Inputs keep the
    floor 0; solver outputs pass a floor just below 0 for round-off.
    """
    stack = m.ndim == 3
    levels = m.reshape(m.shape[0] if stack else 1, -1)
    signed = (levels >= floor).all(axis=1)
    mass = levels.sum(axis=1) * cell_area
    ok = signed & (np.abs(mass - 1.0) <= MASS_TOL)
    if ok.all():
        return
    level = int(np.argmin(ok))
    where = f" at t index {level}" if stack else ""
    if np.isnan(levels[level]).any():
        raise error(f"{name} has a NaN entry{where}")
    if not signed[level]:
        raise error(f"{name} must be nonnegative{where}")
    raise error(f"{name} mass {float(mass[level])!r}{where} "
                "deviates from 1 beyond tolerance")


def running_cost(p, remaining, rate_x, overlap, costs: CostParams):
    """``J`` at fractions ``p`` and storage ``remaining``, with ``rate_x`` the
    positive ``rate * x``; ``inf`` exactly where the barrier is hit."""
    return (backhaul_cost(p, costs.backhaul, costs.content_size)
            * (1.0 + overlap) / rate_x
            + storage_cost(remaining, costs.storage, costs.gamma))


def storage_drift(p, costs: CostParams):
    """Rate of change ``e - L p`` of the remaining storage."""
    return costs.discard_rate - costs.content_size * p


def lra_cost(cost_samples, dt: float) -> float:
    """Long-run-average cost: trapezoidal time integral of running costs
    sampled every ``dt > 0``, divided by the span ``(n - 1) * dt`` it
    covers; a single sample is its own average. Returns ``inf`` when the
    trajectory hit the barrier so the caller can exclude and count it."""
    samples = np.asarray(cost_samples, dtype=float)
    if samples.size == 0:
        return 0.0
    if not np.isfinite(samples).all():
        return math.inf
    if samples.size == 1:
        return float(samples[0])
    return float(np.trapezoid(samples, dx=dt) / ((samples.size - 1) * dt))

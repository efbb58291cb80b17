"""Spatio-temporal content-popularity engine.

Long-term popularity at each station follows a two-parameter Chinese
restaurant process over its local request history: a new arrival picks a
never-requested content with probability ``(nu*K + theta) / (N + theta)``
(``K`` distinct contents seen, ``N`` total requests) and a previously
requested content ``j`` with probability ``(n_j - nu) / (N + theta)``.
Folding the history at the end of each period yields the per-content mean
``mu``; within a period the instantaneous request probability follows a
mean-reverting diffusion ``dx = r (mu - x) dt + eta dW`` clamped to [0, 1].
Observed popularity may additionally carry a Gaussian estimation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConfigurationError, require_finite

__all__ = [
    "FLOOR_EPS",
    "CrpState",
    "IpiModel",
    "crp_request_distribution",
    "crp_mean_popularity",
    "simulate_requests",
    "expected_distinct_contents",
    "ou_step_array",
    "perturb_popularity",
    "refresh_period",
]

# Smallest popularity a policy may observe; request probabilities divide
# running costs, so observations are floored away from zero.
FLOOR_EPS = 1e-6


@dataclass
class CrpState:
    """Per-station request history over a finite catalog.

    ``counts[j]`` is the number of past requests for content ``j``;
    ``theta > -nu`` is the concentration and ``nu in [0, 1)`` the discount.
    """

    counts: np.ndarray
    theta: float = 1.0
    nu: float = 0.5

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 1 or self.counts.size == 0:
            raise ConfigurationError("crp counts must be a non-empty 1-d array")
        if (self.counts < 0).any():
            raise ConfigurationError("crp counts must be >= 0")
        if not 0.0 <= self.nu < 1.0:
            raise ConfigurationError("crp discount nu must lie in [0, 1)")
        if self.theta <= -self.nu:
            raise ConfigurationError("crp concentration theta must exceed -nu")

    @classmethod
    def empty(cls, catalog_size: int, theta: float = 1.0, nu: float = 0.5) -> "CrpState":
        return cls(counts=np.zeros(catalog_size, dtype=np.int64), theta=theta, nu=nu)

    @property
    def catalog_size(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        """Number of contents requested at least once."""
        return int(np.count_nonzero(self.counts))


def crp_request_distribution(state: CrpState) -> np.ndarray:
    """Probability that the next arrival requests each content.

    Requested contents carry ``(n_j - nu) / (N + theta)``; the new-content
    mass ``(nu*K + theta) / (N + theta)`` is split uniformly over contents
    never requested so far. If the catalog is exhausted the new-content mass
    is redistributed proportionally to ``n_j - nu``. Sums to 1 exactly.
    """
    n = state.counts.astype(float)
    total = n.sum()
    denom = total + state.theta
    requested = n > 0
    k = int(np.count_nonzero(requested))
    probs = np.zeros_like(n)
    probs[requested] = (n[requested] - state.nu) / denom
    new_mass = (state.nu * k + state.theta) / denom
    n_unrequested = n.size - k
    if n_unrequested > 0:
        probs[~requested] = new_mass / n_unrequested
    else:
        probs += new_mass * probs / probs.sum()
    return probs


# The mean popularity vector is exactly the next-request law: the branch
# totals fix the per-content means once the new-content mass is shared.
crp_mean_popularity = crp_request_distribution


def simulate_requests(state: CrpState, n_requests: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Sample the ids of the next ``n_requests`` arrivals and leave the
    history unchanged; :func:`refresh_period` folds them into it.

    Constant-time urn sampler: a proposal is drawn from the token urn
    (probability proportional to ``n_j`` for seen contents, ``nu*K + theta``
    for the new-content branch) and accepted with ratio ``(n_j - nu) / n_j``,
    which reproduces the discounted law exactly. Once the catalog is
    exhausted the new-content mass collapses onto the seen contents in
    proportion to ``n_j - nu``, matching :func:`crp_request_distribution`.
    Used where per-arrival catalog scans would dominate the runtime.
    """
    if n_requests < 0:
        raise ConfigurationError("n_requests must be >= 0")
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


def ou_step_array(x: np.ndarray, mu: np.ndarray, reversion_rate: float,
                  volatility: float, dt: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized Euler-Maruyama step for many independent processes."""
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    drift = reversion_rate * (mu - x) * dt
    if volatility > 0:
        drift = drift + volatility * np.sqrt(dt) * rng.standard_normal(x.shape)
    return np.clip(x + drift, 0.0, 1.0)


@dataclass(frozen=True)
class IpiModel:
    """Gaussian observation error applied to the true request probability."""

    bias_mean: float = 0.2
    bias_std: float = 0.001
    floor_eps: float = FLOOR_EPS

    def __post_init__(self) -> None:
        require_finite("demand", {"ipi_bias_mean": self.bias_mean,
                                  "ipi_bias_std": self.bias_std,
                                  "floor_eps": self.floor_eps})
        if self.bias_std < 0:
            raise ConfigurationError("ipi bias_std must be >= 0")
        if self.floor_eps <= 0:
            raise ConfigurationError("ipi floor_eps must be > 0")


def perturb_popularity(x, ipi: IpiModel, rng: np.random.Generator):
    """Observed popularity ``clamp(x + delta, floor_eps, 1)`` with
    ``delta ~ N(bias_mean, bias_std^2)``."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise ConfigurationError("true popularity must lie in [0, 1]")
    delta = rng.normal(ipi.bias_mean, ipi.bias_std, arr.shape)
    out = np.clip(arr + delta, ipi.floor_eps, 1.0)
    return float(out) if np.isscalar(x) else out


def refresh_period(state: CrpState, arrivals: np.ndarray) -> np.ndarray:
    """Fold a period's arrivals into the history and return the new means.

    The caller resets each content's process mean to the returned vector
    while keeping the instantaneous state continuous across the boundary.
    """
    ids = np.asarray(arrivals, dtype=np.int64)
    if ids.size:
        if ids.min() < 0 or ids.max() >= state.catalog_size:
            raise ConfigurationError("arrival ids outside the catalog")
        np.add.at(state.counts, ids, 1)
    return crp_mean_popularity(state)

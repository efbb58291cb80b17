"""Spatio-temporal content-popularity engine.

Long-term popularity at each station follows a two-parameter Chinese
restaurant process over its local request history: an arrival opens a
never-requested content, chosen uniformly, with probability ``(nu*K +
theta) / (N + theta)`` (``K`` distinct contents seen, ``N`` requests; the
first arrival always opens) and requests a seen content ``j`` with
probability ``(n_j - nu) / (N + theta)``; on an exhausted catalog the seen
contents share all mass as a Polya urn with weights ``n_j - nu``. Only a
period's per-content counts enter the history, so they are drawn directly
and exactly: openings form a scalar chain, joins are Dirichlet-multinomial
(Blackwell & MacQueen, Ann. Statist. 1(2), 1973; Pitman & Yor, Ann. Probab.
25(2), 1997). Folding them in yields the per-content mean ``mu``; within a
period the request probability follows ``dx = r (mu - x) dt + eta dW``
clamped to [0, 1], optionally observed with a Gaussian error.

The scenario's ``DemandConfig`` and :class:`IpiModel` check every value
once, when they are built. The functions here take values as those configs
and the package's own functions produce them (a history's counts, a
period's arrivals, the solver grid's step) and do not check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_finite

__all__ = [
    "FLOOR_EPS",
    "CrpState",
    "IpiModel",
    "crp_request_distribution",
    "simulate_requests",
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

    @classmethod
    def empty(cls, catalog_size: int, theta: float = 1.0, nu: float = 0.5) -> "CrpState":
        return cls(counts=np.zeros(catalog_size, dtype=np.int64), theta=theta, nu=nu)


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
    new_mass = (state.nu * k + state.theta) / denom if total else 1.0
    n_unrequested = n.size - k
    if n_unrequested > 0:
        probs[~requested] = new_mass / n_unrequested
    else:
        probs += new_mass * probs / probs.sum()
    return probs


def simulate_requests(state: CrpState, n_requests: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw the per-content counts of the next ``n_requests`` arrivals,
    leaving the history unchanged; :func:`refresh_period` folds them in.

    The int64 vector (one count per content, sum ``n_requests``) has
    exactly the law of the counts of ``n_requests`` sequential draws from
    :func:`crp_request_distribution`. Forward, the openings form a chain: the
    joins before the next one have survival ``prod_{r<s} (N + r - nu*K) /
    (N + r + theta)``, inverted by a search bracketed from a closed-form
    guess, and each opens a uniformly chosen unseen content. Backward, each
    new content takes ``1 + BetaBinomial(pool, 1 - nu, N - nu*K at its
    opening)`` of the joins after it still pooled. The rest is
    Dirichlet-multinomial with weights ``n_j - nu`` over the contents seen
    before the period. The law is exact for histories of up to about 10^8
    requests; beyond, the ``lgamma`` test of :func:`_joins_before_opening`
    is not monotone.
    """
    counts, theta, nu = state.counts, state.theta, state.nu
    seen = counts > 0
    total, k = int(counts.sum()), int(np.count_nonzero(seen))
    unseen = np.flatnonzero(~seen)
    # Per opening: the weight N - nu*K seen before it, and the joins before it.
    openings: list[tuple[float, int]] = []
    done = 0
    while done < n_requests and len(openings) < unseen.size:
        n, kk, left = total + done, k + len(openings), n_requests - done
        joins = 0 if n == 0 else _joins_before_opening(
            n - nu * kk, n + theta, left, -rng.standard_exponential())
        if joins == left:
            break
        openings.append((n + joins - nu * kk, done + joins - len(openings)))
        done += joins + 1
    out = np.zeros(counts.size, dtype=np.int64)
    opened = rng.choice(unseen, size=len(openings), replace=False)
    n_joins, taken = n_requests - len(openings), 0
    for (weight, before), j in zip(reversed(openings), opened[::-1]):
        pool = n_joins - before - taken   # later joins not taken by later openings
        p = rng.beta(1.0 - nu, weight) if weight else 1.0   # empty history
        share = int(rng.binomial(pool, p))
        out[j] = 1 + share
        taken += share
    if n_joins > taken:
        out[seen] = rng.multinomial(n_joins - taken, rng.dirichlet(counts[seen] - nu))
    return out


def _joins_before_opening(a: float, b: float, left: int, log_u: float) -> int:
    """The largest ``s <= left`` whose survival ``Gamma(a + s) Gamma(b) /
    (Gamma(a) Gamma(b + s))`` (all of ``s`` arrivals join, with ``a = N -
    nu*K`` and ``b = N + theta``, ``0 < a < b``) exceeds ``exp(log_u)``.

    The survival decreases in ``s``, so any bracket of the crossing holds
    the same answer, whatever the guess it starts from. The guess is the
    crossing of ``(a - b) log1p(s / b)``, which lies above ``log S(s)``
    (each factor's ``log(1 - (b - a) / (b + r))`` is at most ``-(b - a) /
    (b + r)``), so it is at or past the answer; it is ``left`` when the
    crossing lies beyond. The search gallops from the guess to a bracket and
    bisects it with the exact ``lgamma`` test. ``s = 0`` always survives and
    ``s = left + 1`` counts as not surviving; neither is tested.

    The test is monotone in ``s`` only while ``a + s`` and ``b + s`` stay
    below about 10^8: there the rounding of ``lgamma(a + s) - lgamma(b + s)``
    (about 1e-7) exceeds the survival's drop per join, and the answer can
    depend on which points the search tests.
    """
    base = math.lgamma(b) - math.lgamma(a)

    def survives(s: int) -> bool:
        return math.lgamma(a + s) - math.lgamma(b + s) + base > log_u

    depth = log_u / (a - b)
    if depth >= math.log1p(left / b):
        guess = left
    else:
        guess = min(int(b * math.expm1(depth)), left)
    lo, hi, step = 0, left + 1, 1
    if guess and not survives(guess):
        hi = guess   # gallop down to a surviving s
        while hi - step > lo:
            if survives(hi - step):
                lo = hi - step
                break
            hi, step = hi - step, 2 * step
    else:
        lo = guess   # gallop up to a failing s
        while lo + step < hi:
            if not survives(lo + step):
                hi = lo + step
                break
            lo, step = lo + step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if survives(mid):
            lo = mid
        else:
            hi = mid
    return lo


def ou_step_array(x: np.ndarray, mu: np.ndarray, reversion_rate: float,
                  volatility: float, dt: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Vectorized Euler-Maruyama step of size ``dt > 0`` for many
    independent processes."""
    drift = reversion_rate * (mu - x) * dt
    if volatility > 0:
        drift = drift + volatility * math.sqrt(dt) * rng.standard_normal(x.shape)
    return (x + drift).clip(0.0, 1.0)


@dataclass(frozen=True)
class IpiModel:
    """Gaussian observation error applied to the true request probability;
    ``floor_eps``, in ``[FLOOR_EPS, 1)``, is the smallest observable
    popularity."""

    bias_mean: float = 0.2
    bias_std: float = 0.001
    floor_eps: float = FLOOR_EPS

    def __post_init__(self) -> None:
        require_finite("demand", {"ipi_bias_mean": self.bias_mean,
                                  "ipi_bias_std": self.bias_std,
                                  "floor_eps": self.floor_eps})
        if self.bias_std < 0:
            raise ConfigurationError("demand.ipi_bias_std must be >= 0")
        if not FLOOR_EPS <= self.floor_eps < 1.0:
            raise ConfigurationError(
                f"demand.floor_eps must lie in [{FLOOR_EPS!r}, 1)")


def perturb_popularity(x: np.ndarray, ipi: IpiModel,
                       rng: np.random.Generator) -> np.ndarray:
    """Observed popularity ``clamp(x + delta, floor_eps, 1)`` with
    ``delta ~ N(bias_mean, bias_std^2)`` drawn over ``x.shape``, for an
    array ``x`` of true popularities in ``[0, 1]``."""
    delta = rng.normal(ipi.bias_mean, ipi.bias_std, x.shape)
    return (x + delta).clip(ipi.floor_eps, 1.0)


def refresh_period(state: CrpState, increments: np.ndarray) -> np.ndarray:
    """Fold a period's per-content request counts (one non-negative count
    per content, as :func:`simulate_requests` returns) into the history and
    return the new means, its next-request law.

    The caller resets each content's process mean to the returned vector
    while keeping the instantaneous state continuous across the boundary.
    """
    state.counts += np.asarray(increments, dtype=np.int64)
    return crp_request_distribution(state)

"""Stochastic-geometry model of the ultra-dense caching network.

Base stations and users form independent homogeneous Poisson point processes
on a rectangular region. A user hears every base station inside a reception
ball of radius ``R``; signals decay with a bounded power law
``min(1, d^-alpha)`` and Rayleigh fading of unit mean. The module provides
the closed-form density-normalized interference / average-rate expressions
used by the solver; the Monte-Carlo paths that validate them are test
oracles. The rate's 32-node Gauss-Laguerre rule is a checked-in table of the
nodes and weights ``numpy.polynomial.laguerre`` gives, so importing the
module loads no ``numpy.polynomial``. :func:`normalized_interference` does
not thin the interferers by the probability that a station is active;
whether it should is ROADMAP open item 1.

All powers are converted from dBm to linear milliwatts before entering any
formula; distances are kilometres.

:class:`GeometryConfig` checks every value once, when it is built; the
functions here take values as the config produces them and do not check
them again. :func:`sample_ppp` returns a pattern as an ``(n, 2)`` array of
positions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, require_finite

__all__ = [
    "GeometryConfig",
    "RateModel",
    "dbm_to_mw",
    "sample_ppp",
    "path_loss",
    "normalized_interference",
    "average_rate",
    "nearest_sbs_distance",
    "request_region_count",
    "rate_model_from_config",
]


def dbm_to_mw(dbm: float) -> float:
    """Convert a dBm power to linear milliwatts."""
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class GeometryConfig:
    """Geometry and radio parameters of one network realization.

    Densities are per km^2, radii and region extent in km, powers in dBm.
    ``request_radius_km`` bounds the set of stations that can serve a given
    user (and whose caches can overlap); ``search_radius_km`` bounds the
    region whose request stream drives a station's popularity estimate.
    """

    lambda_b: float = 0.03
    lambda_u: float = 0.001
    reception_radius_km: float = 10.0 / math.sqrt(math.pi)
    request_radius_km: float = 4.0
    search_radius_km: float = 4.0
    path_loss_alpha: float = 4.0
    tx_power_dbm: float = 23.0
    noise_dbm: float = -70.0
    num_antennas: int = 1
    region_width_km: float = 20.0
    region_height_km: float = 20.0

    def __post_init__(self) -> None:
        require_finite("geometry", vars(self))
        if self.lambda_b <= 0:
            raise ConfigurationError("geometry.lambda_b must be > 0")
        if self.lambda_u < 0:
            raise ConfigurationError("geometry.lambda_u must be >= 0")
        if self.path_loss_alpha <= 2:
            raise ConfigurationError("geometry.path_loss_alpha must be > 2")
        if self.num_antennas < 1:
            raise ConfigurationError("geometry.num_antennas must be >= 1")
        for name in ("reception_radius_km", "request_radius_km", "search_radius_km",
                     "region_width_km", "region_height_km"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"geometry.{name} must be > 0")

    @property
    def tx_power_mw(self) -> float:
        return dbm_to_mw(self.tx_power_dbm)

    @property
    def noise_mw(self) -> float:
        return dbm_to_mw(self.noise_dbm)

    @property
    def beam_gain_factor(self) -> float:
        """Sectored-array factor multiplying interference in the SINR:
        (beamwidth / 2 pi) * main-lobe gain = sqrt(num_antennas)."""
        return float(np.sqrt(self.num_antennas))

    @cached_property
    def rate(self) -> float:
        """``average_rate(rate_model_from_config(self), self)``, built once
        per config object: a dense geometry warns at its first read only."""
        return average_rate(rate_model_from_config(self), self)


@dataclass(frozen=True)
class RateModel:
    """Inputs of the average-rate formula, all in linear units.

    ``noise_term`` is the noise power already normalized by antenna count and
    station density; ``interference_normalized`` is the density-normalized
    mean interference.
    """

    interference_normalized: float
    noise_term: float
    serving_distance_km: float


def sample_ppp(intensity: float, region: tuple[float, float],
               rng: np.random.Generator) -> np.ndarray:
    """Draw a homogeneous Poisson point pattern on ``[0,w] x [0,h]`` as an
    ``(n, 2)`` array of positions in km.

    The count is Poisson(intensity * area) and positions are i.i.d. uniform.
    Deterministic given the generator state.
    """
    w, h = region
    n = int(rng.poisson(intensity * (w * h)))
    return np.column_stack((rng.uniform(0.0, w, n), rng.uniform(0.0, h, n)))


def path_loss(distance_km, alpha: float):
    """Bounded power-law gain ``min(1, d^-alpha)`` of distances ``d >= 0``;
    equals 1 within unit distance."""
    d = np.asarray(distance_km, dtype=float)
    with np.errstate(divide="ignore"):
        gain = np.minimum(1.0, np.where(d > 0, d, 1.0) ** (-alpha))
    return float(gain) if np.isscalar(distance_km) else gain


def normalized_interference(cfg: GeometryConfig) -> float:
    """Mean aggregate interference normalized by station density and antennas.

    ``(lambda_u pi R)^2 * Na^-1/2 * lambda_b^-alpha/2
    * (1 + (1 - R^(2-alpha)) / (alpha - 2)) * P * E|g|^2`` in milliwatts,
    with the transmit power converted from dBm. Singular as alpha -> 2.
    The model assumes more stations than users and warns, once per process,
    when ``lambda_u`` exceeds ``lambda_b``.
    """
    if cfg.lambda_u > cfg.lambda_b:
        warnings.warn(
            "geometry: lambda_u exceeds lambda_b; outside the ultra-dense "
            "regime the density-normalized interference model is a rough "
            "approximation",
        )
    a = cfg.path_loss_alpha
    R = cfg.reception_radius_km
    geom = (cfg.lambda_u * np.pi * R) ** 2
    geom *= cfg.num_antennas ** -0.5 * cfg.lambda_b ** (-a / 2.0)
    geom *= 1.0 + (1.0 - R ** (2.0 - a)) / (a - 2.0)
    return float(geom * cfg.tx_power_mw * 1.0)


# The 32-node Gauss-Laguerre rule for the weight exp(-x) on [0, inf), as
# numpy.polynomial.laguerre builds it, written with repr so that each float64
# round-trips bit for bit.
_LAGUERRE_NODES = np.array([
    0.04448936583326739, 0.23452610951961825, 0.5768846293018863,
    1.072448753817818, 1.7224087764446456, 2.5283367064257942,
    3.492213273021994, 4.616456769749767, 5.903958504174244, 7.358126733186241,
    8.982940924212597, 10.78301863253997, 12.763697986742725,
    14.931139755522558, 17.292454336715316, 19.855860940336054,
    22.630889013196775, 25.628636022459247, 28.862101816323474,
    32.346629153964734, 36.10049480575197, 40.14571977153944,
    44.50920799575494, 49.22439498730864, 54.33372133339691, 59.89250916213402,
    65.97537728793505, 72.68762809066271, 80.18744697791352, 88.7353404178924,
    98.82954286828398, 111.7513980979377,
])
_LAGUERRE_WEIGHTS = np.array([
    0.10921834195242515, 0.2104431079387924, 0.23521322966984298,
    0.19590333597287354, 0.1299837862860684, 0.07057862386571556,
    0.03176091250917397, 0.011918214834838204, 0.003738816294611417,
    0.0009808033066149246, 0.0002148649188013578, 3.920341967987801e-05,
    5.934541612868448e-06, 7.41640457866734e-07, 7.604567879120552e-08,
    6.350602226625618e-09, 4.281382971040738e-10, 2.305899491891237e-11,
    9.799379288726772e-13, 3.2378016577291567e-14, 8.171823443420549e-16,
    1.542133833393811e-17, 2.119792290163547e-19, 2.0544296737880036e-21,
    1.3469825866373617e-23, 5.661294130397462e-26, 1.4185605454629684e-28,
    1.9133754944539943e-31, 1.1922487600982012e-34, 2.6715112192396625e-38,
    1.3386169421064243e-42, 4.5105361938987784e-48,
])


def average_rate(model: RateModel, cfg: GeometryConfig) -> float:
    """Average downlink rate per unit bandwidth, in nats.

    ``E_g[log(1 + Na * P * l(d0) * g / (noise_term + Ihat * sqrt(Na)))]``
    with ``g ~ Exp(1)`` (unit-mean Rayleigh fading), evaluated by fixed
    32-node Gauss-Laguerre quadrature. The rule is a checked-in table of
    numpy's 32-point Gauss-Laguerre nodes and weights, so the result is
    deterministic and does not depend on the installed LAPACK.
    Strictly positive and strictly decreasing in the interference term.
    """
    denom = model.noise_term + model.interference_normalized * cfg.beam_gain_factor
    if denom <= 0:
        raise ConfigurationError("degenerate SINR: zero noise and interference")
    signal = (cfg.num_antennas * cfg.tx_power_mw
              * path_loss(model.serving_distance_km, cfg.path_loss_alpha))
    return float(np.sum(_LAGUERRE_WEIGHTS
                        * np.log1p(signal * _LAGUERRE_NODES / denom)))


def nearest_sbs_distance(lambda_b: float) -> float:
    """Expected distance to the nearest station of a density-``lambda_b`` PPP,
    ``1 / (2 sqrt(lambda_b))``; used as the representative serving distance."""
    return float(1.0 / (2.0 * np.sqrt(lambda_b)))


def request_region_count(cfg: GeometryConfig) -> int:
    """Expected number of stations able to serve a typical user, at least 1."""
    return max(1, int(round(np.pi * cfg.request_radius_km ** 2 * cfg.lambda_b)))


def rate_model_from_config(cfg: GeometryConfig) -> RateModel:
    """Assemble the deterministic rate-formula inputs from the geometry."""
    noise_term = cfg.noise_mw / (cfg.num_antennas
                                 * cfg.lambda_b ** (cfg.path_loss_alpha / 2.0))
    return RateModel(
        interference_normalized=normalized_interference(cfg),
        noise_term=noise_term,
        serving_distance_km=nearest_sbs_distance(cfg.lambda_b),
    )

"""Scenario files: every knob of one named experiment in one INI document.

A scenario is an INI file with the sections below; an empty file yields the
default experiment (density-0.03 network, 20-content catalog, unit backhaul
and storage). Unknown sections or keys are rejected, and every validation
error names the offending key as ``section.key``.

Sections and keys (defaults in parentheses):

  [geometry]    lambda_b (0.03), lambda_u (0.001), reception_radius_km
                (10/sqrt(pi)), request_radius_km (4), search_radius_km (4),
                path_loss_alpha (4), tx_power_dbm (23), noise_dbm (-70),
                num_antennas (1), region_width_km (20), region_height_km (20)
  [demand]      theta (1), nu (0.5), reversion_rate (0.5), volatility (0.1),
                period (1), catalog_size (20), x0 (0.3),
                requests_per_user (1000), ipi_bias_mean (0.2),
                ipi_bias_std (0.001), floor_eps (1e-6)
  [costs]       gamma (1), content_size (1), backhaul (1), storage (1),
                discard_rate (0.1), similar_count (20), popularity_eps (0.05)
  [solver]      tolerance (1e-4), max_iterations (200), damping (0.5),
                terminal_value (0), grad_eps (1e-8),
                backhaul_margin_scale (1e-3), grid_nt (201), grid_nx (41),
                grid_nq (41), m0_q_mean (0.7), m0_q_std (0.05),
                m0_x_std (0.05)
  [simulation]  horizon (1), replications (20), seed (12345)
  [experiments] lambda_u_values (1e-4, 2.5e-4), lambda_b_values
                (5e-3, 2e-2, 3.5e-2, 5e-2), x0_values (0.1 ... 0.9)
  [outputs]     directory (out), tables (all)
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

import numpy as np

from .costs import CostParams
from .demand import FLOOR_EPS, IpiModel
from .errors import ConfigurationError, require_finite
from .geometry import GeometryConfig
from .solver import SolverConfig

__all__ = [
    "DemandConfig",
    "SolverSettings",
    "SimulationSettings",
    "ExperimentSweeps",
    "OutputSettings",
    "ScenarioConfig",
    "load_scenario",
    "parse_scenario",
    "serialize_scenario",
    "scenario_hash",
]


@dataclass(frozen=True)
class DemandConfig:
    """Popularity-dynamics parameters shared by all stations."""

    theta: float = 1.0
    nu: float = 0.5
    reversion_rate: float = 0.5
    volatility: float = 0.1
    period: float = 1.0
    catalog_size: int = 20
    x0: float = 0.3
    requests_per_user: float = 1000.0
    ipi: IpiModel = field(default_factory=IpiModel)

    def __post_init__(self) -> None:
        require_finite("demand", vars(self))
        if self.theta <= 0:
            raise ConfigurationError("demand.theta must be > 0")
        if not 0.0 <= self.nu < 1.0:
            raise ConfigurationError("demand.nu must lie in [0, 1)")
        if self.reversion_rate <= 0:
            raise ConfigurationError("demand.reversion_rate must be > 0")
        if self.volatility < 0:
            raise ConfigurationError("demand.volatility must be >= 0")
        if self.period <= 0:
            raise ConfigurationError("demand.period must be > 0")
        if self.catalog_size < 1:
            raise ConfigurationError("demand.catalog_size must be >= 1")
        if not 0.0 <= self.x0 <= 1.0:
            raise ConfigurationError("demand.x0 must lie in [0, 1]")
        if self.requests_per_user < 0:
            raise ConfigurationError("demand.requests_per_user must be >= 0")


@dataclass(frozen=True)
class SolverSettings:
    """Numerical configuration plus grid sizes and initial-density shape."""

    config: SolverConfig = field(default_factory=SolverConfig)
    grid_nt: int = 201
    grid_nx: int = 41
    grid_nq: int = 41
    m0_q_mean: float = 0.7
    m0_q_std: float = 0.05
    m0_x_std: float = 0.05

    def __post_init__(self) -> None:
        require_finite("solver", vars(self))
        for name in ("grid_nt", "grid_nx", "grid_nq"):
            if getattr(self, name) < 3:
                raise ConfigurationError(f"solver.{name} must be >= 3")
        if not 0.0 <= self.m0_q_mean:
            raise ConfigurationError("solver.m0_q_mean must be >= 0")
        if self.m0_q_std <= 0 or self.m0_x_std <= 0:
            raise ConfigurationError("solver initial-density widths must be > 0")


@dataclass(frozen=True)
class SimulationSettings:
    horizon: float = 1.0
    replications: int = 20
    seed: int = 12345

    def __post_init__(self) -> None:
        if self.horizon < 0:
            raise ConfigurationError("simulation.horizon must be >= 0")
        if self.replications < 1:
            raise ConfigurationError("simulation.replications must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError("simulation.seed must be a 64-bit value")


@dataclass(frozen=True)
class ExperimentSweeps:
    """Parameter sweeps used by the comparison and robustness recipes."""

    lambda_u_values: tuple[float, ...] = (1e-4, 2.5e-4)
    lambda_b_values: tuple[float, ...] = (0.005, 0.02, 0.035, 0.05)
    x0_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def __post_init__(self) -> None:
        for name in ("lambda_u_values", "lambda_b_values", "x0_values"):
            vals = getattr(self, name)
            if not vals:
                raise ConfigurationError(f"experiments.{name} must be non-empty")
            if any(not np.isfinite(v) for v in vals):
                raise ConfigurationError(f"experiments.{name} must be finite")


@dataclass(frozen=True)
class OutputSettings:
    directory: str = "out"
    tables: str = "all"


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    demand: DemandConfig = field(default_factory=DemandConfig)
    costs: CostParams = field(default_factory=CostParams)
    solver: SolverSettings = field(default_factory=SolverSettings)
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    experiments: ExperimentSweeps = field(default_factory=ExperimentSweeps)
    outputs: OutputSettings = field(default_factory=OutputSettings)


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


# section -> key -> (caster, serializer input attribute path)
_SCHEMA: dict[str, dict[str, type | object] ] = {
    "geometry": {
        "lambda_b": float, "lambda_u": float, "reception_radius_km": float,
        "request_radius_km": float, "search_radius_km": float,
        "path_loss_alpha": float, "tx_power_dbm": float, "noise_dbm": float,
        "num_antennas": int, "region_width_km": float, "region_height_km": float,
    },
    "demand": {
        "theta": float, "nu": float, "reversion_rate": float, "volatility": float,
        "period": float, "catalog_size": int, "x0": float,
        "requests_per_user": float, "ipi_bias_mean": float,
        "ipi_bias_std": float, "floor_eps": float,
    },
    "costs": {
        "gamma": float, "content_size": float, "backhaul": float,
        "storage": float, "discard_rate": float, "similar_count": int,
        "popularity_eps": float,
    },
    "solver": {
        "tolerance": float, "max_iterations": int, "damping": float,
        "terminal_value": float, "grad_eps": float,
        "backhaul_margin_scale": float, "grid_nt": int, "grid_nx": int,
        "grid_nq": int, "m0_q_mean": float, "m0_q_std": float, "m0_x_std": float,
    },
    "simulation": {"horizon": float, "replications": int, "seed": int},
    "experiments": {
        "lambda_u_values": _float_list, "lambda_b_values": _float_list,
        "x0_values": _float_list,
    },
    "outputs": {"directory": str, "tables": str},
}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text, applying defaults for every omitted key."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"scenario parse error: {exc}") from exc

    values: dict[str, dict[str, object]] = {s: {} for s in _SCHEMA}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown scenario section '{section}'")
        for key, raw in parser.items(section):
            caster = _SCHEMA[section].get(key)
            if caster is None:
                raise ConfigurationError(f"unknown scenario key '{section}.{key}'")
            try:
                values[section][key] = caster(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"invalid value for '{section}.{key}': {raw!r}") from exc
    return _build(values)


def _build(values: dict[str, dict[str, object]]) -> ScenarioConfig:
    g = dict(values["geometry"])
    region = (g.pop("region_width_km", 20.0), g.pop("region_height_km", 20.0))
    geometry = GeometryConfig(region_km=region, **g)

    d = dict(values["demand"])
    ipi = IpiModel(
        bias_mean=d.pop("ipi_bias_mean", IpiModel.bias_mean),
        bias_std=d.pop("ipi_bias_std", IpiModel.bias_std),
        floor_eps=d.pop("floor_eps", FLOOR_EPS),
    )
    demand = DemandConfig(ipi=ipi, **d)

    costs = CostParams(**values["costs"])

    s = dict(values["solver"])
    solver_kwargs = {k: s.pop(k) for k in
                     ("tolerance", "max_iterations", "damping", "terminal_value",
                      "grad_eps", "backhaul_margin_scale") if k in s}
    solver = SolverSettings(config=SolverConfig(**solver_kwargs), **s)

    return ScenarioConfig(
        geometry=geometry,
        demand=demand,
        costs=costs,
        solver=solver,
        simulation=SimulationSettings(**values["simulation"]),
        experiments=ExperimentSweeps(**values["experiments"]),
        outputs=OutputSettings(**values["outputs"]),
    )


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; empty files mean all defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _fmt(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    geo, dem, cst = cfg.geometry, cfg.demand, cfg.costs
    sol, sim, exp, out = cfg.solver, cfg.simulation, cfg.experiments, cfg.outputs
    sections: dict[str, dict[str, object]] = {
        "geometry": {
            "lambda_b": geo.lambda_b, "lambda_u": geo.lambda_u,
            "reception_radius_km": geo.reception_radius_km,
            "request_radius_km": geo.request_radius_km,
            "search_radius_km": geo.search_radius_km,
            "path_loss_alpha": geo.path_loss_alpha,
            "tx_power_dbm": geo.tx_power_dbm, "noise_dbm": geo.noise_dbm,
            "num_antennas": geo.num_antennas,
            "region_width_km": geo.region_km[0],
            "region_height_km": geo.region_km[1],
        },
        "demand": {
            "theta": dem.theta, "nu": dem.nu,
            "reversion_rate": dem.reversion_rate, "volatility": dem.volatility,
            "period": dem.period, "catalog_size": dem.catalog_size,
            "x0": dem.x0, "requests_per_user": dem.requests_per_user,
            "ipi_bias_mean": dem.ipi.bias_mean, "ipi_bias_std": dem.ipi.bias_std,
            "floor_eps": dem.ipi.floor_eps,
        },
        "costs": {
            "gamma": cst.gamma, "content_size": cst.content_size,
            "backhaul": cst.backhaul, "storage": cst.storage,
            "discard_rate": cst.discard_rate, "similar_count": cst.similar_count,
            "popularity_eps": cst.popularity_eps,
        },
        "solver": {
            "tolerance": sol.config.tolerance,
            "max_iterations": sol.config.max_iterations,
            "damping": sol.config.damping,
            "terminal_value": sol.config.terminal_value,
            "grad_eps": sol.config.grad_eps,
            "backhaul_margin_scale": sol.config.backhaul_margin_scale,
            "grid_nt": sol.grid_nt, "grid_nx": sol.grid_nx, "grid_nq": sol.grid_nq,
            "m0_q_mean": sol.m0_q_mean, "m0_q_std": sol.m0_q_std,
            "m0_x_std": sol.m0_x_std,
        },
        "simulation": {
            "horizon": sim.horizon, "replications": sim.replications,
            "seed": sim.seed,
        },
        "experiments": {
            "lambda_u_values": exp.lambda_u_values,
            "lambda_b_values": exp.lambda_b_values,
            "x0_values": exp.x0_values,
        },
        "outputs": {"directory": out.directory, "tables": out.tables},
    }
    buf = io.StringIO()
    for section, keys in sections.items():
        buf.write(f"[{section}]\n")
        for key, value in keys.items():
            buf.write(f"{key} = {_fmt(value)}\n")
        buf.write("\n")
    return buf.getvalue()


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Stable digest of the canonical form, for run manifests."""
    return hashlib.sha256(serialize_scenario(cfg).encode()).hexdigest()[:16]

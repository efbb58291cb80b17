"""Scenario files: every knob of one named experiment in one INI document.

An empty file yields the default experiment (density-0.03 network,
20-content catalog, unit backhaul and storage). Unknown sections (a
``[DEFAULT]`` section too) or keys are rejected, and every validation error
names the offending key as ``section.key``.

The sections are the fields of ``ScenarioConfig`` and their keys are the
fields of each section's dataclass, defaults included; the README documents
them.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from collections.abc import Callable, Iterator
from dataclasses import Field, dataclass, field, fields, is_dataclass, replace
from operator import attrgetter

import numpy as np

from .costs import CostParams
from .demand import IpiModel
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
    "sweep_points",
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
        for name in ("m0_q_std", "m0_x_std"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"solver.{name} must be > 0")


@dataclass(frozen=True)
class SimulationSettings:
    """Simulated replications: the time each one covers (``>= 0``, in the
    time unit of ``demand.period``; the step is the solver grid's), how many
    a sweep point runs (``>= 1``), and the seed of the first, a 64-bit
    value; replication ``r`` runs under ``seed + r``."""

    horizon: float = 1.0
    replications: int = 20
    seed: int = 12345

    def __post_init__(self) -> None:
        require_finite("simulation", vars(self))
        if self.horizon < 0:
            raise ConfigurationError("simulation.horizon must be >= 0")
        if self.replications < 1:
            raise ConfigurationError("simulation.replications must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigurationError("simulation.seed must be a 64-bit value")


# Sweep key -> (section, field) that each of its values replaces in a sweep
# point's scenario; that section's config holds the value's bounds.
_SWEPT = {
    "lambda_u_values": ("geometry", "lambda_u"),
    "lambda_b_values": ("geometry", "lambda_b"),
    "x0_values": ("demand", "x0"),
}


@dataclass(frozen=True)
class ExperimentSweeps:
    """Parameter sweeps used by the comparison and robustness recipes;
    :func:`sweep_points` checks each value against the field it sweeps."""

    lambda_u_values: tuple[float, ...] = (1e-4, 2.5e-4)
    lambda_b_values: tuple[float, ...] = (0.005, 0.02, 0.035, 0.05)
    x0_values: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

    def __post_init__(self) -> None:
        for name in _SWEPT:
            if not getattr(self, name):
                raise ConfigurationError(f"experiments.{name} must be non-empty")


@dataclass(frozen=True)
class OutputSettings:
    """Where a command writes its CSVs and manifest when no ``--out`` is
    given. ``tables`` is parsed and hashed with the scenario, but nothing
    reads it yet."""

    directory: str = "out"
    tables: str = "all"


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment: a section object per scenario-file section, each
    checked when it is built. :func:`parse_scenario` fills it from an INI
    document; its defaults are the default experiment."""

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    demand: DemandConfig = field(default_factory=DemandConfig)
    costs: CostParams = field(default_factory=CostParams)
    solver: SolverSettings = field(default_factory=SolverSettings)
    simulation: SimulationSettings = field(default_factory=SimulationSettings)
    experiments: ExperimentSweeps = field(default_factory=ExperimentSweeps)
    outputs: OutputSettings = field(default_factory=OutputSettings)


def sweep_points(scenario: ScenarioConfig, name: str
                 ) -> list[tuple[float, ScenarioConfig]]:
    """``(value, point scenario)`` of each value of ``experiments.<name>``:
    the scenario with the value in the field that sweep replaces. A value
    outside that field's bounds fails, naming the sweep key."""
    section, key = _SWEPT[name]
    points = []
    for value in getattr(scenario.experiments, name):
        try:
            part = replace(getattr(scenario, section), **{key: value})
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"experiments.{name} value {value!r}: {exc}") from exc
        points.append((value, replace(scenario, **{section: part})))
    return points


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(",") if part.strip())


# Dataclass field -> INI key, where the field's own name would not say which
# model it belongs to in its section.
_INI_NAMES = {"bias_mean": "ipi_bias_mean", "bias_std": "ipi_bias_std"}


def _nested(f: Field) -> bool:
    return is_dataclass(f.default_factory)


def _walk(cls: type, prefix: str
          ) -> Iterator[tuple[str, str, Callable[[str], object]]]:
    """(INI key, attribute path, caster) of each field of ``cls``; a field
    holding a dataclass contributes that dataclass's fields in place."""
    for f in fields(cls):
        path = prefix + f.name
        if _nested(f):
            yield from _walk(f.default_factory, path + ".")
        else:
            caster = _float_list if isinstance(f.default, tuple) else type(f.default)
            yield _INI_NAMES.get(f.name, f.name), path, caster


# section -> INI key -> (attribute path from the ScenarioConfig, caster), in
# the serialized order.
_KEYS = {
    section.name: {key: (path, caster) for key, path, caster
                   in _walk(section.default_factory, section.name + ".")}
    for section in fields(ScenarioConfig)
}


def _instance(cls: type, values: dict[str, object], prefix: str = "") -> object:
    """``cls`` built from ``values`` keyed by attribute path; a field with no
    value keeps its default."""
    kwargs = {}
    for f in fields(cls):
        path = prefix + f.name
        if _nested(f):
            kwargs[f.name] = _instance(f.default_factory, values, path + ".")
        elif path in values:
            kwargs[f.name] = values[path]
    return cls(**kwargs)


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text, applying defaults for every omitted key. Every
    sweep point is built, so a bad sweep value fails here."""
    # No default section: a [DEFAULT] header is an unknown section, not keys
    # copied into every other section.
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"scenario parse error: {exc}") from exc

    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigurationError(f"unknown scenario section '{section}'")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigurationError(f"unknown scenario key '{section}.{key}'")
            path, caster = _KEYS[section][key]
            try:
                values[path] = caster(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"invalid value for '{section}.{key}': {raw!r}") from exc
    scenario = _instance(ScenarioConfig, values)
    for sweep in fields(ExperimentSweeps):
        sweep_points(scenario, sweep.name)
    return scenario


def load_scenario(path: str) -> ScenarioConfig:
    """Load and validate a scenario file; empty files mean all defaults.

    A path that does not open and read as a file of UTF-8 text (missing, a
    directory, unreadable) raises :class:`ConfigurationError` naming it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"scenario file is not UTF-8 text: {path} ({exc.reason} at "
            f"byte {exc.start})") from exc
    except OSError as exc:
        raise ConfigurationError(f"scenario file {path} cannot be read: "
                                 f"{exc.strerror or exc}") from exc
    return parse_scenario(text)


def _fmt(value: object) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Canonical text form; parsing it back yields an equal config."""
    buf = io.StringIO()
    for section, keys in _KEYS.items():
        buf.write(f"[{section}]\n")
        for key, (path, _) in keys.items():
            buf.write(f"{key} = {_fmt(attrgetter(path)(cfg))}\n")
        buf.write("\n")
    return buf.getvalue()


def scenario_hash(cfg: ScenarioConfig) -> str:
    """Stable digest of the canonical form, for run manifests."""
    return hashlib.sha256(serialize_scenario(cfg).encode()).hexdigest()[:16]

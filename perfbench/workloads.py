"""Workload definitions: one scenario INI per (workload, seed).

The benchmark writes every key of the scenario itself, so a later edit of
the repository's example scenario cannot change what is measured.

The station layout and request arrivals come from ``simulation.seed``, which
is the same for every benchmark seed: the number of stations, steps and
arrivals, and so the amount of work, is then the same on every seed, and the
run-to-run spread measures the program rather than the Poisson draw of the
station count. The benchmark seed moves the model parameters that do not set
the amount of work (initial popularity, user density, observation error), so
each seed has its own outputs and digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORLD_SEED = 12345

# Every scenario key, at the values of the annotated example scenario.
BASE = {
    "geometry": {
        "lambda_b": 0.05, "lambda_u": 0.0001,
        "reception_radius_km": 5.641895835477563, "request_radius_km": 4.0,
        "search_radius_km": 4.0, "path_loss_alpha": 4.0, "tx_power_dbm": 23.0,
        "noise_dbm": -70.0, "num_antennas": 1, "region_width_km": 20.0,
        "region_height_km": 20.0,
    },
    "demand": {
        "theta": 1.0, "nu": 0.5, "reversion_rate": 0.5, "volatility": 0.1,
        "period": 1.0, "catalog_size": 20, "x0": 0.3,
        "requests_per_user": 1000.0, "ipi_bias_mean": 0.2,
        "ipi_bias_std": 0.001, "floor_eps": 1e-06,
    },
    "costs": {
        "gamma": 1.0, "content_size": 1.0, "backhaul": 1.0, "storage": 1.0,
        "discard_rate": 0.1, "similar_count": 20, "popularity_eps": 0.05,
    },
    "solver": {
        "tolerance": 0.0001, "max_iterations": 200, "damping": 0.5,
        "terminal_value": 0.0, "grad_eps": 1e-08,
        "backhaul_margin_scale": 0.001, "grid_nt": 201, "grid_nx": 41,
        "grid_nq": 41, "m0_q_mean": 0.7, "m0_q_std": 0.05, "m0_x_std": 0.05,
    },
    "simulation": {"horizon": 1.0, "replications": 20, "seed": WORLD_SEED},
    "experiments": {
        "lambda_u_values": (0.0001, 0.00025),
        "lambda_b_values": (0.005, 0.02, 0.035, 0.05),
        "x0_values": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
    },
    "outputs": {"directory": "out", "tables": "all"},
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; why each exists is recorded in BENCHMARK.json."""

    name: str
    command: str          # mfcache subcommand
    flags: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload("solve-export", "solve", ("--sweep-density",)),
    Workload("compare-sim", "compare"),
    Workload("ipi-demand", "ipi"),
)}


def scenario_values(workload: str, seed: int) -> dict[str, dict[str, object]]:
    """Complete scenario of one workload; the same seed gives the same values."""
    rng = random.Random(f"{workload}:{seed}")
    values = {section: dict(keys) for section, keys in BASE.items()}
    geo, dem = values["geometry"], values["demand"]
    sol, sim, exp = values["solver"], values["simulation"], values["experiments"]
    dem["x0"] = round(rng.uniform(0.25, 0.35), 6)
    if workload == "solve-export":
        sol["grid_nt"], sol["grid_nx"], sol["grid_nq"] = 61, 31, 31
        exp["lambda_b_values"] = (0.05,)
    elif workload == "compare-sim":
        sol["grid_nt"], sol["grid_nx"], sol["grid_nq"] = 41, 21, 21
        geo["region_width_km"] = geo["region_height_km"] = 60.0
        sim["replications"] = 4
        exp["lambda_u_values"] = (round(rng.uniform(0.8e-4, 1.2e-4), 9),)
        exp["x0_values"] = (round(rng.uniform(0.65, 0.75), 6),)
    elif workload == "ipi-demand":
        sol["grid_nt"], sol["grid_nx"], sol["grid_nq"] = 41, 21, 21
        sim["replications"] = 1
        sim["horizon"] = 2.0
        dem["requests_per_user"] = 60000.0
        dem["ipi_bias_mean"] = round(rng.uniform(0.15, 0.25), 6)
        dem["ipi_bias_std"] = round(rng.uniform(0.0005, 0.0015), 6)
        exp["lambda_b_values"] = (0.05,)
    else:
        raise KeyError(workload)
    return values


def _fmt(value: object) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_ini(values: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_fmt(value)}" for key, value in keys.items())
        lines.append("")
    return "\n".join(lines)


def operations(workload: str, values: dict[str, dict[str, object]]) -> int:
    """Equilibrium solves plus simulated replications one command attempts."""
    exp, reps = values["experiments"], values["simulation"]["replications"]
    if workload == "solve-export":
        return 1 + len(exp["lambda_b_values"])
    if workload == "compare-sim":
        points = len(exp["lambda_u_values"]) + len(exp["x0_values"])
        return points + points * 3 * reps
    points = len(exp["lambda_b_values"])
    return points + points * 3 * 2 * reps

"""Output checks of one command run, and digests of its CSV files.

The checks hold for any valid equilibrium, not only for the present one
whose control is identically zero: they bound ``p`` by ``[0, p_max]``, never
pin it to 0, and ask costs to be finite without ordering the policies.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import math
import os

import numpy as np

MASS_TOL = 1e-6


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV the command wrote, by file name."""
    result = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, "rb") as fh:
            result[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return result


def _table(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _finite(rows, columns, label, errors) -> None:
    for row in rows:
        for col in columns:
            if not math.isfinite(float(row[col])):
                errors.append(f"{label}: non-finite {col} in {row}")
                return


def _rows(rows, expected, label, errors) -> None:
    if len(rows) != expected:
        errors.append(f"{label}: {len(rows)} rows, expected {expected}")


def _p_max(values) -> float:
    cst, sol = values["costs"], values["solver"]
    return min(1.0, max(0.0, cst["backhaul"] * (1.0 - sol["backhaul_margin_scale"])
                        / cst["content_size"]))


def _check_solution(path: str, values, errors) -> None:
    """Mass per time level, finite values and the admissible control range."""
    sol = values["solver"]
    nt, nx, nq = sol["grid_nt"], sol["grid_nx"], sol["grid_nq"]
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        body = fh.read()
    if header != ["t", "x", "Q", "v", "m", "p"]:
        errors.append(f"{path}: header {header}")
        return
    data = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=float)
    if data.size != nt * nx * nq * 6:
        errors.append(f"{path}: {data.size // 6} rows, expected {nt * nx * nq}")
        return
    t, x, q, v, m, p = data.reshape(nt, nx, nq, 6).transpose(3, 0, 1, 2)
    if not np.isfinite(data).all():
        errors.append(f"{path}: non-finite entries")
    dx = x[0, 1, 0] - x[0, 0, 0]
    dq = q[0, 0, 1] - q[0, 0, 0]
    mass = m.reshape(nt, -1).sum(axis=1) * dx * dq
    drift = float(np.abs(mass - 1.0).max())
    if drift > MASS_TOL:
        errors.append(f"{path}: density mass drifts by {drift:.3e}")
    if m.min() < -1e-12:
        errors.append(f"{path}: negative density {m.min():.3e}")
    p_max = _p_max(values)
    if p.min() < 0.0 or p.max() > p_max + 1e-12:
        errors.append(f"{path}: p outside [0, {p_max}]: [{p.min()}, {p.max()}]")


def _check_solve(out_dir: str, values, errors) -> None:
    tol = values["solver"]["tolerance"]
    solutions = sorted(glob.glob(os.path.join(out_dir, "solution_content_*.csv")))
    if not solutions:
        errors.append("no solution_content_*.csv written")
    for path in solutions:
        stem = os.path.basename(path)[len("solution_"):-len(".csv")]
        _check_solution(path, values, errors)
        residuals = _table(os.path.join(out_dir, f"residuals_{stem}.csv"))
        if not residuals or not float(residuals[-1]["residual"]) < tol:
            errors.append(f"{stem}: final residual not below tolerance {tol}")
        trajectory = _table(os.path.join(out_dir, f"control_trajectory_{stem}.csv"))
        _rows(trajectory, values["solver"]["grid_nt"], f"control_trajectory_{stem}",
              errors)
        p_max = _p_max(values)
        if any(not 0.0 <= float(r["p"]) <= p_max + 1e-12 for r in trajectory):
            errors.append(f"control_trajectory_{stem}: p outside [0, {p_max}]")
        marginal = _table(os.path.join(out_dir, f"density_marginal_{stem}.csv"))
        _finite(marginal, ("m",), f"density_marginal_{stem}", errors)
    aliases = _table(os.path.join(out_dir, "content_solutions.csv"))
    _rows(aliases, values["demand"]["catalog_size"], "content_solutions", errors)
    sweep = _table(os.path.join(out_dir, "iterations_vs_density.csv"))
    _rows(sweep, len(values["experiments"]["lambda_b_values"]),
          "iterations_vs_density", errors)
    for row in sweep:
        if row["converged"] != "1" or not float(row["final_residual"]) < tol:
            errors.append(f"iterations_vs_density: unconverged row {row}")


def _check_compare(out_dir: str, values, errors) -> None:
    exp = values["experiments"]
    summary = _table(os.path.join(out_dir, "summary.csv"))
    _rows(summary, 3 * len(exp["lambda_u_values"]), "summary", errors)
    _finite(summary, ("lra", "reduction_vs_baseline"), "summary", errors)
    trajectories = _table(os.path.join(out_dir, "lra_trajectories.csv"))
    if not trajectories:
        errors.append("lra_trajectories: empty")
    _finite(trajectories, ("cumulative_cost",), "lra_trajectories", errors)
    overlap = _table(os.path.join(out_dir, "overlap_vs_x0.csv"))
    _rows(overlap, 3 * len(exp["x0_values"]), "overlap_vs_x0", errors)
    _finite(overlap, ("overlap_per_storage",), "overlap_vs_x0", errors)


def _check_ipi(out_dir: str, values, errors) -> None:
    rows = _table(os.path.join(out_dir, "ipi_increments.csv"))
    _rows(rows, 3 * len(values["experiments"]["lambda_b_values"]),
          "ipi_increments", errors)
    _finite(rows, ("lra_ppi", "lra_ipi", "increment"), "ipi_increments", errors)


CHECKS = {"solve": _check_solve, "compare": _check_compare, "ipi": _check_ipi}


def check(command: str, out_dir: str, values) -> list[str]:
    """Every violated output property of one run; empty when all hold."""
    errors: list[str] = []
    try:
        CHECKS[command](out_dir, values, errors)
    except (OSError, KeyError, ValueError) as exc:
        errors.append(f"unreadable output: {exc!r}")
    return errors

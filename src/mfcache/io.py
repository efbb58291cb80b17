"""CSV and manifest emission.

All CSVs are comma-separated with a header row and 17-significant-digit
floats, so equal runs produce byte-identical files. Every run directory gets
a ``manifest.txt`` recording the scenario hash, seed, versions, iteration
counts, and wall time.
"""

from __future__ import annotations

import os
import platform
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .solver import MfeSolution

__all__ = ["format_value", "write_csv", "write_solution_csv",
           "write_residuals_csv", "write_manifest"]


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable,
              row_format: str | None = None) -> None:
    """Write a header line and the rows.

    By default each row is a sequence of mixed values, each rendered by
    :func:`format_value`. With ``row_format``, a printf-style template of
    one float row such as ``"%.17g,%.17g\\n"``, each item of ``rows`` is a
    2-D float array holding a block of rows, rendered in one call; ``%.17g``
    renders a float exactly as :func:`format_value` does.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if row_format is None:
            for row in rows:
                fh.write(",".join(format_value(v) for v in row) + "\n")
            return
        for block in rows:
            fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))


def write_solution_csv(solution: MfeSolution, path: str) -> None:
    """Full equilibrium fields in row-major (t, x, Q) order, streamed one
    time level at a time."""
    g = solution.grid
    nt, nx, nq = g.shape
    fields = (solution.v.values, solution.m.values, solution.p.values)

    def levels():
        block = np.empty((nx * nq, 6))
        block[:, 1] = np.repeat(g.x, nq)
        block[:, 2] = np.tile(g.q, nx)
        for level in range(nt):
            block[:, 0] = g.t[level]
            for col, values in enumerate(fields, start=3):
                block[:, col] = values[level].ravel()
            yield block

    write_csv(path, ("t", "x", "Q", "v", "m", "p"), levels(),
              row_format=",".join(["%.17g"] * 6) + "\n")


def write_residuals_csv(solution: MfeSolution, path: str) -> None:
    write_csv(path, ("iteration", "residual"),
              ((i + 1, r) for i, r in enumerate(solution.residual_history)))


def write_manifest(path: str, scenario_hash: str, seed: int,
                   iteration_counts: dict[str, int], wall_seconds: float,
                   extra: dict[str, object] | None = None) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    lines = [
        f"scenario_hash: {scenario_hash}",
        f"seed: {seed}",
        f"mfcache_version: {__version__}",
        f"python_version: {platform.python_version()}",
        f"numpy_version: {np.__version__}",
        f"wall_seconds: {wall_seconds:.3f}",
    ]
    for name, count in iteration_counts.items():
        lines.append(f"iterations[{name}]: {count}")
    for key, value in (extra or {}).items():
        lines.append(f"{key}: {value}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

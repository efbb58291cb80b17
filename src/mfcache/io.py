"""CSV and manifest emission.

All CSVs are comma-separated with a header row and 17-significant-digit
floats, so equal runs produce byte-identical files. The solution export
and the storage-marginal table format their grid coordinates once per grid
and render each time level from one template. Every run directory gets a
``manifest.txt`` recording the scenario hash, seed, versions, iteration
counts, and wall time.
"""

from __future__ import annotations

import os
import platform
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .solver import Grid, MfeSolution

__all__ = ["format_value", "write_csv", "write_solution_csv",
           "write_marginal_csv", "write_residuals_csv", "write_manifest"]


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    """Write a header line and the rows.

    Each row is a sequence of mixed values, each rendered by
    :func:`format_value`, or a ``str`` holding a block of rows already
    rendered, newline included, which is written as it is.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str)
                     else ",".join(format_value(v) for v in row) + "\n")


def write_solution_csv(solution: MfeSolution, path: str) -> None:
    """Full equilibrium fields in row-major (t, x, Q) order, streamed one
    time level at a time.

    The ``x,Q`` text of every cell is formatted once per call; each level's
    template joins it behind that level's ``t`` and is rendered with one
    ``%`` over the level's ``(v, m, p)`` values. ``%.17g`` renders a float
    exactly as :func:`format_value` does.
    """
    g = solution.grid
    # Rows of every cell; the leading "" makes the join put ``t`` before the
    # first row as well.
    cells = [""] + ["%.17g,%.17g,%%.17g,%%.17g,%%.17g\n" % (x, q)
                    for x in g.x.tolist() for q in g.q.tolist()]

    def levels():
        for level, t in enumerate(g.t.tolist()):
            template = ("%.17g," % t).join(cells)
            yield template % tuple(np.column_stack(
                [f[level].ravel() for f in (solution.v, solution.m, solution.p)]
            ).ravel().tolist())

    write_csv(path, ("t", "x", "Q", "v", "m", "p"), levels())


def write_marginal_csv(grid: Grid, marginal: np.ndarray, path: str) -> None:
    """Storage-marginal density ``(t, Q)`` table in row-major order: each
    time level is rendered with one ``%`` over the level's ``marginal`` row,
    as :func:`write_solution_csv` renders its levels."""
    cells = [""] + ["%.17g,%%.17g\n" % q for q in grid.q.tolist()]
    write_csv(path, ("t", "Q", "m"),
              (("%.17g," % t).join(cells) % tuple(row)
               for t, row in zip(grid.t.tolist(), marginal.tolist())))


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

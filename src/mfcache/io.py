"""CSV and manifest emission.

All CSVs are comma-separated with a header row and 17-significant-digit
floats, so equal runs produce byte-identical files. The solution export
and the storage-marginal table format their grid coordinates once per grid
and render each time level from one template. Where ``os.fork`` exists and
the process may run on two CPUs, a forked helper renders the later half of
the solution's time levels while the command renders the first half; the
command alone writes the file, with the same bytes as an inline render.
:func:`fork_helper` is the package's one fork, pipe and reap; the experiment
recipes split each sweep's list of tasks with it too. Every run directory
gets a ``manifest.txt`` recording the scenario hash, seed, versions,
iteration counts, and wall time.
"""

from __future__ import annotations

import itertools
import os
import platform
from contextlib import contextmanager
from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .solver import Grid, MfeSolution

__all__ = ["format_value", "write_csv", "two_cpus", "forked_blas_checked",
           "fork_helper", "write_solution_csv", "write_marginal_csv",
           "write_residuals_csv", "write_manifest"]


def format_value(value) -> str:
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    """Write a header line and the rows.

    Each row is a sequence of mixed values, each rendered by
    :func:`format_value`, or a ``str`` of text already rendered, which is
    written as it is. A ``str`` need not hold whole rows: consecutive ones
    may split a row anywhere, as the chunks of the solution export's pipe
    do, so a row of values must not follow a ``str`` that ends mid-row.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str)
                     else ",".join(format_value(v) for v in row) + "\n")


# Bytes per read of the helper's pipe: the command never holds more of the
# helper's output than this at once.
_PIPE_CHUNK = 1 << 16


def two_cpus() -> bool:
    """Whether ``os.fork`` exists and this process may run on two CPUs or
    more: the condition under which work is split with :func:`fork_helper`
    (a sweep, whose helper solves, also needs :func:`forked_blas_checked`)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@cache
def forked_blas_checked() -> bool:
    """Whether numpy's BLAS and LAPACK are of the kind on which a helper of
    :func:`fork_helper` is checked to call them: an OpenBLAS built without
    OpenMP, whose threads are pthreads, as numpy's bundled build is. A test
    runs the equilibrium solves of a sweep helper forked after threaded
    BLAS calls, on numpy's bundled OpenBLAS 0.3.31. An OpenMP thread pool
    (MKL, or an OpenBLAS built with ``USE_OPENMP``) that the parent has
    used may deadlock in a forked child."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    for lib in ("blas", "lapack"):
        dep = deps.get(lib, {})
        build = dep.get("openblas configuration")
        if (not dep.get("name", "").endswith("openblas") or build is None
                or "USE_OPENMP" in build):
            return False
    return True


@contextmanager
def fork_helper(work: Callable[[], bytes], what: str) -> Iterator[Iterator[bytes]]:
    """Fork a helper that writes ``work()`` to a pipe and exits; the block
    runs in this process beside it and reads the pipe through the iterator
    it is given, in chunks of at most ``_PIPE_CHUNK`` bytes.

    ``work`` runs in the helper alone, on a copy of this process's memory.
    It must not use stdio, and it has no way back but its bytes. It may
    call BLAS and LAPACK only where :func:`forked_blas_checked` holds. The
    helper computes all of its bytes before it writes, so it does not block
    on the pipe while there is work to overlap. It never returns into the
    caller: it leaves through ``os._exit`` (no stdio flush, no atexit
    hooks), with status 0 only once every byte is written; a ``work`` that
    raises, or a reader that has closed the pipe (``EPIPE``), makes it exit
    1.

    If the block raises, the helper is killed, since nothing it computes
    will be read; its error then propagates. On leaving the block the read
    end is closed, so that a helper still writing gets ``EPIPE``, and then
    the helper is reaped. A helper that did not exit 0 after a block that
    did not raise raises ``OSError`` naming ``what``.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = memoryview(work())
            while data:
                data = data[os.write(write_fd, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)

    def chunks() -> Iterator[bytes]:
        while chunk := os.read(read_fd, _PIPE_CHUNK):
            yield chunk

    try:
        yield chunks()
    except BaseException:
        import signal   # here, not at the top: 0.9 ms of every start-up
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise OSError(f"{what} ended with status {status}")


def write_solution_csv(solution: MfeSolution, path: str) -> None:
    """Full equilibrium fields in row-major (t, x, Q) order, streamed one
    time level at a time through one :func:`write_csv` call.

    The ``x,Q`` text of every cell is formatted once per call; each level's
    template joins it behind that level's ``t`` and is rendered with one
    ``%`` over the level's ``(v, m, p)`` values. ``%.17g`` renders a float
    exactly as :func:`format_value` does.

    Where ``os.fork`` exists and this process may run on two CPUs or more,
    a forked helper renders levels ``[ceil(nt/2), nt)`` while this process
    renders and writes the levels before them; the helper's text then
    follows through a pipe, copied in chunks that need not end on a row.
    The bytes are those of the inline render. The helper is reaped before
    this returns or raises (see :func:`fork_helper`); a helper that fails
    raises ``OSError``.
    """
    g = solution.grid
    # Rows of every cell; the leading "" makes the join put ``t`` before the
    # first row as well.
    cells = [""] + ["%.17g,%.17g,%%.17g,%%.17g,%%.17g\n" % (x, q)
                    for x in g.x.tolist() for q in g.q.tolist()]
    times = g.t.tolist()

    def levels(start: int, stop: int) -> Iterator[str]:
        for level in range(start, stop):
            template = ("%.17g," % times[level]).join(cells)
            yield template % tuple(np.column_stack(
                [f[level].ravel() for f in (solution.v, solution.m, solution.p)]
            ).ravel().tolist())

    header = ("t", "x", "Q", "v", "m", "p")
    nt = len(times)
    if not two_cpus():
        write_csv(path, header, levels(0, nt))
        return
    split = (nt + 1) // 2
    with fork_helper(lambda: "".join(levels(split, nt)).encode("ascii"),
                     f"the solution export helper for {path}") as chunks:
        write_csv(path, header, itertools.chain(
            levels(0, split), (chunk.decode("ascii") for chunk in chunks)))


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

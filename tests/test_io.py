"""CSV export: the solution file against the six-column reference renderer,
read back exactly, and written through ``write_csv``, inline and through the
forked helper, with the helper reaped on every path; the storage-marginal
table against the value-by-value render."""

import csv
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import mfcache
import mfcache.io
from mfcache.cli import main
from mfcache.io import (
    format_value,
    write_csv,
    write_marginal_csv,
    write_solution_csv,
)
from mfcache.solver import Grid, MfeSolution, SolverConfig

from support import reference_solution_csv

SUBNORMAL = 5e-324


@pytest.fixture(scope="module")
def solution():
    # nx != nq, so an export with the x and Q columns swapped cannot pass.
    grid = Grid(t=np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]),
                x=np.linspace(0.1, 0.7, 5), q=np.linspace(0.0, 0.3, 4))
    rng = np.random.default_rng(11)
    p_max = SolverConfig().p_max(1.0, 1.0)
    v = -rng.exponential(1.0, grid.shape)
    v[0, 0, :4] = (-0.0, SUBNORMAL, -SUBNORMAL, 0.1 + 0.2)
    m = rng.uniform(0.5, 1.5, grid.shape)
    m[1, 2, 3] = SUBNORMAL
    m /= m.sum(axis=(1, 2), keepdims=True) * grid.cell_area
    p = rng.uniform(0.0, p_max, grid.shape)
    p[2, 4, :3] = (-0.0, SUBNORMAL, p_max)
    return MfeSolution(v=v, m=m, p=p, grid=grid, iterations=1,
                       residual_history=[0.0], converged=True, p_max=p_max)


def test_fixture_has_the_hard_values(solution):
    g = solution.grid
    fields = np.concatenate([f.ravel() for f in (solution.v, solution.m,
                                                 solution.p)])
    assert g.x.size != g.q.size
    assert (fields < 0).any() and (np.signbit(fields) & (fields == 0)).any()
    tiny = np.finfo(float).tiny
    assert ((fields != 0) & (np.abs(fields) < tiny)).sum() >= 4
    needs_17 = [float("%.16g" % value) != value
                for value in np.concatenate([g.t, g.x, g.q, fields]).tolist()]
    assert any(needs_17)
    assert solution.p.max() > 0.0


def test_export_is_byte_identical_to_the_reference(solution, tmp_path):
    path = tmp_path / "solution_base.csv"
    write_solution_csv(solution, str(path))
    assert path.read_bytes() == reference_solution_csv(solution).encode()


def test_export_reads_back_exactly(solution, tmp_path):
    path = tmp_path / "solution_base.csv"
    write_solution_csv(solution, str(path))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["t", "x", "Q", "v", "m", "p"]
        table = np.array([[float(cell) for cell in row] for row in reader])
    g = solution.grid
    nt, nx, nq = g.shape
    expected = {
        "t": np.repeat(g.t, nx * nq),
        "x": np.tile(np.repeat(g.x, nq), nt),
        "Q": np.tile(g.q, nt * nx),
        "v": solution.v.ravel(),
        "m": solution.m.ravel(),
        "p": solution.p.ravel(),
    }
    assert table.shape == (nt * nx * nq, 6)
    for column, (name, values) in zip(table.T, expected.items()):
        assert (column == values).all(), name
        assert (np.signbit(column) == np.signbit(values)).all(), name


@pytest.fixture
def csv_calls(monkeypatch):
    """The ``(path, header)`` of every ``mfcache.io.write_csv`` call; the
    benchmark counts CSV bytes and rows there."""
    calls = []
    real = mfcache.io.write_csv

    def spy(path, header, rows):
        calls.append((path, tuple(header)))
        real(path, header, rows)

    monkeypatch.setattr(mfcache.io, "write_csv", spy)
    return calls


def test_solution_goes_through_write_csv(solution, tmp_path, csv_calls):
    path = str(tmp_path / "solution_base.csv")
    write_solution_csv(solution, path)
    assert csv_calls == [(path, ("t", "x", "Q", "v", "m", "p"))]
    with open(path, "rb") as fh:
        assert fh.read() == reference_solution_csv(solution).encode()


def test_marginal_equals_the_value_by_value_render(solution, tmp_path,
                                                  csv_calls):
    # The value-by-value render is the marginal's former path: write_csv
    # rows of (t, Q, m), each value through format_value.
    g = solution.grid
    marginal = solution.m.sum(axis=1) * g.dx
    marginal[0, :3] = (-0.0, SUBNORMAL, 0.1 + 0.2)
    path = str(tmp_path / "density_marginal.csv")
    write_marginal_csv(g, marginal, path)
    assert csv_calls == [(path, ("t", "Q", "m"))]
    expected = "t,Q,m\n" + "".join(
        ",".join(format_value(v) for v in (g.t[i], g.q[j], marginal[i, j]))
        + "\n" for i in range(g.t.size) for j in range(g.q.size))
    with open(path, "rb") as fh:
        assert fh.read() == expected.encode()


def test_mixed_rows_render_as_before(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ("a", "b", "c"),
              [(1, 0.1, "name"), (np.int64(-3), np.float64(1.0 / 3.0), True),
               (2.0, -0.0, 5e-324)])
    assert path.read_text() == ("a,b,c\n"
                                "1,0.10000000000000001,name\n"
                                "-3,0.33333333333333331,1\n"
                                "2,-0,4.9406564584124654e-324\n")


def test_rendered_blocks_are_written_as_they_are(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), ("a", "b"), ["1,2\n3,4\n", (5, 6.5)])
    assert path.read_text() == "a,b\n1,2\n3,4\n5,6.5\n"


def random_solution(nt: int) -> MfeSolution:
    grid = Grid(t=np.linspace(0.0, 1.0, nt), x=np.linspace(0.1, 0.7, 3),
                q=np.linspace(0.0, 0.3, 4))
    rng = np.random.default_rng(nt)
    return MfeSolution(v=-rng.exponential(1.0, grid.shape),
                       m=np.full(grid.shape, 1.0 / (grid.cell_area * 12)),
                       p=rng.uniform(0.0, 0.5, grid.shape), grid=grid,
                       iterations=1, residual_history=[0.0], converged=True,
                       p_max=1.0)


@pytest.mark.parametrize("nt", [None, 4, 7],
                         ids=["hard-values-nt-3", "nt-4", "nt-7"])
def test_export_is_the_reference_inline_and_through_the_helper(
        solution, nt, forks, tmp_path, csv_calls):
    case = solution if nt is None else random_solution(nt)
    path = str(tmp_path / "solution_base.csv")
    write_solution_csv(case, path)
    with open(path, "rb") as fh:
        assert fh.read() == reference_solution_csv(case).encode()
    assert csv_calls == [(path, ("t", "x", "Q", "v", "m", "p"))]
    assert len(forks.pids) == forks.expected


@pytest.mark.parametrize("ending", ["exit-1", "killed"])
def test_failed_helper_is_an_io_failure(ending, monkeypatch, tmp_path,
                                        caplog):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    command = os.getpid()
    real_write = os.write

    def write(fd, data):
        # Only the helper writes with ``os.write``; it fails there.
        if os.getpid() != command:
            if ending == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise OSError(28, "No space left on device")
        return real_write(fd, data)

    monkeypatch.setattr(os, "write", write)
    scenario = tmp_path / "small.ini"
    scenario.write_text("[solver]\ngrid_nt = 21\ngrid_nx = 5\ngrid_nq = 5\n")
    assert main(["solve", "--scenario", str(scenario),
                 "--out", str(tmp_path / "out"), "--quiet"]) == 4
    assert "solution export helper" in caplog.text


# The command fails inside ``write_csv`` while the helper still has text to
# write, more than the pipe holds, after reading ``ROWS`` of what it was given.
FAILING_COMMAND = """
import os, sys
import numpy as np
import mfcache.io
from mfcache.solver import Grid, MfeSolution

os.sched_getaffinity = lambda pid: {0, 1}
ROWS = int(sys.argv[1])
grid = Grid(t=np.linspace(0.0, 1.0, 4), x=np.linspace(0.1, 0.7, 40),
            q=np.linspace(0.0, 1.0, 40))
rng = np.random.default_rng(3)
solution = MfeSolution(v=-rng.exponential(1.0, grid.shape),
                       m=np.full(grid.shape, 1.0 / (grid.cell_area * 1600)),
                       p=rng.uniform(0.0, 0.5, grid.shape), grid=grid,
                       iterations=1, residual_history=[0.0], converged=True,
                       p_max=1.0)

def write_csv(path, header, rows):
    for _ in zip(range(ROWS), rows):
        pass
    raise OSError("the disk is full")

mfcache.io.write_csv = write_csv
try:
    mfcache.io.write_solution_csv(solution, os.devnull)
except OSError as exc:
    assert str(exc) == "the disk is full", exc
else:
    raise AssertionError("the export did not raise")
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("reaped")
"""


@pytest.mark.parametrize("rows", [0, 3], ids=["before-any-row",
                                               "inside-the-pipe"])
def test_command_failure_mid_export_raises_and_reaps(rows):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(mfcache.__file__)),
        env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", FAILING_COMMAND, str(rows)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "reaped\n"


@pytest.mark.parametrize("blas, checked", [
    ({"name": "scipy-openblas", "openblas configuration":
      "OpenBLAS 0.3.31  USE64BITINT DYNAMIC_ARCH NO_AFFINITY Haswell "
      "MAX_THREADS=64"}, True),
    ({"name": "scipy-openblas", "openblas configuration":
      "OpenBLAS 0.3.31  USE64BITINT USE_OPENMP Haswell MAX_THREADS=64"}, False),
    ({"name": "openblas", "openblas configuration":
      "OpenBLAS 0.3.21 DYNAMIC_ARCH NO_AFFINITY Zen MAX_THREADS=64"}, True),
    ({"name": "openblas"}, False),
    ({"name": "mkl-sdl", "version": "2023.1"}, False),
    ({"name": "accelerate"}, False),
    (None, False),
], ids=["bundled-openblas", "openmp-openblas", "system-openblas",
        "openblas-of-unknown-build", "mkl", "accelerate", "none-reported"])
def test_forked_blas_is_checked_only_on_an_openblas_without_openmp(
        monkeypatch, blas, checked):
    monkeypatch.setattr(np, "show_config", lambda mode: {
        "Build Dependencies": {"blas": blas, "lapack": blas} if blas else {}})
    mfcache.io.forked_blas_checked.cache_clear()
    try:
        assert mfcache.io.forked_blas_checked() is checked
    finally:
        mfcache.io.forked_blas_checked.cache_clear()

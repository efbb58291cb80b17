"""CSV export: the solution file against the six-column reference renderer,
read back exactly, and written through ``write_csv``; the storage-marginal
table against the value-by-value render."""

import csv

import numpy as np
import pytest

import mfcache.io
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

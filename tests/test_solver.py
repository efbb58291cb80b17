from dataclasses import replace

import numpy as np
import pytest

from support import (
    audited_optimal_control,
    control_bracket,
    flip_storage_charge,
    reference_diffusion_band,
    reference_fpk_forward,
    reference_solve_mfe,
)

import mfcache.solver
from mfcache.costs import CostParams
from mfcache.errors import ConfigurationError, SolverError
from mfcache.experiments import solve_scenario
from mfcache.scenario import ScenarioConfig
from mfcache.solver import (
    Grid,
    MfgProblem,
    SolverConfig,
    _diffusion_inverse,
    control_scale,
    fpk_forward,
    gaussian_initial_density,
    hjb_backward,
    optimal_control,
    solve_banded,
    solve_mfe,
)


def make_problem(grid, mu=0.05, r=0.5, eta=0.1, rate=1.11, neighbors=1,
                 costs=None, x0=0.3, q0=0.7):
    costs = costs or CostParams()
    m0 = gaussian_initial_density(grid, x0, 0.05, q0, 0.05)
    return MfgProblem(mu=mu, reversion_rate=r, volatility=eta, costs=costs,
                      rate=rate, m0=m0,
                      neighbor_count=neighbors)


DEFAULT_GRID = Grid.make(201, 41, 41, 1.0, 1.0)


class TestGrid:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid.make(2, 41, 41, 1.0, 1.0)

    def test_nonuniform_rejected(self):
        t = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ConfigurationError):
            Grid(t=t, x=np.linspace(0.001, 1, 5), q=np.linspace(0, 1, 5))

    def test_cfl_guard(self):
        grid = Grid.make(5, 41, 41, 1.0, 1.0)  # dt = 0.25, dx = 0.025
        with pytest.raises(ConfigurationError):
            grid.check_cfl(1.0, 0.0, 0.0)
        grid.check_cfl(0.04, 0.04, 0.0)

    def test_cell_area(self):
        assert DEFAULT_GRID.cell_area == pytest.approx(
            DEFAULT_GRID.dx * DEFAULT_GRID.dq)


class TestOptimalControl:
    CONFIG = SolverConfig()

    def control(self, x, rate, overlap, dq_v, backhaul=1.0, content_size=1.0):
        """The control as the backward pass forms it: the scale from ``rate *
        x`` and ``v_Q``, then the water level; scalars as 0-d arrays."""
        active, scale = control_scale(np.asarray(rate * x), np.asarray(dq_v),
                                      self.CONFIG)
        return optimal_control(active, scale, overlap, backhaul, content_size,
                               self.CONFIG.p_max(backhaul, content_size))

    def test_negative_bracket_clamps_to_zero(self):
        assert self.control(0.5, 1.0, 0.0, 0.1) == 0.0

    def test_interior_value(self):
        # rate * x * dv = 2 -> p = 1 - 1/2
        assert self.control(0.5, 2.0, 0.0, 2.0) == pytest.approx(0.5)

    def test_scaling_invariance(self):
        p1 = self.control(0.4, 2.0, 0.1, 1.5)
        p2 = self.control(0.4, 2.0 * 7.0, 0.1, 1.5 / 7.0)
        assert p1 == pytest.approx(p2)

    def test_degenerate_gradient_guard(self):
        assert self.control(0.5, 2.0, 0.0, -1.0) == 0.0
        assert self.control(0.5, 2.0, 0.0, 1e-12) == 0.0

    def test_respects_admissible_cap(self):
        assert self.control(1.0, 100.0, 0.0, 100.0) <= self.CONFIG.p_max(1.0, 1.0)

    def test_scale_guards_the_inactive_states(self):
        # Active where v_Q exceeds the guard; there the scale is rate * x *
        # v_Q, elsewhere rate * x, so the water level never divides by 0.
        rate_x = np.array([[0.5], [2.0]])
        dqv = np.array([[0.0, -1.0, self.CONFIG.grad_eps, 3.0],
                        [1e-12, 2.0, np.inf, 0.25]])
        active, scale = control_scale(rate_x, dqv, self.CONFIG)
        assert active.tolist() == [[False, False, False, True],
                                   [False, True, True, True]]
        assert scale.tolist() == [[0.5, 0.5, 0.5, 1.5],
                                  [2.0, 4.0, np.inf, 0.5]]

    def test_broadcast_call_equals_scalar_calls_bit_for_bit(self):
        # The backward pass calls with rate * x of shape (nx, 1) against v_Q
        # of shape (nx, nq); each entry must be the scalar call's value.
        rng = np.random.default_rng(5)
        x = np.linspace(1e-6, 1.0, 9)[:, None]
        dqv = rng.uniform(-1.0, 8.0, (9, 7))
        dqv[0, :3] = (0.0, 1e-12, self.CONFIG.grad_eps)
        rate, overlap = 1.7, 0.13
        costs = (1.3, 0.9)
        cap = self.CONFIG.p_max(*costs)
        active, scale = control_scale(rate * x, dqv, self.CONFIG)
        p = optimal_control(active, scale, overlap, *costs, cap)
        expected = np.array([[self.control(float(x[i, 0]), rate, overlap,
                                           float(dqv[i, j]), *costs)
                              for j in range(dqv.shape[1])]
                             for i in range(x.shape[0])])
        assert p.shape == dqv.shape
        assert (p == 0.0).any() and (p == cap).any()
        assert ((p > 0.0) & (p < cap)).any()
        assert_bitwise_equal(p, expected)

    def test_matches_grid_search_on_random_states(self):
        rng = np.random.default_rng(7)
        config = self.CONFIG
        step = 1e-3
        for _ in range(30):
            x = rng.uniform(0.05, 1.0)
            rate = rng.uniform(0.05, 5.0)
            overlap = rng.uniform(0.0, 0.5)
            dqv = rng.uniform(-2.0, 6.0)
            costs = CostParams(backhaul=rng.uniform(0.6, 2.0),
                               content_size=rng.uniform(0.5, 2.0),
                               discard_rate=rng.uniform(0.0, 0.3))
            p_star, violations = audited_optimal_control(
                x, rate, overlap, dqv, 0.5, costs, config, control_step=step)
            cap = config.p_max(costs.backhaul, costs.content_size)
            grid = np.arange(0.0, min(cap, 1.0) + step / 2, step)
            values = control_bracket(grid, x, rate, overlap, dqv, 0.5, costs)
            best = grid[int(np.argmin(values))]
            assert violations == 0
            assert abs(p_star - best) <= step + 1e-12


class TestHjbBackward:
    def test_zero_cost_slice_stays_zero(self):
        # No drifts, no diffusion: the full-storage slice has zero running
        # cost and zero terminal value.
        grid = DEFAULT_GRID
        problem = make_problem(grid, r=0.0, eta=0.0,
                               costs=CostParams(discard_rate=0.0))
        m = np.repeat(problem.m0[None], grid.t.size, axis=0)
        v, p = hjb_backward(m, problem, grid, SolverConfig())
        assert np.abs(v[:, :, -1]).max() == 0.0
        assert p.max() == 0.0

    def test_pure_storage_cost_analytic(self):
        grid = DEFAULT_GRID
        gamma = 1.7
        problem = make_problem(grid, r=0.0, eta=0.0,
                               costs=CostParams(gamma=gamma, discard_rate=0.0))
        m = np.repeat(problem.m0[None], grid.t.size, axis=0)
        v, _ = hjb_backward(m, problem, grid, SolverConfig())
        expected = (gamma * (1.0 - grid.q)[None, None, :]
                    * (1.0 - grid.t)[:, None, None])
        assert np.abs(v - expected).max() < 1e-12

    def test_values_finite_and_nonnegative_on_default_problem(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        m = np.repeat(problem.m0[None], grid.t.size, axis=0)
        v, p = hjb_backward(m, problem, grid, SolverConfig())
        assert np.isfinite(v).all()
        assert v.min() >= -1e-12

    def test_grid_refinement_self_convergence(self):
        def value_field(nt, nx):
            grid = Grid.make(nt, nx, 41, 1.0, 1.0)
            problem = make_problem(grid)
            m = np.repeat(problem.m0[None], grid.t.size, axis=0)
            v, _ = hjb_backward(m, problem, grid, SolverConfig())
            return v

        coarse = value_field(201, 41)
        fine = value_field(401, 81)
        rel = (np.abs(fine[::2, ::2, :] - coarse).max()
               / np.abs(coarse).max())
        assert rel < 0.01

    def test_cfl_violation_raises(self):
        grid = Grid.make(5, 41, 41, 1.0, 1.0)
        problem = make_problem(grid, r=2.0)
        m = np.repeat(problem.m0[None], grid.t.size, axis=0)
        with pytest.raises(ConfigurationError):
            hjb_backward(m, problem, grid, SolverConfig())


class TestDiffusionSolve:
    """The inverse of the diffusion matrix is formed once per backward pass
    and applied per level; the result must be LAPACK's tridiagonal solve of
    the same matrix, to round-off."""

    @pytest.mark.parametrize("eta", [0.01, 2.0], ids=["weak", "strong"])
    @pytest.mark.parametrize("nx", [3, 4, 21, 31, 41])
    def test_matches_lapack_to_round_off(self, nx, eta):
        from scipy.linalg import solve_banded as lapack_solve_banded

        dx, dt = 1.0 / (nx - 1), 0.025
        inverse = _diffusion_inverse(nx, dx, dt, eta)
        band = reference_diffusion_band(nx, dx, dt, eta)
        rng = np.random.default_rng(nx)
        for _ in range(30):
            rhs = rng.normal(size=(nx, 9)) * 10.0 ** rng.integers(-3, 4, (nx, 9))
            zeros = rng.random((nx, 9))
            rhs[zeros < 0.25] = 0.0
            rhs[zeros > 0.75] = -0.0
            rhs[:, 0] = -0.0
            rhs[:, 1] = np.where(np.arange(nx) % 2, 0.0, -0.0)
            before = rhs.copy()
            out = solve_banded(inverse, rhs)
            expected = lapack_solve_banded((1, 1), band, rhs)
            bound = 1e-13 * np.abs(rhs).max(axis=0)
            assert (np.abs(out - expected) <= bound).all()
            assert rhs.tobytes() == before.tobytes()

    def test_no_diffusion_inverse_is_identity(self):
        inverse = _diffusion_inverse(21, 0.05, 0.025, 0.0)
        assert np.array_equal(inverse, np.eye(21))
        assert not np.signbit(inverse).any()

    # One solve per stepped level, nt - 1 = 40, with or without diffusion.
    @pytest.mark.parametrize("eta, solves", [(0.1, 40), (0.0, 40)])
    def test_one_solve_per_level(self, eta, solves, monkeypatch):
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid, eta=eta)
        m = np.repeat(problem.m0[None], grid.t.size, axis=0)
        real_solve = mfcache.solver.solve_banded
        calls = []

        def counting_solve(*args):
            calls.append(None)
            return real_solve(*args)

        monkeypatch.setattr(mfcache.solver, "solve_banded", counting_solve)
        hjb_backward(m, problem, grid, SolverConfig())
        assert len(calls) == solves


class TestFpkForward:
    def test_no_dynamics_keeps_density(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid, r=0.0, eta=0.0,
                               costs=CostParams(discard_rate=0.0))
        p = np.zeros(grid.shape)
        m = fpk_forward(p, problem.m0, problem, grid, SolverConfig())
        assert np.abs(m - problem.m0[None]).max() == 0.0

    def test_constant_storage_drift_translates_mean(self):
        grid = DEFAULT_GRID
        costs = CostParams(discard_rate=0.1)
        problem = make_problem(grid, r=0.0, eta=0.0, costs=costs, q0=0.5)
        level = 0.3  # net drift e - L p = -0.2
        p = np.full(grid.shape, level)
        m = fpk_forward(p, problem.m0, problem, grid, SolverConfig())
        drift = costs.discard_rate - costs.content_size * level
        for t_idx in (50, 100, 200):
            slice_q = m[t_idx].sum(axis=0) * grid.dx
            mean_q = np.sum(slice_q * grid.q) * grid.dq
            mean_0 = np.sum((m[0].sum(axis=0) * grid.dx) * grid.q) * grid.dq
            expected = mean_0 + drift * grid.t[t_idx]
            assert abs(mean_q - expected) < grid.dq

    def test_diffusion_only_variance_growth(self):
        grid = DEFAULT_GRID
        eta = 0.15
        problem = make_problem(grid, r=0.0, eta=eta,
                               costs=CostParams(discard_rate=0.0),
                               x0=0.5)
        p = np.zeros(grid.shape)
        m = fpk_forward(p, problem.m0, problem, grid, SolverConfig())

        def x_variance(level):
            w = m[level].sum(axis=1) * grid.dq * grid.dx
            mean = np.sum(w * grid.x)
            return np.sum(w * (grid.x - mean) ** 2)

        t_idx = 60  # t = 0.3, well before boundary contact
        expected = x_variance(0) + eta ** 2 * grid.t[t_idx]
        assert abs(x_variance(t_idx) - expected) / expected < 0.05

    def test_mass_conserved_and_nonnegative(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid, r=1.0, eta=0.2)
        p = np.full(grid.shape, 0.5)
        m = fpk_forward(p, problem.m0, problem, grid, SolverConfig())
        mass = m.reshape(grid.t.size, -1).sum(axis=1) * grid.cell_area
        assert np.abs(mass - 1.0).max() < 1e-6
        assert m.min() >= 0.0

    def test_rejects_unnormalized_initial_density(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        with pytest.raises(ConfigurationError):
            fpk_forward(np.zeros(grid.shape), problem.m0 * 2.0, problem, grid,
                        SolverConfig())


class TestForwardMoments:
    """The forward pass's first moments against their exact recursion, an
    oracle that does not share the scheme's code.

    With no diffusion and a constant control the storage drift is the
    constant ``b = e - L p``, and the zero-flux finite-volume update moves
    the storage mean by ``b dt (1 - w)``, where ``w`` is the mass in the
    last cell downstream (the wall cell, ``Q = C`` for ``b > 0`` and
    ``Q = 0`` for ``b < 0``): exactly ``b dt`` per level until mass reaches
    that wall. The popularity drift ``r (mu - x)`` is taken at the cell
    faces; with ``mu`` above the grid it points up everywhere, and each
    cell's mass moves at the drift of its upper face, so the popularity
    mean follows ``E' = E + r dt (mu - dx/2 - E)`` until mass reaches the
    top row. Each pass moves the initial block, which sits away from every
    wall, one cell per level at most: the early levels check the plain
    recursions, the later ones the wall terms.
    """

    MU, RATE = 0.9, 0.5
    COSTS = CostParams(discard_rate=0.6)

    @pytest.fixture(scope="class")
    def grid(self):
        # x stays below mu; dt (|b_x|/dx + |b_q|/dq) <= 0.55.
        return Grid(t=np.linspace(0.0, 1.0, 81), x=np.linspace(0.1, 0.5, 21),
                    q=np.linspace(0.0, 1.0, 41))

    def moments(self, grid, level):
        """Per time level: mass, ``E[x]``, ``E[Q]``, the mass of the top x
        row and of the first and last ``Q`` column."""
        m = self.run(grid, level) * grid.cell_area
        return (m.sum(axis=(1, 2)), (m.sum(axis=2) * grid.x).sum(axis=1),
                (m.sum(axis=1) * grid.q).sum(axis=1), m[:, -1, :].sum(axis=1),
                m[:, :, 0].sum(axis=1), m[:, :, -1].sum(axis=1))

    def run(self, grid, level):
        m0 = np.zeros(grid.shape[1:])
        m0[2:7, 15:26] = np.random.default_rng(4).uniform(0.5, 1.5, (5, 11))
        m0 /= m0.sum() * grid.cell_area
        problem = MfgProblem(mu=self.MU, reversion_rate=self.RATE,
                             volatility=0.0, costs=self.COSTS,
                             rate=1.0, m0=m0,
                             neighbor_count=1)
        return fpk_forward(np.full(grid.shape, level), m0, problem, grid,
                           SolverConfig())

    @pytest.mark.parametrize("level", [0.0, 0.95], ids=["b>0", "b<0"])
    def test_storage_mean_moves_by_the_drift(self, grid, level):
        mass, _, mean_q, _, first, last = self.moments(grid, level)
        b = self.COSTS.discard_rate - self.COSTS.content_size * level
        wall = last if b > 0 else first
        step = np.diff(mean_q)
        np.testing.assert_allclose(step, b * grid.dt * (1.0 - wall[:-1]),
                                   rtol=0, atol=1e-13)
        # Mass first reaches the wall cell after 15 levels.
        assert (wall[:15] == 0.0).all() and wall[15] > 0.0
        np.testing.assert_allclose(step[:15], b * grid.dt, rtol=0, atol=1e-13)
        assert wall[-1] > 1e-3
        np.testing.assert_allclose(mass, 1.0, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("level", [0.0, 0.95], ids=["b>0", "b<0"])
    def test_popularity_mean_relaxes_toward_mu(self, grid, level):
        _, mean_x, _, top, _, _ = self.moments(grid, level)
        target = self.MU - grid.dx / 2.0
        x_top = grid.x[-1]
        # A mass w in the top row does not move: E' = E + r dt (target (1 -
        # w) - (E - x_top w)).
        expected = mean_x[:-1] + self.RATE * grid.dt * (
            target * (1.0 - top[:-1]) - (mean_x[:-1] - x_top * top[:-1]))
        np.testing.assert_allclose(mean_x[1:], expected, rtol=0, atol=1e-13)
        # Mass first reaches the top row after 14 levels.
        assert (top[:14] == 0.0).all() and top[14] > 0.0
        exact = target + (mean_x[0] - target) * (
            1.0 - self.RATE * grid.dt) ** np.arange(15)
        np.testing.assert_allclose(mean_x[:15], exact, rtol=0, atol=1e-13)
        assert top[-1] > 1e-3


class TestSolveMfe:
    def test_infinite_tolerance_returns_first_sweep(self):
        # The largest finite tolerance never binds (configuration values
        # must be finite).
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        solution = solve_mfe(problem, grid,
                             SolverConfig(tolerance=np.finfo(float).max))
        assert solution.converged
        assert solution.iterations == 1

    def test_exhausted_iterations_flagged(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        solution = solve_mfe(problem, grid,
                             SolverConfig(tolerance=1e-12, max_iterations=1))
        assert not solution.converged
        assert solution.iterations == 1

    def test_static_popularity_converges_below_request_probability(self):
        grid = DEFAULT_GRID
        for x0 in (0.4, 0.7):
            problem = make_problem(grid, mu=x0, r=0.0, eta=0.0, x0=x0)
            solution = solve_mfe(problem, grid, SolverConfig())
            assert solution.converged
            x_idx = int(np.argmin(np.abs(grid.x - x0)))
            assert solution.p[:, x_idx, :].max() < x0

    def test_converged_solution_passes_field_checks(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        solution = solve_mfe(problem, grid, SolverConfig())
        assert solution.converged
        assert solution.residual_history[-1] < 1e-4
        assert np.isfinite(solution.residual_history).all()
        mass = (solution.m.reshape(grid.t.size, -1).sum(axis=1)
                * grid.cell_area)
        assert np.abs(mass - 1.0).max() < 1e-6
        assert solution.p.min() >= 0.0
        assert solution.p.max() <= solution.p_max

    @pytest.mark.parametrize("live", [False, True], ids=["default", "live-control"])
    def test_converged_solution_is_a_fixed_point(self, live, monkeypatch):
        # The default model's control is identically zero; a charge on
        # unused storage makes it active on most nodes, so the backward pass
        # then depends on the density through the overlap.
        grid = Grid.make(61, 31, 31, 1.0, 1.0)
        costs = None
        if live:
            flip_storage_charge(monkeypatch)
            costs = CostParams(gamma=30.0)
        problem = make_problem(grid, costs=costs)
        config = SolverConfig()
        solution = solve_mfe(problem, grid, config)
        assert solution.converged
        assert solution.iterations <= 4
        if live:
            assert (solution.p > 0).mean() > 0.5
        v, p = hjb_backward(solution.m, problem, grid, config)
        m = fpk_forward(p, problem.m0, problem, grid, config)
        assert np.abs(v - solution.v).max() < config.tolerance
        assert np.abs(m - solution.m).max() < config.tolerance

    def test_rising_residual_scales_the_step(self, monkeypatch, caplog):
        # The second forward pass returns a far, narrow density, so the
        # second residual exceeds the first; every later density step is
        # then a `damping` fraction of the full one.
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        far = np.repeat(gaussian_initial_density(grid, 0.8, 0.03, 0.2, 0.03)[None],
                        grid.t.size, axis=0)
        real_fpk = mfcache.solver.fpk_forward
        returned = []

        def fpk_forward(*args):
            out = far if len(returned) == 1 else real_fpk(*args)
            returned.append(out)
            return out

        monkeypatch.setattr(mfcache.solver, "fpk_forward", fpk_forward)
        damping = 0.25
        flagged = solve_mfe(problem, grid, SolverConfig(
            damping=damping, tolerance=1e-12, max_iterations=3))
        assert not flagged.converged
        history = flagged.residual_history
        assert history[1] > history[0] > history[2]
        assert np.array_equal(flagged.m, damping * returned[2]
                              + (1.0 - damping) * far)

        returned.clear()
        with caplog.at_level("DEBUG", logger="mfcache.solver"):
            solution = solve_mfe(problem, grid, SolverConfig(damping=damping))
        assert solution.converged
        steps = [record.args[2] for record in caplog.records
                 if record.msg.startswith("sweep")]
        assert steps == [1.0, 1.0] + [damping] * (solution.iterations - 2)

    def test_solve_writes_no_input(self, monkeypatch):
        # The memo keys a solve on the bytes of problem.m0, and a forward
        # pass may hand back an array it keeps: the solve writes into
        # neither. The second forward pass returns a far density, so the
        # third sweep relaxes with a step below 1.
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m0_bytes = problem.m0.tobytes()
        far = gaussian_initial_density(grid, 0.8, 0.03, 0.2, 0.03)
        real_fpk = mfcache.solver.fpk_forward
        shared = np.empty(grid.shape)
        written = []

        def fpk_forward(*args):
            if written:
                assert shared.tobytes() == written[-1]
            shared[...] = far if len(written) == 1 else real_fpk(*args)
            written.append(shared.tobytes())
            return shared

        monkeypatch.setattr(mfcache.solver, "fpk_forward", fpk_forward)
        solution = solve_mfe(problem, grid, SolverConfig(
            damping=0.25, tolerance=1e-12, max_iterations=4))
        assert len(written) == 4
        assert solution.residual_history[1] > solution.residual_history[0]
        assert shared.tobytes() == written[-1]
        assert problem.m0.tobytes() == m0_bytes
        assert not np.shares_memory(solution.m, shared)


def closed_form_value_error(nt: int, nq: int) -> tuple[float, float]:
    """``max |v - v_exact|`` of the default scenario solved on an
    ``nt x 41 x nq`` grid, and its bound ``gamma T dq / (2 C)``.

    No caching pays there, so ``p = 0`` and the remaining storage drifts at
    ``+e`` until it reaches ``C``; the value is the storage charge along that
    path, ``(gamma/C) [(C - Q) tau - e tau^2 / 2]`` with
    ``tau = min(T - t, (C - Q)/e)``, whatever the popularity.
    """
    scenario = ScenarioConfig()
    scenario = replace(scenario, solver=replace(scenario.solver, grid_nt=nt,
                                                grid_nq=nq))
    solution = solve_scenario(scenario)
    g, c = solution.grid, scenario.costs
    free = c.storage - g.q
    tau = np.minimum(g.t[-1] - g.t[:, None], free / c.discard_rate)
    exact = c.gamma / c.storage * (free * tau - c.discard_rate * tau ** 2 / 2)
    error = float(np.abs(solution.v - exact[:, None, :]).max())
    assert not solution.p.any()
    return error, c.gamma * g.t[-1] * g.dq / (2.0 * c.storage)


class TestClosedFormValue:
    """The solved value against its closed form at the default scenario, an
    oracle that does not share the scheme's discretization.

    The bound is the modified-equation estimate of the first-order upwind
    ``Q`` step: numerical diffusion ``e dq / 2`` acting for the horizon
    ``T`` on the value's curvature ``gamma / (C e)`` behind the kink at
    ``Q = C - e (T - t)`` gives ``gamma T dq / (2 C)``. A monotone scheme
    converges at least at half order near a kink (Crandall & Lions 1984),
    so halving ``dt`` and ``dq`` must shrink the error by ``2 ** -0.5``.
    """

    @pytest.fixture(scope="class")
    def errors(self):
        return [closed_form_value_error(nt, nq)
                for nt, nq in ((201, 41), (401, 81))]

    @pytest.mark.parametrize("level", [0, 1], ids=["201x41x41", "401x41x81"])
    def test_value_is_within_the_upwind_bound(self, errors, level):
        error, bound = errors[level]
        assert error <= bound

    def test_refinement_shrinks_the_error_at_half_order(self, errors):
        (coarse, _), (fine, _) = errors
        assert fine <= 2.0 ** -0.5 * coarse


class TestSolutionChecks:
    """An equilibrium's fields are checked once, when the solution is built."""

    @pytest.fixture(scope="class")
    def solution(self):
        grid = Grid.make(21, 11, 11, 1.0, 1.0)
        return solve_mfe(make_problem(grid), grid, SolverConfig())

    def test_density_validation_catches_mass_loss(self, solution):
        with pytest.raises(SolverError, match="mass"):
            replace(solution, m=np.zeros_like(solution.m))

    def test_value_validation_catches_nan(self, solution):
        values = solution.v.copy()
        values[1, 1, 1] = np.nan
        with pytest.raises(SolverError):
            replace(solution, v=values)

    @pytest.mark.parametrize("name", ["m", "p"])
    def test_nan_density_or_control_rejected(self, solution, name):
        values = getattr(solution, name).copy()
        values[3, 5, 5] = np.nan
        with pytest.raises(SolverError):
            replace(solution, **{name: values})


def assert_bitwise_equal(actual, expected):
    """Equal values and equal signs of zero."""
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


REFERENCE_CASES = [
    (DEFAULT_GRID, None, False),
    (Grid.make(61, 31, 31, 1.0, 1.0), CostParams(backhaul=2.0, gamma=0.1), False),
    (Grid.make(61, 31, 31, 1.0, 1.0), CostParams(gamma=30.0), True),
]
REFERENCE_IDS = ["default-grid", "backhaul-2-gamma-0.1", "live-control-gamma-30"]


class TestReferenceLevelStep:
    """The passes validate on entry and reuse buffers; their fields must
    equal the reference level steps of ``tests/support.py`` bit for bit, and
    those of a LAPACK diffusion solve to round-off."""

    @pytest.mark.parametrize("grid, costs, live", REFERENCE_CASES,
                             ids=REFERENCE_IDS)
    def test_solve_mfe_matches_reference(self, grid, costs, live, monkeypatch):
        if live:
            flip_storage_charge(monkeypatch)
        problem = make_problem(grid, costs=costs)
        config = SolverConfig()
        v, m, p, residuals = reference_solve_mfe(problem, grid, config)
        solution = solve_mfe(problem, grid, config)
        if live:
            assert (solution.p > 0).mean() > 0.5
            assert len(residuals) > 2
        assert_bitwise_equal(solution.v, v)
        assert_bitwise_equal(solution.m, m)
        assert_bitwise_equal(solution.p, p)
        assert solution.residual_history == residuals

    @pytest.mark.parametrize("grid, costs, live", REFERENCE_CASES,
                             ids=REFERENCE_IDS)
    def test_solve_mfe_matches_the_lapack_solve(self, grid, costs, live,
                                                monkeypatch):
        # The same fixed point with each diffusion step solved by LAPACK's
        # banded solve of the same matrix: the fields agree to round-off.
        from scipy.linalg import solve_banded as lapack_solve_banded

        if live:
            flip_storage_charge(monkeypatch)
        problem = make_problem(grid, costs=costs)
        config = SolverConfig()
        solution = solve_mfe(problem, grid, config)
        band = reference_diffusion_band(grid.x.size, grid.dx, grid.dt,
                                        problem.volatility)
        monkeypatch.setattr(mfcache.solver, "solve_banded",
                            lambda inverse, rhs: lapack_solve_banded((1, 1), band, rhs))
        lapack = solve_mfe(problem, grid, config)
        assert solution.iterations == lapack.iterations
        v_scale = np.abs(lapack.v).max()
        assert np.abs(solution.v - lapack.v).max() <= 1e-12 * v_scale
        assert np.abs(solution.m - lapack.m).max() <= 1e-12
        assert np.abs(solution.p - lapack.p).max() <= 1e-12

    def test_fpk_matches_reference_under_active_control(self):
        grid = Grid.make(61, 31, 31, 1.0, 1.0)
        problem = make_problem(grid)
        rng = np.random.default_rng(11)
        p = rng.uniform(0.0, 0.6, grid.shape)
        p[:, :, ::4] = 0.0
        m = fpk_forward(p, problem.m0, problem, grid, SolverConfig())
        assert_bitwise_equal(m, reference_fpk_forward(p, problem.m0, problem, grid))


class TestEntryValidation:
    def _density(self, grid, problem):
        return np.repeat(problem.m0[None], grid.t.size, axis=0)

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_problem_rejects_a_rate_that_is_not_positive_and_finite(self, rate):
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match=r"problem\.rate"):
            make_problem(grid, rate=rate)

    def test_hjb_rejects_one_level_with_mass_off(self):
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m = self._density(grid, problem)
        m[17] *= 1.0 + 1e-3
        with pytest.raises(ConfigurationError, match="t index 17"):
            hjb_backward(m, problem, grid, SolverConfig())

    def test_hjb_rejects_negative_entry(self):
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m = self._density(grid, problem)
        m[23, 4, 5] = -1e-9
        with pytest.raises(ConfigurationError, match="nonnegative at t index 23"):
            hjb_backward(m, problem, grid, SolverConfig())

    def test_hjb_rejects_nan_density(self):
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m = self._density(grid, problem)
        m[9, 10, 10] = np.nan
        with pytest.raises(ConfigurationError, match="NaN entry at t index 9"):
            hjb_backward(m, problem, grid, SolverConfig())

    def test_hjb_rejects_grid_below_the_floor_by_name(self):
        grid = Grid.make(41, 21, 21, 1.0, 1.0, x_min=1e-9)
        problem = make_problem(grid)
        with pytest.raises(ConfigurationError, match="grid.x"):
            hjb_backward(self._density(grid, problem), problem, grid,
                         SolverConfig())

    def test_hjb_non_finite_update_is_solver_error(self, monkeypatch):
        # A diffusion solve that returns a NaN must surface as a SolverError
        # naming the level it was written to. Levels are filled from
        # t index 39 down, so the 32nd solve writes t index 8.
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m = self._density(grid, problem)
        real_solve = mfcache.solver.solve_banded
        calls = []

        def solve_banded(*args, **kwargs):
            out = real_solve(*args, **kwargs)
            calls.append(None)
            if len(calls) == 32:
                out[10, 10] = np.nan
            return out

        monkeypatch.setattr(mfcache.solver, "solve_banded", solve_banded)
        with pytest.raises(SolverError, match="t index 8\\b"):
            hjb_backward(m, problem, grid, SolverConfig())

    def test_fpk_rejects_nan_initial_density(self):
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m0 = problem.m0.copy()
        m0[10, 10] = np.nan
        with pytest.raises(ConfigurationError, match="initial density has a NaN"):
            fpk_forward(np.zeros(grid.shape), m0, problem, grid, SolverConfig())

    def test_fpk_error_names_first_failing_level(self):
        # A control far outside the admissible range breaks the step-size
        # condition at two levels; the first broken level is reported.
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid, q0=0.5)
        p = np.zeros(grid.shape)
        p[7] = 50.0
        p[12] = 50.0
        with pytest.raises(SolverError, match="t index 8\\b"):
            fpk_forward(p, problem.m0, problem, grid, SolverConfig())

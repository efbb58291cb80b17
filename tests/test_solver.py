import numpy as np
import pytest

from support import reference_fpk_forward, reference_solve_mfe

from mfcache.costs import CostParams
from mfcache.errors import ConfigurationError, SolverError
from mfcache.solver import (
    Grid,
    MfgProblem,
    ScalarField,
    SolverConfig,
    audited_optimal_control,
    control_bracket,
    fpk_forward,
    gaussian_initial_density,
    hjb_backward,
    optimal_control,
    solve_mfe,
)


def make_problem(grid, mu=0.05, r=0.5, eta=0.1, rate=1.11, neighbors=1,
                 costs=None, x0=0.3, q0=0.7):
    costs = costs or CostParams()
    m0 = gaussian_initial_density(grid, x0, 0.05, q0, 0.05)
    return MfgProblem(mu=mu, reversion_rate=r, volatility=eta, costs=costs,
                      rate_path=np.full(grid.t.size, rate), m0=m0,
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

    def test_negative_bracket_clamps_to_zero(self):
        assert optimal_control(0.5, 1.0, 0.0, 0.1, 1.0, 1.0, self.CONFIG) == 0.0

    def test_interior_value(self):
        # rate * x * dv = 2 -> p = 1 - 1/2
        assert optimal_control(0.5, 2.0, 0.0, 2.0, 1.0, 1.0, self.CONFIG) \
            == pytest.approx(0.5)

    def test_scaling_invariance(self):
        p1 = optimal_control(0.4, 2.0, 0.1, 1.5, 1.0, 1.0, self.CONFIG)
        p2 = optimal_control(0.4, 2.0 * 7.0, 0.1, 1.5 / 7.0, 1.0, 1.0, self.CONFIG)
        assert p1 == pytest.approx(p2)

    def test_degenerate_gradient_guard(self):
        assert optimal_control(0.5, 2.0, 0.0, -1.0, 1.0, 1.0, self.CONFIG) == 0.0
        assert optimal_control(0.5, 2.0, 0.0, 1e-12, 1.0, 1.0, self.CONFIG) == 0.0

    def test_respects_admissible_cap(self):
        p = optimal_control(1.0, 100.0, 0.0, 100.0, 1.0, 1.0, self.CONFIG)
        assert p <= self.CONFIG.p_max(1.0, 1.0)

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


class TestSolveMfe:
    def test_infinite_tolerance_returns_first_sweep(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        solution = solve_mfe(problem, grid, SolverConfig(tolerance=np.inf))
        assert solution.converged
        assert solution.iterations == 1

    def test_exhausted_iterations_flagged(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        solution = solve_mfe(problem, grid,
                             SolverConfig(tolerance=1e-12, max_iterations=2))
        assert not solution.converged
        assert solution.iterations == 2

    def test_static_popularity_converges_below_request_probability(self):
        grid = DEFAULT_GRID
        for x0 in (0.4, 0.7):
            problem = make_problem(grid, mu=x0, r=0.0, eta=0.0, x0=x0)
            solution = solve_mfe(problem, grid, SolverConfig())
            assert solution.converged
            x_idx = int(np.argmin(np.abs(grid.x - x0)))
            assert solution.p.values[:, x_idx, :].max() < x0

    def test_converged_solution_passes_field_checks(self):
        grid = DEFAULT_GRID
        problem = make_problem(grid)
        solution = solve_mfe(problem, grid, SolverConfig())
        assert solution.converged
        assert solution.residual_history[-1] < 1e-4
        assert np.isfinite(solution.residual_history).all()
        mass = (solution.m.values.reshape(grid.t.size, -1).sum(axis=1)
                * grid.cell_area)
        assert np.abs(mass - 1.0).max() < 1e-6
        assert solution.p.values.min() >= 0.0
        assert solution.p.values.max() <= solution.p_max


class TestScalarField:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ScalarField(np.zeros((3, 3, 3)), "mystery")

    def test_density_validation_catches_mass_loss(self):
        grid = Grid.make(3, 3, 3, 1.0, 1.0)
        field = ScalarField(np.zeros(grid.shape), "density")
        with pytest.raises(SolverError):
            field.validate(grid)

    def test_value_validation_catches_nan(self):
        grid = Grid.make(3, 3, 3, 1.0, 1.0)
        values = np.zeros(grid.shape)
        values[1, 1, 1] = np.nan
        with pytest.raises(SolverError):
            ScalarField(values, "value-function").validate(grid)


def assert_bitwise_equal(actual, expected):
    """Equal values and equal signs of zero."""
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


class TestReferenceLevelStep:
    """The passes validate on entry and reuse buffers; their fields must
    equal the reference level steps of ``tests/support.py`` bit for bit."""

    @pytest.mark.parametrize("grid, costs", [
        (DEFAULT_GRID, None),
        (Grid.make(61, 31, 31, 1.0, 1.0), CostParams(backhaul=2.0, gamma=0.1)),
    ], ids=["default-grid", "backhaul-2-gamma-0.1"])
    def test_solve_mfe_matches_reference(self, grid, costs):
        problem = make_problem(grid, costs=costs)
        config = SolverConfig()
        v, m, p, residuals = reference_solve_mfe(problem, grid, config)
        solution = solve_mfe(problem, grid, config)
        assert_bitwise_equal(solution.v.values, v)
        assert_bitwise_equal(solution.m.values, m)
        assert_bitwise_equal(solution.p.values, p)
        assert solution.residual_history == residuals

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

    def test_hjb_non_finite_update_is_solver_error(self):
        # A NaN density passes the sign and mass checks; the non-finite
        # update it causes must surface as a SolverError naming the level.
        grid = Grid.make(41, 21, 21, 1.0, 1.0)
        problem = make_problem(grid)
        m = self._density(grid, problem)
        m[9, 10, 10] = np.nan
        with pytest.raises(SolverError, match="t index 8"):
            hjb_backward(m, problem, grid, SolverConfig())

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

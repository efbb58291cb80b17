import numpy as np
import pytest

from mfcache.costs import CostParams
from mfcache.errors import ConfigurationError, PolicyError
from mfcache.policies import (
    BaselinePolicy,
    MfPolicy,
    PolicyContext,
    RandomPolicy,
)
from mfcache.solver import Grid, MfgProblem, SolverConfig, gaussian_initial_density, solve_mfe


def make_ctx(x_hat, remaining, t=0.5, rate=1.2, p_max=None):
    x = np.atleast_1d(np.asarray(x_hat, dtype=float))
    q = np.atleast_1d(np.asarray(remaining, dtype=float))
    if p_max is None:
        p_max = SolverConfig().p_max(1.0, 1.0)
    return PolicyContext(t=t, x_hat=x, remaining=q, rate=rate, backhaul=1.0,
                         content_size=1.0, storage=1.0, similar_count=20,
                         p_max=p_max)


@pytest.fixture(scope="module")
def solution():
    grid = Grid.make(51, 21, 21, 1.0, 1.0)
    m0 = gaussian_initial_density(grid, 0.3, 0.05, 0.7, 0.05)
    problem = MfgProblem(mu=0.05, reversion_rate=0.5, volatility=0.1,
                         costs=CostParams(), rate_path=np.full(51, 1.11),
                         m0=m0, neighbor_count=1)
    return solve_mfe(problem, grid, SolverConfig())


class TestMfPolicy:
    def test_refuses_unconverged(self, solution):
        grid = solution.grid
        problem = MfgProblem(mu=0.05, reversion_rate=0.5, volatility=0.1,
                             costs=CostParams(), rate_path=np.full(51, 1.11),
                             m0=gaussian_initial_density(grid, 0.3, 0.05, 0.7, 0.05),
                             neighbor_count=1)
        bad = solve_mfe(problem, grid, SolverConfig(tolerance=1e-12,
                                                    max_iterations=1))
        with pytest.raises(PolicyError):
            MfPolicy(bad)

    def test_grid_node_identity(self, solution):
        policy = MfPolicy(solution)
        g = solution.grid
        t_i, x_i, q_i = 10, 7, 13
        ctx = make_ctx(g.x[x_i], g.q[q_i], t=float(g.t[t_i]))
        assert policy(ctx)[0] == pytest.approx(
            solution.p.values[t_i, x_i, q_i])

    def test_between_nodes_is_convex_combination(self, solution):
        policy = MfPolicy(solution)
        g = solution.grid
        t = float((g.t[10] + g.t[11]) / 2)
        x = float((g.x[7] + g.x[8]) / 2)
        q = float((g.q[13] + g.q[14]) / 2)
        corners = solution.p.values[10:12, 7:9, 13:15]
        value = policy(make_ctx(x, q, t=t))[0]
        assert corners.min() - 1e-12 <= value <= corners.max() + 1e-12

    def test_out_of_grid_clamps(self, solution):
        policy = MfPolicy(solution)
        g = solution.grid
        ctx = make_ctx(1.0, 1.0, t=10.0)  # t far beyond the horizon
        assert policy(ctx)[0] == pytest.approx(solution.p.values[-1, -1, -1])

    def test_vectorizes_over_station_batches(self, solution):
        policy = MfPolicy(solution)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 1.0, (5, 7))
        q = rng.uniform(0.0, 1.0, (5, 7))
        out = policy(make_ctx(x, q))
        assert out.shape == (5, 7)
        assert (out >= 0.0).all() and (out <= 1.0).all()


class TestBaselinePolicy:
    def test_dead_content_not_cached_at_unit_budget(self):
        policy = BaselinePolicy()
        out = policy(make_ctx(1e-6, 0.5, rate=1.0))
        assert out[0] == pytest.approx(0.0, abs=1e-5)

    def test_reference_value(self):
        policy = BaselinePolicy()
        out = policy(make_ctx(0.5, 0.5, rate=2.0))  # rate*x = 1
        assert out[0] == pytest.approx(0.5)

    def test_monotone_in_popularity(self):
        policy = BaselinePolicy()
        xs = np.linspace(1e-3, 1.0, 50)
        out = policy(make_ctx(xs, np.full(50, 0.5)))
        assert (np.diff(out) >= 0).all()

    def test_respects_cap(self):
        policy = BaselinePolicy()
        out = policy(make_ctx(1.0, 0.5, rate=1e9))
        assert out[0] <= SolverConfig().p_max(1, 1)


class TestRandomPolicy:
    def test_requires_stream(self):
        with pytest.raises(ConfigurationError):
            RandomPolicy()(make_ctx(0.5, 0.5))

    def test_bounds_and_mean(self):
        policy = RandomPolicy()
        rng = np.random.default_rng(0)
        draws = policy(make_ctx(np.full(100_000, 0.5),
                                np.full(100_000, 0.5)), rng)
        cap = SolverConfig().p_max(1, 1)
        assert draws.min() >= 0.0 and draws.max() <= cap
        se = cap / np.sqrt(12 * draws.size)
        assert abs(draws.mean() - cap / 2) < 3 * se

    def test_same_seed_same_sequence(self):
        policy = RandomPolicy()
        ctx = make_ctx(np.full(10, 0.5), np.full(10, 0.5))
        a = policy(ctx, np.random.default_rng(9))
        b = policy(ctx, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestPolicyContext:
    def test_rejects_unfloored_popularity(self):
        with pytest.raises(ConfigurationError):
            make_ctx(0.0, 0.5)

    def test_rejects_storage_outside_bounds(self):
        with pytest.raises(ConfigurationError):
            make_ctx(0.5, 1.5)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ConfigurationError):
            PolicyContext(t=0.0, x_hat=np.ones(3), remaining=np.ones(4),
                          rate=1.0, backhaul=1.0, content_size=1.0,
                          storage=1.0, similar_count=20, p_max=0.5)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            make_ctx(0.5, 0.5, rate=0.0)


class TestSharedCap:
    """Every policy caps at the solver's ``SolverConfig.p_max``, so the
    scenario's ``solver.backhaul_margin_scale`` moves all three caps."""

    CONFIG = SolverConfig(backhaul_margin_scale=0.01)

    def test_baseline_and_random_use_context_cap(self):
        cap = self.CONFIG.p_max(1.0, 1.0)
        assert cap == pytest.approx(0.99)
        ctx = make_ctx(np.full(20_000, 1.0), np.full(20_000, 0.5), rate=1e9,
                       p_max=cap)
        assert BaselinePolicy()(ctx).max() == cap
        draws = RandomPolicy()(ctx, np.random.default_rng(3))
        assert draws.max() <= cap
        assert draws.max() > cap - 1e-3

    def test_simulator_passes_scenario_cap(self):
        from dataclasses import replace

        from mfcache.scenario import (DemandConfig, ScenarioConfig,
                                      SimulationSettings, SolverSettings)
        from mfcache.simulation import run_scenario

        scenario = ScenarioConfig(
            demand=DemandConfig(catalog_size=3),
            solver=SolverSettings(config=self.CONFIG, grid_nt=11, grid_nx=11,
                                  grid_nq=11),
            simulation=SimulationSettings(replications=1, seed=5),
        )
        scenario = replace(scenario, costs=replace(scenario.costs, backhaul=1.5,
                                                   content_size=1.2))
        seen = []

        def recording(ctx, rng=None):
            seen.append(ctx.p_max)
            return RandomPolicy()(ctx, rng)

        run_scenario(scenario, recording, seed=5)
        assert seen and set(seen) == {self.CONFIG.p_max(1.5, 1.2)}

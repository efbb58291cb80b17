import logging
import tracemalloc
import warnings

import numpy as np
import pytest
from dataclasses import replace

from mfcache.costs import CostParams, empirical_overlap
from mfcache.demand import FLOOR_EPS
from mfcache.errors import ConfigurationError
from mfcache.scenario import DemandConfig, ScenarioConfig, SimulationSettings, SolverSettings
from mfcache import experiments, simulation
from mfcache.experiments import compare_experiment, solve_scenario
from mfcache.simulation import (
    World,
    build_world,
    hood_metrics,
    ipi_experiment,
    run_replication,
    run_scenario,
    step,
)
from mfcache.policies import BaselinePolicy, MfPolicy, RandomPolicy
from mfcache.solver import MfeSolution

from support import (
    ConstantPolicy,
    flip_storage_charge,
    instantaneous_cost,
    reference_mf_interpolation,
    reference_replication,
)


def small_scenario(**overrides):
    base = ScenarioConfig(
        demand=DemandConfig(catalog_size=5),
        solver=SolverSettings(grid_nt=51, grid_nx=11, grid_nq=11),
        simulation=SimulationSettings(replications=2, seed=7),
    )
    return replace(base, **overrides) if overrides else base


def with_horizon(scenario, horizon):
    return replace(scenario, simulation=replace(scenario.simulation,
                                                horizon=horizon))


class TestBuildWorld:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_empty_pattern_forces_center_station(self):
        sc = small_scenario()
        sc = replace(sc, geometry=replace(sc.geometry, lambda_b=1e-9))
        world, hood = build_world(sc, np.random.default_rng(0))
        assert len(world) == 1
        assert np.array_equal(world.position, np.array([[10.0, 10.0]]))
        assert np.array_equal(hood, np.array([0]))

    def test_initial_state_shapes(self):
        sc = small_scenario()
        world, hood = build_world(sc, np.random.default_rng(1))
        k = len(world)
        assert world.position.shape == (k, 2)
        assert world.remaining.shape == world.x.shape == world.mu.shape == (k, 5)
        assert (world.remaining >= 0).all() and (world.remaining <= 1).all()
        assert (world.x == sc.demand.x0).all()
        assert world.mu == pytest.approx(np.full((k, 5), 0.2))  # fresh histories
        assert len(world.histories) == k
        assert hood.size >= 1


class TestStep:
    def test_balanced_flows_keep_storage(self):
        # discard rate 0.1 against caching exactly 0.1 per unit time
        sc = small_scenario()
        log = run_scenario(with_horizon(sc, 0.25), ConstantPolicy(0.1), seed=3)
        assert log.storage_usage.std() < 1e-12

    def test_no_caching_no_discard_keeps_storage(self):
        sc = small_scenario()
        sc = replace(sc, costs=CostParams(discard_rate=0.0, similar_count=20))
        log = run_scenario(sc, ConstantPolicy(0.0), seed=5)
        assert log.storage_usage.std() < 1e-12

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_single_station_has_zero_overlap(self):
        sc = small_scenario()
        sc = replace(sc, geometry=replace(sc.geometry, lambda_b=1e-9))
        log = run_scenario(sc, ConstantPolicy(0.5), seed=5)
        assert (log.overlap == 0.0).all()

    def test_cost_and_overlap_rows_use_the_cost_module(self):
        # Dense enough that the typical neighbourhood holds several stations.
        sc = small_scenario()
        sc = replace(sc, geometry=replace(sc.geometry, lambda_b=0.2))
        world_rng, policy_rng = (np.random.default_rng(s) for s in (1, 2))
        world, hood = build_world(sc, world_rng)
        assert hood.size > 1
        rate = sc.geometry.rate
        levels = (0.3, 0.6)
        policies = [(ConstantPolicy(level), policy_rng) for level in levels]
        remaining = np.repeat(world.remaining[None], len(levels), axis=0)
        buffered = []
        for k in range(2):
            start = remaining
            remaining, p = step(world, policies, (False,), start, k, 0.02,
                                rate, sc, world_rng, None)
            assert remaining.shape == p.shape == start.shape
            assert not np.shares_memory(remaining, start)
            buffered.append((p[:, hood], remaining[:, hood], world.x[hood]))
        p_hood, q_hood, x_hood = (np.stack(a) for a in zip(*buffered))
        rows, hits = hood_metrics(p_hood, q_hood, x_hood, rate, sc.costs,
                                  sc.demand.ipi.floor_eps)
        assert rows.shape == (3, len(levels), 2)
        assert list(hits) == [0, 0]

        floor = max(sc.demand.ipi.floor_eps, FLOOR_EPS)
        for k in range(2):
            x = np.maximum(x_hood[k], floor)
            for i, level in enumerate(levels):
                p_i = np.full((hood.size, sc.demand.catalog_size), level)
                assert np.array_equal(p_hood[k, i], p_i)
                q_i = q_hood[k, i]
                overlap = empirical_overlap(p_i, sc.costs.storage,
                                            sc.costs.similar_count)
                cost = instantaneous_cost(p_i, q_i, x, rate, overlap, sc.costs)
                assert overlap.min() > 0.0
                assert rows[1, i, k] == float(overlap.mean())
                assert rows[0, i, k] == float(cost.sum(axis=1).mean())
                assert rows[2, i, k] == float((sc.costs.storage - q_i).mean())

    def test_storage_bounds_hold_under_aggressive_caching(self):
        sc = small_scenario()
        sc = replace(sc, simulation=SimulationSettings(horizon=3.0,
                                                       replications=1, seed=1))
        policy = ConstantPolicy(0.99)
        log = run_scenario(sc, policy, seed=1)
        assert (log.storage_usage >= 0).all()
        assert (log.storage_usage <= 1.0 + 1e-12).all()


class TestPolicyBoundary:
    """The context a policy sees is guaranteed where the simulator builds
    it; the policy's output is checked once per step over all stations.
    A policy is called once per step for all of its arms."""

    @pytest.mark.parametrize("bias", [-0.9, 0.9])
    def test_every_context_lies_in_its_range(self, bias):
        # A large observation bias drives the imperfect arm's clip to the
        # floor or to 1, and caching at the cap drains storage to 0.
        sc = small_scenario()
        sc = replace(sc, demand=replace(sc.demand, ipi=replace(
            sc.demand.ipi, bias_mean=bias)), costs=CostParams(storage=2.0))
        seen = []

        def recording(ctx, rng=None):
            seen.append(ctx)
            return np.full(ctx.x_hat.shape, ctx.p_max)

        run_replication(with_horizon(sc, 2.0), {"recording": recording},
                        arms=(False, True), seed=4)
        assert len(seen) == 100
        x_hat = np.stack([ctx.x_hat for ctx in seen])
        remaining = np.stack([ctx.remaining for ctx in seen])
        assert x_hat.shape == remaining.shape
        assert x_hat.shape[1] == 2
        assert x_hat.shape[3] == sc.demand.catalog_size
        floor = max(sc.demand.ipi.floor_eps, FLOOR_EPS)
        assert (x_hat >= floor).all() and (x_hat <= 1.0).all()
        assert (x_hat == (floor if bias < 0 else 1.0)).any()
        assert (remaining >= 0.0).all() and (remaining <= 2.0).all()
        assert (remaining == 0.0).any()
        assert all(ctx.rate > 0 and 0.0 <= ctx.p_max <= 1.0 for ctx in seen)

    def test_a_kept_context_keeps_its_step(self):
        # The storage stack is replaced, never written in place, so a
        # context saved at step k still reads step k's storage after the run.
        seen = []

        def recording(ctx, rng=None):
            seen.append((ctx, ctx.remaining.copy()))
            return np.full(ctx.x_hat.shape, 0.1 + 0.2 * (len(seen) % 3))

        run_replication(with_horizon(small_scenario(), 0.5),
                        {"a": recording, "b": recording}, arms=(False, True),
                        seed=4)
        assert len(seen) == 2 * 25
        assert not all(np.array_equal(seen[0][1], kept) for _, kept in seen)
        for ctx, kept in seen:
            assert np.array_equal(ctx.remaining, kept)

    def test_each_policy_is_called_once_per_step_for_all_its_arms(self):
        # Two arms stack each policy's context as (arms, K, M): arm by arm,
        # it holds what a one-arm run of that arm passes as (1, K, M), and
        # each policy keeps one stream for all of its calls.
        sc = with_horizon(small_scenario(), 0.5)

        def run(arms):
            seen = {"a": [], "b": []}

            def recording(name):
                def policy(ctx, rng=None):
                    seen[name].append((ctx, rng))
                    return np.full(ctx.x_hat.shape, 0.3)
                return policy

            logs = run_replication(sc, {name: recording(name) for name in seen},
                                   arms=arms, seed=4)
            shape = logs["a", arms[0]].q_final.shape
            for calls in seen.values():
                assert len(calls) == 25
                assert len({id(rng) for _, rng in calls}) == 1
            assert seen["a"][0][1] is not seen["b"][0][1]
            return shape, seen

        shape, both = run((False, True))
        for imperfect in (False, True):
            alone_shape, alone = run((imperfect,))
            assert alone_shape == shape == (shape[0], sc.demand.catalog_size)
            for name in ("a", "b"):
                for (ctx, _), (solo, _) in zip(both[name], alone[name]):
                    assert ctx.x_hat.shape == ctx.remaining.shape == (2, *shape)
                    assert solo.x_hat.shape == solo.remaining.shape == (1, *shape)
                    assert np.array_equal(ctx.x_hat[int(imperfect)],
                                          solo.x_hat[0])
                    assert np.array_equal(ctx.remaining[int(imperfect)],
                                          solo.remaining[0])
        assert not np.array_equal(both["a"][-1][0].x_hat[0],
                                  both["a"][-1][0].x_hat[1])

    @pytest.mark.parametrize("imperfect", [False, True])
    def test_a_one_arm_run_stacks_its_one_arm(self, imperfect):
        # Every policy gets the (arms, K, M) context, one arm included; the
        # step's output check takes a random policy's broadcast draw.
        sc = with_horizon(small_scenario(), 0.5)
        seen = []

        def recording(ctx, rng=None):
            seen.append(ctx)
            return RandomPolicy()(ctx, rng)

        logs = run_replication(sc, {"a": recording, "b": recording},
                               arms=(imperfect,), seed=4)
        shape = (1, *logs["a", imperfect].q_final.shape)
        assert len(seen) == 2 * 25
        for ctx in seen:
            assert ctx.x_hat.shape == ctx.remaining.shape == shape

    @pytest.mark.parametrize("fault", ["above_outside_hood",
                                       "below_outside_hood", "one_nan",
                                       "one_row"])
    def test_bad_output_is_a_configuration_error(self, monkeypatch, fault):
        hoods = []
        build = simulation.build_world

        def recording_build(*args):
            world, hood = build(*args)
            hoods.append(hood)
            return world, hood

        def faulty(ctx, rng=None):
            # A one-arm context is (1, K, M).
            p = np.full(ctx.x_hat.shape, 0.2)
            (hood,) = hoods
            outside = np.setdiff1d(np.arange(p.shape[1]), hood)
            assert outside.size and hood.size
            if fault == "above_outside_hood":
                p[0, outside[0], 0] = 1.7
            elif fault == "below_outside_hood":
                p[0, outside[-1], -1] = -0.1
            elif fault == "one_nan":
                p[0, hood[0], 1] = np.nan
            else:
                p = p[0, 0]
            return p

        monkeypatch.setattr(simulation, "build_world", recording_build)
        with pytest.raises(ConfigurationError, match="policy output"):
            run_scenario(with_horizon(small_scenario(), 0.1), faulty, seed=3)


class TestRunScenario:
    def test_zero_horizon_empty_metrics(self):
        sc = with_horizon(small_scenario(), 0.0)
        log = run_scenario(sc, BaselinePolicy(), seed=2)
        assert log.lra == 0.0
        assert log.cost.size == 0

    def test_bit_identical_for_same_seed(self):
        sc = small_scenario()
        a = run_scenario(sc, RandomPolicy(), seed=11)
        b = run_scenario(sc, RandomPolicy(), seed=11)
        assert np.array_equal(a.cost, b.cost)
        assert np.array_equal(a.overlap, b.overlap)
        assert a.lra == b.lra

    def test_different_seeds_differ(self):
        sc = small_scenario()
        a = run_scenario(sc, RandomPolicy(), seed=11)
        b = run_scenario(sc, RandomPolicy(), seed=12)
        assert not np.array_equal(a.cost, b.cost)

    def test_cumulative_cost_nondecreasing(self):
        sc = small_scenario()
        log = run_scenario(sc, BaselinePolicy(), seed=4)
        assert (np.diff(log.cumulative_cost) >= -1e-12).all()
        assert log.cumulative_cost[-1] == pytest.approx(
            log.lra * (log.cost.size - 1) * log.dt, rel=1e-6)

    def test_lra_is_the_mean_of_a_constant_step_cost(self):
        # No caching, no discard and no popularity noise: the running cost
        # is the same at every step, so its long-run average must be too.
        sc = small_scenario(costs=CostParams(discard_rate=0.0),
                            demand=DemandConfig(catalog_size=5, volatility=0.0))
        for horizon in (1.0, 2.0):
            log = run_scenario(with_horizon(sc, horizon), ConstantPolicy(0.0),
                               seed=5)
            assert log.cost.size == round(50 * horizon)
            assert np.ptp(log.cost) < 1e-12
            assert log.lra == pytest.approx(log.cost.mean(), abs=1e-12)

    def test_policy_sees_time_within_the_period(self):
        # The equilibrium control is indexed by its time node within a
        # period, so step k of a 50-step period reads node k % 50.
        seen = []

        class Clock(ConstantPolicy):
            def __call__(self, ctx, rng=None):
                seen.append(ctx.level)
                return super().__call__(ctx, rng)

        log = run_scenario(with_horizon(small_scenario(), 2.0), Clock(0.0),
                           seed=6)
        assert seen == [k % 50 for k in range(100)]
        assert len(log.cost) * log.dt == pytest.approx(2.0)

    @pytest.mark.parametrize("nt", [41, 61, 201])
    def test_mf_policy_reads_the_time_node_of_every_step(self, nt):
        # On a random live surface over 2.5 periods, each step's MF output
        # equals the trilinear read at the time within the period, k * dt:
        # bit for bit where k * dt locates exactly on a node, and within
        # round-off where it lands a round-off away from one.
        sc = replace(with_horizon(small_scenario(), 2.5),
                     solver=SolverSettings(grid_nt=nt, grid_nx=11, grid_nq=11))
        g = experiments.grid_from_scenario(sc)
        p_max = sc.solver.config.p_max(sc.costs.backhaul, sc.costs.content_size)
        surface = MfeSolution(
            v=np.zeros(g.shape),
            m=np.full(g.shape, 1.0 / (g.x.size * g.q.size * g.cell_area)),
            p=np.random.default_rng(nt).uniform(0.0, p_max, g.shape), grid=g,
            iterations=1, residual_history=[0.0], converged=True, p_max=p_max)
        seen = []

        class Recording(MfPolicy):
            def __call__(self, ctx, rng=None):
                out = super().__call__(ctx, rng)
                seen.append((ctx, out))
                return out

        run_scenario(sc, Recording(surface), seed=8)
        steps_per_period = nt - 1
        dt = sc.demand.period / steps_per_period
        assert [ctx.level for ctx, _ in seen] == \
            [k % steps_per_period for k in range(len(seen))]
        assert len(seen) == round(2.5 * steps_per_period)
        off_node = 0
        for k, (ctx, out) in enumerate(seen):
            t = (k % steps_per_period) * dt
            expected = reference_mf_interpolation(surface, t, ctx.x_hat,
                                                  ctx.remaining)
            rel = t / (g.t[1] - g.t[0])
            if rel == ctx.level:
                assert np.array_equal(out, expected), k
            else:
                off_node += 1
                assert abs(rel - ctx.level) < 1e-12
                assert np.abs(out - expected).max() <= 2e-14, k
        assert off_node > 0

    @pytest.mark.parametrize("nodes", [21, 81])
    def test_mf_policy_on_another_time_grid_is_rejected(self, nodes):
        # A solution of 21 time nodes would run out of planes at step 21 of
        # a 41-node period, one of 81 would read planes 0 to 39 of its 81;
        # either fails at the policy's first call, naming both counts.
        sc = replace(small_scenario(),
                     solver=SolverSettings(grid_nt=41, grid_nx=11, grid_nq=11))
        g = experiments.grid_from_scenario(replace(
            sc, solver=replace(sc.solver, grid_nt=nodes)))
        p_max = sc.solver.config.p_max(sc.costs.backhaul, sc.costs.content_size)
        surface = MfeSolution(
            v=np.zeros(g.shape),
            m=np.full(g.shape, 1.0 / (g.x.size * g.q.size * g.cell_area)),
            p=np.full(g.shape, 0.1), grid=g, iterations=1,
            residual_history=[0.0], converged=True, p_max=p_max)
        calls = []

        class Counting(MfPolicy):
            def __call__(self, ctx, rng=None):
                calls.append(ctx.level)
                return super().__call__(ctx, rng)

        with pytest.raises(ConfigurationError,
                           match=f"solved on {nodes} time nodes run on a "
                                 "grid of 41"):
            run_scenario(sc, Counting(surface), seed=8)
        assert calls == [0]

    def test_a_dense_world_replication_holds_bounded_buffers(self):
        # Criterion 11's world, 1,055 stations with a hood of 149, at 400
        # steps a period: the metrics buffers hold 64 KiB blocks (two steps
        # here), not the run's 200 steps (a traced peak of about 39 MB).
        base = ScenarioConfig()
        sc = replace(base, geometry=replace(base.geometry, lambda_b=2.5),
                     solver=replace(base.solver, grid_nq=81, grid_nt=401),
                     simulation=replace(base.simulation, horizon=0.5))
        tracemalloc.start()
        try:
            log = run_scenario(sc, BaselinePolicy(), seed=1001)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert log.q_final.shape[0] > 1000
        assert log.cost.size == 200
        assert peak < 8e6

    @pytest.mark.parametrize("periods", [1, 2, 3])
    def test_refresh_only_where_another_step_follows(self, monkeypatch, periods):
        # Nothing reads the means after the last step, so a run samples
        # arrivals once per station at each boundary inside the horizon.
        worlds, calls = [], []
        build, sampler = simulation.build_world, simulation.simulate_requests

        def recording_build(*args):
            world, hood = build(*args)
            worlds.append(world)
            return world, hood

        def recording_sampler(state, n, rng):
            calls.append(state)
            return sampler(state, n, rng)

        monkeypatch.setattr(simulation, "build_world", recording_build)
        monkeypatch.setattr(simulation, "simulate_requests", recording_sampler)
        run_scenario(with_horizon(small_scenario(), float(periods)),
                     BaselinePolicy(), seed=6)
        (world,) = worlds
        assert [id(c) for c in calls] == \
            [id(h) for h in world.histories] * (periods - 1)

    def test_multi_period_refresh_runs(self):
        sc = with_horizon(small_scenario(), 2.0)
        log = run_scenario(sc, BaselinePolicy(), seed=6)
        assert log.cost.size == 100  # 2 periods at 50 steps each

    def test_common_random_numbers_across_policies(self):
        # identical world draws: storage-independent metrics line up exactly
        sc = small_scenario()
        a = run_scenario(sc, ConstantPolicy(0.0), seed=13)
        b = run_scenario(sc, ConstantPolicy(0.1), seed=13)
        # same popularity paths and time nodes; storage differs
        assert not np.array_equal(a.storage_usage, b.storage_usage)
        assert (a.dt, a.cost.size) == (b.dt, b.cost.size)

    def test_a_replication_of_a_solved_point_neither_logs_nor_warns(
            self, caplog):
        # More users than stations, and a lane over the cap: the solve reads
        # the geometry's rate, warning once; then a replication shows no
        # warning, even under the "always" filter, and makes no log record.
        # A sweep's forked helper relies on this.
        sc = small_scenario()
        sc = replace(sc, geometry=replace(sc.geometry, lambda_u=0.1))
        with pytest.warns(UserWarning, match="lambda_u exceeds lambda_b"):
            solution = solve_scenario(sc)
        caplog.clear()
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            with caplog.at_level(logging.DEBUG):
                logs = run_replication(sc, {"mf": MfPolicy(solution),
                                            "over": ConstantPolicy(1.0)},
                                       arms=(False, True))
        assert logs["over", False].excluded and logs["over", True].excluded
        assert shown == []
        assert caplog.records == []

    def test_snapshot_capture(self):
        # q_final is each lane's storage after the last step.
        log = run_scenario(small_scenario(), BaselinePolicy(), seed=3)
        assert log.q_final is not None
        assert log.q_final.ndim == 2
        assert log.q_final.shape[1] == 5

    @pytest.mark.parametrize("horizon", [0.02, 1.0])
    def test_snapshot_at_the_first_and_last_step(self, horizon):
        # The default horizon of 1 has 50 steps of 0.02, so 0.02 runs one.
        log = run_scenario(with_horizon(small_scenario(), horizon),
                           BaselinePolicy(), seed=3)
        assert log.q_final.ndim == 2 and log.q_final.shape[1] == 5
        assert (log.q_final >= 0.0).all() and (log.q_final <= 1.0).all()

    def test_one_patch_of_the_storage_charge_reaches_solver_and_simulator(
            self, monkeypatch):
        # The model is bound in mfcache.costs alone, so a variant patched
        # there runs the solver and the simulator under the same charge.
        sc = ScenarioConfig(
            demand=DemandConfig(catalog_size=4),
            solver=SolverSettings(grid_nt=21, grid_nx=11, grid_nq=11),
            simulation=SimulationSettings(horizon=1.0))
        solution = solve_scenario(sc)
        log = run_scenario(sc, BaselinePolicy(), seed=3)
        flip_storage_charge(monkeypatch)
        flipped_solution = solve_scenario(sc)
        flipped = run_scenario(sc, BaselinePolicy(), seed=3)
        (reference,) = reference_replication(
            sc, {"baseline": BaselinePolicy()}, seed=3).values()
        assert not np.array_equal(flipped_solution.v, solution.v)
        assert np.array_equal(flipped.storage_usage, log.storage_usage)
        assert flipped.lra != log.lra
        assert np.array_equal(flipped.cost, reference.cost)
        assert flipped.lra == reference.lra


class TestIpiExperiment:
    def test_zero_error_model_gives_zero_increment(self):
        sc = small_scenario()
        sc = replace(sc, demand=replace(
            sc.demand, ipi=replace(sc.demand.ipi, bias_mean=0.0, bias_std=0.0)))
        results = ipi_experiment(
            sc, {"baseline": BaselinePolicy(), "random": RandomPolicy()}, seed=21)
        for name in ("baseline", "random"):
            assert results[name].increment == pytest.approx(0.0, abs=1e-12)

    def test_popularity_blind_policy_unaffected(self):
        sc = small_scenario()
        results = ipi_experiment(sc, {"random": RandomPolicy()}, seed=22)
        assert results["random"].increment == pytest.approx(0.0, abs=1e-12)

    def test_baseline_increment_positive(self):
        sc = small_scenario()
        incs = [ipi_experiment(sc, {"baseline": BaselinePolicy()}, seed=30 + s)
                ["baseline"].increment for s in range(20)]
        assert np.mean(incs) > 0.0


def _recording(monkeypatch):
    """Record every world built and every request-count draw of a run."""
    worlds, draws = [], []
    build, sampler = simulation.build_world, simulation.simulate_requests

    def recording_build(*args):
        world, hood = build(*args)
        worlds.append(world)
        return world, hood

    def recording_sampler(state, n, rng):
        draws.append(state)
        return sampler(state, n, rng)

    monkeypatch.setattr(simulation, "build_world", recording_build)
    monkeypatch.setattr(simulation, "simulate_requests", recording_sampler)
    return worlds, draws


class TestSharedReplication:
    @pytest.fixture(scope="class")
    def policies(self):
        solution = solve_scenario(small_scenario())
        return {"mf": MfPolicy(solution), "baseline": BaselinePolicy(),
                "random": RandomPolicy(), "constant": ConstantPolicy(0.2)}

    @pytest.mark.parametrize("horizon", [0.0, 0.5, 2.0])
    def test_each_lane_equals_a_solo_run(self, policies, horizon):
        sc = with_horizon(small_scenario(), horizon)
        shared = run_replication(sc, policies, arms=(False, True), seed=9)
        assert list(shared) == [(name, arm) for name in policies
                                for arm in (False, True)]
        for (name, imperfect), lane in shared.items():
            solo = run_scenario(sc, policies[name], seed=9, use_ipi=imperfect)
            for attr in ("cost", "overlap", "storage_usage"):
                assert np.array_equal(getattr(lane, attr), getattr(solo, attr))
            assert lane.cost.size == round(50 * horizon)
            assert lane.lra == solo.lra
            assert lane.barrier_hits == solo.barrier_hits
            if horizon:
                assert np.array_equal(lane.q_final, solo.q_final)
            else:
                assert lane.q_final is None and solo.q_final is None

    def test_lanes_own_their_arrays(self, policies):
        shared = list(run_replication(with_horizon(small_scenario(), 0.5),
                                      policies, seed=9).values())
        for attr in ("cost", "overlap", "storage_usage"):
            arrays = [getattr(log, attr) for log in shared]
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b), attr

    def test_ipi_steps_one_world_for_every_lane(self, monkeypatch, policies):
        # 3 policies x 2 arms share one world: one build and, at each of the
        # two inner period boundaries, one request draw per station.
        worlds, draws = _recording(monkeypatch)
        three = {name: policies[name] for name in ("mf", "baseline", "random")}
        ipi_experiment(with_horizon(small_scenario(), 3.0), three, seed=6)
        (world,) = worlds
        assert [id(d) for d in draws] == [id(h) for h in world.histories] * 2

    def test_compare_builds_one_world_per_point_and_seed(
            self, monkeypatch, forks, shared_lines):
        # Inline and through the sweep helper, which runs the later three
        # of the six (point, seed) tasks beside the command: the calls are
        # recorded in a file both processes append to, so their order
        # across the two processes is free.
        run, build = experiments.run_replication, simulation.build_world

        def recording_run(scenario, policies, **kwargs):
            shared_lines.append(f"seed {scenario.geometry.lambda_u!r} "
                                f"{scenario.demand.x0!r} {kwargs['seed']}")
            return run(scenario, policies, **kwargs)

        def recording_build(*args):
            shared_lines.append("world")
            return build(*args)

        monkeypatch.setattr(experiments, "run_replication", recording_run)
        monkeypatch.setattr(simulation, "build_world", recording_build)
        sc = replace(small_scenario(), experiments=replace(
            small_scenario().experiments, lambda_u_values=(1e-4, 2e-4),
            x0_values=(0.3,)))
        compare_experiment(sc)
        lines = shared_lines.read()
        calls = sorted(tuple(line.split()[1:]) for line in lines
                       if line != "world")
        worlds = [line for line in lines if line == "world"]
        points = [(repr(1e-4), repr(sc.demand.x0)),
                  (repr(2e-4), repr(sc.demand.x0)),
                  (repr(sc.geometry.lambda_u), repr(0.3))]
        assert calls == sorted(point + (str(seed),) for point in points
                               for seed in (7, 8))
        assert len(worlds) == 6
        assert len(forks.pids) == forks.expected

    @pytest.mark.parametrize("argument, kwargs", [
        ("policies", {"policies": {}}),
        ("arms", {"policies": {"baseline": BaselinePolicy()}, "arms": ()}),
    ])
    def test_a_replication_of_no_lanes_is_rejected(self, argument, kwargs):
        sc = ScenarioConfig(solver=SolverSettings(grid_nt=11, grid_nx=11,
                                                  grid_nq=11))
        with pytest.raises(ConfigurationError, match=f"^{argument} "):
            run_replication(sc, seed=1, **kwargs)


class TestStackedLanes:
    """The stacked step and the per-period metrics pass equal the
    lane-by-lane oracle bit for bit."""

    @pytest.fixture(scope="class")
    def dense(self):
        # 20 contents and a hood of at least 8 stations; the equilibrium
        # surface is replaced by random values so the MF lane moves.
        sc = small_scenario(demand=DemandConfig(catalog_size=20))
        sc = replace(sc, geometry=replace(sc.geometry, lambda_b=0.3))
        _, hood = build_world(sc, simulation._replication_streams(5)[0])
        assert hood.size >= 8
        solution = solve_scenario(sc)
        rng = np.random.default_rng(3)
        live = replace(solution, p=rng.uniform(0.0, solution.p_max,
                                               solution.p.shape))
        return sc, MfPolicy(live)

    @staticmethod
    def _assert_equals_reference(sc, mf, level, horizon):
        # 4 policies under both arms; a constant 1.0 hits the barrier
        # everywhere.
        policies = {"mf": mf, "baseline": BaselinePolicy(),
                    "random": RandomPolicy(), "constant": ConstantPolicy(level)}
        sc = with_horizon(sc, horizon)
        shared = run_replication(sc, policies, arms=(False, True), seed=5)
        reference = reference_replication(sc, policies, arms=(False, True),
                                          seed=5)
        assert list(shared) == list(reference)
        for key, log in shared.items():
            ref = reference[key]
            for attr in ("cost", "overlap", "storage_usage", "q_final"):
                assert np.array_equal(getattr(log, attr), getattr(ref, attr)), \
                    (key, attr)
            assert log.cost.size == round(50 * horizon)
            assert log.barrier_hits == ref.barrier_hits
            assert (log.barrier_hits > 0) == (key[0] == "constant"
                                              and level == 1.0)
            assert log.lra == ref.lra
        return shared

    @pytest.mark.parametrize("level", [0.2, 1.0])
    def test_every_lane_equals_the_lane_by_lane_reference(self, dense, level):
        # 2 periods.
        shared = self._assert_equals_reference(*dense, level, 2.0)
        assert np.ptp(shared["mf", False].overlap) > 0.0

    @pytest.mark.parametrize("level, horizon", [
        (0.2, 1.3),    # ends mid-period: the last pass is partial
        (0.2, 0.02),   # one step
        (0.2, 1.0),    # final storage on a period boundary
        (1.0, 3.0),    # three periods at the barrier
    ], ids=["mid_period_end", "one_step", "snapshot_on_boundary",
            "three_periods_barrier"])
    def test_partial_and_boundary_runs_equal_the_reference(
            self, dense, level, horizon):
        self._assert_equals_reference(*dense, level, horizon)

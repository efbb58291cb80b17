import logging
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields, replace

import numpy as np
import pytest

import mfcache.experiments as experiments
from mfcache.cli import EXIT_ALL_EXCLUDED, EXIT_IO, EXIT_VALIDATION, main
from mfcache.errors import BarrierExclusionError, ConfigurationError
from mfcache.experiments import (
    compare_experiment,
    ipi_sweep_experiment,
    iteration_sweep,
    one_solve_per_input,
    solve_all_contents,
    solve_scenario,
)
from mfcache.scenario import (
    DemandConfig,
    ExperimentSweeps,
    ScenarioConfig,
    SimulationSettings,
    SolverSettings,
    load_scenario,
    sweep_points,
)
from mfcache.policies import BaselinePolicy, MfPolicy, RandomPolicy
from mfcache.simulation import (
    MetricsLog,
    PairedRun,
    ipi_experiment,
    run_replication,
)

from support import ConstantPolicy


def small_scenario(**experiment_values):
    return ScenarioConfig(
        demand=DemandConfig(catalog_size=4),
        solver=SolverSettings(grid_nt=21, grid_nx=11, grid_nq=11),
        simulation=SimulationSettings(replications=1, seed=3),
        experiments=ExperimentSweeps(**experiment_values),
    )


@pytest.fixture()
def solves(monkeypatch):
    """Record every equilibrium solve as ``(problem, solution)``."""
    calls = []
    real = experiments.solve_mfe

    def counting(problem, grid, config):
        solution = real(problem, grid, config)
        calls.append((problem, solution))
        return solution

    monkeypatch.setattr(experiments, "solve_mfe", counting)
    return calls


@pytest.fixture()
def solve_log(solves, monkeypatch, shared_lines):
    """Lines of a file that a forked helper appends to as well:
    ``solve <pid> <rate>`` for every equilibrium solve, with the
    problem's rate (each sweep point of these tests has its own), and ``fork`` at every fork. ``.pids`` holds the forked pids."""
    solve, fork = experiments.solve_mfe, os.fork
    pids = []

    def logged_solve(problem, grid, config):
        shared_lines.append(f"solve {os.getpid()} {problem.rate.hex()}")
        return solve(problem, grid, config)

    def logged_fork():
        shared_lines.append("fork")
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(experiments, "solve_mfe", logged_solve)
    monkeypatch.setattr(os, "fork", logged_fork)
    shared_lines.pids = pids
    return shared_lines


class TestOneSolvePerInput:
    def test_base_density_in_sweep_reuses_base_solve(self, solves):
        base = ScenarioConfig().geometry.lambda_b
        scenario = small_scenario(lambda_b_values=(base, 0.05))
        with one_solve_per_input():
            solution = solve_all_contents(scenario)
            rows = iteration_sweep(scenario)
        assert len(solves) == 2
        assert solves[0][1] is solution
        assert rows[0][1:] == (solution.iterations, int(solution.converged),
                               solution.residual_history[-1])

    def test_distinct_inputs_never_share_a_solution(self, solves):
        iteration_sweep(small_scenario(lambda_b_values=(0.02, 0.05, 0.02)))
        assert len(solves) == 2
        (first, a), (second, b) = solves
        assert a is not b
        assert first.rate != second.rate

    def test_settings_the_solver_never_sees_share_a_solve(self, solves):
        scenario = small_scenario()
        with one_solve_per_input():
            a = solve_scenario(scenario)
            b = solve_scenario(replace(scenario, simulation=replace(
                scenario.simulation, seed=99, replications=3)))
        assert a is b
        assert len(solves) == 1

    def test_memo_is_dropped_with_its_scope(self, solves):
        scenario = small_scenario()
        with one_solve_per_input():
            solve_scenario(scenario)
        with one_solve_per_input():
            solve_scenario(scenario)
        solve_scenario(scenario)
        assert len(solves) == 3

    def test_solve_command_solves_each_distinct_input_once(self, solves, tmp_path):
        path = tmp_path / "sweep.ini"
        path.write_text("[demand]\ncatalog_size = 3\n"
                        "[solver]\ngrid_nt = 21\ngrid_nx = 11\ngrid_nq = 11\n"
                        "[experiments]\nlambda_b_values = 0.03, 0.05\n")
        out = tmp_path / "out"
        assert main(["solve", "--scenario", str(path), "--out", str(out),
                     "--sweep-density", "--quiet"]) == 0
        assert len(solves) == 2
        table = (out / "content_solutions.csv").read_text().splitlines()
        assert table == ["content,solution_content", "0,0", "1,0", "2,0"]

    def test_bad_sweep_value_fails_before_any_solve(self, solves):
        scenario = small_scenario(x0_values=(0.2, 1.5))
        with pytest.raises(ConfigurationError, match="experiments.x0_values"):
            compare_experiment(scenario)
        assert solves == []


def finished_log(seed, level):
    """A replication whose cost holds at ``level``; ``inf`` hits the barrier."""
    log = MetricsLog(seed=seed, dt=0.1, cost=np.array([1.0, level]),
                     storage_usage=np.ones(2), overlap=np.full(2, 0.5))
    log.finalize()
    return log


def fake_runs(monkeypatch, level_of):
    """Replace both replication entry points of the recipes: every lane of
    seed ``s`` finishes at ``level_of(s)``, the imperfect arm 0.5 above."""
    def run(scenario, policies, seed=None, **kwargs):
        return {(name, False): finished_log(seed, level_of(seed))
                for name in policies}

    def paired(scenario, policies, seed=None):
        return {name: PairedRun(finished_log(seed, level_of(seed)),
                                finished_log(seed, level_of(seed) + 0.5))
                for name in policies}

    monkeypatch.setattr(experiments, "run_replication", run)
    monkeypatch.setattr(experiments, "ipi_experiment", paired)


RECIPES = {"compare": compare_experiment, "ipi": ipi_sweep_experiment}


class TestAllReplicationsExcluded:
    @pytest.fixture()
    def barrier_runs(self, monkeypatch):
        fake_runs(monkeypatch, lambda seed: math.inf)

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_recipe_raises_runtime_error(self, barrier_runs, recipe):
        scenario = small_scenario(lambda_u_values=(1e-4,), x0_values=(0.3,),
                                  lambda_b_values=(0.05,))
        with pytest.raises(BarrierExclusionError,
                           match="every replication hit the barrier"):
            RECIPES[recipe](scenario)

    @pytest.mark.parametrize("command", sorted(RECIPES))
    def test_command_exit_code(self, barrier_runs, tmp_path, command):
        path = tmp_path / "cmp.ini"
        path.write_text("[solver]\ngrid_nt = 21\ngrid_nx = 11\ngrid_nq = 11\n"
                        "[simulation]\nreplications = 1\n"
                        "[experiments]\nlambda_u_values = 0.0001\n"
                        "x0_values = 0.3\nlambda_b_values = 0.05\n")
        assert main([command, "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == EXIT_ALL_EXCLUDED
        assert EXIT_ALL_EXCLUDED == 5


class TestSomeReplicationsExcluded:
    """Seeds 3, 4 and 5 run; seed 4 hits the barrier."""

    LEVELS = {3: 2.0, 4: math.inf, 5: 6.0}

    @pytest.fixture()
    def scenario(self, monkeypatch):
        fake_runs(monkeypatch, self.LEVELS.__getitem__)
        return replace(small_scenario(lambda_u_values=(1e-4,), x0_values=(0.3,),
                                      lambda_b_values=(0.05,)),
                       simulation=SimulationSettings(replications=3, seed=3))

    def kept_mean(self, value):
        return float(np.mean([value(finished_log(seed, self.LEVELS[seed]),
                                    finished_log(seed, self.LEVELS[seed] + 0.5))
                              for seed in (3, 5)]))

    def warnings(self, caplog):
        return [r for r in caplog.records if r.name == experiments.__name__
                and r.levelno == logging.WARNING]

    def test_compare_rows_average_the_kept_runs(self, scenario, caplog):
        results = compare_experiment(scenario)
        lra = self.kept_mean(lambda perfect, _: perfect.lra)
        assert [row[2] for row in results["summary"]] == [lra] * 3
        overlap = self.kept_mean(lambda perfect, _: perfect.overlap_per_storage)
        assert [row[2] for row in results["overlap"]] == [overlap] * 3
        assert len(self.warnings(caplog)) == 2 * 3

    def test_ipi_rows_average_the_kept_pairs(self, scenario, caplog):
        rows = ipi_sweep_experiment(scenario)
        expected = (self.kept_mean(lambda p, i: p.lra),
                    self.kept_mean(lambda p, i: i.lra),
                    self.kept_mean(lambda p, i: i.lra - p.lra))
        assert [row[2:] for row in rows] == [expected] * 3
        warnings = self.warnings(caplog)
        assert len(warnings) == 3
        assert all("excluded 1 barrier-hit" in r.getMessage() for r in warnings)


def test_ipi_random_arms_share_one_draw_per_step():
    # The random policy ignores the observation, and its one draw per step
    # serves both arms: under common random numbers its two lanes are
    # bit-identical, while the baseline's arms see different observations.
    rows = ipi_sweep_experiment(small_scenario(lambda_b_values=(0.05, 0.2)))
    by_policy = {name: [row[2:] for row in rows if row[1] == name]
                 for name in ("random", "baseline")}
    assert len(by_policy["random"]) == 2
    for perfect, imperfect, increment in by_policy["random"]:
        assert perfect == imperfect
        assert increment == 0.0
    assert all(perfect != imperfect
               for perfect, imperfect, _ in by_policy["baseline"])


def assert_same_log(a: MetricsLog, b: MetricsLog):
    """Every field of the two logs holds the same bits."""
    for f in fields(MetricsLog):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert type(x) is type(y), f.name
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert repr(x) == repr(y), f.name


def use_cpus(monkeypatch, cpus: int):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


HELPER_INI = ("[demand]\ncatalog_size = 3\n"
              "[solver]\ngrid_nt = 21\ngrid_nx = 11\ngrid_nq = 11\n"
              "[simulation]\nreplications = 4\nseed = 3\n"
              "[experiments]\nlambda_u_values = 0.0001\nx0_values = 0.3\n"
              "lambda_b_values = 0.05\n")


def per_seed(scenario, prepare, run, seeds) -> list:
    """The results of one sweep point's tasks, through ``_sweep``."""
    results = []
    experiments._sweep([experiments._Point(scenario, seeds, results.extend)],
                       prepare, run)
    return results


def replicate(scenario, policies, seed):
    return run_replication(scenario, policies, seed=seed)


class TestReplicationHelper:
    """Where two CPUs are allowed, a sweep's later tasks run in a forked
    helper; the results, errors and log records are those of the inline
    loop."""

    @pytest.fixture(scope="class")
    def scenario(self):
        # Two periods, three seeds: the command runs two, the helper one.
        return replace(small_scenario(lambda_u_values=(1e-4,), x0_values=(0.3,),
                                      lambda_b_values=(0.05,)),
                       simulation=SimulationSettings(horizon=2.0,
                                                     replications=3, seed=3))

    @pytest.fixture(scope="class")
    def policies(self, scenario):
        # A constant 1.0 hits the barrier, so exclusions come back too.
        return {"mf": MfPolicy(solve_scenario(scenario)),
                "baseline": BaselinePolicy(), "random": RandomPolicy(),
                "over": ConstantPolicy(1.0)}

    def test_compare_replications_equal_the_inline_loop(self, scenario,
                                                       forks):
        with one_solve_per_input():
            split = per_seed(scenario, experiments._policies_for, replicate,
                             [3, 4, 5])
            policies = experiments._policies_for(solve_scenario(scenario))
        inline = [run_replication(scenario, policies, seed=seed)
                  for seed in (3, 4, 5)]
        assert len(split) == 3
        for run, expected in zip(split, inline):
            assert list(run) == list(expected)
            for lane, log in run.items():
                assert_same_log(log, expected[lane])
        assert len(forks.pids) == forks.sweep_expected

    def test_ipi_pairs_equal_the_inline_loop(self, scenario, policies, forks):
        split = per_seed(
            scenario, lambda solution: policies,
            lambda sc, given, seed: ipi_experiment(sc, given, seed=seed),
            [3, 4, 5])
        inline = [ipi_experiment(scenario, policies, seed=seed)
                  for seed in (3, 4, 5)]
        assert len(split) == 3
        for run, expected in zip(split, inline):
            assert list(run) == list(policies)
            for name, pair in run.items():
                assert_same_log(pair.perfect, expected[name].perfect)
                assert_same_log(pair.imperfect, expected[name].imperfect)
        assert all(run["over"].excluded for run in split)
        assert len(forks.pids) == forks.sweep_expected

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_recipe_rows_equal_inline_and_through_the_helper(
            self, scenario, monkeypatch, recipe):
        forked = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        rows = {}
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            rows[cpus] = RECIPES[recipe](scenario)
        assert repr(rows[1]) == repr(rows[2])
        # One helper per recipe of two tasks or more: compare has six
        # tasks (two points), ipi three (one point).
        assert len(forked) == experiments.forked_blas_checked()

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    def test_recipes_keep_no_final_storage(self, scenario, monkeypatch,
                                           forks, recipe):
        # The logs a point's rows are made from, inline and back from the
        # helper, hold no per-station storage: the task drops it, so the
        # helper never pickles it.
        seen = []
        kept = experiments._kept

        def recording(runs, label):
            seen.extend(runs)
            return kept(runs, label)

        monkeypatch.setattr(experiments, "_kept", recording)
        RECIPES[recipe](scenario)
        logs = [log for run in seen
                for log in ((run.perfect, run.imperfect)
                            if isinstance(run, PairedRun) else (run,))]
        # compare: 2 points x 3 policies x 3 seeds; ipi: 1 point x 3
        # policies x 3 seeds x 2 arms.
        assert len(logs) == 18
        assert all(log.q_final is None for log in logs)
        assert len(forks.pids) == forks.sweep_expected

    def test_barrier_warnings_once_per_excluded_lane_in_seed_order(
            self, scenario, policies, forks, caplog):
        seeds = [3, 4, 5, 6]
        with caplog.at_level(logging.WARNING, logger="mfcache.simulation"):
            per_seed(scenario, lambda solution: policies,
                     lambda sc, given, seed: ipi_experiment(sc, given, seed=seed),
                     seeds)
        warnings = [(record.name, record.levelno, record.getMessage())
                    for record in caplog.records
                    if "hit the barrier" in record.getMessage()]
        # Both arms of the "over" lane, per seed.
        assert warnings == [
            ("mfcache.simulation", logging.WARNING,
             f"replication {seed} hit the barrier; trajectory flagged and "
             "excluded from aggregates") for seed in seeds for _ in range(2)]
        assert len(forks.pids) == forks.sweep_expected

    @pytest.mark.parametrize("failing, raised", [
        ({6}, 6), ({5, 6}, 5), ({4, 6}, 4), ({3, 5}, 3)],
        ids=["last-helper-seed", "both-helper-seeds", "command-and-helper",
             "first-seed"])
    def test_earliest_failing_seed_wins(self, scenario, forks, caplog,
                                        failing, raised):
        # Seeds 3 and 4 run in the command, 5 and 6 in the helper; the
        # records of the seeds before the failing one are all handled.
        def run(sc, prepared, seed):
            if seed in failing:
                raise ConfigurationError(f"seed {seed} failed")
            return finished_log(seed, math.inf)

        with caplog.at_level(logging.WARNING, logger="mfcache.simulation"):
            with pytest.raises(ConfigurationError, match=f"^seed {raised} "):
                per_seed(scenario, lambda solution: None, run, [3, 4, 5, 6])
        assert [record.getMessage().split()[1] for record in caplog.records
                if "hit the barrier" in record.getMessage()] == \
            [str(seed) for seed in range(3, raised)]
        assert len(forks.pids) == forks.sweep_expected

    def test_an_error_in_the_command_kills_the_helper(self, monkeypatch):
        # The command's first task fails at once; each of the helper's two
        # tasks would sleep 0.5 s. The error surfaces without waiting for
        # them.
        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiments, "solve_scenario",
                            lambda sc, inputs: None)
        command = os.getpid()

        def run(sc, prepared, seed):
            if os.getpid() == command:
                raise ConfigurationError(f"seed {seed} failed")
            time.sleep(0.5)

        sc = small_scenario()
        started = time.perf_counter()
        with pytest.raises(ConfigurationError, match="^seed 3 "):
            experiments._sweep([experiments._Point(sc, (3, 4), list)] * 2,
                               lambda solution: None, run)
        assert time.perf_counter() - started < 0.25

    @pytest.mark.parametrize("command", ["compare", "ipi"])
    def test_bad_policy_output_on_a_helper_seed_exits_2(
            self, command, monkeypatch, tmp_path, caplog):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        call = BaselinePolicy.__call__

        def bad_in_the_helper(self, ctx, rng=None):
            out = call(self, ctx, rng)
            return out + 2.0 if os.getpid() != parent else out

        monkeypatch.setattr(BaselinePolicy, "__call__", bad_in_the_helper)
        path = tmp_path / "helper.ini"
        path.write_text(HELPER_INI)
        assert main([command, "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == EXIT_VALIDATION
        assert "policy output must be cache fractions" in caplog.text

    class Unpicklable(RuntimeError):
        def __init__(self):
            super().__init__("unpicklable")
            self.hook = lambda: None

    class Ununpicklable(RuntimeError):
        def __init__(self, first, second):
            super().__init__(f"{first} {second}")

    @pytest.mark.parametrize("ending", ["killed", "error-does-not-pickle",
                                        "error-does-not-unpickle"])
    def test_helper_that_cannot_report_is_an_io_failure(
            self, ending, monkeypatch, tmp_path, caplog):
        use_cpus(monkeypatch, 2)
        parent = os.getpid()
        run = experiments.run_replication

        def failing_in_the_helper(*args, **kwargs):
            if os.getpid() != parent:
                if ending == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if ending == "error-does-not-pickle":
                    raise self.Unpicklable()
                raise self.Ununpicklable("one", "two")
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments, "run_replication",
                            failing_in_the_helper)
        path = tmp_path / "helper.ini"
        path.write_text(HELPER_INI)
        assert main(["compare", "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == EXIT_IO
        # Eight tasks: the helper runs the x0 point's four.
        assert "sweep helper for tasks 4 to 7" in caplog.text


def point_rates(scenario, sweep: str) -> list[str]:
    """The rate of each sweep point's reduced problem, as ``solve_log``
    records it."""
    return [experiments.problem_from_scenario(
                sc, experiments.grid_from_scenario(sc)).rate.hex()
            for _, sc in sweep_points(scenario, sweep)]


class TestEachEquilibriumSolvedOnce:
    """A sweep through the helper solves nothing before the fork: each
    process solves each distinct equilibrium of the points it runs once,
    so one that both halves need is solved in both."""

    @pytest.fixture()
    def ipi_sweep(self, monkeypatch, solve_log):
        use_cpus(monkeypatch, 2)
        fake_runs(monkeypatch, lambda seed: 1.0)

        def sweep(densities, replications):
            """The log's lines, the rate of each point, and the rates each
            process solved, in order, by pid."""
            scenario = replace(small_scenario(lambda_b_values=densities),
                               simulation=SimulationSettings(
                                   replications=replications, seed=3))
            ipi_sweep_experiment(scenario)
            lines = solve_log.read()
            solved = {}
            for _, pid, rate in (line.split() for line in lines
                                 if line != "fork"):
                solved.setdefault(int(pid), []).append(rate)
            return lines, point_rates(scenario, "lambda_b_values"), solved
        return sweep

    def test_two_points_of_four_seeds_solve_one_in_each_process(
            self, ipi_sweep, solve_log):
        lines, rates, solved = ipi_sweep((0.02, 0.05), 4)
        (helper,) = solve_log.pids
        assert lines[0] == "fork"
        assert solved == {os.getpid(): [rates[0]], helper: [rates[1]]}

    def test_a_lone_point_solves_in_both_processes(self, ipi_sweep,
                                                   solve_log):
        lines, rates, solved = ipi_sweep((0.05,), 4)
        (helper,) = solve_log.pids
        assert lines[0] == "fork"
        assert solved == {os.getpid(): [rates[0]], helper: [rates[0]]}

    def test_shared_inputs_solve_in_both_processes(self, ipi_sweep,
                                                   solve_log):
        # The helper's one task repeats the first point's solver inputs.
        lines, rates, solved = ipi_sweep((0.02, 0.05, 0.02), 1)
        (helper,) = solve_log.pids
        assert lines[0] == "fork"
        assert solved == {os.getpid(): rates[:2], helper: [rates[0]]}

    def test_a_straddling_point_solves_in_both(self, ipi_sweep, solve_log):
        # Six tasks: the command runs 0.02's two seeds and 0.035's first,
        # the helper 0.035's second and 0.05's two.
        lines, rates, solved = ipi_sweep((0.02, 0.035, 0.05), 2)
        (helper,) = solve_log.pids
        assert lines[0] == "fork"
        assert solved == {os.getpid(): rates[:2], helper: rates[1:]}

    def test_an_unchecked_blas_build_runs_inline(self, ipi_sweep, solve_log,
                                                 monkeypatch):
        # Without the checked BLAS build no helper is forked: the command
        # solves every point, in order.
        monkeypatch.setattr(experiments, "forked_blas_checked", lambda: False)
        lines, rates, _ = ipi_sweep((0.02, 0.05), 4)
        assert solve_log.pids == []
        assert lines == [f"solve {os.getpid()} {rate}" for rate in rates]

    def test_a_helper_solve_stays_out_of_the_command_memo(self, monkeypatch,
                                                          solve_log):
        # In the scope of the sweep, the command's point is not solved
        # again, the helper's point is: its solution stayed in the helper.
        use_cpus(monkeypatch, 2)
        fake_runs(monkeypatch, lambda seed: 1.0)
        scenario = replace(small_scenario(lambda_b_values=(0.02, 0.05)),
                           simulation=SimulationSettings(replications=4, seed=3))
        (_, own), (_, theirs) = sweep_points(scenario, "lambda_b_values")
        with one_solve_per_input():
            ipi_sweep_experiment(scenario)
            solve_scenario(own)
            solve_scenario(theirs)
        (helper,) = solve_log.pids
        rates = point_rates(scenario, "lambda_b_values")
        lines = solve_log.read()
        assert lines[0] == "fork"
        assert sorted(lines[1:3]) == sorted([f"solve {os.getpid()} {rates[0]}",
                                             f"solve {helper} {rates[1]}"])
        assert lines[3:] == [f"solve {os.getpid()} {rates[1]}"]


def fault_in(point, fault, monkeypatch):
    """Make the sweep point ``point`` (a scenario) fail with ``fault``,
    whichever process runs it."""
    target = experiments._exact(experiments.problem_from_scenario(
        point, experiments.grid_from_scenario(point)))
    solve, replication = experiments.solve_mfe, experiments.run_replication

    def unconverged(problem, grid, config):
        if experiments._exact(problem) == target:
            config = replace(config, max_iterations=1)
        return solve(problem, grid, config)

    def faulty(scenario, policies, **kwargs):
        if scenario == point:
            level = 2.0 if fault == "bad-output" else 1.0
            policies = {name: ConstantPolicy(level) for name in policies}
        return replication(scenario, policies, **kwargs)

    if fault == "no-convergence":
        monkeypatch.setattr(experiments, "solve_mfe", unconverged)
    else:
        monkeypatch.setattr(experiments, "run_replication", faulty)


@pytest.mark.parametrize("sweep, x0, fault, where, code, checked", [
    ("0.0001", "0.6", None, None, 0, True),
    ("0.0001", "0.6", "bad-output", "x0", EXIT_VALIDATION, True),
    ("0.0001", "0.6", "no-convergence", "x0", 3, True),
    ("0.0001", "0.6", "all-excluded", "x0", EXIT_ALL_EXCLUDED, True),
    ("0.0001", "0.6", "all-excluded", "first", EXIT_ALL_EXCLUDED, True),
    ("0.0001, 0.0002", "0.6", None, None, 0, True),
    ("0.0001, 0.0002", "0.6", "no-convergence", "straddling", 3, True),
    ("0.0001, 0.0002", "0.6", "all-excluded", "straddling", EXIT_ALL_EXCLUDED,
     True),
    ("0.001, 0.0002", "0.3", None, None, 0, True),
    ("0.0001, 0.0002", "0.6", None, None, 0, False),
    ("0.0001", "0.6", "no-convergence", "x0", 3, False),
    ("0.0001", "0.6", "all-excluded", "x0", EXIT_ALL_EXCLUDED, False),
], ids=["two-points", "two-points-bad-output", "two-points-no-convergence",
        "two-points-all-excluded", "command-side-all-excluded",
        "three-points", "straddling-no-convergence",
        "straddling-all-excluded", "shared-inputs",
        "three-points-unchecked-blas",
        "two-points-no-convergence-unchecked-blas",
        "two-points-all-excluded-unchecked-blas"])
def test_compare_is_the_same_on_one_and_two_cpus(sweep, x0, fault, where,
                                                 code, checked, monkeypatch,
                                                 tmp_path, caplog):
    # Two seeds per point. The first user density point's tasks run in the
    # command, the x0 point's in the helper. With two user densities the
    # second one's tasks straddle the split, so both processes solve it;
    # the helper drops what its solve logs. The x0 point has the base
    # user density, 0.001: at x0 = 0.3, the base value, its solver inputs
    # equal those of a user density point at 0.001, so the helper solves
    # those again too, and drops what that logs.
    # Without the checked BLAS build nothing is forked.
    if not checked:
        monkeypatch.setattr(experiments, "forked_blas_checked", lambda: False)
    path = tmp_path / "compare.ini"
    path.write_text(HELPER_INI.replace("replications = 4", "replications = 2")
                    .replace("lambda_u_values = 0.0001", f"lambda_u_values = {sweep}")
                    .replace("x0_values = 0.3", f"x0_values = {x0}"))
    scenario = load_scenario(str(path))
    if fault:
        user_points = sweep_points(scenario, "lambda_u_values")
        points = {"first": user_points[0][1], "straddling": user_points[-1][1],
                  "x0": sweep_points(scenario, "x0_values")[0][1]}
        fault_in(points[where], fault, monkeypatch)
    # Each solve logs which point it solves, so that the order of the
    # points' records shows.
    solve = experiments.solve_mfe

    def logged_solve(problem, grid, config):
        logging.getLogger("tests.solves").info(
            "solving at rate %r, x mean %r", problem.rate,
            float((problem.m0.sum(axis=1) * grid.x).sum() / problem.m0.sum()))
        return solve(problem, grid, config)

    monkeypatch.setattr(experiments, "solve_mfe", logged_solve)
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    seen = {}
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        caplog.clear()
        out = tmp_path / f"out{cpus}"
        with caplog.at_level(logging.DEBUG):
            exit_code = main(["compare", "--scenario", str(path), "--out",
                              str(out)])
        records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        tables = {name: (out / name).read_bytes()
                  for name in sorted(os.listdir(out)) if name.endswith(".csv")}
        seen[cpus] = exit_code, records, tables
    assert seen[1] == seen[2]
    exit_code, records, tables = seen[2]
    assert exit_code == code
    solves = [message for name, _, message in records if name == "tests.solves"]
    assert solves and len(solves) == len(set(solves))
    if code:
        assert records[-1][:2] == ("mfcache.cli", logging.ERROR)
    else:
        # One solve per distinct (lambda_u, x0) pair.
        assert len(solves) == len({(u, "0.3") for u in sweep.split(", ")}
                                  | {("0.001", x0)})
        assert len(tables) == 3
    assert len(forked) == experiments.forked_blas_checked()


# ``mfcache compare`` on the CPUs given, after a call that starts the BLAS
# thread pool: the helper's solves then run BLAS and LAPACK in a process
# forked from one whose pool has run.
BLAS_COMMAND = """
import os, sys
import numpy as np
from mfcache.cli import main

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
a = np.random.default_rng(0).random((512, 512))
assert np.isfinite(a @ a).all()
sys.exit(main(["compare", "--scenario", sys.argv[2], "--out", sys.argv[3],
               "--quiet"]))
"""


def test_helper_solves_after_threaded_blas(tmp_path):
    path = tmp_path / "blas.ini"
    path.write_text(HELPER_INI.replace("replications = 4", "replications = 2")
                    .replace("x0_values = 0.3", "x0_values = 0.6"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(experiments.__file__)),
        env.get("PYTHONPATH"))))
    tables = {}
    for cpus in (1, 2):
        out = tmp_path / f"out{cpus}"
        done = subprocess.run(
            [sys.executable, "-c", BLAS_COMMAND, str(cpus), str(path),
             str(out)], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        tables[cpus] = {name: (out / name).read_bytes()
                        for name in sorted(os.listdir(out))
                        if name.endswith(".csv")}
    assert len(tables[2]) == 3
    assert tables[1] == tables[2]


# ``mfcache compare`` on the CPUs given, with the further options given:
# with ``--quiet``, stderr holds only Python warnings.
WARNING_COMMAND = """
import os, sys
from mfcache.cli import main

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))
sys.exit(main(["compare", "--scenario", sys.argv[2], "--out", sys.argv[3],
               *sys.argv[4:]]))
"""


@pytest.mark.parametrize("lambda_u, options", [
    ("0.1", ["--quiet"]), ("0.1", ["-v"]), ("0.0001", ["-v"])],
    ids=["both-points", "both-points-verbose", "helper-point-verbose"])
def test_a_warning_of_points_on_both_sides_shows_once(tmp_path, lambda_u,
                                                      options):
    # The x0 point, run by the helper, has more users than stations, and so
    # has the user density point at 0.1, run by the command. The solve and
    # the replications of each dense point reach the geometry warning; the
    # command shows it once, where the one-CPU run does: at the first dense
    # point's solve, after the solver lines of any point before it.
    path = tmp_path / "dense.ini"
    path.write_text(HELPER_INI.replace("replications = 4", "replications = 2")
                    .replace("lambda_u_values = 0.0001",
                             f"lambda_u_values = {lambda_u}")
                    .replace("[demand]", "[geometry]\nlambda_u = 0.2\n[demand]"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(experiments.__file__)),
        env.get("PYTHONPATH"))))
    stderr = {}
    for cpus in (1, 2):
        done = subprocess.run(
            [sys.executable, "-c", WARNING_COMMAND, str(cpus), str(path),
             str(tmp_path / f"out{cpus}"), *options],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        stderr[cpus] = done.stderr
    assert stderr[2] == stderr[1]
    assert stderr[2].count("lambda_u exceeds lambda_b") == 1
    # With solver lines, the warning follows the first point's when that
    # point is not dense.
    assert stderr[2].startswith("DEBUG") == (lambda_u == "0.0001")


# ``mfcache ipi`` with a policy that hits the barrier in place of the random
# one, on the CPUs given: every replication's random lanes are excluded,
# so the point fails with exit 5 after its "hit the barrier" lines.
BARRIER_COMMAND = """
import os, sys
import numpy as np
import mfcache.experiments as experiments
from mfcache.cli import main

os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))

class Over:
    def __call__(self, ctx, rng=None):
        return np.full(ctx.x_hat.shape, 1.0)

policies_for = experiments._policies_for
experiments._policies_for = lambda solution: {**policies_for(solution),
                                              "random": Over()}
sys.exit(main(["ipi", "--scenario", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_each_barrier_line_reaches_stderr_once(tmp_path):
    # The helper's records reach stderr through the command's handler only:
    # the command prints the same text on one CPU and on two.
    path = tmp_path / "helper.ini"
    path.write_text(HELPER_INI)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (
        os.path.dirname(os.path.dirname(experiments.__file__)),
        env.get("PYTHONPATH"))))
    stderr = {}
    for cpus in (1, 2):
        done = subprocess.run(
            [sys.executable, "-c", BARRIER_COMMAND, str(cpus), str(path),
             str(tmp_path / f"out{cpus}")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == EXIT_ALL_EXCLUDED, done.stderr
        stderr[cpus] = done.stderr
    assert stderr[1] == stderr[2]
    lines = [line.split() for line in stderr[2].splitlines()
             if "hit the barrier" in line]
    # Seeds 3 to 6, both arms of the random lane, then the point's error.
    assert [line[3] for line in lines[:-1]] == \
        [str(seed) for seed in (3, 4, 5, 6) for _ in range(2)]
    assert lines[-1][:2] == ["ERROR", "mfcache.cli:"]

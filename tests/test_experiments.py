import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import mfcache.experiments as experiments
from mfcache.cli import EXIT_ALL_EXCLUDED, main
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
)
from mfcache.simulation import MetricsLog, PairedRun


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
        assert not np.array_equal(first.rate_path, second.rate_path)

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

import configparser
import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import mfcache
from mfcache.cli import main
from mfcache.errors import ConfigurationError
from mfcache.geometry import GeometryConfig
from mfcache.scenario import (
    DemandConfig,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
    sweep_points,
)


class TestScenarioParsing:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_scenario(str(path))
        assert cfg == ScenarioConfig()
        assert cfg.geometry.lambda_b == 0.03
        assert cfg.geometry.lambda_u == 0.001
        assert cfg.geometry.tx_power_dbm == 23.0
        assert cfg.geometry.noise_dbm == -70.0
        assert cfg.geometry.reception_radius_km == pytest.approx(10 / math.sqrt(math.pi))
        assert cfg.demand.catalog_size == 20
        assert cfg.demand.theta == 1.0 and cfg.demand.nu == 0.5
        assert cfg.costs.discard_rate == 0.1
        assert cfg.costs.similar_count == 20

    def test_negative_density_rejected_by_key_name(self):
        with pytest.raises(ConfigurationError, match="geometry.lambda_b"):
            parse_scenario("[geometry]\nlambda_b = -0.5\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="geometry.lambdab"):
            parse_scenario("[geometry]\nlambdab = 0.5\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError, match="radio"):
            parse_scenario("[radio]\npower = 3\n")

    @pytest.mark.parametrize("before, after", [
        ("", ""),
        ("", "[simulation]\nreplications = 2\n"),
        ("[geometry]\nlambda_b = 0.05\n", ""),
    ], ids=["alone", "before-simulation", "after-geometry"])
    def test_a_default_section_is_an_unknown_section(self, before, after):
        # Its keys would otherwise reach every section unseen.
        text = f"{before}[DEFAULT]\nseed = 5\n{after}"
        with pytest.raises(ConfigurationError,
                           match="unknown scenario section 'DEFAULT'"):
            parse_scenario(text)

    def test_malformed_value_names_key(self):
        with pytest.raises(ConfigurationError, match="demand.theta"):
            parse_scenario("[demand]\ntheta = lots\n")

    def test_round_trip_equality(self):
        cfg = parse_scenario(
            "[geometry]\nlambda_b = 0.05\nlambda_u = 0.00025\n"
            "region_height_km = 35.5\n"
            "[demand]\nvolatility = 0.07\ncatalog_size = 12\n"
            "ipi_bias_std = 0.002\nfloor_eps = 1e-5\n"
            "[solver]\ntolerance = 1e-3\n"
            "[experiments]\nx0_values = 0.2, 0.4\n"
        )
        assert cfg.geometry.region_height_km == 35.5
        assert cfg.demand.ipi.bias_std == 0.002
        assert cfg.demand.ipi.floor_eps == 1e-5
        assert cfg.solver.config.tolerance == 1e-3
        assert parse_scenario(serialize_scenario(cfg)) == cfg

    def test_default_hash_is_stable(self):
        # Run manifests record this digest; it moves only when a key or a
        # default changes.
        assert scenario_hash(ScenarioConfig()) == "6823bd88d3b148c1"

    def test_example_scenario_carries_every_key(self):
        example = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "scenarios", "example.ini")

        def keys(parser):
            return {s: list(parser[s]) for s in parser.sections()}

        documented, canonical = (configparser.ConfigParser(interpolation=None)
                                 for _ in range(2))
        documented.read(example, encoding="utf-8")
        canonical.read_string(serialize_scenario(ScenarioConfig()))
        assert keys(documented) == keys(canonical)
        assert scenario_hash(load_scenario(example)) == "ab8072eaa41ad626"

    def test_hash_tracks_content(self):
        a = ScenarioConfig()
        b = parse_scenario("[demand]\nx0 = 0.31\n")
        assert scenario_hash(a) != scenario_hash(b)
        assert scenario_hash(a) == scenario_hash(ScenarioConfig())

    def test_invariant_violations_surface(self):
        with pytest.raises(ConfigurationError, match="demand.nu"):
            parse_scenario("[demand]\nnu = 1.0\n")
        with pytest.raises(ConfigurationError, match="simulation.replications"):
            parse_scenario("[simulation]\nreplications = 0\n")
        for text, key in [("[demand]\nipi_bias_std = -0.1\n", "demand.ipi_bias_std"),
                          ("[demand]\nfloor_eps = 0\n", "demand.floor_eps"),
                          ("[demand]\nfloor_eps = 1e-9\n", "demand.floor_eps"),
                          ("[demand]\nfloor_eps = 1.0\n", "demand.floor_eps"),
                          ("[solver]\nm0_q_std = 0\n", "solver.m0_q_std"),
                          ("[solver]\nm0_x_std = 0\n", "solver.m0_x_std"),
                          ("[geometry]\nlambda_b = nan\n", "geometry.lambda_b"),
                          ("[geometry]\npath_loss_alpha = 2.0\n",
                           "geometry.path_loss_alpha"),
                          ("[demand]\ntheta = 0\n", "demand.theta"),
                          ("[demand]\nperiod = 0\n", "demand.period"),
                          ("[solver]\ngrid_nt = 2\n", "solver.grid_nt"),
                          ("[experiments]\nlambda_b_values = 0.05, -1\n",
                           "experiments.lambda_b_values"),
                          ("[experiments]\nlambda_u_values = -3\n",
                           "experiments.lambda_u_values"),
                          ("[experiments]\nx0_values = 0.2, 1.5\n",
                           "experiments.x0_values")]:
            with pytest.raises(ConfigurationError, match=key):
                parse_scenario(text)


class TestSweepPoints:
    def test_points_equal_the_hand_built_scenarios(self):
        sc = ScenarioConfig()
        for name, expected in [
            ("lambda_u_values",
             [replace(sc, geometry=replace(sc.geometry, lambda_u=v))
              for v in sc.experiments.lambda_u_values]),
            ("lambda_b_values",
             [replace(sc, geometry=replace(sc.geometry, lambda_b=v))
              for v in sc.experiments.lambda_b_values]),
            ("x0_values",
             [replace(sc, demand=replace(sc.demand, x0=v))
              for v in sc.experiments.x0_values]),
        ]:
            points = sweep_points(sc, name)
            assert [value for value, _ in points] == list(
                getattr(sc.experiments, name))
            assert [point for _, point in points] == expected

    def test_copying_a_scenario_builds_no_section(self, monkeypatch):
        sc = ScenarioConfig()
        built = []
        for cls in (GeometryConfig, DemandConfig):
            check = cls.__post_init__

            def counting(self, check=check):
                built.append(type(self).__name__)
                check(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        copy = replace(sc, simulation=replace(sc.simulation, seed=1))
        assert copy.simulation.seed == 1
        assert built == []
        sweep_points(sc, "x0_values")
        assert built == ["DemandConfig"] * len(sc.experiments.x0_values)


SMALL = """
[geometry]
lambda_u = 0.0001

[demand]
catalog_size = 4

[solver]
grid_nt = 51
grid_nx = 11
grid_nq = 11

[simulation]
replications = 2

[experiments]
lambda_u_values = 0.0001, 0.00025
lambda_b_values = 0.02, 0.05
x0_values = 0.3, 0.7
"""


@pytest.fixture()
def small_file(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL)
    return str(path)


class TestCli:
    def test_validate_ok(self, small_file, capsys):
        assert main(["validate", "--scenario", small_file, "--quiet"]) == 0
        assert "[geometry]" in capsys.readouterr().out

    def test_validate_rejects_bad_file(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[geometry]\nlambda_b = -1\n")
        assert main(["validate", "--scenario", str(bad), "--quiet"]) == 2

    @pytest.mark.parametrize("key, value", [("lambda_b_values", "-1"),
                                            ("lambda_u_values", "-3"),
                                            ("x0_values", "1.5")])
    def test_validate_rejects_bad_sweep_value_by_key(self, tmp_path, caplog,
                                                     key, value):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[experiments]\n{key} = {value}\n")
        assert main(["validate", "--scenario", str(bad), "--quiet"]) == 2
        assert f"experiments.{key}" in caplog.text

    def test_missing_scenario_is_validation_failure(self):
        assert main(["validate", "--scenario", "/no/such/file", "--quiet"]) == 2

    def test_scenario_that_is_not_utf8_is_validation_failure(self, tmp_path,
                                                              caplog):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[geometry]\nlambda_b = 0.03\xff\n")
        with pytest.raises(ConfigurationError, match="bad.ini"):
            load_scenario(str(bad))
        assert main(["validate", "--scenario", str(bad), "--quiet"]) == 2
        assert str(bad) in caplog.text

    def test_scenario_that_is_a_directory_is_validation_failure(self, tmp_path,
                                                                caplog):
        with pytest.raises(ConfigurationError, match="Is a directory"):
            load_scenario(str(tmp_path))
        assert main(["validate", "--scenario", str(tmp_path), "--quiet"]) == 2
        assert f"scenario file {tmp_path} cannot be read" in caplog.text

    def test_solve_writes_artifacts(self, small_file, tmp_path):
        out = tmp_path / "out"
        assert main(["solve", "--scenario", small_file, "--out", str(out),
                     "--quiet"]) == 0
        names = sorted(os.listdir(out))
        assert "manifest.txt" in names
        assert "content_solutions.csv" in names
        assert any(n.startswith("solution_content_") for n in names)
        assert any(n.startswith("residuals_content_") for n in names)
        assert any(n.startswith("control_trajectory_") for n in names)
        assert any(n.startswith("density_marginal_") for n in names)
        solution = next(n for n in names if n.startswith("solution_content_"))
        with open(out / solution) as f:
            header = f.readline().strip()
        assert header == "t,x,Q,v,m,p"
        manifest = (out / "manifest.txt").read_text()
        assert "scenario_hash:" in manifest and "wall_seconds:" in manifest

    @pytest.mark.parametrize("flags, shown", [((), False),
                                              (("--verbose",), True),
                                              (("-v",), True)],
                             ids=["default", "verbose", "v"])
    def test_verbose_logs_solver_sweeps(self, small_file, tmp_path, flags, shown):
        # The root logger is configured by main, so run it as a command.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (
            os.path.dirname(os.path.dirname(mfcache.__file__)),
            env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "mfcache.cli", "solve", "--scenario",
             small_file, "--out", str(tmp_path / "out"), *flags],
            env=env, capture_output=True, text=True, check=True)
        assert ("sweep 1:" in proc.stderr) == shown

    def test_quiet_and_verbose_exclude_each_other(self, small_file):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scenario", small_file, "--quiet", "--verbose"])
        assert exc.value.code == 2

    def test_solve_nonconvergence_exit_code(self, tmp_path):
        path = tmp_path / "hard.ini"
        path.write_text(SMALL.replace(
            "[solver]\ngrid_nt = 51",
            "[solver]\ntolerance = 1e-14\nmax_iterations = 1\ngrid_nt = 51"))
        out = tmp_path / "out"
        code = main(["solve", "--scenario", str(path), "--out", str(out),
                     "--quiet"])
        assert code == 3
        assert (out / "manifest.txt").exists()  # artifacts still written

    def test_compare_writes_tables(self, small_file, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--scenario", small_file, "--out", str(out),
                     "--quiet"]) == 0
        for name in ("lra_trajectories.csv", "summary.csv",
                     "overlap_vs_x0.csv", "manifest.txt"):
            assert (out / name).exists()
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[0] == "lambda_u,policy,lra,reduction_vs_baseline"
        assert len(rows) == 1 + 2 * 3  # two densities, three policies

    def test_ipi_writes_tables(self, small_file, tmp_path):
        out = tmp_path / "ipi"
        assert main(["ipi", "--scenario", small_file, "--out", str(out),
                     "--quiet"]) == 0
        rows = (out / "ipi_increments.csv").read_text().splitlines()
        assert rows[0] == "lambda_b,policy,lra_ppi,lra_ipi,increment"
        assert len(rows) == 1 + 2 * 3

    def test_seed_and_grid_come_from_the_scenario_file(self, tmp_path):
        path = tmp_path / "seeded.ini"
        path.write_text(SMALL.replace("grid_nt = 51", "grid_nt = 41")
                        .replace("[simulation]", "[simulation]\nseed = 77"))
        out = tmp_path / "seeded"
        assert main(["solve", "--scenario", str(path), "--out", str(out),
                     "--quiet"]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "seed: 77" in manifest
        assert "grid: 41x11x11" in manifest

    @pytest.mark.parametrize("command, flag", [
        *((command, flag) for command in ("solve", "compare", "ipi", "validate")
          for flag in ("--seed=77", "--replications=3", "--grid-nx=11",
                       "--grid-nq=11", "--grid-nt=41")),
        ("validate", "--out=out"),
    ])
    def test_a_scenario_key_is_not_a_flag(self, small_file, command, flag,
                                          capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--scenario", small_file, flag, "--quiet"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("costs", "gamma", "nan"),
        ("costs", "backhaul", "inf"),
        ("solver", "terminal_value", "inf"),
        ("solver", "tolerance", "nan"),
        ("solver", "m0_q_std", "inf"),
        ("demand", "volatility", "inf"),
        ("demand", "ipi_bias_mean", "nan"),
        ("simulation", "horizon", "inf"),
        ("simulation", "horizon", "nan"),
        ("geometry", "region_width_km", "inf"),
        ("geometry", "region_height_km", "nan"),
    ])
    def test_non_finite_value_is_validation_failure(self, tmp_path, section,
                                                    key, value):
        text = f"[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigurationError, match=rf"{section}\.{key}"):
            parse_scenario(text)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["solve", "--scenario", str(path), "--out",
                     str(tmp_path / "out"), "--quiet"]) == 2

    def test_output_collision_is_io_failure(self, small_file, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        assert main(["validate", "--scenario", small_file, "--quiet"]) == 0
        assert main(["solve", "--scenario", small_file, "--out", str(blocker),
                     "--quiet"]) == 4

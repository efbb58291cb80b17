import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

import mfcache
from mfcache import geometry
from mfcache.errors import ConfigurationError
from mfcache.geometry import (
    GeometryConfig,
    average_rate,
    dbm_to_mw,
    nearest_sbs_distance,
    normalized_interference,
    path_loss,
    rate_model_from_config,
    request_region_count,
    sample_ppp,
    RateModel,
)

from support import average_rate_monte_carlo, monte_carlo_interference

SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(mfcache.__file__)))
REGION = (20.0, 20.0)


def test_dbm_conversion():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(23.0) == pytest.approx(199.52623149688787)
    assert dbm_to_mw(-70.0) == pytest.approx(1e-7)


class TestSamplePpp:
    def test_zero_intensity_is_empty(self):
        pattern = sample_ppp(0.0, REGION, np.random.default_rng(0))
        assert len(pattern) == 0

    def test_mean_count_matches_poisson(self):
        rng = np.random.default_rng(42)
        draws = 10_000
        counts = [len(sample_ppp(0.05, REGION, rng)) for _ in range(draws)]
        mean = np.mean(counts)
        se = np.sqrt(20.0 / draws)
        assert abs(mean - 20.0) < 3 * se

    def test_same_seed_reproduces_points(self):
        a = sample_ppp(0.05, REGION, np.random.default_rng(7))
        b = sample_ppp(0.05, REGION, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_points_inside_region(self):
        pattern = sample_ppp(1.0, (5.0, 3.0), np.random.default_rng(1))
        assert pattern.shape[1] == 2 and (pattern >= 0.0).all()
        assert (pattern[:, 0] <= 5.0).all()
        assert (pattern[:, 1] <= 3.0).all()


class TestPathLoss:
    def test_clamped_inside_unit_distance(self):
        assert path_loss(0.5, 4.0) == 1.0
        assert path_loss(0.0, 4.0) == 1.0

    def test_power_law_value(self):
        assert path_loss(2.0, 4.0) == pytest.approx(0.0625)

    def test_monotone_nonincreasing(self):
        d = np.linspace(0.0, 10.0, 101)
        g = path_loss(d, 3.5)
        assert (np.diff(g) <= 1e-15).all()
        assert (g <= 1.0).all()


class TestNormalizedInterference:
    def test_reference_value(self):
        cfg = GeometryConfig(lambda_b=0.05, lambda_u=1e-4)
        assert normalized_interference(cfg) == pytest.approx(0.37215959589, rel=1e-9)

    def test_quadrupled_antennas_halve_it(self):
        one = normalized_interference(GeometryConfig(num_antennas=1))
        four = normalized_interference(GeometryConfig(num_antennas=4))
        assert four == pytest.approx(one / 2.0)

    def test_no_users_no_interference(self):
        assert normalized_interference(GeometryConfig(lambda_u=0.0)) == 0.0

    def test_config_rejects_singular_exponent(self):
        with pytest.raises(ConfigurationError):
            GeometryConfig(path_loss_alpha=2.0)


class TestMonteCarloInterference:
    def test_empty_pattern(self):
        cfg = GeometryConfig()
        pattern = sample_ppp(0.0, REGION, np.random.default_rng(0))
        draws = monte_carlo_interference(pattern, (10, 10), cfg, 0.5,
                                         np.random.default_rng(0), 10)
        assert (draws == 0.0).all()

    def test_all_dormant(self):
        cfg = GeometryConfig()
        pattern = sample_ppp(0.1, REGION, np.random.default_rng(3))
        draws = monte_carlo_interference(pattern, (10, 10), cfg, 0.0,
                                         np.random.default_rng(0), 10)
        assert (draws == 0.0).all()

    def test_mean_tracks_expected_sum(self):
        cfg = GeometryConfig(lambda_b=0.05)
        rng = np.random.default_rng(11)
        pattern = sample_ppp(0.05, REGION, rng)
        user = np.array([10.0, 10.0])
        p_a = 0.6
        # Oracle: expectation over thinning and unit-mean fading of the sum
        # of received powers from the fixed points inside the ball.
        d = np.hypot(*(pattern - user).T)
        inside = d <= cfg.reception_radius_km
        expected = p_a * cfg.tx_power_mw * np.sum(
            np.minimum(1.0, d[inside] ** -cfg.path_loss_alpha))
        draws = monte_carlo_interference(pattern, user, cfg, p_a, rng, 100_000)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(draws.mean() - expected) < 3 * se

    def test_larger_ball_collects_more(self):
        rng = np.random.default_rng(5)
        pattern = sample_ppp(0.2, REGION, rng)
        user = np.array([10.0, 10.0])
        means = []
        for radius in (3.0, 8.0):
            cfg = GeometryConfig(lambda_b=0.2, reception_radius_km=radius)
            d = np.hypot(*(pattern - user).T)
            inside = d <= radius
            means.append(cfg.tx_power_mw * np.sum(
                np.minimum(1.0, d[inside] ** -cfg.path_loss_alpha)))
        assert means[0] <= means[1]


class TestLaguerreTable:
    # The rule is checked in as literals; numpy builds the same rule here.
    def test_equals_numpy_rule_bit_for_bit(self):
        nodes, weights = laggauss(32)
        assert geometry._LAGUERRE_NODES.dtype == np.float64
        assert geometry._LAGUERRE_WEIGHTS.dtype == np.float64
        assert geometry._LAGUERRE_NODES.tobytes() == nodes.tobytes()
        assert geometry._LAGUERRE_WEIGHTS.tobytes() == weights.tobytes()

    def test_nodes_positive_and_strictly_increasing(self):
        nodes = geometry._LAGUERRE_NODES
        assert nodes.shape == (32,)
        assert nodes[0] > 0
        assert (np.diff(nodes) > 0).all()

    def test_integrates_the_mass_and_mean_of_exp1(self):
        # A mistyped literal moves one of these past round-off.
        nodes, weights = geometry._LAGUERRE_NODES, geometry._LAGUERRE_WEIGHTS
        assert weights.shape == (32,)
        assert abs(np.sum(weights) - 1.0) < 1e-13
        assert abs(np.sum(weights * nodes) - 1.0) < 1e-13


class TestAverageRate:
    def test_quadrature_matches_monte_carlo(self):
        cfg = GeometryConfig(lambda_b=0.05, lambda_u=1e-4)
        model = rate_model_from_config(cfg)
        quad = average_rate(model, cfg)
        mc = average_rate_monte_carlo(model, cfg, np.random.default_rng(0), 10 ** 6)
        assert abs(quad - mc) / quad < 0.005

    def test_decreasing_in_interference_and_noise(self):
        cfg = GeometryConfig()
        base = RateModel(interference_normalized=1.0, noise_term=0.1,
                         serving_distance_km=2.0)
        more_interf = RateModel(interference_normalized=2.0, noise_term=0.1,
                                serving_distance_km=2.0)
        more_noise = RateModel(interference_normalized=1.0, noise_term=0.5,
                               serving_distance_km=2.0)
        r0 = average_rate(base, cfg)
        assert r0 > 0
        assert average_rate(more_interf, cfg) < r0
        assert average_rate(more_noise, cfg) < r0

    def test_vanishes_as_interference_blows_up(self):
        cfg = GeometryConfig()
        model = RateModel(interference_normalized=1e9, noise_term=0.0,
                          serving_distance_km=2.0)
        assert average_rate(model, cfg) < 1e-6

    def test_degenerate_sinr_rejected(self):
        cfg = GeometryConfig()
        model = RateModel(interference_normalized=0.0, noise_term=0.0,
                          serving_distance_km=2.0)
        with pytest.raises(ConfigurationError):
            average_rate(model, cfg)


def test_rate_model_from_config_wiring():
    cfg = GeometryConfig(lambda_b=0.05, lambda_u=1e-4)
    model = rate_model_from_config(cfg)
    assert model.serving_distance_km == pytest.approx(nearest_sbs_distance(0.05))
    assert model.noise_term == pytest.approx(1e-7 / 0.05 ** 2)
    assert model.interference_normalized == pytest.approx(
        normalized_interference(cfg))


def test_request_region_count_floor():
    assert request_region_count(GeometryConfig(lambda_b=0.005,
                                               request_radius_km=4.0)) == 1
    assert request_region_count(GeometryConfig(lambda_b=0.05,
                                               request_radius_km=8.0)) == 10


def test_udn_inversion_only_warns():
    cfg = GeometryConfig(lambda_b=0.001, lambda_u=0.01)
    with pytest.warns(UserWarning, match="lambda_u exceeds lambda_b"):
        normalized_interference(cfg)


def test_udn_warning_shows_once_per_process():
    # Three sweep-point scenarios outside the ultra-dense regime, each
    # built as ``scenario.sweep_points`` builds one, then each one's rate
    # model.
    code = (
        "from dataclasses import replace\n"
        "from mfcache.geometry import rate_model_from_config\n"
        "from mfcache.scenario import ScenarioConfig\n"
        "sc = ScenarioConfig()\n"
        "points = [replace(sc, geometry=replace(sc.geometry, lambda_u=v))\n"
        "          for v in (0.1, 0.2, 0.3)]\n"
        "for point in points:\n"
        "    rate_model_from_config(point.geometry)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SOURCE_ROOT, env.get("PYTHONPATH"))))
    err = subprocess.run([sys.executable, "-W", "default", "-c", code], env=env,
                         check=True, capture_output=True, text=True).stderr
    assert err.count("lambda_u exceeds lambda_b") == 1, err

import math

import numpy as np
import pytest

from support import instantaneous_cost

from mfcache.costs import (
    CostParams,
    backhaul_cost,
    empirical_overlap,
    lra_cost,
    mf_overlap,
    storage_cost,
    storage_drift,
)


class TestBackhaulCost:
    def test_zero_download_zero_cost_at_unit_budget(self):
        assert backhaul_cost(0.0, 1.0, 1.0) == 0.0

    def test_inverse_of_log(self):
        p = 1.0 - math.exp(-1.0)
        assert backhaul_cost(p, 1.0, 1.0) == pytest.approx(1.0)

    def test_barrier_sentinel(self):
        assert backhaul_cost(1.0, 1.0, 1.0) == math.inf
        assert math.isinf(backhaul_cost(0.9, 0.5, 1.0))

    def test_convexity(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            p1, p2 = rng.uniform(0.0, 0.95, 2)
            lam = rng.uniform()
            mid = backhaul_cost(lam * p1 + (1 - lam) * p2, 1.0, 1.0)
            chord = (lam * backhaul_cost(p1, 1.0, 1.0)
                     + (1 - lam) * backhaul_cost(p2, 1.0, 1.0))
            assert mid <= chord + 1e-12

    def test_strictly_increasing(self):
        p = np.linspace(0.0, 0.9, 50)
        values = backhaul_cost(p, 1.0, 1.0)
        assert (np.diff(values) > 0).all()


class TestStorageCost:
    def test_empty_cache_free(self):
        assert storage_cost(1.0, 1.0, 2.0) == 0.0

    def test_full_cache_costs_gamma(self):
        assert storage_cost(0.0, 1.0, 2.0) == 2.0

    def test_linear_midpoint(self):
        assert storage_cost(0.5, 1.0, 2.0) == 1.0


class TestEmpiricalOverlap:
    def test_no_neighbors(self):
        # A single-station neighbourhood: nobody else caches anything.
        overlap = empirical_overlap(np.full((1, 4), 0.5), 1.0, 20)
        assert overlap.shape == (1, 4)
        assert (overlap == 0.0).all()

    def test_reference_value(self):
        # Ten stations caching half of every content: each sees nine others.
        overlap = empirical_overlap(np.full((10, 3), 0.5), 1.0, 20)
        assert overlap == pytest.approx(np.full((10, 3), 0.225))

    def test_leaves_own_control_out(self):
        p = np.array([[0.2, 0.0], [0.6, 0.4], [0.1, 0.8]])
        overlap = empirical_overlap(p, 2.0, 5)
        expected = [[0.7 / 10, 1.2 / 10], [0.3 / 10, 0.8 / 10],
                    [0.8 / 10, 0.4 / 10]]
        assert overlap == pytest.approx(np.array(expected))

    def test_vanishes_with_many_similar_contents(self):
        assert empirical_overlap(np.full((10, 3), 0.5), 1.0, 10 ** 9).max() < 1e-8


class TestMfOverlap:
    @staticmethod
    def _uniform_density(nx, nq, cell):
        m = np.full((nx, nq), 1.0)
        return m / (m.sum() * cell)

    def test_constant_control(self):
        cell = 0.025 * 0.025
        m = self._uniform_density(41, 41, cell)
        p = np.full((41, 41), 0.4)
        value = mf_overlap(m, p, cell, 1.0, 20, neighbor_count=5)
        assert value == pytest.approx(0.4 * 5 / 20.0)

    def test_point_mass_sifts(self):
        cell = 0.1 * 0.1
        m = np.zeros((10, 10))
        m[3, 7] = 1.0 / cell
        p = np.random.default_rng(0).uniform(0, 1, (10, 10))
        value = mf_overlap(m, p, cell, 1.0, 20, neighbor_count=4)
        assert value == pytest.approx(p[3, 7] * 4 / 20.0)

    def test_matches_empirical_over_iid_neighbors(self):
        # Stations drawn from the density; the empirical overlap over them
        # converges to the mean-field value.
        rng = np.random.default_rng(42)
        nx = nq = 41
        cell = (1.0 / (nx - 1)) * (1.0 / (nq - 1))
        gx = np.exp(-0.5 * ((np.linspace(0, 1, nx) - 0.4) / 0.15) ** 2)
        gq = np.exp(-0.5 * ((np.linspace(0, 1, nq) - 0.6) / 0.2) ** 2)
        m = gx[:, None] * gq[None, :]
        m /= m.sum() * cell
        p = 0.2 + 0.6 * np.add.outer(np.linspace(0, 1, nx) ** 2,
                                     np.linspace(0, 1, nq)) / 2.0
        n_neighbors = 10_000
        flat = (m * cell).ravel()
        # One station and its n_neighbors neighbours, one content each.
        idx = rng.choice(flat.size, size=n_neighbors + 1, p=flat)
        sampled_p = p.ravel()[idx][:, None]
        expected = mf_overlap(m, p, cell, 1.0, 20, neighbor_count=n_neighbors)
        observed = empirical_overlap(sampled_p, 1.0, 20)[0, 0]
        assert abs(observed - expected) / expected < 0.02


class TestInstantaneousCost:
    def test_all_terms_vanish(self):
        params = CostParams()
        assert instantaneous_cost(0.0, 1.0, 0.5, 1.0, 0.0, params) == 0.0

    def test_rate_doubling_halves_backhaul_term(self):
        params = CostParams()
        j1 = instantaneous_cost(0.5, 1.0, 0.5, 1.0, 0.0, params)
        j2 = instantaneous_cost(0.5, 1.0, 0.5, 2.0, 0.0, params)
        assert j2 == pytest.approx(j1 / 2.0)

    def test_reference_value(self):
        params = CostParams()
        value = instantaneous_cost(0.5, 1.0, 0.5, 1.0, 0.0, params)
        assert value == pytest.approx(-math.log(0.5) / 0.5)

    def test_barrier_propagates(self):
        params = CostParams()
        assert math.isinf(instantaneous_cost(1.0, 1.0, 0.5, 1.0, 0.0, params))

    def test_monotonicity_in_overlap_rate_and_popularity(self):
        params = CostParams()
        base = instantaneous_cost(0.5, 0.8, 0.5, 1.0, 0.1, params)
        assert instantaneous_cost(0.5, 0.8, 0.5, 1.0, 0.2, params) > base
        assert instantaneous_cost(0.5, 0.8, 0.5, 1.5, 0.1, params) < base
        assert instantaneous_cost(0.5, 0.8, 0.7, 1.0, 0.1, params) < base


class TestStorageDrift:
    def test_discard_against_caching(self):
        params = CostParams(discard_rate=0.1, content_size=2.0)
        assert storage_drift(0.0, params) == 0.1
        assert storage_drift(np.array([0.05, 0.3]), params) == pytest.approx(
            [0.0, -0.5])


class TestLraCost:
    def test_constant_cost(self):
        samples = np.full(101, 3.0)
        assert lra_cost(samples, 0.01) == pytest.approx(3.0)

    def test_linear_ramp(self):
        t = np.linspace(0, 1, 201)
        assert lra_cost(t, t[1]) == pytest.approx(0.5)

    def test_refinement_stability(self):
        coarse_t = np.linspace(0, 1, 201)
        fine_t = np.linspace(0, 1, 401)
        coarse = lra_cost(np.sin(coarse_t), coarse_t[1])
        fine = lra_cost(np.sin(fine_t), fine_t[1])
        assert abs(coarse - fine) < 1e-3

    def test_single_sample_is_its_own_average(self):
        assert lra_cost(np.array([2.5]), 0.01) == 2.5

    def test_empty_series(self):
        assert lra_cost(np.empty(0), 0.01) == 0.0

    def test_barrier_hit_returns_inf(self):
        assert math.isinf(lra_cost(np.array([1.0, math.inf, 2.0]), 0.1))

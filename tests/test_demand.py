import math
from types import SimpleNamespace

import numpy as np
import pytest

import mfcache.demand
from mfcache.demand import (
    FLOOR_EPS,
    CrpState,
    IpiModel,
    crp_request_distribution,
    ou_step_array,
    perturb_popularity,
    refresh_period,
    simulate_requests,
)
from mfcache.demand import _joins_before_opening
from mfcache.errors import ConfigurationError

from support import (
    exact_distinct_mean,
    expected_distinct_contents,
    reference_joins_before_opening,
    urn_request_ids,
)


class TestCrpDistribution:
    def test_two_branch_example(self):
        state = CrpState(counts=np.array([3, 1, 0, 0]), theta=1.0, nu=0.5)
        probs = crp_request_distribution(state)
        assert probs == pytest.approx([0.5, 0.1, 0.2, 0.2])

    def test_fresh_history_is_uniform(self):
        state = CrpState.empty(8)
        assert crp_request_distribution(state) == pytest.approx([1 / 8] * 8)

    def test_sums_to_one_on_random_states(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            counts = rng.poisson(2.0, rng.integers(2, 30))
            state = CrpState(counts=counts, theta=rng.uniform(0.1, 5.0),
                             nu=rng.uniform(0.0, 0.95))
            probs = crp_request_distribution(state)
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_exhausted_catalog_redistributes(self):
        state = CrpState(counts=np.array([4, 2, 1]), theta=1.0, nu=0.5)
        probs = crp_request_distribution(state)
        assert abs(probs.sum() - 1.0) < 1e-12
        # mass stays proportional to the discounted counts
        ratios = probs / (state.counts - 0.5)
        assert np.allclose(ratios, ratios[0])


class TestCrpSampling:
    def test_urn_sampler_matches_single_draw_law(self):
        base = np.array([3, 1, 0, 0])
        rng = np.random.default_rng(2)
        hits = np.zeros(4)
        n = 40_000
        for _ in range(n):
            state = CrpState(counts=base.copy(), theta=1.0, nu=0.5)
            hits += simulate_requests(state, 1, rng)
        freq = hits / n
        expected = np.array([0.5, 0.1, 0.2, 0.2])
        se = np.sqrt(expected * (1 - expected) / n)
        assert (np.abs(freq - expected) < 4 * se).all()

    def test_urn_sampler_matches_reference_distinct_mean(self):
        n_requests, runs = 2000, 150
        rng = np.random.default_rng(3)
        urn = []
        for _ in range(runs):
            state = CrpState.empty(1200)
            refresh_period(state, simulate_requests(state, n_requests, rng))
            urn.append(np.count_nonzero(state.counts))
        se = np.sqrt(np.var(urn) / runs)
        exact = exact_distinct_mean(n_requests, 1.0, 0.5)
        assert abs(np.mean(urn) - exact) < 3.5 * se

    def test_urn_sampler_conserves_counts(self):
        state = CrpState.empty(50)
        inc = simulate_requests(state, 500, np.random.default_rng(4))
        assert inc.sum() == 500 and inc.shape == (50,)
        assert state.counts.sum() == 0
        refresh_period(state, inc)
        assert state.counts.sum() == 500
        assert np.array_equal(state.counts, inc)

    def test_sampler_leaves_history_unchanged(self):
        counts = np.array([3, 1, 0, 0, 2])
        state = CrpState(counts=counts.copy(), theta=1.0, nu=0.5)
        inc = simulate_requests(state, 200, np.random.default_rng(5))
        assert inc.sum() == 200
        assert np.array_equal(state.counts, counts)
        refresh_period(state, inc)
        assert np.array_equal(state.counts, counts + inc)

    @pytest.mark.parametrize("theta", [-0.2, 0.0])
    def test_empty_history_opens_on_first_arrival(self, theta):
        # theta <= 0 leaves no new-content mass on an empty history; the
        # first arrival still has to open a content.
        rng = np.random.default_rng(6)
        state = CrpState.empty(5, theta=theta, nu=0.5)
        assert crp_request_distribution(state) == pytest.approx([0.2] * 5)
        first = simulate_requests(state, 1, rng)
        assert sorted(first) == [0, 0, 0, 0, 1]
        for n in (2, 30):
            assert simulate_requests(state, n, rng).sum() == n

    def test_exhausted_history_is_dirichlet_multinomial(self):
        # With every content seen the joins are a Polya urn with weights
        # a_j = n_j - nu, whose counts have closed-form moments.
        counts = np.arange(1, 21)
        n, draws, nu = 300, 20_000, 0.5
        state = CrpState(counts=counts, theta=1.0, nu=nu)
        rng = np.random.default_rng(7)
        inc = np.array([simulate_requests(state, n, rng) for _ in range(draws)])
        a = counts - nu
        share = a / a.sum()
        var = n * share * (1 - share) * (n + a.sum()) / (1 + a.sum())
        assert (np.abs(inc.mean(axis=0) - n * share)
                < 4 * np.sqrt(var / draws)).all()
        assert np.allclose(inc.var(axis=0) / var, 1.0, atol=0.1)

    @pytest.mark.parametrize("counts, n, theta, nu, draws", [
        ([0] * 12, 40, 1.0, 0.5, 3000),
        ([3, 1, 0, 0, 2, 0, 0, 0], 30, 1.0, 0.5, 4000),
        ([5, 0, 0, 1, 0, 0], 15, 0.3, 0.8, 4000),
    ])
    def test_matches_urn_oracle(self, counts, n, theta, nu, draws):
        # Per-content first and second moments, the ranked counts and the
        # distinct count agree with one-at-a-time draws from the urn.
        counts = np.array(counts)
        rng = np.random.default_rng(8)

        def stats(inc):
            return np.concatenate([inc, inc ** 2, np.sort(inc)[::-1],
                                   [np.count_nonzero(counts + inc)]])

        state = CrpState(counts=counts, theta=theta, nu=nu)
        fast = np.array([stats(simulate_requests(state, n, rng))
                         for _ in range(draws)])
        urn = np.array([stats(np.bincount(urn_request_ids(state, n, rng),
                                          minlength=counts.size))
                        for _ in range(draws)])
        se = np.sqrt((fast.var(axis=0) + urn.var(axis=0)) / draws)
        gap = np.abs(fast.mean(axis=0) - urn.mean(axis=0))
        assert (gap <= 4.5 * se + 1e-12).all()


def _crossing_cases(n: int, seed: int) -> list[tuple[float, float, int, float]]:
    """``(a, b, left, log_u)`` of ``n`` openings: histories of 1 to 10^6
    requests with up to 1,000 contents seen, theta down to 1e-3, nu = 0 in a
    fifth of the cases, left = 0 in one in twenty, and a fifth of the
    thresholds 30 times deeper in the tail, where the guess clamps to left."""
    rng = np.random.default_rng(seed)
    total = np.floor(10.0 ** rng.uniform(0.0, 6.0, n)).astype(np.int64)
    seen = 1 + (rng.random(n) * np.minimum(total, 1000)).astype(np.int64)
    nu = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.0, 1.0, n))
    theta = 10.0 ** rng.uniform(-3.0, 2.0, n)
    left = np.where(rng.random(n) < 0.05, 0,
                    np.floor(10.0 ** rng.uniform(0.0, 5.5, n))).astype(np.int64)
    log_u = -rng.standard_exponential(n) * np.where(rng.random(n) < 0.2,
                                                     30.0, 1.0)
    return list(zip((total - nu * seen).tolist(), (total + theta).tolist(),
                    left.tolist(), log_u.tolist()))


class TestJoinsBeforeOpening:
    """The crossing search starts from a closed-form guess and gallops to a
    bracket; the ``lgamma`` test is monotone in ``s``, so it must land where
    plain bisection over ``[0, left]`` does, and the world stream of a
    replication does not depend on which search ran."""

    def test_matches_plain_bisection_on_random_cases(self):
        cases = _crossing_cases(100_000, 20261020)
        found = np.array([_joins_before_opening(*case) for case in cases])
        expected = np.array([reference_joins_before_opening(*case)
                             for case in cases])
        assert np.flatnonzero(found != expected).tolist() == []
        a, b, left, log_u = map(np.array, zip(*cases))
        # Every path is taken many times: left = 0, the guess clamped to
        # left, all joins, none, and a crossing strictly inside.
        clamped = log_u / (a - b) >= np.log1p(left / b)
        inside = (found > 0) & (found < left)
        some = left > 0
        for mask in (left == 0, clamped & some, (found == left) & some,
                     (found == 0) & some, inside):
            assert mask.sum() >= 1000

    @pytest.mark.parametrize("factor", [0.25, 4.0])
    def test_any_guess_gives_the_same_answer(self, monkeypatch, factor):
        # The guess is at or past the answer, so the search gallops down
        # from it; a guess moved low (gallop up) or further out must still
        # give plain bisection's answer.
        moved = SimpleNamespace(lgamma=math.lgamma, log1p=math.log1p,
                                expm1=lambda x: factor * math.expm1(x))
        monkeypatch.setattr(mfcache.demand, "math", moved)
        cases = _crossing_cases(20_000, 7)
        found = [_joins_before_opening(*case) for case in cases]
        assert found == [reference_joins_before_opening(*case) for case in cases]

    @pytest.mark.parametrize("left", [0, 1, 7, 1000])
    def test_a_threshold_of_one_survives_no_join(self, left):
        # log_u = -0.0 (a unit exponential draw of 0.0): survival(0) = 1 is
        # taken as surviving without a test, and no s >= 1 survives.
        assert _joins_before_opening(3.5, 5.0, left, -0.0) == 0
        assert reference_joins_before_opening(3.5, 5.0, left, -0.0) == 0


class TestExpectedDistinct:
    def test_zero_discount_branch(self):
        assert expected_distinct_contents(100, 1.0, 0.0) == pytest.approx(
            4.61512051684126)

    def test_positive_discount_branch(self):
        assert expected_distinct_contents(10_000, 1.0, 0.5) == pytest.approx(
            225.6758334191, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(ConfigurationError):
            expected_distinct_contents(0, 1.0, 0.5)
        with pytest.raises(ConfigurationError):
            expected_distinct_contents(10, 0.0, 0.5)


class TestOuStep:
    @staticmethod
    def _path(x, mu, rate, dt, steps):
        """Noise-free path of one process, one state per step."""
        rng = np.random.default_rng(0)
        x, mu = np.array([x]), np.array([mu])
        out = []
        for _ in range(steps):
            x = ou_step_array(x, mu, rate, 0.0, dt, rng)
            out.append(float(x[0]))
        return out

    def test_zero_noise_fixed_point(self):
        assert self._path(0.5, 0.5, 1.0, 0.01, 1) == [0.5]

    def test_matches_analytic_relaxation(self):
        x = self._path(0.3, 0.5, 1.0, 1e-3, 1000)[-1]
        analytic = 0.5 - 0.2 * np.exp(-1.0)
        assert abs(x - analytic) < 1e-3

    def test_monotone_convergence_without_noise(self):
        xs = self._path(0.1, 0.8, 2.0, 0.01, 200)
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        assert xs[-1] <= 0.8

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(5)
        x = np.full(2000, 0.5)
        mu = np.full(2000, 0.5)
        for _ in range(50):
            x = ou_step_array(x, mu, 0.5, 2.0, 0.01, rng)
            assert (x >= 0.0).all() and (x <= 1.0).all()


class TestPerturbPopularity:
    def test_perfect_information_floors_only(self):
        ipi = IpiModel(bias_mean=0.0, bias_std=0.0)
        rng = np.random.default_rng(0)
        out = perturb_popularity(np.array([0.3, 0.0]), ipi, rng)
        assert out.tolist() == [0.3, FLOOR_EPS]

    def test_reference_bias(self):
        ipi = IpiModel(bias_mean=0.2, bias_std=0.001)
        rng = np.random.default_rng(1)
        draws = perturb_popularity(np.full(10_000, 0.3), ipi, rng)
        assert abs(draws.mean() - 0.5) < 3e-3
        assert (draws > 0.49).all() and (draws < 0.51).all()

    def test_clamped_at_one(self):
        ipi = IpiModel(bias_mean=0.2, bias_std=0.0)
        out = perturb_popularity(np.array([1.0]), ipi, np.random.default_rng(0))
        assert out.tolist() == [1.0]

    def test_output_always_in_range(self):
        ipi = IpiModel(bias_mean=-0.5, bias_std=0.3)
        rng = np.random.default_rng(2)
        out = perturb_popularity(np.linspace(0, 1, 1000), ipi, rng)
        assert (out >= ipi.floor_eps).all() and (out <= 1.0).all()


class TestRefreshPeriod:
    def test_no_arrivals_keeps_means(self):
        state = CrpState(counts=np.array([3, 1, 0, 0]), theta=1.0, nu=0.5)
        before = crp_request_distribution(state).copy()
        after = refresh_period(state, np.zeros(4, dtype=np.int64))
        assert np.array_equal(before, after)

    def test_single_arrival_folds_in(self):
        state = CrpState(counts=np.array([3, 1, 0, 0]), theta=1.0, nu=0.5)
        refresh_period(state, np.array([0, 1, 0, 0]))
        assert state.counts[1] == 2
        assert state.counts.sum() == 5

    def test_repeated_requests_raise_popularity(self):
        state = CrpState.empty(5)
        mus = []
        for _ in range(10):
            mus.append(refresh_period(state, np.array([20, 0, 0, 0, 0]))[0])
        assert all(b > a for a, b in zip(mus, mus[1:]))

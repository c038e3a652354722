"""Conjugate posterior: closed forms against brute-force Bayes, draws,
and the bias/variance/spread decomposition."""

import math

import numpy as np
import pytest
from oracles import posterior_weights_reference, quadrature_bayes

from heatbayes import (
    CoefficientSequence,
    LinearFunctional,
    ObservationSet,
    PriorSpec,
    compute_posterior,
    functional_posterior,
    heat_eigenvalues,
    posterior_draw,
    posterior_mean_function,
    pointwise_band,
    posterior_weights,
    risk_decomposition,
    simulate_observations,
    true_signal_coefficients,
    true_signal_function,
)


def single_coordinate_posterior(n, lam, kappa, y):
    prior = PriorSpec.polynomial(1.0, math.sqrt(lam))  # lambda_1 = tau^2
    kap = CoefficientSequence(np.array([kappa]), 1)
    obs = ObservationSet(CoefficientSequence(np.array([y]), 1), n, 0)
    return compute_posterior(prior, kap, n, obs)


class TestClosedForm:
    def test_hand_arithmetic_example(self):
        """n=100, lambda=1, kappa=0.5, y=2: mean 100/26, var 1/26."""
        summ = single_coordinate_posterior(100.0, 1.0, 0.5, 2.0)
        assert summ.mean.values[0] == pytest.approx(100.0 / 26.0, rel=1e-14)
        assert summ.variance.values[0] == pytest.approx(1.0 / 26.0, rel=1e-14)
        assert summ.shrink_var.values[0] == pytest.approx(
            100 * 1.0 * 0.25 / 26.0**2, rel=1e-14)

    def test_zero_data_zero_mean(self):
        prior = PriorSpec.polynomial(1.0)
        kap = heat_eigenvalues(0.1, 20)
        obs = ObservationSet(CoefficientSequence(np.zeros(20), 20), 50.0, 0)
        summ = compute_posterior(prior, kap, 50.0, obs)
        assert np.all(summ.mean.values == 0.0)
        assert np.all(summ.variance.values > 0.0)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_degenerate_prior_keeps_prior(self):
        summ = single_coordinate_posterior(100.0, 1e-300, 0.5, 2.0)
        assert abs(summ.mean.values[0]) < 1e-290
        assert summ.variance.values[0] == pytest.approx(1e-300, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_conjugacy_against_quadrature(self):
        """Randomized (n, lambda, kappa, y) spanning a = n lam kap^2 in
        [1e-6, 1e6]; closed forms within 1e-6 absolute of quadrature."""
        rng = np.random.default_rng(314)
        for _ in range(50):
            log_a = rng.uniform(math.log(1e-6), math.log(1e6))
            lam = math.exp(rng.uniform(math.log(0.1), math.log(10.0)))
            kappa = math.exp(rng.uniform(math.log(0.05), 0.0))
            y = rng.uniform(-3.0, 3.0)
            n = math.exp(log_a) / (lam * kappa**2)
            summ = single_coordinate_posterior(n, lam, kappa, y)
            mean_q, var_q = quadrature_bayes(n, lam, kappa, y)
            assert abs(summ.mean.values[0] - mean_q) < 1e-6
            assert abs(summ.variance.values[0] - var_q) < 1e-6

    def test_shrinkage_ordering(self):
        rng = np.random.default_rng(7)
        prior = PriorSpec.polynomial(1.0)
        kap = heat_eigenvalues(0.1, 30)
        y_vals = rng.standard_normal(30) + 0.5
        obs = ObservationSet(CoefficientSequence(y_vals, 30), 1e4, 0)
        summ = compute_posterior(prior, kap, 1e4, obs)
        lam = prior.variance_values(30)
        assert np.all(summ.variance.values <= lam)
        ratio = summ.mean.values / y_vals
        pos = kap.values > 1e-300  # reciprocal representable
        assert np.all(ratio[pos] >= 0.0)
        assert np.all(ratio[pos] < 1.0 / kap.values[pos])

    def test_spread_is_data_free(self):
        prior = PriorSpec.exponential(1.0)
        kap = heat_eigenvalues(0.1, 40)
        mu0 = true_signal_coefficients(40)
        s = []
        for seed in (1, 2):
            obs = simulate_observations(mu0, kap, 1e4, seed)
            s.append(compute_posterior(prior, kap, 1e4, obs).variance.values)
        np.testing.assert_array_equal(s[0], s[1])

    def test_dimension_and_noise_level_checks(self):
        prior = PriorSpec.polynomial(1.0)
        kap = heat_eigenvalues(0.1, 10)
        obs = ObservationSet(CoefficientSequence(np.zeros(9), 9), 10.0, 0)
        with pytest.raises(ValueError):
            compute_posterior(prior, kap, 10.0, obs)
        obs10 = ObservationSet(CoefficientSequence(np.zeros(10), 10), 10.0, 0)
        with pytest.raises(ValueError):
            compute_posterior(prior, kap, 20.0, obs10)

    def test_extreme_snr_products_stay_finite(self):
        """a_i spanning ~1e+-300 must produce finite factors."""
        prior = PriorSpec.exponential(1.0)
        kap = heat_eigenvalues(0.1, 100)
        w = posterior_weights(prior, kap, 1e250)
        for arr in (w.mean_weight, w.gain, w.one_minus_gain, w.variance,
                    w.shrink_var):
            assert np.all(np.isfinite(arr))
        assert np.all(w.shrink_var <= w.variance)


ENTRY_POINTS = {
    "compute_posterior": compute_posterior,
    "functional_posterior": lambda prior, kap, n, obs: functional_posterior(
        LinearFunctional.point_evaluation(0.3), prior, kap, n, obs),
    "pointwise_band": lambda prior, kap, n, obs: pointwise_band(
        prior, kap, n, obs, [0.25, 0.5], 0.05),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_observations_must_match_the_request(entry):
    """Each single-dataset entry point rejects observations of another
    truncation or another n, with the same messages."""
    call, prior = ENTRY_POINTS[entry], PriorSpec.exponential(1.0)
    kap = heat_eigenvalues(0.1, 100)
    obs = simulate_observations(true_signal_coefficients(100), kap, 1e4, 3)
    call(prior, kap, 1e4, obs)
    short = simulate_observations(true_signal_coefficients(50),
                                  heat_eigenvalues(0.1, 50), 1e4, 3)
    with pytest.raises(ValueError,
                       match="^truncation mismatch: y has 50, kappa has 100$"):
        call(prior, kap, 1e4, short)
    with pytest.raises(ValueError, match=r"^observations were generated at "
                       r"n=10000\.0, posterior requested at n=5000\.0$"):
        call(prior, kap, 5e3, obs)


class TestSupportRestriction:
    """posterior_weights evaluates its formulas only where kappa_i > 0 and
    must match the full-length evaluation bit for bit."""

    FIELDS = ("lam", "mean_weight", "gain", "one_minus_gain", "variance",
              "shrink_var")

    def assert_matches_reference(self, prior, kappa, n):
        got = posterior_weights(prior, kappa, n)
        for name, ref in zip(self.FIELDS,
                             posterior_weights_reference(prior, kappa, n)):
            assert np.array_equal(getattr(got, name), ref), (prior, n, name)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_bitwise_on_heat_operator(self):
        priors = [PriorSpec.polynomial(a) for a in (0.1, 0.5, 1.0, 3.0, 10.0)]
        priors += [PriorSpec.polynomial(1.0, tau=1e-3)]
        priors += [PriorSpec.exponential(a) for a in (0.1, 1.0, 10.0)]
        for prior in priors:
            for n in (1e-2, 1.0, 1e4, 1e8, 1e16, 1e250):
                for nn in (1, 30, 3826):
                    for T in (0.1, 1e-4):
                        self.assert_matches_reference(
                            prior, heat_eigenvalues(T, nn), n)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_bitwise_with_zero_kappa(self):
        vals = heat_eigenvalues(1e-3, 400).values.copy()
        vals[[0, 7, 100, 101]] = 0.0
        vals[350:] = 0.0
        kappas = [vals, np.zeros(50), np.array([0.0, 0.5])]
        for v in kappas:
            kappa = CoefficientSequence(v, v.size)
            for prior in (PriorSpec.polynomial(0.5), PriorSpec.exponential(1.0)):
                for n in (1e-2, 1e4, 1e250):
                    self.assert_matches_reference(prior, kappa, n)

    def test_outside_support_is_prior(self):
        prior = PriorSpec.polynomial(1.0)
        kappa = CoefficientSequence(np.zeros(10), 10)
        w = posterior_weights(prior, kappa, 1e4)
        assert np.array_equal(w.variance, w.lam)
        assert not np.any(w.mean_weight) and not np.any(w.shrink_var)
        assert not np.any(w.gain) and np.all(w.one_minus_gain == 1.0)


class TestPosteriorDraw:
    def _summary(self):
        prior = PriorSpec.polynomial(1.0)
        kap = heat_eigenvalues(0.1, 30)
        obs = simulate_observations(true_signal_coefficients(30), kap, 1e4, 3)
        return compute_posterior(prior, kap, 1e4, obs)

    def test_degenerate_variance_returns_mean(self):
        mean = CoefficientSequence(np.array([1.0, -2.0]), 2)
        var = CoefficientSequence(np.array([1e-300, 1e-300]), 2)
        from heatbayes.posterior import PosteriorSummary
        summ = PosteriorSummary(mean=mean, variance=var, shrink_var=var)
        draw = posterior_draw(summ, seed=5)
        np.testing.assert_allclose(draw.values, mean.values, atol=1e-140)

    def test_sample_variance_matches(self):
        """Coordinate sample variances over 1e5 draws within 5 percent."""
        summ = self._summary()
        reps = 100_000
        draws = np.empty((reps, 10))
        for r in range(reps):
            draws[r] = posterior_draw(summ, seed=17, index=r).values[:10]
        sample_var = draws.var(axis=0, ddof=1)
        np.testing.assert_allclose(sample_var, summ.variance.values[:10],
                                   rtol=0.05)

    def test_distinct_seeds_differ(self):
        summ = self._summary()
        a = posterior_draw(summ, seed=1)
        b = posterior_draw(summ, seed=2)
        assert not np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, posterior_draw(summ, seed=1).values)


class TestRiskDecomposition:
    def test_single_coordinate_hand_values(self):
        """mu0=e1, n=100, lambda=1, kappa=0.5."""
        prior = PriorSpec.polynomial(1.0)
        kap = CoefficientSequence(np.array([0.5]), 1)
        mu0 = CoefficientSequence(np.array([1.0]), 1)
        dec = risk_decomposition(prior, kap, 100.0, mu0)
        assert dec.sq_bias == pytest.approx((1.0 / 26.0) ** 2, rel=1e-13)
        assert dec.estimator_variance == pytest.approx(25.0 / 676.0, rel=1e-13)
        assert dec.posterior_spread == pytest.approx(1.0 / 26.0, rel=1e-13)

    def test_bias_vanishes_with_benign_operator(self):
        """High signal-to-noise through an identity-like operator."""
        prior = PriorSpec.polynomial(1.0)
        nn = 100
        kap = CoefficientSequence(np.ones(nn), nn)
        mu0 = true_signal_coefficients(nn)
        dec = risk_decomposition(prior, kap, 1e18, mu0)
        assert dec.sq_bias < 1e-6

    def test_no_shrinkage_keeps_full_bias(self):
        prior = PriorSpec.polynomial(1.0, 1e-150)
        nn = 50
        kap = CoefficientSequence(np.full(nn, 1e-150), nn)
        mu0 = true_signal_coefficients(nn)
        with pytest.warns(UserWarning):
            dec = risk_decomposition(prior, kap, 1.0, mu0)
        assert dec.sq_bias == pytest.approx(float(np.sum(mu0.values**2)),
                                            rel=1e-12)

    def test_decomposition_identity_monte_carlo(self):
        """E||muhat - mu0||^2 equals sq_bias + estimator_variance."""
        prior = PriorSpec.polynomial(1.0)
        nn, n, reps = 50, 1e4, 4000
        kap = heat_eigenvalues(0.1, nn)
        mu0 = true_signal_coefficients(nn)
        dec = risk_decomposition(prior, kap, n, mu0)
        w = posterior_weights(prior, kap, n)
        sq = np.empty(reps)
        for r in range(reps):
            obs = simulate_observations(mu0, kap, n, seed=99, replication=r)
            muhat = w.mean_weight * obs.y.values
            sq[r] = float(((muhat - mu0.values) ** 2).sum())
        se = sq.std(ddof=1) / math.sqrt(reps)
        assert abs(sq.mean() - (dec.sq_bias + dec.estimator_variance)) <= 3 * se

    def test_truncation_honesty(self):
        """Doubling the truncation moves each component by < tail_tol."""
        prior = PriorSpec.polynomial(1.0)
        n = 1e4
        a = risk_decomposition(prior, heat_eigenvalues(0.1, 100), n,
                               true_signal_coefficients(100))
        b = risk_decomposition(prior, heat_eigenvalues(0.1, 200), n,
                               true_signal_coefficients(200))
        assert a.tail_tol is not None
        for attr in ("sq_bias", "estimator_variance", "posterior_spread"):
            assert abs(getattr(b, attr) - getattr(a, attr)) <= a.tail_tol


class TestPosteriorMeanFunction:
    def test_zero_mean(self):
        from heatbayes.posterior import PosteriorSummary
        z = CoefficientSequence(np.zeros(5), 5)
        tiny = CoefficientSequence(np.full(5, 1e-300), 5)
        summ = PosteriorSummary(mean=z, variance=tiny, shrink_var=tiny)
        assert np.all(posterior_mean_function(summ, [0.1, 0.9]) == 0.0)

    def test_single_mode(self):
        from heatbayes.posterior import PosteriorSummary
        mean = CoefficientSequence(np.array([1.0, 0.0]), 2)
        tiny = CoefficientSequence(np.full(2, 1e-300), 2)
        summ = PosteriorSummary(mean=mean, variance=tiny, shrink_var=tiny)
        x = np.linspace(0, 1, 11)
        np.testing.assert_allclose(
            posterior_mean_function(summ, x),
            math.sqrt(2) * np.sin(math.pi * x), atol=1e-14)

    def test_recovers_truth_with_benign_operator(self):
        """Noiseless high-n data, identity operator: mean matches the cubic
        within 1e-3 sup-norm on a 101-point grid."""
        prior = PriorSpec.polynomial(1.0)
        nn, n = 100, 1e18
        kap = CoefficientSequence(np.ones(nn), nn)
        mu0 = true_signal_coefficients(nn)
        y = ObservationSet(CoefficientSequence(mu0.values.copy(), nn), n, 0)
        summ = compute_posterior(prior, kap, n, y)
        x = np.linspace(0, 1, 101)
        err = posterior_mean_function(summ, x) - true_signal_function(x)
        assert np.max(np.abs(err)) < 1e-3

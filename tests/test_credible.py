"""Quadratic-form quantiles against the chi-square, noncentral chi-square,
Imhof and Monte Carlo oracles; credible and frequentist radii."""

import math

import numpy as np
import pytest
from oracles import empirical_quantile, imhof_cdf, laplace_transform_reference
from scipy.special import exp1
from scipy.stats import chi2, ncx2

from heatbayes import (
    CoefficientSequence,
    PriorSpec,
    QuadraticForm,
    compute_posterior,
    credible_ball,
    default_truncation,
    frequentist_radius,
    heat_eigenvalues,
    posterior_weights,
    quadratic_form_quantile,
    simulate_observations,
    true_signal_coefficients,
)
from heatbayes import credible
from heatbayes.credible import _form_quantile


def form(weights) -> QuadraticForm:
    vals = np.asarray(weights, dtype=float)
    return QuadraticForm.from_weights(CoefficientSequence(vals, vals.size))



def test_exponential_integral_bound():
    """The Davies stopping rule bounds E1(y) by e^-y log(1 + 1/y)."""
    y = np.geomspace(1e-6, 700.0, 2001)
    assert np.all(np.exp(-y) * np.log1p(1.0 / y) >= exp1(y))

class TestQuadraticForm:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            form([1.0, -0.1])


class TestQuadraticFormQuantile:
    def test_chi2_single_weight(self):
        """chi-square_1 0.95 quantile; oracle via gamma inversion (scipy)."""
        est = quadratic_form_quantile(form([1.0]), 0.95)
        assert abs(est.value - chi2.ppf(0.95, 1)) <= 3 * est.stderr

    def test_chi2_three_median(self):
        """Frozen oracle: chi-square_3 median 2.365973884375338."""
        est = quadratic_form_quantile(form([1.0, 1.0, 1.0]), 0.5)
        oracle = chi2.ppf(0.5, 3)
        assert oracle == pytest.approx(2.365973884375338, rel=1e-12)
        assert abs(est.value - oracle) <= 3 * est.stderr

    def test_scaling_exact(self):
        """Weights [c] give exactly c times the [1] quantile (the law is
        inverted at unit scale)."""
        a = quadratic_form_quantile(form([1.0]), 0.9)
        b = quadratic_form_quantile(form([2.5]), 0.9)
        assert b.value == pytest.approx(2.5 * a.value, rel=1e-15)

    def test_oracle_consistency_grid(self):
        """Equal weights on k coordinates vs scaled chi-square_k."""
        for k in (1, 3, 10):
            for p in (0.5, 0.95, 0.99):
                est = quadratic_form_quantile(form([0.7] * k), p)
                target = 0.7 * chi2.ppf(p, k)
                assert abs(est.value - target) <= 3 * est.stderr, (k, p)

    def test_determinism(self):
        a = quadratic_form_quantile(form([1.0, 0.5]), 0.9)
        b = quadratic_form_quantile(form([1.0, 0.5]), 0.9)
        assert a.value == b.value

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            quadratic_form_quantile(form([0.0, 0.0]), 0.5)
        with pytest.raises(ValueError):
            quadratic_form_quantile(form([1.0]), 1.0)
        with pytest.raises(ValueError):
            quadratic_form_quantile(form([1.0]), 0.0)

    def test_negligible_weights_do_not_matter(self):
        w = [1.0] + [1e-18] * 50
        a = quadratic_form_quantile(form(w), 0.95)
        b = quadratic_form_quantile(form([1.0]), 0.95)
        assert a.value == b.value


class TestCredibleBall:
    def _summary(self, n=1e4, nn=100):
        prior = PriorSpec.polynomial(1.0)
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 2)
        return compute_posterior(prior, kap, n, obs)

    def test_single_coordinate_scaled_chi2(self):
        """s_1 = 1/26, gamma = 0.05: r^2 = chi2_1(0.95)/26."""
        prior = PriorSpec.polynomial(1.0)
        kap = CoefficientSequence(np.array([0.5]), 1)
        from heatbayes import ObservationSet
        obs = ObservationSet(CoefficientSequence(np.array([2.0]), 1), 100.0, 0)
        summ = compute_posterior(prior, kap, 100.0, obs)
        ball = credible_ball(summ, 0.05)
        target = math.sqrt(chi2.ppf(0.95, 1) / 26.0)
        assert abs(ball.radius - target) <= 3 * ball.radius_stderr
        assert abs(ball.radius**2 - 0.1477484161805432) < 4e-3

    def test_radius_decreasing_in_gamma(self):
        summ = self._summary()
        radii = [credible_ball(summ, g).radius
                 for g in (0.01, 0.05, 0.2)]
        assert radii[0] > radii[1] > radii[2]

    def test_extreme_level_still_positive(self):
        summ = self._summary()
        ball = credible_ball(summ, 0.999)
        assert ball.radius > 0

    def test_radius_data_free(self):
        prior = PriorSpec.polynomial(1.0)
        nn = 60
        kap = heat_eigenvalues(0.1, nn)
        mu0 = true_signal_coefficients(nn)
        radii = []
        for seed in (1, 2):
            obs = simulate_observations(mu0, kap, 1e4, seed)
            summ = compute_posterior(prior, kap, 1e4, obs)
            radii.append(credible_ball(summ, 0.05).radius)
        assert radii[0] == radii[1]

    def test_posterior_mass_matches_level(self):
        """Draws from the posterior land inside the ball with mass 1-gamma."""
        summ = self._summary(nn=60)
        ball = credible_ball(summ, 0.05)
        from heatbayes import posterior_draw
        hits = 0
        reps = 3000
        for r in range(reps):
            draw = posterior_draw(summ, seed=500, index=r)
            hits += ball.contains(draw)
        p_hat = hits / reps
        assert abs(p_hat - 0.95) <= 3 * math.sqrt(0.95 * 0.05 / reps) + 0.004

    def test_contains_rejects_truncation_mismatch(self):
        """A truth of another truncation is an error, not a broadcast: a
        one-coefficient mu against a three-coefficient center used to be
        inside."""
        center = CoefficientSequence(np.array([0.0, 0.0, 0.0]), 3)
        ball = credible.CredibleBall(center, radius=1.0, level=0.05,
                                     radius_stderr=0.0)
        assert ball.contains(CoefficientSequence(np.array([0.5, 0.0, 0.0]), 3))
        with pytest.raises(ValueError, match="truncation"):
            ball.contains(CoefficientSequence(np.array([0.5]), 1))


class TestFrequentistRadius:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_zero_bias_single_weight(self):
        """t = [1], no bias: radius = sqrt(chi2_1(0.95))."""
        prior = PriorSpec.polynomial(1.0)  # lambda_1 = 1
        kap = CoefficientSequence(np.array([1.0]), 1)
        # n chosen so t_1 = n lam^2 kap^2/(1+n lam kap^2)^2 ... use mu0 = 0
        mu0 = CoefficientSequence(np.array([0.0]), 1)
        est = frequentist_radius(prior, kap, 1e-8, mu0, 0.05)
        # t_1 = n/(1+n)^2 ~ 1e-8; radius ~ sqrt(t_1 chi2(0.95))
        t1 = 1e-8 / (1 + 1e-8) ** 2
        target = math.sqrt(t1 * chi2.ppf(0.95, 1))
        assert est.value == pytest.approx(target, rel=0.02)

    def test_pure_bias_degenerate(self):
        """t ~ 0 everywhere: radius equals the bias norm."""
        prior = PriorSpec.polynomial(1.0, 1e-150)
        kap = CoefficientSequence(np.full(3, 1e-10), 3)
        mu0 = CoefficientSequence(np.array([3.0, 0.0, 4.0]), 3)
        with pytest.warns(UserWarning):
            est = frequentist_radius(prior, kap, 1.0, mu0, 0.05)
        assert est.value == pytest.approx(5.0, rel=1e-9)

    def test_conservative_ratio_above_one(self):
        """Undersmoothing prior at high n: credible radius exceeds the
        honest frequentist radius."""
        prior = PriorSpec.polynomial(1.0)
        nn, n = 100, 1e8
        kap = heat_eigenvalues(0.1, nn)
        mu0 = true_signal_coefficients(nn)
        obs = simulate_observations(mu0, kap, n, 5)
        summ = compute_posterior(prior, kap, n, obs)
        r = credible_ball(summ, 0.05).radius
        rt = frequentist_radius(prior, kap, n, mu0, 0.05)
        assert r / rt.value > 1.0

    def test_coverage_calibration(self):
        """The honest radius gives empirical coverage 1 - gamma."""
        prior = PriorSpec.polynomial(1.0)
        nn, n, gamma = 60, 1e4, 0.1
        kap = heat_eigenvalues(0.1, nn)
        mu0 = true_signal_coefficients(nn)
        rt = frequentist_radius(prior, kap, n, mu0, gamma)
        w = posterior_weights(prior, kap, n)
        reps, hits = 4000, 0
        for r in range(reps):
            obs = simulate_observations(mu0, kap, n, seed=900, replication=r)
            muhat = w.mean_weight * obs.y.values
            hits += np.linalg.norm(muhat - mu0.values) <= rt.value
        p_hat = hits / reps
        assert abs(p_hat - (1 - gamma)) <= 3 * math.sqrt(gamma * (1 - gamma) / reps) + 0.005


# the grid of forms behind the radii: both prior families, three noise
# levels, the default truncation and the point-evaluation one
GRID = [(fam, alpha, n, nn)
        for fam, alpha in (("poly", 0.5), ("poly", 1.0), ("poly", 3.0),
                           ("exp", 1.0), ("exp", 5.0))
        for n in (1e2, 1e4, 1e8) for nn in (100, 3826)]
LEVELS = (0.5, 0.95, 0.99)


def _grid_form(fam, alpha, n, nn):
    """(prior, kappa, mu0, posterior weights) of one grid point."""
    prior = (PriorSpec.polynomial(alpha) if fam == "poly"
             else PriorSpec.exponential(alpha))
    kap = heat_eigenvalues(0.1, nn)
    return prior, kap, true_signal_coefficients(nn), posterior_weights(prior, kap, n)


def _assert_bracketed(cdf, value, stderr, p, square):
    """|value - exact quantile| <= stderr, by monotonicity of the oracle's
    distribution function, and |F(value) - p| <= 1e-8."""
    lo, hi = value - stderr, value + stderr
    f_lo = cdf(lo * lo if square else lo)
    f_hi = cdf(hi * hi if square else hi)
    assert f_lo <= p <= f_hi, (f_lo, p, f_hi, value, stderr)
    assert f_hi - f_lo <= 1e-8, (f_lo, f_hi)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
class TestExactQuantiles:
    """Inverted quantiles against Imhof's (1961) distribution function,
    computed in tests/oracles.py by quadrature."""

    @pytest.mark.parametrize("fam,alpha,n,nn", GRID)
    def test_central_credible_form(self, fam, alpha, n, nn):
        *_, w = _grid_form(fam, alpha, n, nn)
        q = QuadraticForm.from_weights(CoefficientSequence(w.variance, nn))
        for p in LEVELS:
            est = quadratic_form_quantile(q, p)
            _assert_bracketed(lambda x: imhof_cdf(x, w.variance), est.value,
                              est.stderr, p, square=False)

    @pytest.mark.parametrize("fam,alpha,n,nn", GRID)
    def test_noncentral_frequentist_form(self, fam, alpha, n, nn):
        prior, kap, mu0, w = _grid_form(fam, alpha, n, nn)
        bias = -w.one_minus_gain * mu0.values
        for p in LEVELS:
            est = frequentist_radius(prior, kap, n, mu0, 1.0 - p)
            _assert_bracketed(lambda x: imhof_cdf(x, w.shrink_var, bias),
                              est.value, est.stderr, p, square=True)

    def test_oracle_against_scipy(self):
        """The Imhof oracle itself: chi-square and noncentral chi-square."""
        for x in (0.1, 1.0, 5.0, 20.0):
            for k in (1, 3, 10):
                assert imhof_cdf(x, np.ones(k)) == pytest.approx(
                    chi2.cdf(x, k), abs=1e-13)
        for d2 in (0.1, 5.0, 100.0, 1e4):
            for x in (0.5, 1.0, 2.0):
                assert imhof_cdf(x * (1 + d2), np.ones(1), [math.sqrt(d2)]) == \
                    pytest.approx(ncx2.cdf(x * (1 + d2), 1, d2), abs=1e-13)

    def test_oracle_lower_tail(self):
        """Far below the mean, where the integrand's mass lies decades
        below the cut of the Fourier tail, so that one quadrature over
        [0, cut] misses it and returns about 0.5 + F: chi-square_k for
        k = 1, 2, 3."""
        for k in (1, 2, 3):
            for x in (1e-8, 1e-6, 1e-4):
                assert imhof_cdf(x, np.ones(k)) == pytest.approx(
                    chi2.cdf(x, k), abs=1e-12), (k, x)

    def test_monte_carlo_agrees(self):
        """The second oracle: 200,000 draws of the form from its defining
        sum agree with the exact quantile within 3 order-statistic SE."""
        from heatbayes.credible import _form_draws
        cases = []
        for fam, alpha, n in (("poly", 1.0, 1e4), ("exp", 1.0, 1e2),
                              ("exp", 5.0, 1e4)):
            prior, kap, mu0, w = _grid_form(fam, alpha, n, 100)
            q = QuadraticForm.from_weights(CoefficientSequence(w.variance, 100))
            cases.append((w.variance, None, quadratic_form_quantile(q, 0.95).value))
            radius = frequentist_radius(prior, kap, n, mu0, 0.05).value
            cases.append((w.shrink_var, -w.one_minus_gain * mu0.values,
                          radius * radius))
        for k, (var, bias, exact) in enumerate(cases):
            draws = _form_draws(var, bias, 200_000, 2024, ("oracle", k))
            value, se = empirical_quantile(draws, 0.95)
            assert abs(value - exact) <= 3.0 * se, (k, value, exact, se)

    def test_frequentist_zero_bias_is_the_central_form(self):
        """mu0 = 0: the honest radius is the credible-type quantile of
        sum t_i Z_i^2, found by the same inversion."""
        prior, kap, _, w = _grid_form("poly", 1.0, 1e4, 100)
        zero = CoefficientSequence(np.zeros(100), 100)
        est = frequentist_radius(prior, kap, 1e4, zero, 0.05)
        q = quadratic_form_quantile(
            QuadraticForm.from_weights(CoefficientSequence(w.shrink_var, 100)), 0.95)
        assert est.value == math.sqrt(q.value)
        _assert_bracketed(lambda x: imhof_cdf(x, w.shrink_var), est.value,
                          est.stderr, 0.95, square=True)

    def test_frequentist_single_coordinate_laws(self):
        """N = 1, lambda = 1, kappa = 1/2, n = 4: a = g / (1 - g) = 1, so
        t = 1/4 and b = -mu0 / 2, and the radius squared is t times a
        (noncentral) chi-square_1 quantile, from zero bias to a bias that
        dominates the noise (d = 1e6)."""
        prior = PriorSpec.polynomial(1.0)
        kap = CoefficientSequence(np.array([0.5]), 1)
        for mu, gamma in ((0.0, 0.05), (0.4, 0.5), (1000.0, 0.05), (1000.0, 0.5)):
            est = frequentist_radius(prior, kap, 4.0,
                                     CoefficientSequence(np.array([mu]), 1), gamma)
            d2 = (0.5 * mu) ** 2 / 0.25
            exact = math.sqrt(0.25 * (ncx2.ppf(1 - gamma, 1, d2) if d2
                                      else chi2.ppf(1 - gamma, 1)))
            assert est.value == pytest.approx(exact, rel=1e-9), (mu, gamma)
            assert abs(est.value - exact) <= est.stderr + 1e-12 * exact, (mu, gamma)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestExtremeHonestRadii:
    """Honest-radius forms at the default truncation whose mean dwarfs
    their sd, where the Chernoff bounds used to cancel (a hang or an
    ArithmeticError), and forms of n tau^2 << 1, whose optimal Chernoff
    point lies far below 1 / (2 max t)."""

    @staticmethod
    def _form(fam, alpha, n):
        prior = (PriorSpec.polynomial(alpha) if fam == "poly"
                 else PriorSpec.exponential(alpha))
        nn = default_truncation(n)
        w = posterior_weights(prior, heat_eigenvalues(0.1, nn), n)
        bias = -w.one_minus_gain * true_signal_coefficients(nn).values
        return w.shrink_var, bias

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("fam,alpha,n", [
        ("poly", 10.0, 1e100), ("poly", 1.0, 1e-20), ("poly", 1.0, 1e-24)])
    def test_bracketed_by_imhof(self, fam, alpha, n):
        t, bias = self._form(fam, alpha, n)
        est = _form_quantile(t, bias, 0.95)
        assert imhof_cdf(est.value - est.stderr, t, bias) <= 0.95
        assert imhof_cdf(est.value + est.stderr, t, bias) >= 0.95

    @pytest.mark.parametrize("fam,alpha,n", [
        ("exp", 1.0, 1e100), ("exp", 5.0, 1e50), ("poly", 10.0, 1e200)])
    def test_nearly_deterministic_at_the_mean(self, fam, alpha, n):
        """sd < eps mean: every quantile rounds to the mean, frozen mass
        included."""
        t, bias = self._form(fam, alpha, n)
        mean = math.fsum(t) + math.fsum(bias * bias)
        sd = math.sqrt(2.0 * math.fsum(t * t) + 4.0 * math.fsum(t * bias**2))
        assert sd < np.finfo(float).eps * mean
        est = _form_quantile(t, bias, 0.95)
        assert abs(est.value - mean) <= 4.0 * np.spacing(mean), (est, mean)


# the honest forms of the benchmark's coverage workload: default truncation,
# the cubic truth, gamma = 0.05
COVERAGE_HONEST = [(fam, alpha, n)
                   for fam, alpha in (("poly", 1.0), ("poly", 3.0), ("exp", 5.0))
                   for n in (1e4, 1e8)]


def _honest_problem(fam, alpha, n):
    """(prior, kappa, mu0, squared-error variances t, bias) at the default
    truncation."""
    prior = (PriorSpec.polynomial(alpha) if fam == "poly"
             else PriorSpec.exponential(alpha))
    nn = default_truncation(n, prior.tau)
    kap = heat_eigenvalues(0.1, nn)
    mu0 = true_signal_coefficients(nn)
    w = posterior_weights(prior, kap, n)
    return prior, kap, mu0, w.shrink_var, -w.one_minus_gain * mu0.values


def _count_law_calls(monkeypatch) -> list:
    """The list that each evaluation of a quadratic form's law appends its
    x to, from here to the end of the test."""
    calls = []

    def counted(make):
        def wrapper(*args):
            made = make(*args)
            law = made[0] if isinstance(made, tuple) else made

            def law_counted(x):
                calls.append(x)
                return law(x)
            if isinstance(made, tuple):
                return (law_counted, *made[1:])
            return law_counted
        return wrapper

    monkeypatch.setattr(credible, "_davies_law", counted(credible._davies_law))
    monkeypatch.setattr(credible, "_euler_law", counted(credible._euler_law))
    return calls


class TestHonestInversion:
    """The FFT start, the node cut and the resolution stop of the honest
    radius's inversion."""

    @pytest.mark.parametrize("fam,alpha,n", COVERAGE_HONEST)
    def test_at_most_three_law_evaluations(self, fam, alpha, n, monkeypatch):
        calls = _count_law_calls(monkeypatch)
        prior, kap, mu0, *_ = _honest_problem(fam, alpha, n)
        frequentist_radius(prior, kap, n, mu0, 0.05)
        assert 1 <= len(calls) <= 3, calls

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_fft_start_and_node_cut_against_imhof(self, monkeypatch):
        """poly alpha = 3, n = 1e4: the tail rule holds within the first
        100 nodes (at the 19th), and the sum over them still brackets the
        Imhof oracle."""
        *_, t, bias = _honest_problem("poly", 3.0, 1e4)
        active, mass = credible._split(t, bias)
        nodes = []
        fft = np.fft.fft

        def spy(a, n=None):
            nodes.append(a.size)
            return fft(a, n)

        monkeypatch.setattr(np.fft, "fft", spy)
        law, start, lo, hi = credible._davies_law(t[active], bias[active] ** 2)
        x = start(0.95)
        assert nodes and nodes[0] < 100, nodes
        assert lo <= x <= hi
        # the start interpolates the FFT's F to 0.95
        assert abs(law(x)[0] - 0.95) <= 1e-6
        assert abs(imhof_cdf(mass + x, t, bias) - 0.95) <= 1e-6
        for y in np.linspace(lo, hi, 9)[1:-1]:
            cdf, _, err, _ = law(y)
            assert abs(cdf - imhof_cdf(mass + y, t, bias)) <= err + 1e-12, y
        est = credible._form_quantile(t, bias, 0.95)
        _assert_bracketed(lambda y: imhof_cdf(y, t, bias), est.value,
                          est.stderr, 0.95, square=False)


class TestHonestSweep:
    """Honest quantiles at p = 0.05, 0.5, 0.95 and 1 - 1e-6 against Imhof's
    distribution function, each within at most 8 evaluations of the law,
    those at either width of the convergence factor together.  Lower
    levels are left out: on poly alpha = 1, n = 1e8 the inversion stops
    after one evaluation at p = 1e-6 and 1e-5 with a stderr that misses
    the quantile, and on exp alpha = 5, n = 1e4 the oracle fails below the
    Davies lower end."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("fam,alpha,n", COVERAGE_HONEST)
    def test_bracketed_by_imhof(self, fam, alpha, n, monkeypatch):
        *_, t, bias = _honest_problem(fam, alpha, n)
        calls = _count_law_calls(monkeypatch)
        for p in (0.05, 0.5, 0.95, 1.0 - 1e-6):
            calls.clear()
            est = _form_quantile(t, bias, p)
            assert len(calls) <= 8, (p, len(calls))
            if (fam, alpha, n, p) == ("poly", 1.0, 1e8, 0.05):
                # the law's own error bound is 3.1e-5 here (the smoothing
                # term at _SMOOTH), so F at the quantile may miss p by more
                # than 1e-8; the stderr must still bracket the quantile
                f_lo = imhof_cdf(est.value - est.stderr, t, bias)
                f_hi = imhof_cdf(est.value + est.stderr, t, bias)
                assert f_lo <= p <= f_hi, (f_lo, p, f_hi)
                continue
            _assert_bracketed(lambda y: imhof_cdf(y, t, bias), est.value,
                              est.stderr, p, square=False)


class TestDaviesWidth:
    """The honest inversion starts from the law at twice _SMOOTH, about
    half the nodes, and rebuilds it at _SMOOTH only where the smoothing
    term of the error bound at the root exceeds _SMOOTH_ERR."""

    @staticmethod
    def _builds(monkeypatch) -> list:
        """The list of (sigma, nodes) of each Davies law built from here to
        the end of the test, its nodes counted through np.fft.fft."""
        builds, nodes = [], []
        fft, make = np.fft.fft, credible._davies_law

        def spy(a, n=None):
            nodes.append(a.size)
            return fft(a, n)

        def recorded(v, b2, sigma=credible._SMOOTH, *rest):
            made = make(v, b2, sigma, *rest)
            nodes.clear()
            made[1](0.5)
            builds.append((sigma, nodes[0]))
            return made

        monkeypatch.setattr(np.fft, "fft", spy)
        monkeypatch.setattr(credible, "_davies_law", recorded)
        return builds

    @staticmethod
    def _nodes_today(builds, t, bias):
        """Nodes of the law at _SMOOTH alone."""
        active, _ = credible._split(t, bias)
        credible._davies_law(t[active], bias[active] ** 2)
        return builds.pop()[1]

    def test_wide_at_the_coverage_level(self, monkeypatch):
        """p = 0.95, the level of every honest radius of `coverage`: the
        three node-heavy forms end with at most 60 % of the nodes at
        _SMOOTH, and the three cut on |phi| keep 19, 73 and 19."""
        builds = self._builds(monkeypatch)
        cut = {("poly", 3.0, 1e4): 19, ("poly", 3.0, 1e8): 73,
               ("exp", 5.0, 1e8): 19}
        for fam, alpha, n in COVERAGE_HONEST:
            *_, t, bias = _honest_problem(fam, alpha, n)
            today = self._nodes_today(builds, t, bias)
            _form_quantile(t, bias, 0.95)
            (sigma, nodes), = builds
            builds.clear()
            assert sigma == 2.0 * credible._SMOOTH, (fam, alpha, n)
            if (fam, alpha, n) in cut:
                assert nodes == today == cut[fam, alpha, n], (fam, alpha, n)
            else:
                assert nodes <= 0.6 * today, (fam, alpha, n, nodes, today)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_falls_back_where_smoothing_dominates(self, monkeypatch):
        """poly alpha = 1, n = 1e8 at p = 0.05: the smoothing term at twice
        _SMOOTH is 1.9e-3, so the quantile comes from the law at _SMOOTH,
        with its 15289 nodes, and misses Imhof's F by no more than 6.8e-6,
        the miss of that law inverted from its own start."""
        builds = self._builds(monkeypatch)
        *_, t, bias = _honest_problem("poly", 1.0, 1e8)
        est = _form_quantile(t, bias, 0.05)
        assert [sigma for sigma, _ in builds] == [2.0 * credible._SMOOTH,
                                                 credible._SMOOTH]
        assert builds[-1][1] == 15289
        assert abs(imhof_cdf(est.value, t, bias) - 0.05) <= 6.8e-6


def _unbounded_invert(law, p, x, lo, hi):
    """credible._invert, with its stop, as it was before its steps were
    bounded: any Newton step inside the bracket, else bisection, or
    doubling while hi is inf."""
    for _ in range(credible._NEWTON_STEPS):
        cdf, pdf, err, tol = law(x)
        if cdf < p:
            lo = x
        else:
            hi = x
        if abs(cdf - p) <= tol or hi - lo <= 4.0 * credible._EPS * x:
            break
        step = x - (cdf - p) / pdf if pdf > 0 else math.nan
        if abs(step - x) <= credible._EPS * x:
            break
        if lo < step < hi:
            x = step
        else:
            x = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * x
    else:
        raise ArithmeticError("quadratic-form quantile did not converge")
    return credible.QuantileEstimate(
        value=x, stderr=(err + abs(cdf - p)) / pdf + 2.0 * credible._EPS * x)


def _coverage_forms():
    """(variances, bias or None) of the benchmark's coverage workload at
    the default truncation: the credible (central) forms of the fixed-truth
    and prior-drawn balls, and the honest forms of the fixed-truth balls."""
    forms = []
    for fam, alpha, ns in (("poly", 1.0, (1e4, 1e8)), ("poly", 3.0, (1e4, 1e8)),
                           ("exp", 5.0, (1e4, 1e8)), ("exp", 1.0, (1e4,))):
        for n in ns:
            prior, kap, _, t, bias = _honest_problem(fam, alpha, n)
            forms.append((posterior_weights(prior, kap, n).variance, None))
            if not (fam == "exp" and alpha == 1.0):
                forms.append((t, bias))
    return forms


class TestBoundedInversion:
    """Newton steps within a factor 4 of x, 4 x from an unbounded bracket
    and geometric bisection: the central forms' lower tails, where an
    unbounded step from F ~ 1e-49 used to leave for x ~ 1e38 and never
    come back."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("alpha,n,nn", [(alpha, n, nn)
                                            for alpha in (1.0, 3.0)
                                            for n in (1e4, 1e8)
                                            for nn in (100, 3826)])
    def test_lower_tail_central_quantiles(self, alpha, n, nn, monkeypatch):
        *_, w = _grid_form("poly", alpha, n, nn)
        q = QuadraticForm.from_weights(CoefficientSequence(w.variance, nn))
        calls = _count_law_calls(monkeypatch)
        for p in (1e-5, 3e-5, 1e-4):
            calls.clear()
            est = quadratic_form_quantile(q, p)
            assert len(calls) <= 20, (p, len(calls))
            _assert_bracketed(lambda x: imhof_cdf(x, w.variance), est.value,
                              est.stderr, p, square=False)

    def test_coverage_forms_unchanged_at_central_levels(self, monkeypatch):
        """Where no Newton step is out of bounds, the quantiles and the law
        evaluations are those of the unbounded steps, bit for bit."""
        calls = _count_law_calls(monkeypatch)
        for var, bias in _coverage_forms():
            for p in (0.5, 0.95):
                runs = []
                for invert in (_unbounded_invert, credible._invert):
                    calls.clear()
                    monkeypatch.setattr(credible, "_invert", invert)
                    runs.append((_form_quantile(var, bias, p), len(calls)))
                assert runs[0] == runs[1], (p, runs)


class TestEulerStop:
    """The central inversion stops once |F - p| is within the rounding of
    the Euler terms, eps * sum |terms|, where that exceeds a tenth of the
    error bound: F wobbles by about that much between neighbouring x."""

    def test_coverage_forms_at_most_four_evaluations(self, monkeypatch):
        calls = _count_law_calls(monkeypatch)
        for var, bias in _coverage_forms():
            if bias is None:
                for p in (0.5, 0.95):
                    calls.clear()
                    _form_quantile(var, None, p)
                    assert 1 <= len(calls) <= 4, (p, calls)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_stop_within_rounding(self, monkeypatch):
        """poly alpha=3, n=1e8, N=100 at p = 0.99: 5 evaluations, where a
        stop at a tenth of the error bound took 7 (at the fifth, |F - p| is
        4.4e-12, the rounding 7.2e-12 and the error bound 4.4e-11)."""
        *_, w = _grid_form("poly", 3.0, 1e8, 100)
        calls = _count_law_calls(monkeypatch)
        est = _form_quantile(w.variance, None, 0.99)
        assert len(calls) <= 5, calls
        _assert_bracketed(lambda x: imhof_cdf(x, w.variance), est.value,
                          est.stderr, 0.99, square=False)


def _central_forms() -> list:
    """Variances of the 7 distinct central forms of `_coverage_forms`
    (the coverage workload's 8 credible radii: poly alpha = 1, n = 1e4
    serves twice), then of poly alpha = 1, n = 1e4 at N = 3826."""
    forms = [var for var, bias in _coverage_forms() if bias is None]
    forms.append(_grid_form("poly", 1.0, 1e4, 3826)[-1].variance)
    return forms


CENTRAL_FORMS = range(8)
SWEEP = (1e-6, 1e-5, 1e-4, 0.05, 0.5, 0.95, 1.0 - 1e-6)


class TestLaplaceTransform:
    """The real modulus-and-phase evaluation of L(s) at the Euler nodes
    against the 30-digit product of tests/oracles.py, at the quantiles of
    p = 1e-4, 0.5 and 0.95 of unit-scale central forms."""

    @pytest.mark.parametrize("index", CENTRAL_FORMS)
    def test_against_30_digit_product(self, index):
        var = _central_forms()[index]
        active, _ = credible._split(var, None)
        w = var[active] / var[active].max()
        for p in (1e-4, 0.5, 0.95):
            x = _form_quantile(w, None, p).value
            log_modulus, phase = credible._laplace_log(w, x)
            ref_modulus, ref_phase = laplace_transform_reference(
                w, x, credible._EULER_A, credible._EULER_NODES.size)
            assert np.all(np.abs(np.expm1(log_modulus - ref_modulus)) <= 1e-13), p
            assert np.all(np.abs(phase - ref_phase)
                          <= 1e-13 * (1.0 + np.abs(ref_phase))), p


class TestCentralSweep:
    """Central quantiles from p = 1e-6 to 1 - 1e-6 against Imhof's
    distribution function, each within at most 20 evaluations of the law
    (the lower-tail cap of TestBoundedInversion)."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("index", CENTRAL_FORMS)
    def test_bracketed_by_imhof(self, index, monkeypatch):
        var = _central_forms()[index]
        calls = _count_law_calls(monkeypatch)
        for p in SWEEP:
            calls.clear()
            est = _form_quantile(var, None, p)
            assert len(calls) <= 20, (p, len(calls))
            _assert_bracketed(lambda x: imhof_cdf(x, var), est.value,
                              est.stderr, p, square=False)

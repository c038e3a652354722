"""Quadratic-form quantiles against the chi-square, noncentral chi-square,
Imhof and Monte Carlo oracles; credible and frequentist radii."""

import math

import mpmath
import numpy as np
import pytest
from oracles import (
    contour_cdf,
    empirical_quantile,
    imhof_cdf,
    laplace_transform_reference,
    split_quadrature_cdf,
)
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


def _assert_bracketed(cdf, value, stderr, p, square, resolution=0.0):
    """|value - exact quantile| <= stderr, by monotonicity of the oracle's
    distribution function, up to the oracle's own `resolution` in
    probability, and |F(value) - p| <= 1e-8."""
    lo, hi = value - stderr, value + stderr
    f_lo = cdf(lo * lo if square else lo)
    f_hi = cdf(hi * hi if square else hi)
    assert f_lo - resolution <= p <= f_hi + resolution, (f_lo, p, f_hi, value, stderr)
    assert f_hi - f_lo <= 1e-8, (f_lo, f_hi)


def _assert_law_within_its_bound(var, bias, levels):
    """At the quantile of each level the contour law's F is within its own
    error bound of the 30-digit contour of tests/oracles.py, taken on a
    hyperbola of another bend and step, in u."""
    active, _ = credible._split(var, bias)
    v, b = var[active], bias[active]
    law, start = credible._contour_law(v, b ** 2)
    for p in levels:
        x = credible._invert(law, p, *start(p)).value
        cdf, _, _, err, _ = law(x)
        assert abs(mpmath.mpf(cdf) - contour_cdf(x, v, b)) <= err, p


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
    their sd, where an uncentred cumulant would cancel (a hang or an
    ArithmeticError), and forms of n tau^2 << 1, whose saddle points lie
    far below 1 / (2 max t)."""

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

    @pytest.mark.parametrize("fam,alpha,n,p", [
        ("exp", 5.0, 1e6, 0.99), ("exp", 10.0, 1e12, 0.99), ("exp", 1.0, 1e12, 0.5),
        ("exp", 1.0, 1e12, 0.99), ("poly", 10.0, 1e2, 1e-4)])
    def test_law_within_its_bound(self, fam, alpha, n, p):
        """Forms where Imhof's quadrature misreads F, by 1e-11 to 0.49."""
        _assert_law_within_its_bound(*self._form(fam, alpha, n), (p,))

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

    monkeypatch.setattr(credible, "_contour_law", counted(credible._contour_law))
    monkeypatch.setattr(credible, "_euler_law", counted(credible._euler_law))
    return calls


def _closure(fn) -> dict:
    """The variables a nested function closes over, by name."""
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__)))


def _count_contours(monkeypatch) -> list:
    """The list that each contour built by the honest law appends its
    vertex to, from here to the end of the test: the first block of a
    contour starts at u = 0, on the real axis."""
    vertices = []
    coordinate_sum = credible._coordinate_sum

    def spied(term, nodes, *coords):
        if term.__name__ == "centred_cumulant" and nodes[0].imag == 0.0:
            vertices.append(nodes[0].real)
        return coordinate_sum(term, nodes, *coords)

    monkeypatch.setattr(credible, "_coordinate_sum", spied)
    return vertices


class TestHonestInversion:
    """The saddle-point start, the Halley steps and the contour reuse of
    the honest radius's inversion at p = 0.95, the level of every honest
    radius of `coverage`: one contour and 2 or 3 evaluations of the law."""

    @pytest.mark.parametrize("fam,alpha,n", COVERAGE_HONEST)
    def test_at_most_three_law_evaluations(self, fam, alpha, n, monkeypatch):
        calls = _count_law_calls(monkeypatch)
        vertices = _count_contours(monkeypatch)
        prior, kap, mu0, *_ = _honest_problem(fam, alpha, n)
        frequentist_radius(prior, kap, n, mu0, 0.05)
        assert 1 <= len(calls) <= 3, calls
        assert len(vertices) == 1, vertices

    @pytest.mark.parametrize("fam,alpha,n", COVERAGE_HONEST)
    def test_contour_keeps_at_most_192_nodes(self, fam, alpha, n):
        """The trapezoid rule in w = asinh u, cut right after the first
        term below _CONTOUR_CUT: at most 192 nodes at p = 0.95, where the
        rule in u kept 160 to 1,280."""
        *_, t, bias = _honest_problem(fam, alpha, n)
        active, _ = credible._split(t, bias)
        law, start = credible._contour_law(t[active], bias[active] ** 2)
        credible._invert(law, 0.95, *start(0.95))
        assert _closure(law)["contour"]["t"].size <= 192


# imhof_cdf integrates its pieces to an absolute 1e-15 or 1e-14 and returns
# 1/2 - val / pi: it resolves F to about 1e-14, which the contour law's
# error bound undercuts in the tails (1e-18 at p = 1e-6, 1e-16 at 1 - 1e-6)
IMHOF_RESOLUTION = 1e-14
HONEST_SWEEP = (1e-6, 1e-5, 1e-4, 0.05, 0.5, 0.95, 1.0 - 1e-6)


class TestHonestSweep:
    """Honest quantiles from p = 1e-6 to 1 - 1e-6, each within at most 8
    evaluations of the law, against Imhof's distribution function, and for
    exp alpha = 5, n = 1e4 (two coordinates, one nearly a point mass)
    against the 40-digit split quadrature of tests/oracles.py."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("fam,alpha,n", COVERAGE_HONEST)
    def test_bracketed_by_imhof(self, fam, alpha, n, monkeypatch):
        *_, t, bias = _honest_problem(fam, alpha, n)
        if (fam, alpha, n) == ("exp", 5.0, 1e4):
            oracle, resolution = split_quadrature_cdf, 0.0
        else:
            oracle, resolution = imhof_cdf, IMHOF_RESOLUTION
        calls = _count_law_calls(monkeypatch)
        for p in HONEST_SWEEP:
            calls.clear()
            est = _form_quantile(t, bias, p)
            assert len(calls) <= 8, (p, len(calls))
            _assert_bracketed(lambda y: oracle(y, t, bias), est.value,
                              est.stderr, p, square=False, resolution=resolution)

    def test_law_within_its_bound_near_the_edge(self):
        """exp alpha = 5, n = 1e4 from the lower edge of its noncentral
        chi-square_1 coordinate, where F is 3e-21, to F = 0.68: the law's F
        is within its own error bound of the split quadrature."""
        *_, t, bias = _honest_problem("exp", 5.0, 1e4)
        active, mass = credible._split(t, bias)
        law, _ = credible._contour_law(t[active], bias[active] ** 2)
        for x in (1.198265928, 1.19826594, 1.198266048, 1.2, 1.205):
            cdf, _, _, err, _ = law(x)
            assert abs(cdf - split_quadrature_cdf(mass + x, t, bias)) <= err, x

    @pytest.mark.parametrize("fam,alpha,n", COVERAGE_HONEST)
    def test_law_within_its_bound_in_the_tails(self, fam, alpha, n):
        """At the 1e-6 and 1 - 1e-6 quantiles, where the law's error bound
        is 1e-19 to 1e-13."""
        *_, t, bias = _honest_problem(fam, alpha, n)
        _assert_law_within_its_bound(t, bias, (1e-6, 1.0 - 1e-6))

    def test_low_levels_of_poly_1_at_1e8(self):
        """Near the lower edge of the form's noncentral chi-square_1
        coordinate, where a smoothed law reads 0.02081097, 0.02081105 and
        0.02081180: the quantiles to 10 digits."""
        *_, t, bias = _honest_problem("poly", 1.0, 1e8)
        for p, root in ((1e-6, 0.0208018227), (1e-5, 0.0208056438),
                        (1e-4, 0.0208102614)):
            assert abs(_form_quantile(t, bias, p).value - root) <= 5e-11, p


def _unbounded_invert(law, p, x, lo, hi):
    """credible._invert, with its stop and its Halley steps, as it was
    before its steps were bounded: any step inside the bracket, else
    bisection, or doubling while hi is inf."""
    for _ in range(credible._NEWTON_STEPS):
        cdf, pdf, slope, err, tol = law(x)
        if cdf < p:
            lo = x
        else:
            hi = x
        if abs(cdf - p) <= tol or hi - lo <= 4.0 * credible._EPS * x:
            break
        newton = (cdf - p) / pdf if pdf > 0 else math.nan
        ratio = 1.0 - 0.5 * newton * slope / pdf if pdf > 0 else 1.0
        step = x - newton / (ratio if 0.5 <= ratio <= 2.0 else 1.0)
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

    def test_halley_steps_at_most_three_evaluations(self, monkeypatch):
        """Central forms of 3 or more active coordinates take Halley steps
        and at most 3 evaluations at p = 0.5 and 0.95."""
        calls = _count_law_calls(monkeypatch)
        for var, bias in _coverage_forms():
            if bias is None and np.count_nonzero(credible._split(var, None)[0]) >= 3:
                for p in (0.5, 0.95):
                    calls.clear()
                    _form_quantile(var, None, p)
                    assert 1 <= len(calls) <= 3, (p, calls)

    def test_slope_of_the_density(self):
        """f' from the series of s L(s): chi-square_3 and 4 against their
        closed forms; 0 with 1 or 2 coordinates, where f(0+) != 0 and s L(s)
        is not the transform of f' (Newton steps)."""
        for k in (3, 4):
            law = credible._euler_law(np.ones(k))
            for x in (0.3, 2.4, 9.0):
                exact = chi2.pdf(x, k) * ((0.5 * k - 1.0) / x - 0.5)
                assert law(x)[2] == pytest.approx(exact, rel=1e-8, abs=1e-12), (k, x)
        for w in ([1.0], [1.0, 0.3]):
            assert credible._euler_law(np.array(w))(1.5)[2] == 0.0

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


# (value, stderr) of the quantiles of the coverage forms at HONEST_SWEEP and
# SWEEP, recorded from the honest law with the trapezoid rule in u
# (h = 0.25, cut at the end of a block) and the central law with Newton
# steps only; in the order of COVERAGE_HONEST and of _central_forms()[:7]
FROZEN_HONEST = (
    (('0x1.65801c6295e57p-6', '0x1.8c2abe6868615p-51'),
     ('0x1.91995fed56eeap-6', '0x1.7472e4a5bbef4p-48'),
     ('0x1.4b3922c449eadp-5', '0x1.6cb5e2e8cd3f5p-46'),
     ('0x1.fe1cd9423325cp-3', '0x1.749d047420033p-43'),
     ('0x1.291723e85ac27p-1', '0x1.b7668835944ddp-42'),
     ('0x1.0edaa62eb2140p+0', '0x1.3c2e449d97846p-41'),
     ('0x1.2e3dd93e8c451p+1', '0x1.979405ed0414cp-37')),
    (('0x1.54d12b04795aap-6', '0x1.c4e88f94e57eep-56'),
     ('0x1.54e131f643e55p-6', '0x1.e6bdd09d59820p-56'),
     ('0x1.54f490082c3d7p-6', '0x1.0701e68689554p-55'),
     ('0x1.55afd98b40820p-6', '0x1.242f7b34b1f07p-53'),
     ('0x1.6c1006bfa77fdp-6', '0x1.671366c4672bfp-48'),
     ('0x1.06417acb4a7fep-5', '0x1.fd8b090c925c3p-48'),
     ('0x1.5c3a44f601ef1p-4', '0x1.3701b11af4e6fp-41')),
    (('0x1.02a8bcbeaf931p+0', '0x1.acdb857e882b0p-46'),
     ('0x1.065106829b3fdp+0', '0x1.d891053c98122p-46'),
     ('0x1.0a6f2865abaa2p+0', '0x1.0ab93f19ad919p-45'),
     ('0x1.1a610f9a2f3e9p+0', '0x1.d97bb0ac78f44p-45'),
     ('0x1.275c397f306a9p+0', '0x1.aa6969928c0b5p-44'),
     ('0x1.34a396907dc9cp+0', '0x1.764aa6349d918p-44'),
     ('0x1.4e8c18c543007p+0', '0x1.b366831dc7dd9p-41')),
    (('0x1.5eb72572e3ea3p-6', '0x1.83f7c89d38200p-55'),
     ('0x1.5ef8bebafb401p-6', '0x1.9ad1cdadc8ef6p-55'),
     ('0x1.5f43903b0953cp-6', '0x1.c59953a2f3606p-55'),
     ('0x1.60736ce6a755cp-6', '0x1.6d136924c75abp-54'),
     ('0x1.61958f9caa92dp-6', '0x1.582711a98d596p-54'),
     ('0x1.63bd1f0078291p-6', '0x1.184ea4d88aa29p-53'),
     ('0x1.6e62939ea92dap-6', '0x1.e12dd4d9f8c70p-48')),
    (('0x1.3846022735d11p+0', '0x1.5cfb0afe2a7dfp-50'),
     ('0x1.384602560c122p+0', '0x1.3f8739d2c10e2p-50'),
     ('0x1.384603236811bp+0', '0x1.4038f82e827ebp-50'),
     ('0x1.388344fd2ff46p+0', '0x1.4a0597a1cbf99p-49'),
     ('0x1.398b35c6558bbp+0', '0x1.2aef64e88ef10p-48'),
     ('0x1.3b638bb9b3504p+0', '0x1.3a0b818149a32p-47'),
     ('0x1.41193d2219170p+0', '0x1.d383184565a3cp-43')),
    (('0x1.3839b0c6b7342p+0', '0x1.3ef44f441fa84p-50'),
     ('0x1.3839b7ef3a79ap+0', '0x1.4130a68ea0bfbp-50'),
     ('0x1.3839bfef49a53p+0', '0x1.3cd86821f15afp-50'),
     ('0x1.3839de5af7a6ap+0', '0x1.4698dd719b153p-50'),
     ('0x1.3839f68414cbcp+0', '0x1.6121c511022b5p-50'),
     ('0x1.383a0ebb8b5d6p+0', '0x1.36b6a6c6c2276p-50'),
     ('0x1.383a3ce841683p+0', '0x1.4b77fab97ed32p-50')),
)
FROZEN_CENTRAL = (
    (('0x1.3af8b577a9fecp-8', '0x1.feeece82d00afp-27'),
     ('0x1.9cc25c803ca3fp-8', '0x1.309135092d416p-29'),
     ('0x1.1b5f3e20dd5e6p-7', '0x1.8dda8f1648ebap-32'),
     ('0x1.19c9992afd87cp-5', '0x1.e8a4af39c7255p-38'),
     ('0x1.faa40a52cb9d5p-4', '0x1.eb376348113e3p-38'),
     ('0x1.b435b612f4149p-2', '0x1.1b6005d369cf5p-33'),
     ('0x1.1114d187d8aa1p+1', '0x1.9e79e5bcc3d1bp-17')),
    (('0x1.a6c2045e96e5ap-9', '0x1.357e7b0ad3c3cp-27'),
     ('0x1.0ef7177d1e3c7p-8', '0x1.7169323b62862p-30'),
     ('0x1.6a58ab13d67f3p-8', '0x1.f9cdfa0b773c8p-33'),
     ('0x1.39d4965be1a32p-6', '0x1.f19263ca2354cp-39'),
     ('0x1.e3f712070ad52p-5', '0x1.9de06902bc3ccp-39'),
     ('0x1.769a069347ad4p-3', '0x1.3260acefc908cp-35'),
     ('0x1.bfbfff9d0f1cap-1', '0x1.1f3286a3d3ec1p-18')),
    (('0x1.cd65aafd737d4p-18', '0x1.da74c8649fd7bp-35'),
     ('0x1.ca5d0126e79b7p-17', '0x1.a78356e0da84bp-37'),
     ('0x1.f53a6da92816ep-16', '0x1.aa3539f15f8dbp-39'),
     ('0x1.2f64e34d30757p-11', '0x1.ded23de5806a7p-43'),
     ('0x1.4193008fab090p-8', '0x1.18f406ec08215p-41'),
     ('0x1.f377b8f8a4135p-6', '0x1.8f7fb87ba030bp-37'),
     ('0x1.76b59a94e6820p-3', '0x1.7a94085fb16b5p-20')),
    (('0x1.5981c36c19547p-20', '0x1.1dc47f6dd40d2p-37'),
     ('0x1.2d964cb1b33b0p-19', '0x1.cbeca0dbee6afp-40'),
     ('0x1.1da283b2d8a9fp-18', '0x1.8d8e14f63c26fp-42'),
     ('0x1.9fec952e57f05p-15', '0x1.16a6a7c243c9dp-46'),
     ('0x1.5b858fabf4befp-12', '0x1.09f683fa2c3b3p-45'),
     ('0x1.e9d1b803a6fa4p-10', '0x1.a1916faba2c43p-41'),
     ('0x1.69e0123e538d1p-7', '0x1.726001565591fp-24')),
    (('0x1.45f20a120409bp-39', '0x1.28b451ffd8858p-54'),
     ('0x1.97f2905ec8efdp-36', '0x1.2988ed4b905c6p-54'),
     ('0x1.023c4c18ed392p-32', '0x1.4ab946b44acebp-54'),
     ('0x1.57881e0df91e6p-19', '0x1.a668241872631p-49'),
     ('0x1.36439fb42155dp-12', '0x1.cd07668888582p-45'),
     ('0x1.477acf9f16673p-9', '0x1.408d1d86746ddp-40'),
     ('0x1.fdf5d68fa4369p-7', '0x1.06bbec4d08993p-23')),
    (('0x1.b6da2bbf63b00p-46', '0x1.9914e8e34a173p-61'),
     ('0x1.12494a4751152p-42', '0x1.8f70265354b3ep-61'),
     ('0x1.56e79c6892f4bp-39', '0x1.8f8efb6a23ce3p-61'),
     ('0x1.6a6976305c789p-30', '0x1.d9ec562ccf633p-61'),
     ('0x1.2bf9fcc754000p-25', '0x1.6e443b84d1a8fp-58'),
     ('0x1.2b2f25f2808f8p-22', '0x1.23b157c77265bp-53'),
     ('0x1.cef3279645844p-20', '0x1.e623a2601bb1ap-37')),
    (('0x1.85a5085ae8b7fp-22', '0x1.89266c943ba28p-38'),
     ('0x1.777df86c6255cp-20', '0x1.5356e4653e72dp-39'),
     ('0x1.9b023ad7d7325p-18', '0x1.3aaa616e662b9p-40'),
     ('0x1.01de4e12ad874p-11', '0x1.09c82be0807b8p-42'),
     ('0x1.1d4dccacb4021p-7', '0x1.516942a5f9160p-40'),
     ('0x1.11528903990ffp-4', '0x1.06a35bdf9691ep-35'),
     ('0x1.a5012a222afc9p-2', '0x1.ac14797a35387p-19')),
)


class TestRecordedRadii:
    """The coverage forms' quantiles against the recorded ones: each within
    the recorded error bound of its recorded value, and each honest error
    bound at most 1.25 times the recorded one."""

    @pytest.mark.parametrize("index", range(len(COVERAGE_HONEST)))
    def test_honest(self, index):
        *_, t, bias = _honest_problem(*COVERAGE_HONEST[index])
        for p, (value, stderr) in zip(HONEST_SWEEP, FROZEN_HONEST[index]):
            value, stderr = float.fromhex(value), float.fromhex(stderr)
            est = _form_quantile(t, bias, p)
            assert abs(est.value - value) <= stderr, (p, est, value, stderr)
            assert est.stderr <= 1.25 * stderr, (p, est, stderr)

    @pytest.mark.parametrize("index", range(len(FROZEN_CENTRAL)))
    def test_central(self, index):
        var = _central_forms()[index]
        for p, (value, stderr) in zip(SWEEP, FROZEN_CENTRAL[index]):
            value, stderr = float.fromhex(value), float.fromhex(stderr)
            est = _form_quantile(var, None, p)
            assert abs(est.value - value) <= stderr, (p, est, value, stderr)

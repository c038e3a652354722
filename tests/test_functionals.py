"""Marginal posteriors for linear functionals, credible intervals, bands."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import sine_synthesis_reference

from heatbayes import (
    CoefficientSequence,
    InadmissibleFunctionalError,
    LinearFunctional,
    ObservationSet,
    PriorSpec,
    admissible_truncation,
    compute_posterior,
    credible_interval,
    functional_posterior,
    heat_eigenvalues,
    pointwise_band,
    posterior_weights,
    simulate_observations,
    sobolev_norm,
    true_signal_coefficients,
    true_signal_function,
)
from heatbayes import sequence
from heatbayes.functionals import (
    FunctionalPosterior,
    _zeta,
    check_admissible,
    functional_moments,
    point_evaluation_curves,
)
from heatbayes.posterior import PosteriorWeights
from heatbayes.sequence import (
    AliasingFold,
    GridSynthesis,
    basis_matrix,
    bin_range,
    power_sums,
)


def zero_obs(nn, n):
    return ObservationSet(CoefficientSequence(np.zeros(nn), nn), n, 0)


class TestAdmissibility:
    def test_exponential_prior_easy(self):
        L = LinearFunctional.point_evaluation(0.3)
        check_admissible(L, PriorSpec.exponential(1.0), 100)

    def test_polynomial_prior_needs_depth(self):
        """At the default truncation the slowly decaying prior tail is still
        visible, so the gate rejects; at the recommended level it passes."""
        prior = PriorSpec.polynomial(1.0)
        L = LinearFunctional.point_evaluation(0.3)
        with pytest.raises(InadmissibleFunctionalError):
            check_admissible(L, prior, 100)
        nn = admissible_truncation(prior)
        assert nn > 100
        check_admissible(L, prior, nn)

    @pytest.mark.parametrize("x", [0.3, 1.0 / 3.0, 0.37, 0.5,
                                   0.7071067811865476])
    @pytest.mark.parametrize("prior", [PriorSpec.polynomial(1.0),
                                       PriorSpec.exponential(0.5)])
    def test_total_against_direct_series(self, prior, x):
        """The total over the residues of i mod 2q (or one term per index
        where x is no p/q with a small q) is the N-term series'."""
        nn = admissible_truncation(PriorSpec.polynomial(1.0))
        l = basis_matrix([x], nn)[0]
        direct = math.fsum(l * l * prior.variance_values(nn))
        got = check_admissible(LinearFunctional.point_evaluation(x), prior, nn)
        assert got == pytest.approx(direct, rel=1e-13)

    def test_rough_truncation_stays_small(self):
        """x = 0.3 under poly alpha = 0.5 at its admissible N = 10,132,119
        takes the residue path: no N-length array (81 MB each).  The series
        sum_i (1 - cos(0.6 pi i)) / i^2 sums to 0.21 pi^2 over all i, and
        its terms past N add up to less than 2 / N."""
        prior = PriorSpec.polynomial(0.5)
        nn = admissible_truncation(prior)
        tracemalloc.start()
        try:
            total = check_admissible(LinearFunctional.point_evaluation(0.3),
                                     prior, nn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert 0.0 < 0.21 * math.pi**2 - total < 2.0 / nn

    def test_recommended_levels_scale_with_smoothness(self):
        n1 = admissible_truncation(PriorSpec.polynomial(0.5))
        n2 = admissible_truncation(PriorSpec.polynomial(1.0))
        n3 = admissible_truncation(PriorSpec.polynomial(3.0))
        assert n1 > n2 > n3 == 100

    @pytest.mark.parametrize("prior, level", [
        (PriorSpec.polynomial(0.5), 10_132_119),
        (PriorSpec.polynomial(1.0), 3826),
        (PriorSpec.polynomial(2.0), 100),
        (PriorSpec.polynomial(3.0), 100),
        (PriorSpec.polynomial(5.0), 100),
        (PriorSpec.polynomial(10.0), 100),
        (PriorSpec.exponential(1.0), 100),
    ])
    def test_recommended_levels_pinned(self, prior, level):
        assert admissible_truncation(prior) == level

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_zeta_cached(self, monkeypatch, alpha):
        """The zeta(1 + 2 alpha) of admissible_truncation is the kernel's
        bit for bit, and a repeated call for the same alpha takes it from the
        cache."""
        prior = PriorSpec.polynomial(alpha)
        first = admissible_truncation(prior)
        calls = []
        kernel = sequence._shifted_power_sums

        def counted(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(sequence, "_shifted_power_sums", counted)
        assert admissible_truncation(prior) == first
        assert calls == []
        want = power_sums(1.0 + 2.0 * alpha, 1, math.inf, 1)[0]
        assert len(calls) == 1  # the spy sees an uncached call
        assert _zeta(1.0 + 2.0 * alpha).tobytes() == want.tobytes()

    def test_zero_functional_trivially_admissible(self):
        L = LinearFunctional.from_coefficients(np.zeros(50))
        assert check_admissible(L, PriorSpec.polynomial(0.5), 50) == 0.0

    def test_finite_support_always_admissible(self):
        """Even with its support in the last decade of N, or past N."""
        prior = PriorSpec.polynomial(0.1)
        for nn in (1000, 3, 2):
            assert check_admissible(LinearFunctional.coordinate(3), prior,
                                    nn) == prior.variance_values(3)[2]


class TestCoordinate:
    def test_index_range(self):
        nn = 5
        L = LinearFunctional.coordinate(nn)
        assert np.array_equal(L.values, np.eye(nn)[nn - 1])
        for index in (0, -1):
            with pytest.raises(ValueError):
                LinearFunctional.coordinate(index)

    def test_index_is_an_integer(self):
        """True is no mu_1, and 2.5 is no index: both raise ValueError."""
        assert LinearFunctional.coordinate(np.int64(2)).values == (0.0, 1.0)
        for index in (True, False, 2.5, 2.0, "3", None):
            with pytest.raises(ValueError, match="must be an integer"):
                LinearFunctional.coordinate(index)


class TestFiniteValues:
    @pytest.mark.parametrize("values", [
        [1.0, math.nan], [math.inf], [0.5, -math.inf, 1.0]])
    def test_rejects_non_finite_values(self, values):
        """A NaN or infinite coefficient gave a NaN interval, or coverage 0.6
        with an infinite half-width: it is refused at construction."""
        with pytest.raises(ValueError, match="values must be finite"):
            LinearFunctional.from_coefficients(values)
        with pytest.raises(ValueError, match="values must be finite"):
            LinearFunctional(values=tuple(values))


class TestPointEvaluation:
    @pytest.mark.parametrize("x", [-1e-12, -0.5, 1.0 + 1e-12, 1.5, math.nan,
                                   -math.inf])
    def test_rejects_x_outside_the_unit_interval(self, x):
        with pytest.raises(ValueError, match=r"grid points must lie in \[0, 1\]"):
            LinearFunctional.point_evaluation(x)

    def test_holds_x_or_values(self):
        assert LinearFunctional.point_evaluation(np.float32(0.3), 100).x == float(
            np.float32(0.3))
        for kwargs in ({}, {"x": 0.5, "values": (1.0,)}):
            with pytest.raises(ValueError, match="either x or its values"):
                LinearFunctional(**kwargs)


class TestFunctionalPosterior:
    def test_coordinate_projection_matches_posterior(self):
        """l = e_1 reduces bit-exactly to the coordinate-1 posterior."""
        prior = PriorSpec.polynomial(1.0)
        nn, n = 200, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 8)
        summ = compute_posterior(prior, kap, n, obs)
        L = LinearFunctional.coordinate(1)
        fp = functional_posterior(L, prior, kap, n, obs)
        assert fp.mean == summ.mean.values[0]
        assert fp.spread_sq == summ.variance.values[0]
        assert fp.mean_var == summ.shrink_var.values[0]

    def test_support_past_kappa_adds_prior_variance(self):
        """l = e_1 + e_150 against a kappa of truncation 100: coordinate 150
        is unobserved, so it adds lambda_150 to the spread and nothing to
        the mean or to its sampling variance."""
        prior = PriorSpec.exponential(1e-4)
        nn, n = 100, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 8)
        summ = compute_posterior(prior, kap, n, obs)
        L = LinearFunctional.from_coefficients(np.r_[1.0, np.zeros(148), 1.0])
        fp = functional_posterior(L, prior, kap, n, obs)
        assert fp.mean == summ.mean.values[0]
        assert fp.mean_var == summ.shrink_var.values[0]
        assert fp.spread_sq == pytest.approx(
            summ.variance.values[0] + prior.variance_values(150)[149],
            rel=1e-14)

    def test_point_evaluation_zero_data(self):
        """Y = 0: mean 0; spread is the direct series
        sum 2 sin^2(i pi/2) lambda_i / (1 + a_i)."""
        prior = PriorSpec.exponential(1.0)
        nn, n = 100, 1e4
        kap = heat_eigenvalues(0.1, nn)
        L = LinearFunctional.point_evaluation(0.5)
        fp = functional_posterior(L, prior, kap, n, zero_obs(nn, n))
        assert fp.mean == 0.0
        w = posterior_weights(prior, kap, n)
        i = np.arange(1, nn + 1)
        direct = float((2.0 * np.sin(i * math.pi / 2) ** 2 * w.variance).sum())
        assert fp.spread_sq == pytest.approx(direct, rel=1e-12)

    def test_linearity_of_mean(self):
        prior = PriorSpec.exponential(0.5)
        nn, n = 80, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 4)
        l1 = LinearFunctional.point_evaluation(0.3)
        l2 = LinearFunctional.point_evaluation(0.7)
        e = basis_matrix([0.3, 0.7], nn)
        combo = LinearFunctional.from_coefficients(2.0 * e[0] - 0.5 * e[1])
        m1 = functional_posterior(l1, prior, kap, n, obs).mean
        m2 = functional_posterior(l2, prior, kap, n, obs).mean
        mc = functional_posterior(combo, prior, kap, n, obs).mean
        assert mc == pytest.approx(2.0 * m1 - 0.5 * m2, rel=1e-12)

    def test_mean_var_below_spread(self):
        prior = PriorSpec.polynomial(1.0)
        nn = admissible_truncation(prior)
        kap = heat_eigenvalues(0.1, nn)
        L = LinearFunctional.point_evaluation(0.25)
        for n in (1e2, 1e4, 1e6, 1e8):
            fp = functional_posterior(L, prior, kap, n, zero_obs(nn, n))
            assert fp.mean_var <= fp.spread_sq

    def test_mean_sd_ratio_decreases_with_n(self):
        """t_n / s_n falls along the n grid (intervals get conservative).

        The location matters at finite n: whenever a coordinate crosses its
        resolution threshold inside the grid, its rising gain can bump the
        ratio, so a representer is used whose trace is clean.
        """
        prior = PriorSpec.polynomial(1.0)
        nn = admissible_truncation(prior)
        kap = heat_eigenvalues(0.1, nn)
        L = LinearFunctional.point_evaluation(0.37)
        ratios = []
        for n in (1e2, 1e4, 1e6, 1e8):
            fp = functional_posterior(L, prior, kap, n, zero_obs(nn, n))
            ratios.append(math.sqrt(fp.mean_var / fp.spread_sq))
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_sampling_law_of_posterior_mean(self):
        """Var of the posterior mean of L mu over replications matches t_n^2."""
        prior = PriorSpec.exponential(1.0)
        nn, n, reps = 100, 1e4, 20_000
        kap = heat_eigenvalues(0.1, nn)
        mu0 = true_signal_coefficients(nn)
        L = LinearFunctional.point_evaluation(0.5)
        w = posterior_weights(prior, kap, n)
        proj = basis_matrix([0.5], nn)[0] * w.mean_weight
        means = np.empty(reps)
        for r in range(reps):
            obs = simulate_observations(mu0, kap, n, seed=55, replication=r)
            means[r] = float(proj @ obs.y.values)
        fp = functional_posterior(L, prior, kap, n, zero_obs(nn, n))
        assert means.var(ddof=1) == pytest.approx(fp.mean_var, rel=0.05)


class TestCredibleInterval:
    def test_standard_normal_endpoints(self):
        """Frozen normal quantile z_{0.025} = -1.959963984540054."""
        fp = FunctionalPosterior(mean=0.0, spread_sq=1.0, mean_var=0.5)
        lo, hi = credible_interval(fp, 0.05)
        assert lo == pytest.approx(-1.959963984540054, rel=1e-12)
        assert hi == pytest.approx(1.959963984540054, rel=1e-12)

    def test_degenerate_spread(self):
        fp = FunctionalPosterior(mean=2.0, spread_sq=0.0, mean_var=0.0)
        assert credible_interval(fp, 0.05) == (2.0, 2.0)

    def test_width_monotone_in_spread(self):
        widths = []
        for s2 in (0.5, 1.0, 2.0):
            fp = FunctionalPosterior(mean=0.0, spread_sq=s2, mean_var=0.0)
            lo, hi = credible_interval(fp, 0.05)
            widths.append(hi - lo)
        assert widths[0] < widths[1] < widths[2]


class TestPointwiseBand:
    def test_degenerate_at_boundary(self):
        prior = PriorSpec.exponential(1.0)
        nn, n = 100, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 6)
        band = pointwise_band(prior, kap, n, obs, [0.0, 0.5, 1.0], 0.05)
        assert tuple(band[0]) == (0.0, 0.0)
        assert tuple(band[2]) == (0.0, 0.0)
        assert band[1, 0] < band[1, 1]

    def test_nesting_in_gamma(self):
        prior = PriorSpec.exponential(1.0)
        nn, n = 100, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 6)
        x = np.linspace(0, 1, 41)
        wide = pointwise_band(prior, kap, n, obs, x, 0.05)
        narrow = pointwise_band(prior, kap, n, obs, x, 0.2)
        assert np.all(wide[:, 0] <= narrow[:, 0])
        assert np.all(narrow[:, 1] <= wide[:, 1])

    def test_center_recovers_truth_with_benign_operator(self):
        """Noiseless high-n data through an identity-like operator."""
        prior = PriorSpec.polynomial(1.0)
        nn = admissible_truncation(prior)
        n = 1e18
        kap = CoefficientSequence(np.ones(nn), nn)
        mu0 = true_signal_coefficients(nn)
        obs = ObservationSet(CoefficientSequence(mu0.values.copy(), nn), n, 0)
        x = np.linspace(0, 1, 21)
        band = pointwise_band(prior, kap, n, obs, x, 0.05)
        center = band.mean(axis=1)
        assert np.max(np.abs(center - true_signal_function(x))) < 1e-3

    def test_matches_per_point_functionals(self):
        """The fused band equals per-x functional posteriors."""
        prior = PriorSpec.exponential(1.0)
        nn, n = 120, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = simulate_observations(true_signal_coefficients(nn), kap, n, 14)
        xs = [0.21, 0.5, 0.68]
        band = pointwise_band(prior, kap, n, obs, xs, 0.1)
        for k, x in enumerate(xs):
            L = LinearFunctional.point_evaluation(x)
            fp = functional_posterior(L, prior, kap, n, obs)
            lo, hi = credible_interval(fp, 0.1)
            assert band[k, 0] == pytest.approx(lo, rel=1e-10)
            assert band[k, 1] == pytest.approx(hi, rel=1e-10)

    def test_rejects_bad_grid(self):
        prior = PriorSpec.exponential(1.0)
        nn, n = 50, 1e4
        kap = heat_eigenvalues(0.1, nn)
        obs = zero_obs(nn, n)
        with pytest.raises(ValueError):
            pointwise_band(prior, kap, n, obs, [0.5, 1.2], 0.05)


def synthetic_weights(nn, seed):
    """Random factors decaying like i^-2 (as posterior variances of rough
    priors do); lam = 0 leaves the envelope admissibility gate inactive."""
    rng = np.random.default_rng(seed)
    i = np.arange(1, nn + 1, dtype=float)
    zeros = np.zeros(nn)
    return PosteriorWeights(
        lam=zeros, mean_weight=rng.standard_normal(nn) / i**2, gain=zeros,
        one_minus_gain=np.ones(nn), variance=rng.uniform(0.5, 1.5, nn) / i**2,
        shrink_var=zeros)


def assert_close_to_reference(w, x, extra, got):
    mean_x, sd_x, extra_x, _ = got
    ref, s2 = sine_synthesis_reference(
        x, np.column_stack([w.mean_weight, extra]), w.variance)
    for curve, expect in ((mean_x, ref[:, 0]), (sd_x, np.sqrt(s2)),
                          (extra_x, ref[:, 1:])):
        scale = np.abs(expect).max()
        assert np.abs(curve - expect).max() <= 1e-12 * scale


class TestAliasingFold:
    """Synthesis on uniform grids through the residue fold against the
    full basis matrix."""

    @pytest.mark.parametrize("m", [1, 2, 20, 200])
    def test_fold_matches_direct_synthesis(self, m):
        x = np.linspace(0.0, 1.0, m + 1)
        for nn in (m, 2 * m - 1, 2 * m, 2 * m + 1, 7 * m + 3, 100_000):
            nn = max(nn, 1)
            w = synthetic_weights(nn, seed=nn)
            i = np.arange(1, nn + 1, dtype=float)
            extra = np.column_stack([true_signal_coefficients(nn).values,
                                     np.cos(i) / i**2])
            got = point_evaluation_curves(w, np.ones(nn), x,
                                          extra_coefficients=extra)
            assert_close_to_reference(w, x, extra, got)
            mean_x, sd_x, extra_x, _ = got
            for curve in (mean_x, sd_x, extra_x[:, 0], extra_x[:, 1]):
                assert curve[0] == 0.0 and curve[-1] == 0.0

    @pytest.mark.parametrize("m", [20, 200])
    def test_truth_at_rough_truncation(self, m):
        """The cubic truth synthesized from the 10,132,119 coefficients the
        poly alpha=0.5 panels use stays at rounding level; a row-by-row
        accumulation of the residue bins drifts to ~1e-12."""
        nn = admissible_truncation(PriorSpec.polynomial(0.5))
        x = np.linspace(0.0, 1.0, m + 1)
        fold = AliasingFold(m)
        truth = fold.table @ fold.interior(bin_range(
            1, true_signal_coefficients(nn).values, fold.period))
        assert np.abs(truth - true_signal_function(x)).max() <= 1e-14

    def test_non_uniform_grid_builds_each_chunk_once(self, monkeypatch):
        """Off the uniform grid the sd curve and the curves share one pass:
        N = 20,000 coordinates take three basis chunks, built once each."""
        built = []
        columns = sequence.basis_columns

        def counted(x, start, stop):
            built.append(start)
            return columns(x, start, stop)

        monkeypatch.setattr(sequence, "basis_columns", counted)
        nn = 20_000
        point_evaluation_curves(synthetic_weights(nn, seed=3), np.ones(nn),
                                np.array([0.0, 0.13, 0.5, 0.77, 1.0]),
                                true_signal_coefficients(nn).values[:, None])
        assert built == [0, 8192, 16384]

    def test_non_uniform_grid_direct_path(self):
        x = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
        nn = 20_000
        w = synthetic_weights(nn, seed=3)
        extra = true_signal_coefficients(nn).values[:, None]
        got = point_evaluation_curves(w, np.ones(nn), x,
                                      extra_coefficients=extra)
        assert_close_to_reference(w, x, extra, got)
        assert got[1][0] == 0.0 and got[1][-1] == 0.0
        draws = point_evaluation_curves(
            w, np.ones(nn), x,
            draw_normals=lambda b: np.array(
                [np.random.default_rng(k).standard_normal(b) for k in range(3)]))[3]
        assert draws.shape == (3, x.size) and np.all(np.isfinite(draws))

    @pytest.mark.parametrize("m,nn", [(1, 5), (2, 3), (2, 37), (20, 1000),
                                      (50, 4321)])
    def test_draw_bins_exact_in_distribution(self, m, nn):
        """A draw on the fold path has covariance T diag(S) T^T, T the
        table of the M - 1 interior residues and S their folded variances
        v_r + v_(2M-r), which must equal the full posterior covariance
        E diag(s) E^T."""
        x = np.linspace(0.0, 1.0, m + 1)
        s = synthetic_weights(nn, seed=m).variance
        fold = AliasingFold(m)
        T = fold.table
        assert T.shape == (m + 1, m - 1)
        E = basis_matrix(x, nn)
        S = fold.interior(bin_range(1, s, fold.period), squared=True)
        folded = T @ np.diag(S) @ T.T
        full = (E * s) @ E.T
        assert np.abs(folded - full).max() <= 1e-12 * np.abs(full).max()

    def test_draws_take_one_normal_per_bin(self):
        """A draw asks for one normal per interior residue, M - 1 of them,
        and is the synthesis of mean_r + sqrt(v_r + v_(2M-r)) z_r; at M = 1
        no column is asked for and the draws equal the mean."""
        nn = 5000
        w = synthetic_weights(nn, seed=9)
        for m in (1, 2, 10):
            x = np.linspace(0.0, 1.0, m + 1)
            asked = []

            def normals(b):
                asked.append(b)
                return np.random.default_rng(4).standard_normal((2, b))

            mean_x, _, _, draws = point_evaluation_curves(
                w, np.ones(nn), x, draw_normals=normals)
            assert asked == [m - 1] and draws.shape == (2, m + 1)
            fold = AliasingFold(m)
            z = np.random.default_rng(4).standard_normal((2, m - 1))
            sd = np.sqrt(fold.interior(bin_range(1, w.variance, fold.period),
                                       squared=True))
            expect = mean_x + (sd * z) @ fold.table.T
            assert (np.abs(draws - expect).max()
                    <= 1e-12 * np.abs(expect).max())
            if m == 1:
                assert np.array_equal(draws, np.tile(mean_x, (2, 1)))

    @pytest.mark.parametrize("x", [np.linspace(0.0, 1.0, 21),
                                   np.array([0.0, 0.13, 0.5, 0.77, 1.0])])
    def test_draw_columns_bitwise_as_row_by_row(self, x):
        """The draw columns, written in one broadcast, give the curves of
        one mean + sd * z column per draw stacked beside the mean and the
        extra columns, bit for bit."""
        nn = 5000
        w = synthetic_weights(nn, seed=11)
        y = np.cos(np.arange(nn))
        extra = true_signal_coefficients(nn).values[:, None]
        z = np.random.default_rng(6).standard_normal(
            (20, nn if x.size == 5 else 19))
        got = point_evaluation_curves(w, y, x, extra, lambda b: z)
        syn = GridSynthesis(x)
        mean_b = syn.bins(w.mean_weight * y)
        var_b = syn.bins(w.variance, squared=True)
        sd_b = np.sqrt(var_b)
        columns = np.column_stack([mean_b, syn.bins(extra[:, 0])]
                                  + [mean_b + sd_b * row for row in z])
        curves, s2 = syn.curves(columns, var_b)
        assert np.array_equal(got[0], curves[:, 0])
        assert np.array_equal(got[1], np.sqrt(s2))
        assert np.array_equal(got[2], curves[:, 1:2])
        assert np.array_equal(got[3], curves[:, 2:].T)


def moments_bias(L, prior, kappa, n, mu0):
    """|bias| of the posterior mean of L at the truth mu0, as
    functional_moments reports it over full-length weights."""
    w = posterior_weights(prior, kappa, n)
    return abs(functional_moments(L, w, prior, kappa.truncation_level,
                                  mu0.values)[2])


class TestFunctionalBias:
    def test_single_coordinate_hand_value(self):
        """One active coordinate; N = 100 so that the last-decade check
        sees no mass."""
        prior = PriorSpec.polynomial(1.0)  # lambda_1 = 1
        nn = 100
        kap = CoefficientSequence(np.r_[0.5, np.zeros(nn - 1)], nn)
        mu0 = CoefficientSequence(np.r_[1.0, np.zeros(nn - 1)], nn)
        L = LinearFunctional.coordinate(1)
        val = moments_bias(L, prior, kap, 100.0, mu0)
        assert val == pytest.approx(1.0 / 26.0, rel=1e-13)

    def test_vanishes_with_benign_operator(self):
        prior = PriorSpec.polynomial(1.0)
        nn = admissible_truncation(prior)
        kap = CoefficientSequence(np.ones(nn), nn)
        mu0 = true_signal_coefficients(nn)
        L = LinearFunctional.point_evaluation(0.4)
        assert moments_bias(L, prior, kap, 1e18, mu0) < 1e-8

    def test_cauchy_schwarz_bound(self):
        """bias^2 <= ||mu0||_beta^2 sum l_i^2 i^{-2 beta} / (1 + a_i)^2."""
        prior = PriorSpec.polynomial(1.0)
        nn, n, beta = admissible_truncation(prior), 1e4, 2.0
        kap = heat_eigenvalues(0.1, nn)
        mu0 = true_signal_coefficients(nn)
        L = LinearFunctional.point_evaluation(0.35)
        bias = moments_bias(L, prior, kap, n, mu0)
        w = posterior_weights(prior, kap, n)
        i = np.arange(1, nn + 1, dtype=float)
        rhs_series = float((basis_matrix([0.35], nn)[0]**2 * i ** (-2 * beta)
                            * w.one_minus_gain**2).sum())
        bound = sobolev_norm(mu0, beta) ** 2 * rhs_series
        assert bias**2 <= bound

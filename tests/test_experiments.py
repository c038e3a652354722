"""Coverage, risk, and figure-data experiments (small, fast configurations;
the full-size protocol runs live in the acceptance suite)."""

import math

import numpy as np
import pytest
from oracles import replicate_errors

from heatbayes import (
    ExperimentConfig,
    LinearFunctional,
    Mu0Source,
    PanelSpec,
    PriorSpec,
    ScalingRule,
    figure_one_panels,
    figure_two_panels,
    figure_three_panels,
    figure_four_panels,
    heat_eigenvalues,
    posterior_weights,
    render_panel,
    run_ball_coverage,
    run_interval_coverage,
    run_risk_curve,
    true_signal_coefficients,
)
from heatbayes.priors import PriorFamily


class TestMu0Source:
    def test_cubic_default(self):
        src = Mu0Source.test_cubic()
        mu = src.realize(10)
        assert mu.values[0] == pytest.approx(0.7297689184443775, rel=1e-14)

    def test_explicit_pads_with_zeros(self):
        src = Mu0Source.explicit([1.0, -2.0])
        mu = src.realize(5)
        np.testing.assert_array_equal(mu.values, [1.0, -2.0, 0.0, 0.0, 0.0])

    def test_power_law_values(self):
        src = Mu0Source.power_law(beta=2.0, eps=0.01)
        mu = src.realize(4)
        i = np.arange(1, 5, dtype=float)
        np.testing.assert_allclose(mu.values, i**-2.51, rtol=1e-14)

    def test_rejects_non_finite_exponents(self):
        """1^-inf = 1: an infinite beta would silently give the truth e_1."""
        for beta, eps in ((math.inf, 0.01), (2.0, math.nan)):
            with pytest.raises(ValueError, match="finite beta"):
                Mu0Source.power_law(beta, eps)

    def test_prior_draw_has_no_deterministic_realization(self):
        with pytest.raises(ValueError):
            Mu0Source.prior_draw().realize(5)
        with pytest.raises(ValueError):
            Mu0Source.prior_draw().sums(28, 100, 40)


class TestBallCoverage:
    def test_self_consistency_small(self):
        """Truth drawn from the prior: coverage must sit near 1 - gamma."""
        for prior in (PriorSpec.polynomial(1.0), PriorSpec.exponential(1.0)):
            cfg = ExperimentConfig(prior=prior, n_grid=(1e4,), gamma=0.05,
                                   replications=400, mu0=Mu0Source.prior_draw(),
                                   seed=7)
            report = run_ball_coverage(cfg)
            cov = report.column("coverage")[0]
            assert abs(cov - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / 400) + 0.01
            assert math.isnan(report.column("radius_freq")[0])

    def test_deterministic_given_seed(self):
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e3,),
                               replications=50, seed=3)
        a = run_ball_coverage(cfg)
        b = run_ball_coverage(cfg)
        assert a.rows == b.rows

    def test_fixed_truth_reports_radius_ratio(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e6,),
                               replications=50, seed=5)
        report = run_ball_coverage(cfg)
        ratio = report.column("radius_ratio")[0]
        assert math.isfinite(ratio) and ratio > 0
        assert report.column("radius")[0] > 0

    def test_risk_column_tracks_exact_risk(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                               replications=800, seed=9)
        report = run_ball_coverage(cfg)
        risk_cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                                    n_grid=(1e4,), replications=800, seed=9)
        exact = run_risk_curve(risk_cfg).column("risk_exact")[0]
        mc, se = report.column("risk_mc")[0], report.column("risk_mc_se")[0]
        assert abs(mc - exact) <= 3.5 * se


class TestSufficientStatistics:
    """Coverage and risk drawn from the exact laws of ||muhat - mu0||^2 and
    Lhat - L mu against brute-force end-to-end replications."""

    def test_agrees_with_end_to_end_replications(self):
        """Polynomial alpha = 1, n = 1e4, cubic truth, N = 3826 (the
        admissible truncation), x = 0.3.  Exact coverages here lie well
        inside (0.05, 0.95), so a wrong law would show: 0.254 for the ball
        at its exact radius (Imhof inversion) and 0.502 for the
        interval (normal law); the exact risk is 0.607."""
        prior, n, nn, reps = PriorSpec.polynomial(1.0), 1e4, 3826, 2000
        cfg = ExperimentConfig(prior=prior, n_grid=(n,), replications=reps,
                               seed=5, trunc=nn)
        L = LinearFunctional.point_evaluation(0.3, nn)
        ball = run_ball_coverage(cfg)
        interval = run_interval_coverage(cfg, L)
        sq_err, lin_err = replicate_errors(
            prior.variance_values(nn), heat_eigenvalues(cfg.time_horizon, nn).values,
            true_signal_coefficients(nn).values, L.l.values, n, reps, seed=99)

        def agree(name, est, se, ref, ref_se):
            assert abs(est - ref) <= 4.0 * math.hypot(se, ref_se), (
                name, est, se, ref, ref_se)

        def binomial_se(p):
            return math.sqrt(p * (1.0 - p) / reps)

        radius = ball.column("radius")[0]
        ref = float(np.mean(sq_err <= radius**2))
        assert 0.05 < ref < 0.95
        agree("ball", ball.column("coverage")[0], ball.column("coverage_se")[0],
              ref, binomial_se(ref))
        agree("risk", ball.column("risk_mc")[0], ball.column("risk_mc_se")[0],
              float(sq_err.mean()), float(sq_err.std(ddof=1)) / math.sqrt(reps))
        ref = float(np.mean(np.abs(lin_err) <= interval.column("halfwidth")[0]))
        assert 0.05 < ref < 0.95
        agree("interval", interval.column("coverage")[0],
              interval.column("coverage_se")[0], ref, binomial_se(ref))

    @pytest.mark.parametrize("prior", [PriorSpec.polynomial(1.0),
                                       PriorSpec.exponential(1.0)],
                             ids=["poly1", "exp1"])
    def test_prior_draws_agree_with_end_to_end_replications(self, prior):
        """Prior-drawn truths, n = 1e4, N = 100: ball coverage at the
        library's radius and the mean-square error, drawn from the central
        law sum s_i Z_i^2, against truths, data and posterior means
        simulated coordinate by coordinate; the mean-square error against
        its exact value sum s_i."""
        n, nn, reps = 1e4, 100, 4000
        cfg = ExperimentConfig(prior=prior, n_grid=(n,), replications=reps,
                               mu0=Mu0Source.prior_draw(), seed=5, trunc=nn)
        ball = run_ball_coverage(cfg)
        sq_err, _ = replicate_errors(
            prior.variance_values(nn), heat_eigenvalues(cfg.time_horizon, nn).values,
            None, np.zeros(nn), n, reps, seed=99)
        radius = ball.column("radius")[0]
        ref = float(np.mean(sq_err <= radius**2))
        cov, cov_se = ball.column("coverage")[0], ball.column("coverage_se")[0]
        assert abs(cov - ref) <= 4.0 * math.hypot(
            cov_se, math.sqrt(ref * (1.0 - ref) / reps)), (cov, ref)
        mc, mc_se = ball.column("risk_mc")[0], ball.column("risk_mc_se")[0]
        ref_se = float(sq_err.std(ddof=1)) / math.sqrt(reps)
        assert abs(mc - float(sq_err.mean())) <= 4.0 * math.hypot(mc_se, ref_se)
        spread = math.fsum(posterior_weights(
            prior, heat_eigenvalues(cfg.time_horizon, nn), n).variance)
        assert abs(mc - spread) <= 4.0 * mc_se, (mc, spread, mc_se)

    def test_repeated_n_uses_distinct_streams(self):
        for mu0 in (Mu0Source.test_cubic(), Mu0Source.prior_draw()):
            cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                                   n_grid=(1e4, 1e4), replications=200, seed=3,
                                   mu0=mu0)
            a, b = run_ball_coverage(cfg).rows
            assert a[0] == b[0]
            # the radii are exact, hence equal; the replications are not
            assert a[3] == b[3]
            assert a[4] == b[4] or mu0.is_random
            assert a[6] != b[6]  # risk_mc
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                               n_grid=(1e4, 1e4), replications=200, seed=3)
        a, b = run_risk_curve(cfg).rows
        assert a[:6] == b[:6] and a[6] != b[6]

    def test_single_replication_rejected(self):
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e3,),
                               replications=1, seed=1)
        for run in (run_ball_coverage, run_risk_curve):
            with pytest.raises(ValueError, match="at least 2"):
                run(cfg)

    def test_non_finite_n_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(prior=PriorSpec.exponential(1.0),
                             n_grid=(1e3, math.inf))

    @pytest.mark.parametrize("points", [-1, 0, 1])
    def test_grid_below_two_points_rejected(self, points):
        with pytest.raises(ValueError, match="x_grid_points"):
            ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e3,),
                             x_grid_points=points)


class TestIntervalCoverage:
    def test_self_consistency_small(self):
        for prior in (PriorSpec.polynomial(1.0), PriorSpec.exponential(1.0)):
            cfg = ExperimentConfig(prior=prior, n_grid=(1e4,), gamma=0.05,
                                   replications=400, mu0=Mu0Source.prior_draw(),
                                   seed=11)
            L = LinearFunctional.point_evaluation(0.5, 100)
            report = run_interval_coverage(cfg, L)
            cov = report.column("coverage")[0]
            assert abs(cov - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / 400)

    def test_halfwidth_positive_and_spread_ordering(self):
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               replications=20, seed=2)
        report = run_interval_coverage(cfg, LinearFunctional.point_evaluation(0.3, 100))
        assert report.column("halfwidth")[0] > 0
        assert report.column("mean_sd")[0] <= report.column("spread")[0]

    def test_matched_scaling_uses_functional_exponent(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                               scaling=ScalingRule.rate_matched(1.5),
                               replications=20, seed=2)
        report = run_interval_coverage(cfg, LinearFunctional.point_evaluation(0.5, 100))
        assert report.column("coverage")[0] >= 0.0  # runs with resolved tau


    def test_custom_coefficients_are_padded(self):
        """A custom representer shorter than the truncation is padded with
        zeros: the same report as the full-length list, and the spread of
        0.5 mu_1 - mu_3 from the posterior variances directly."""
        prior = PriorSpec.exponential(1.0)
        cfg = ExperimentConfig(prior=prior, n_grid=(1e2, 1e4), trunc=150,
                               replications=50, seed=3)
        short = LinearFunctional.from_coefficients([0.5, 0.0, -1.0])
        full = LinearFunctional.from_coefficients(
            np.concatenate(([0.5, 0.0, -1.0], np.zeros(147))))
        report = run_interval_coverage(cfg, short)
        assert report.rows == run_interval_coverage(cfg, full).rows
        for n, spread in zip(cfg.n_grid, report.column("spread")):
            s = posterior_weights(prior, heat_eigenvalues(0.1, 150), n).variance
            assert spread == pytest.approx(
                math.sqrt(0.25 * s[0] + s[2]), rel=1e-14)


class TestRiskCurve:
    def test_exact_risk_strictly_decreasing(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                               n_grid=(1e2, 1e4, 1e6), replications=30, seed=4)
        report = run_risk_curve(cfg)
        total = report.column("risk_total")
        assert np.all(np.diff(total) < 0)

    def test_zero_truth_risk_is_pure_variance(self):
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               replications=30, seed=4,
                               mu0=Mu0Source.explicit([]))
        report = run_risk_curve(cfg)
        assert report.column("sq_bias")[0] == 0.0
        assert report.column("risk_total")[0] == pytest.approx(
            report.column("est_var")[0] + report.column("spread")[0], rel=1e-14)

    def test_prior_draw_rejected(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                               replications=10, seed=1,
                               mu0=Mu0Source.prior_draw())
        with pytest.raises(ValueError):
            run_risk_curve(cfg)

    def test_mc_matches_exact(self):
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               replications=2000, seed=12)
        report = run_risk_curve(cfg)
        mc = report.column("risk_mc")[0]
        se = report.column("risk_mc_se")[0]
        assert abs(mc - report.column("risk_exact")[0]) <= 3.5 * se


class TestPanels:
    def _cfg(self, prior, n=1e4, seed=0):
        return ExperimentConfig(prior=prior, n_grid=(n,), seed=seed,
                                x_grid_points=101)

    def test_deterministic(self):
        cfg = self._cfg(PriorSpec.exponential(1.0))
        spec = PanelSpec(prior=cfg.prior, n=1e4, data_stream=3)
        a = render_panel(cfg, spec)
        b = render_panel(cfg, spec)
        np.testing.assert_array_equal(a.post_mean, b.post_mean)
        np.testing.assert_array_equal(a.draw_curves, b.draw_curves)

    def test_band_degenerates_at_endpoints(self):
        cfg = self._cfg(PriorSpec.exponential(1.0))
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4, data_stream=0))
        assert panel.lower[0] == panel.upper[0] == 0.0
        assert panel.lower[-1] == panel.upper[-1] == 0.0
        assert panel.truth[0] == 0.0 and panel.truth[-1] == 0.0

    def test_table_schema(self):
        cfg = self._cfg(PriorSpec.exponential(5.0))
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=1, draws=4))
        cols, rows = panel.to_table()
        assert cols[:5] == ("x", "truth", "post_mean", "lower", "upper")
        assert cols[5:] == ("draw_01", "draw_02", "draw_03", "draw_04")
        assert len(rows) == 101

    def test_zero_draws(self):
        cfg = self._cfg(PriorSpec.exponential(1.0))
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=1, draws=0))
        cols, _ = panel.to_table()
        assert panel.draw_curves.shape == (0, 101)
        assert cols == ("x", "truth", "post_mean", "lower", "upper")

    def test_draw_streams_differ(self):
        cfg = self._cfg(PriorSpec.exponential(1.0))
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=1, draws=3))
        assert not np.array_equal(panel.draw_curves[0], panel.draw_curves[1])

    def test_two_stream_constructions_per_panel(self, monkeypatch):
        """One 20-draw panel builds the obs stream and one draw batch: two
        SeedSequences and two Philox generators, not one per draw."""
        built = []

        def counting(cls):
            def make(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)
            return make

        for cls in (np.random.SeedSequence, np.random.Philox):
            monkeypatch.setattr(np.random, cls.__name__, counting(cls))
        cfg = self._cfg(PriorSpec.polynomial(1.0), seed=7)
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=3, draws=20))
        assert panel.draw_curves.shape == (20, 101)
        assert built.count("SeedSequence") <= 2
        assert built.count("Philox") <= 2


class TestFigureProtocols:
    def test_figure_one_layout(self):
        panels = figure_one_panels()
        assert len(panels) == 10
        assert all(p.n == 1e4 for p in panels)
        alphas = [p.prior.alpha for p in panels]
        assert alphas == [1.0] * 5 + [3.0] * 5
        assert all(p.prior.kind is PriorFamily.POLYNOMIAL for p in panels)
        assert len({p.data_stream for p in panels}) == 10

    def test_figure_two_layout(self):
        panels = figure_two_panels()
        assert [p.prior.alpha for p in panels] == [1.0] * 5 + [5.0] * 5
        assert all(p.prior.kind is PriorFamily.EXPONENTIAL for p in panels)

    def test_figure_three_and_four_layout(self):
        for maker, family in ((figure_three_panels, PriorFamily.POLYNOMIAL),
                              (figure_four_panels, PriorFamily.EXPONENTIAL)):
            panels = maker()
            assert len(panels) == 10
            assert [p.n for p in panels] == [1e4] * 5 + [1e8] * 5
            assert [p.prior.alpha for p in panels] == [0.5, 1, 2, 5, 10] * 2
            assert all(p.prior.kind is family for p in panels)

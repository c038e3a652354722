"""Coverage, risk, and figure-data experiments (small, fast configurations;
the full-size protocol runs live in the acceptance suite)."""

import math
import warnings

import numpy as np
import pytest
from oracles import replicate_errors

from heatbayes import (
    CoefficientSequence,
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
    risk_decomposition,
    run_risk_curve,
    true_signal_coefficients,
)
from heatbayes.experiments import _model, _panel_frame
from heatbayes.functionals import admissible_truncation, check_admissible
from heatbayes.priors import FunctionalMode, PriorFamily
from heatbayes.sequence import basis_matrix, default_truncation


class TestMu0Source:
    def test_cubic_default(self):
        src = Mu0Source.test_cubic()
        mu = src.realize(10)
        assert mu.values[0] == pytest.approx(0.7297689184443775, rel=1e-14)

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
        L = LinearFunctional.point_evaluation(0.3)
        ball = run_ball_coverage(cfg)
        interval = run_interval_coverage(cfg, L)
        sq_err, lin_err = replicate_errors(
            prior.variance_values(nn), heat_eigenvalues(cfg.time_horizon, nn).values,
            true_signal_coefficients(nn).values, basis_matrix([0.3], nn)[0],
            n, reps, seed=99)

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
            L = LinearFunctional.point_evaluation(0.5)
            report = run_interval_coverage(cfg, L)
            cov = report.column("coverage")[0]
            assert abs(cov - 0.95) <= 4 * math.sqrt(0.95 * 0.05 / 400)

    def test_halfwidth_positive_and_spread_ordering(self):
        cfg = ExperimentConfig(prior=PriorSpec.exponential(1.0), n_grid=(1e4,),
                               replications=20, seed=2)
        report = run_interval_coverage(cfg, LinearFunctional.point_evaluation(0.3))
        assert report.column("halfwidth")[0] > 0
        assert report.column("mean_sd")[0] <= report.column("spread")[0]

    def test_matched_scaling_uses_functional_exponent(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                               scaling=ScalingRule.rate_matched(1.5),
                               replications=20, seed=2)
        report = run_interval_coverage(cfg, LinearFunctional.point_evaluation(0.5))
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

    def test_support_past_the_truncation_is_summed(self):
        """l_1 = 0.5 and l_200 = 1 under exp alpha = 1e-4: the sums run over
        the whole support whatever the truncation, so trunc = 150 and 400
        give the same rows, with spread sqrt(0.25 s_1 + lambda_200) (past
        the active head the posterior is the prior), and the admissibility
        total is exact at any N."""
        prior, n = PriorSpec.exponential(1e-4), 1e4
        L = LinearFunctional.from_coefficients(np.r_[0.5, np.zeros(198), 1.0])
        rows = [run_interval_coverage(ExperimentConfig(
            prior=prior, n_grid=(n,), trunc=trunc, replications=50, seed=3),
            L).rows for trunc in (150, 400)]
        assert rows[0] == rows[1]
        s1 = posterior_weights(prior, heat_eigenvalues(0.1, 1), n).variance[0]
        lam = prior.variance_values(200)
        assert rows[0][0][4] == pytest.approx(
            math.sqrt(0.25 * s1 + lam[199]), rel=1e-14)
        for nn in (150, 400):
            assert check_admissible(L, prior, nn) == pytest.approx(
                0.25 * lam[0] + lam[199], rel=1e-14)


class TestRiskCurve:
    def test_exact_risk_strictly_decreasing(self):
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                               n_grid=(1e2, 1e4, 1e6), replications=30, seed=4)
        report = run_risk_curve(cfg)
        total = report.column("risk_total")
        assert np.all(np.diff(total) < 0)

    def test_zero_truth_risk_is_pure_variance(self):
        n = 1e4
        nn = default_truncation(n)
        dec = risk_decomposition(PriorSpec.exponential(1.0),
                                 heat_eigenvalues(0.1, nn), n,
                                 CoefficientSequence(np.zeros(nn), nn))
        assert dec.sq_bias == 0.0
        assert dec.total == pytest.approx(
            dec.estimator_variance + dec.posterior_spread, rel=1e-14)

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


@pytest.mark.parametrize("mu0", [Mu0Source.test_cubic(), Mu0Source.prior_draw()],
                         ids=["cubic", "prior"])
def test_report_cells_are_python_floats(mu0):
    """Every cell of the coverage and risk rows is a float, not a numpy
    scalar, for a fixed and a prior-drawn truth."""
    cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e3, 1e4),
                           replications=20, seed=3, mu0=mu0)
    reports = [run_ball_coverage(cfg),
               run_interval_coverage(cfg, LinearFunctional.point_evaluation(0.3))]
    if not mu0.is_random:
        reports.append(run_risk_curve(cfg))
    for report in reports:
        assert len(report.rows) == 2
        assert {type(cell) for row in report.rows for cell in row} == {float}


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

    def test_first_draw_values_pinned(self):
        """The first points of a panel's draws, frozen when the draws moved
        to one stream per panel, read row-major, with one normal per
        interior residue (M - 1 = 19 per draw here): a change to the draw
        layout or its streams fails here."""
        cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                               seed=7, x_grid_points=21)
        panel = render_panel(cfg, PanelSpec(prior=cfg.prior, n=1e4,
                                            data_stream=3, draws=2))
        np.testing.assert_allclose(panel.draw_curves[:, 1:4], [
            [0.5487805517746759, 0.9677285143499055, 1.3458332808125069],
            [-0.29302431252135197, -0.11917199207334425, 0.1586184990526081]],
            rtol=1e-13, atol=0.0)

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


@pytest.mark.parametrize("grid, want", [
    ((1000,), (1000.0,)),
    ([1e3, 1e4], (1e3, 1e4)),
    ((np.float64(5.0), np.int64(7)), (5.0, 7.0)),
], ids=["int", "list", "numpy"])
def test_n_grid_is_stored_as_floats(grid, want):
    """n_grid becomes a hashable tuple of Python floats, so every report's n
    cell is a float however the caller spelled n."""
    cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=grid,
                           replications=2)
    assert cfg.n_grid == want
    assert all(type(n) is float for n in cfg.n_grid)
    hash(cfg)
    if len(want) == 1:
        for report in (run_ball_coverage(cfg), run_risk_curve(cfg),
                       run_interval_coverage(
                           cfg, LinearFunctional.point_evaluation(0.5))):
            assert type(report.rows[0][0]) is float


@pytest.mark.parametrize("grid", [
    (), (True,), (np.bool_(True),), ("1e3",), (1e3, None), (0.0,), (-1e3,),
    (math.inf,), (math.nan,),
], ids=["empty", "bool", "numpy-bool", "text", "none", "zero", "negative",
        "inf", "nan"])
def test_n_grid_rejects_what_is_no_positive_number(grid):
    with pytest.raises(ValueError, match="n_grid"):
        ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=grid)


@pytest.mark.parametrize("field, value", [
    ("replications", 2.5), ("replications", True), ("replications", 0),
    ("x_grid_points", 2.5), ("x_grid_points", np.bool_(True)),
    ("trunc", 2.5), ("trunc", 0), ("trunc", "100"), ("mc_draws", 1e5),
    ("seed", -1), ("seed", 1 << 64), ("seed", 7.0),
])
def test_integer_fields_reject_what_is_no_integer_in_range(field, value):
    """Caught where the configuration is built, not later inside the
    sampler, the panel or the truncation."""
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(prior=PriorSpec.polynomial(1.0), n_grid=(1e4,),
                         **{field: value})


@pytest.mark.parametrize("field, value, match", [
    ("draws", -1, "draws"), ("draws", 2.5, "draws"), ("draws", True, "draws"),
    ("data_stream", -1, "data_stream"), ("data_stream", 1 << 64, "data_stream"),
    ("data_stream", 3.0, "data_stream"), ("n", math.nan, "n must"),
    ("n", math.inf, "n must"), ("n", 0.0, "n must"), ("n", True, "n must"),
    ("n", "1e4", "n must"),
])
def test_panel_spec_rejects_what_is_out_of_range(field, value, match):
    """Caught where the panel is specified, not later in numpy or in the
    truncation."""
    with pytest.raises(ValueError, match=match):
        PanelSpec(**{"prior": PriorSpec.polynomial(1.0), "n": 1e4,
                     "data_stream": 0, field: value})


class TestPanelFrame:
    """render_panel keeps the data-free frame of the last (prior, n) column
    (_panel_frame): a panel reads the same whether the frame was computed
    for it or reused from a sibling."""

    FIELDS = ("x", "truth", "post_mean", "lower", "upper", "draw_curves")

    @staticmethod
    def _cfg(**fields):
        return ExperimentConfig(**{"prior": PriorSpec.polynomial(1.0),
                                   "n_grid": (1e4,), "seed": 7,
                                   "x_grid_points": 41, **fields})

    @staticmethod
    def _spec(cfg, stream):
        return PanelSpec(prior=cfg.prior, n=1e4, data_stream=stream, draws=3)

    @staticmethod
    def _cold(cfg, spec):
        _panel_frame.cache_clear()
        return render_panel(cfg, spec)

    def _assert_equal(self, a, b):
        for f in self.FIELDS:
            x, y = getattr(a, f), getattr(b, f)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f

    def test_reused_frame_gives_the_cold_panel(self):
        cfg = self._cfg()
        cold = self._cold(cfg, self._spec(cfg, 3))
        self._cold(cfg, self._spec(cfg, 2))
        hits = _panel_frame.cache_info().hits
        warm = render_panel(cfg, self._spec(cfg, 3))
        assert _panel_frame.cache_info().hits == hits + 1
        self._assert_equal(cold, warm)

    def test_writing_a_panel_leaves_the_next_alone(self):
        cfg = self._cfg()
        want = self._cold(cfg, self._spec(cfg, 1))
        first = self._cold(cfg, self._spec(cfg, 0))
        for f in self.FIELDS:
            getattr(first, f)[...] = 123.0
        self._assert_equal(render_panel(cfg, self._spec(cfg, 1)), want)

    def test_frame_arrays_are_read_only(self):
        """Every array the frame keeps is read-only, and no panel field
        shares memory with one."""
        cfg = self._cfg()
        panel = self._cold(cfg, self._spec(cfg, 0))
        kappa, truth, mean_weight, curve, half = _panel_frame(
            _model(cfg, cfg.prior, 1e4, FunctionalMode.FUNCTIONAL),
            cfg.x_grid_points, cfg.gamma)
        assert _panel_frame.cache_info().hits == 1
        kept = [kappa.values, truth.values, mean_weight, curve[0].x,
                *curve[2:], half]
        assert not any(a.flags.writeable for a in kept)
        for f in self.FIELDS:
            assert not any(np.shares_memory(getattr(panel, f), a)
                           for a in kept), f

    @pytest.mark.parametrize("fields", [
        {"gamma": 0.1},
        {"time_horizon": 0.05},
        {"trunc": 5000},
        {"mu0": Mu0Source.power_law(1.5)},
        {"x_grid_points": 21},
        {"scaling": ScalingRule.rate_matched(2.0)},
        {"prior": PriorSpec.polynomial(1.0, tau=2.0)},
    ], ids=["gamma", "T", "trunc", "truth", "grid", "scaling", "tau"])
    def test_each_key_field_makes_a_new_frame(self, fields):
        base, cfg = self._cfg(), self._cfg(**fields)
        want = self._cold(cfg, self._spec(cfg, 4))
        render_panel(base, self._spec(base, 4))
        misses = _panel_frame.cache_info().misses
        got = render_panel(cfg, self._spec(cfg, 4))
        assert _panel_frame.cache_info().misses == misses + 1
        self._assert_equal(got, want)

    def test_a_frame_that_raises_is_not_kept(self):
        """A prior-draw truth has no deterministic frame: it raises on every
        call, and the frame before it stays."""
        cfg = self._cfg()
        drawn = self._cfg(mu0=Mu0Source.prior_draw())
        self._cold(cfg, self._spec(cfg, 0))
        for _ in range(2):
            misses = _panel_frame.cache_info().misses
            with pytest.raises(ValueError, match="prior-draw truth"):
                render_panel(drawn, self._spec(drawn, 0))
            assert _panel_frame.cache_info().misses == misses + 1
        hits = _panel_frame.cache_info().hits
        render_panel(cfg, self._spec(cfg, 1))
        assert _panel_frame.cache_info().hits == hits + 1

    def test_prior_dominated_panel_warns_on_every_call(self):
        """check_snr's warning fires once per panel, on a miss and on a hit."""
        cfg = self._cfg(prior=PriorSpec.polynomial(1.0, tau=0.005))
        _panel_frame.cache_clear()
        for stream in range(3):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                render_panel(cfg, self._spec(cfg, stream))
            assert [w.category for w in caught] == [UserWarning]
            assert "prior-dominated" in str(caught[0].message)


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

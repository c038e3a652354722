"""Crossover indices, damped-series values, Sobolev suprema, weighted-sum
traces, and the integral estimates, each against an independent oracle."""

import json
import math
import os

import numpy as np
import pytest
from scipy.special import exp1, zeta

from heatbayes.asymptotics import (
    LemmaParams,
    crossover_index,
    crossover_index_lambertw,
    crossover_residual,
    integral_bound_check,
    lemma_csbound_check,
    lemma_csbound_value,
    lemma_fixed_sequence_trace,
    lemma_norm_sup,
    lemma_norm_trace,
    lemma_series_trace,
    lemma_series_value,
    sobolev_blocks_decreasing,
    standard_lemma_suite,
)
from heatbayes.sequence import CoefficientSequence


def brute_series(t, r, u, p, v, N, M=2_000_000):
    """Plain vectorized summation oracle in float128-free double, long range;
    for r = 0 the terms past M are i^-t to double precision and add
    zeta(t, M + 1)."""
    i = np.arange(1, M + 1, dtype=float)
    x = math.log(N) - u * np.log(i) - p * i**2
    denom_log = v * np.where(x > 40, x, np.log1p(np.exp(np.minimum(x, 40))))
    lt = -t * np.log(i) - r * i**2 - denom_log
    head = float(np.exp(lt[lt > -745]).sum())
    return head + float(zeta(t, M + 1)) if r == 0 else head


class TestCrossoverIndex:
    def test_closed_form_u_zero(self):
        val = crossover_index(math.exp(100.0), 0.0, 1.0)
        assert val == pytest.approx(10.0, rel=1e-12)

    def test_defining_equation_residual(self):
        for N in (1e4, 1e8, 1e12, 1e16):
            for u, p in ((0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (3.0, 0.5)):
                _, resid = crossover_residual(N, u, p)
                assert resid <= 1e-10, (N, u, p, resid)

    def test_lambertw_cross_check(self):
        for N in (1e4, 1e12):
            for u, p in ((1.0, 1.0), (2.0, 3.0)):
                a = crossover_index(N, u, p)
                b = crossover_index_lambertw(N, u, p)
                assert a == pytest.approx(b, rel=1e-9)

    def test_asymptote_ratio_at_1e12(self):
        root = crossover_index(1e12, 1.0, 1.0)
        ratio = root / math.sqrt(math.log(1e12))
        assert abs(ratio - 1.0) < 0.05

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            crossover_index(1.0, 1.0, 1.0)


class TestLemmaSeriesValue:
    def test_undamped_denominator_limit(self):
        """N -> 0 proxy: the sum collapses to sum e^{-i^2}.

        Frozen from the direct oracle: 0.38631860241327627.
        """
        val = lemma_series_value(LemmaParams(t=0, r=1, u=1, p=2, v=1), 1e-12)
        assert val == pytest.approx(0.38631860241327627, rel=1e-12)
        assert val == pytest.approx(
            float(sum(math.exp(-k * k) for k in range(1, 10))), rel=1e-12)

    def test_against_brute_force(self):
        for params, N in [
            (LemmaParams(t=2, r=1, u=1, p=2, v=2), 1e8),
            (LemmaParams(t=3, r=0, u=1, p=2, v=1), 1e4),
            (LemmaParams(t=1.5, r=0.5, u=0, p=1, v=1), 1e6),
            (LemmaParams(t=1.01, r=0, u=1, p=2, v=1), 1e4),
            (LemmaParams(t=1.5, r=0, u=3, p=0.5, v=2), 1e100),
            (LemmaParams(t=3, r=0), 1e-12),
        ]:
            mine = lemma_series_value(params, N)
            oracle = brute_series(params.t, params.r, params.u, params.p,
                                  params.v, N)
            assert mine == pytest.approx(oracle, rel=1e-10)

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            lemma_series_value(LemmaParams(t=2, r=4.0, u=1, p=2, v=2), 1e4)
        with pytest.raises(ValueError):
            lemma_series_value(LemmaParams(t=0.5, r=0, u=1, p=2, v=1), 1e4)

    def test_rejects_grid_values_at_most_one(self):
        """The envelopes take powers of log N, which vanishes at N = 1."""
        with pytest.raises(ValueError):
            LemmaParams(N_grid=(1.0,))
        with pytest.raises(ValueError):
            LemmaParams(N_grid=(1e4, 0.5))
        with pytest.raises(ValueError, match="finite"):
            LemmaParams(N_grid=(1e4, math.inf))

    def test_undamped_band_within_factor_four(self):
        trace = lemma_series_trace(LemmaParams(t=3, r=0, u=1, p=2, v=1))
        assert np.all(trace.ratio > 0)
        assert trace.band() <= 4.0

    def test_damped_trace_is_finite_and_positive(self):
        """The damped-series envelope comparison: the integer lattice makes
        the ratio oscillate far beyond any constant band (the continuum
        peak falls between integers), so only positivity and finiteness
        are structural here."""
        trace = lemma_series_trace(LemmaParams(t=2, r=1, u=1, p=2, v=2))
        assert np.all(np.isfinite(trace.ratio))
        assert np.all(trace.ratio > 0)


class TestLemmaNormSup:
    def test_high_q_concentrates_on_first_coordinate(self):
        """q large enough that i^{-2q} beats the damped denominator at i=1."""
        params = LemmaParams(q=15.0, t=0, r=0, u=1, p=2, v=2)
        N = 1e6
        sup = lemma_norm_sup(params, N)
        a1 = 1.0 / (1.0 + N * math.exp(-2.0)) ** 2
        assert sup == pytest.approx(a1, rel=1e-12)

    def test_matches_brute_force_ball_maximization(self):
        """Random probes of the Sobolev ball never beat the coordinate max."""
        params = LemmaParams(q=1.0, t=0, r=0, u=1, p=2, v=2)
        N = 1e8
        sup = lemma_norm_sup(params, N)
        nn = 1000
        i = np.arange(1, nn + 1, dtype=float)
        x = math.log(N) - np.log(i) - 2 * i**2
        a = np.exp(-2 * np.where(x > 40, x, np.log1p(np.exp(np.minimum(x, 40)))))
        assert sup == pytest.approx(float((a * i**-2.0).max()), rel=1e-12)
        rng = np.random.default_rng(3)
        for _ in range(500):
            xi = rng.standard_normal(nn)
            xi /= math.sqrt(float((xi**2 * i**2.0).sum()))  # ||xi||_q = 1
            val = float((xi**2 * a).sum())
            assert val <= sup * (1 + 1e-12)

    def test_damped_sup_against_long_coordinate_max(self):
        """r > 0: the sup is found inside the damping head, whatever the
        r-decay length."""
        for params, N in [(LemmaParams(q=0.5, t=1.0, r=0.5, u=1, p=2, v=2), 1e8),
                          (LemmaParams(q=0.0, t=0.0, r=1e-4, u=0, p=1, v=1), 1e12)]:
            i = np.arange(1, 20_001, dtype=float)
            x = math.log(N) - params.u * np.log(i) - params.p * i**2
            denom = np.where(x > 40, x, np.log1p(np.exp(np.minimum(x, 40))))
            lt = (-(params.t + 2 * params.q) * np.log(i) - params.r * i**2
                  - params.v * denom)
            assert lemma_norm_sup(params, N) == pytest.approx(
                math.exp(float(lt.max())), rel=1e-14)

    def test_band_within_factor_four(self):
        trace = lemma_norm_trace(LemmaParams(q=1, t=0, r=0, u=1, p=2, v=2))
        assert trace.band() <= 4.0

    def test_fixed_sequence_normalized_decay(self):
        """xi_i = i^{-q-1}: the normalized series decreases toward zero."""
        params = LemmaParams(q=1, t=0, r=0, u=1, p=2, v=2)
        trace = lemma_fixed_sequence_trace(params, params.q + 1.0)
        assert np.all(np.diff(trace.ratio) < 0)

    def test_degenerate_boundary_case(self):
        """t + 2q = 0 with r = 0: terms climb to 1 as the damping dies, so
        the supremum is the limit value 1."""
        assert lemma_norm_sup(LemmaParams(q=-0.5, t=1.0, r=0, u=1, p=2, v=1),
                              1e6) == 1.0
        assert lemma_norm_sup(LemmaParams(q=0.0, t=0.0, r=0, u=1, p=2, v=2),
                              1e6) == 1.0
        assert lemma_norm_sup(LemmaParams(q=0.0, t=0.5, r=0, u=1, p=2, v=2),
                              1e6) < 1.0


class TestLemmaCsbound:
    def _params(self):
        return LemmaParams(t=2.0, q=0.5, u=1.0, p=2.0)

    def test_single_coordinate_reduces(self):
        mu = CoefficientSequence(np.array([1.0] + [0.0] * 15), 16)
        val = lemma_csbound_value(mu, self._params(), 1e4)
        assert val == pytest.approx(1.0 / (1.0 + 1e4 * math.exp(-2.0)),
                                    rel=1e-12)

    def test_membership_surrogate_accepts_and_rejects(self):
        nn = 10_000
        i = np.arange(1, nn + 1, dtype=float)
        inside = CoefficientSequence(i**-1.51, nn)
        outside = CoefficientSequence(i**-1.49, nn)
        assert sobolev_blocks_decreasing(inside, 2.0)
        assert not sobolev_blocks_decreasing(outside, 2.0)
        lemma_csbound_check(inside, self._params())
        with pytest.raises(ValueError):
            lemma_csbound_check(outside, self._params())

    def test_single_coordinate_trace_vanishes(self):
        mu = CoefficientSequence(np.array([1.0] + [0.0] * 15), 16)
        trace = lemma_csbound_check(mu, self._params())
        assert np.all(np.diff(trace.exact) < 0)
        assert np.all(np.diff(trace.ratio) < 0)

    def test_value_against_direct_sum(self):
        nn = 10_000
        i = np.arange(1, nn + 1, dtype=float)
        mu = CoefficientSequence(i**-1.51, nn)
        params = self._params()
        N = 1e8
        mine = lemma_csbound_value(mu, params, N)
        x = math.log(N) - np.log(i) - 2.0 * i**2
        denom = 1.0 + np.exp(np.minimum(x, 700))
        oracle = float((i**-1.51 * i**-1.0 / denom).sum())
        assert mine == pytest.approx(oracle, rel=1e-10)


class TestIntegralBounds:
    def test_growth_ratio_closed_form(self):
        """gamma = 1: the antiderivative gives ratio 1 - e^{zeta(1-K^2)}."""
        report = integral_bound_check(1.0, 1.0, (2.0, 5.0, 30.0))
        expect = [1.0 - math.exp(1.0 - K * K) for K in (2.0, 5.0, 30.0)]
        np.testing.assert_allclose(report.part1.ratio, expect, rtol=1e-8)

    def test_growth_ratio_approaches_one(self):
        report = integral_bound_check(1.5, 0.7, (2.0, 5.0, 10.0, 30.0))
        assert np.all(np.diff(np.abs(report.part1.ratio - 1.0)) < 0)
        assert abs(report.part1.ratio[-1] - 1.0) < 0.02

    def test_tail_bound_holds_with_slack(self):
        report = integral_bound_check(1.0, 1.0, (2.0, 5.0, 10.0))
        assert np.all(report.part2.ratio <= 1.0)
        # K=2 oracle: int_2^inf e^{-x^2}/x dx = E1(4)/2
        lhs = 0.5 * float(exp1(4.0))
        rhs = math.exp(-4.0) / 8.0
        assert report.part2.ratio[0] == pytest.approx(lhs / rhs, rel=1e-8)

    def test_large_zeta_stays_bounded(self):
        report = integral_bound_check(1.0, 50.0, (2.0, 3.0))
        assert np.all(report.part2.ratio <= 1.0)
        assert np.all(report.part2.ratio > 0.9)

    def test_constraint_validation(self):
        with pytest.raises(ValueError):
            integral_bound_check(1.0, -1.0, (2.0,))
        with pytest.raises(ValueError):
            integral_bound_check(1.0, 1.0, (0.5,))
        with pytest.raises(ValueError):
            integral_bound_check(-1.0, 1.0, (2.0,))
        with pytest.raises(ValueError):
            integral_bound_check(-1.0, 1.0, ())


class TestStandardSuite:
    def test_runs_and_tabulates(self):
        report = standard_lemma_suite((1e4, 1e8))
        columns, rows = report.to_table()
        assert "ratio" in columns
        names = {row[0] for row in rows}
        assert {"series-damped", "series-undamped", "norm-sup",
                "norm-fixed-sequence", "weighted-sum",
                "integral-growth", "integral-tail"} <= names
        assert any(str(row[0]).startswith("crossover") for row in rows)

    def test_default_grid_matches_benchmark_reference(self):
        """The benchmark's lemma job compares this table with its stored
        reference at relative 1e-9; strings and infinities must be equal."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                            "reference", "lemma_suite.json")
        with open(path, encoding="utf-8") as fh:
            ref = json.load(fh)
        columns, rows = standard_lemma_suite().to_table()
        assert list(columns) == ref["columns"]
        assert len(rows) == len(ref["rows"])
        for got, want in zip(rows, ref["rows"]):
            for g, w in zip(got, want):
                if isinstance(w, str) or math.isinf(w):
                    assert g == w, (got, want)
                else:
                    assert g == pytest.approx(w, rel=1e-9, abs=0.0), (got, want)

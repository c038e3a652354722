"""Prior variance families and rate-matched scaling."""

import math

import numpy as np
import pytest

from heatbayes import PriorFamily, PriorSpec, prior_variances, rate_matched_tau
from heatbayes.priors import FunctionalMode, ScalingRule


class TestPriorVariances:
    def test_polynomial_values(self):
        lam = prior_variances(PriorSpec.polynomial(1.0, 1.0), 4)
        assert lam.values[1] == pytest.approx(0.125, rel=0)
        lam10 = prior_variances(PriorSpec.polynomial(1.0, 10.0), 1)
        assert lam10.values[0] == pytest.approx(100.0, rel=0)

    def test_exponential_values(self):
        """Frozen from direct evaluation of e^{-alpha i^2}."""
        lam = prior_variances(PriorSpec.exponential(1.0), 3)
        assert lam.values[1] == pytest.approx(0.01831563888873418, rel=1e-15)
        assert lam.values[1] == pytest.approx(math.exp(-4.0), rel=0)

    def test_tau_scaling_multiplicative(self):
        base = prior_variances(PriorSpec.polynomial(1.5, 1.0), 50).values
        scaled = prior_variances(PriorSpec.polynomial(1.5, 3.0), 50).values
        np.testing.assert_array_equal(scaled, 9.0 * base)

    def test_positive_and_decreasing_in_log(self):
        for spec in (PriorSpec.polynomial(0.5), PriorSpec.exponential(2.0)):
            logs = spec.log_variances(300)
            assert np.all(np.isfinite(logs))
            assert np.all(np.diff(logs) < 0)

    def test_tail_tol_honest(self):
        for spec in (PriorSpec.polynomial(1.0), PriorSpec.exponential(0.5)):
            a = prior_variances(spec, 120)
            b = prior_variances(spec, 240)
            moved = b.values.sum() - a.values.sum()
            assert 0 <= moved <= a.tail_tol

    def test_validation(self):
        with pytest.raises(ValueError):
            PriorSpec.polynomial(0.0)
        with pytest.raises(ValueError):
            PriorSpec.polynomial(1.0, tau=-1.0)
        with pytest.raises(ValueError):
            PriorSpec(PriorFamily.EXPONENTIAL, 1.0, tau=2.0)
        with pytest.raises(ValueError, match="alpha"):
            PriorSpec.exponential(math.inf)
        with pytest.raises(ValueError, match="tau"):
            PriorSpec.polynomial(1.0, tau=math.inf)


class TestRateMatchedTau:
    def test_equal_smoothness_is_unit(self):
        assert rate_matched_tau(2.0, 2.0, 1e6) == 1.0

    def test_full_mode_value(self):
        """(log n)^((alpha-beta)/2) at n = e^100: 100^{-1/2} = 0.1."""
        val = rate_matched_tau(1.0, 2.0, math.exp(100.0))
        assert val == pytest.approx(0.1, rel=1e-13)

    def test_functional_mode_exponent_shift(self):
        val = rate_matched_tau(1.0, 1.5, math.exp(100.0),
                               FunctionalMode.FUNCTIONAL)
        assert val == pytest.approx(1.0, rel=1e-13)

    def test_requires_n_above_e(self):
        with pytest.raises(ValueError):
            rate_matched_tau(1.0, 2.0, 2.0)


class TestScalingRule:
    def test_fixed_passthrough(self):
        prior = PriorSpec.polynomial(1.0, 3.0)
        assert ScalingRule.fixed().resolve(prior, 1e4) is prior

    def test_matched_resolves_tau(self):
        rule = ScalingRule.rate_matched(2.5)
        prior = rule.resolve(PriorSpec.polynomial(1.0), 1e8)
        assert prior.tau == pytest.approx(
            math.log(1e8) ** ((1.0 - 2.5) / 2.0), rel=1e-13)

    def test_matched_rejects_exponential(self):
        rule = ScalingRule.rate_matched(2.0)
        with pytest.raises(ValueError):
            rule.resolve(PriorSpec.exponential(1.0), 1e8)

    def test_needs_beta(self):
        for bad in (lambda: ScalingRule.rate_matched(None),
                    lambda: ScalingRule.rate_matched(0.0),
                    lambda: ScalingRule(-1.0), lambda: ScalingRule(math.nan)):
            with pytest.raises(ValueError):
                bad()
        assert ScalingRule() == ScalingRule.fixed()


class TestLowSnrWarning:
    def test_warns_below_unit_snr(self):
        from heatbayes import heat_eigenvalues, posterior_weights
        kap = heat_eigenvalues(0.1, 10)
        with pytest.warns(UserWarning, match="tau"):
            posterior_weights(PriorSpec.polynomial(1.0, 0.001), kap, 10.0)

    def test_silent_above(self):
        import warnings
        from heatbayes import heat_eigenvalues, posterior_weights
        kap = heat_eigenvalues(0.1, 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            posterior_weights(PriorSpec.polynomial(1.0), kap, 10.0)

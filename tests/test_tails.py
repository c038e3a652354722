"""Sums past the active head against brute-force N-term references.

Past N_h, the last index with kappa_i > 0, the posterior of each
coordinate is its prior, so render_panel and run_interval_coverage sum
those coordinates in closed form over residues instead of building arrays
of length N.  Each test here compares head plus closed-form tail with a
sum over all N coordinates from tests/oracles.py.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta
from scipy.stats import norm
from oracles import (
    grid_curves_reference,
    model_factors_reference,
    point_sums_reference,
    residue_bins_reference,
)

from heatbayes import (
    ExperimentConfig,
    LinearFunctional,
    Mu0Source,
    PriorSpec,
    admissible_truncation,
    heat_eigenvalues,
    posterior_weights,
    render_panel,
    run_interval_coverage,
    simulate_observations,
)
from heatbayes.cli import EXIT_CONFIG, EXIT_OK, main
from heatbayes.io import read_dataset
from heatbayes.experiments import Mu0Kind, PanelSpec, figure_three_panels
from heatbayes.functionals import (
    ADMISSIBLE_TAIL,
    InadmissibleFunctionalError,
    functional_moments,
    point_evaluation_curves,
)
from heatbayes import experiments, sequence
from heatbayes.priors import FunctionalMode
from heatbayes.rng import substream
from heatbayes.sequence import (
    GridSynthesis,
    _shifted_power_sums,
    active_head,
    power_sums,
)

PRIORS = ([PriorSpec.polynomial(a, tau) for a in (0.5, 1.0, 3.0)
           for tau in (1.0, 2.5)]
          + [PriorSpec.exponential(a) for a in (0.5, 5.0)])
PRIOR_IDS = [f"{p.kind.value[:4]}-a{p.alpha:g}-tau{p.tau:g}" for p in PRIORS]
TIMES = (0.01, 0.1)
SNR = 1e4
XS = (0.0, 0.3, 1.0 / 3.0, 0.37, 0.5, 1.0)


def _cubic(i):
    sign = np.where(i % 2 == 0, 1.0, -1.0)
    return 8.0 * math.sqrt(2.0) * (13.0 + 11.0 * sign) / (math.pi**3 * i**3)


# (truth, its coefficients as a function of the index array)
TRUTHS = (
    (Mu0Source.test_cubic(), _cubic),
    (Mu0Source.power_law(1.5), lambda i: i ** -2.01),
)
# power laws with exponents s = 1/2 + beta + eps <= 1, at or below the
# Hurwitz zeta's pole: their sums grow with N, so they are checked relative
# to size
ROUGH_TRUTHS = (
    (Mu0Source.power_law(0.3), lambda i: i ** -(0.5 + 0.3 + 0.01)),
    (Mu0Source.power_law(0.49), lambda i: i ** -1.0),
)


def _levels(time_horizon, *more):
    """N below, at and just past N_h, then larger truncations."""
    nh = active_head(time_horizon, 10**9)
    return (nh - 5, nh, nh + 1) + more


def _head(prior, time_horizon, nn):
    nh = active_head(time_horizon, nn)
    return nh, posterior_weights(prior, heat_eigenvalues(time_horizon, nh), SNR)


def _assert_rel(got, want, rtol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * np.abs(want)), \
        np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300))


def test_active_head_counts_nonzero_eigenvalues():
    for t in (0.001, 0.01, 0.1, 1.0, 10.0, 80.0):
        for nn in (1, 5, 30, 100, 100_000):
            kappa = heat_eigenvalues(t, nn).values
            assert active_head(t, nn) == max(1, np.count_nonzero(kappa))
            assert np.all(kappa[active_head(t, nn):] == 0.0)
    assert active_head(1e-320, 1000) == 1000  # no overflow for tiny T
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            active_head(bad, 10)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5, 0.81, 1.0, 1.0 + 1e-9, 1.1,
                               1.49, 1.5, 2.0, 3.0, 7.0])
def test_power_sums_against_direct_bins(s):
    for first, last in ((1, 1), (5, 4), (3, 40), (28, 10_000),
                        (9_000, 10_000), (28, 200_003)):
        i = np.arange(1, last + 1, dtype=float)
        terms = np.where(i >= first, i ** -s, 0.0)
        _assert_rel(power_sums(s, first, last), terms[first - 1:], 0.0)
        for period in (1, 2, 7, 40, 400):
            got = power_sums(s, first, last, period)
            _assert_rel(got, residue_bins_reference(terms, period), 1e-12)



@pytest.mark.parametrize("s", [1.001, 1.5, 2.0, 3.0, 7.0, 21.0])
def test_power_sums_to_infinity_against_hurwitz_zeta(s):
    """An infinite end sums residue r to P^-s zeta(s, i_r / P)."""
    for first in (1, 17, 28, 10**6):
        for period in (1, 2, 40):
            lo = first + (np.arange(period) - first) % period
            want = hurwitz_zeta(s, lo / period) * period ** -s
            _assert_rel(power_sums(s, first, math.inf, period), want, 1e-14)
    with pytest.raises(ValueError):
        power_sums(s, 1, math.inf)

# the grid of the _shifted_power_sums docstring: exponents, shifts and
# counts, where counts above 1e3 take a difference of 40-digit zeta values
KERNEL_EXPONENTS = (-1.0, -0.5, 0.0, 0.5, 0.81, 1.0, 1.0 + 1e-9, 1.5, 2.0,
                    3.0, 7.0, 11.0)
KERNEL_SHIFTS = (0.0025, 0.3, 1.0, 17.5, 1234.5678, 2.5e6)
KERNEL_COUNTS = (1, 2, 15, 16, 17, 40, 1000, 10**5, 10**7, 10**9, math.inf)


def _kernel_reference(s, q, count):
    """sum_{k < count} (q + k)^-s to 40 digits: term by term for counts up
    to 1e3 (where a zeta difference can be off by 1e-14), by digamma at
    s = 1 and by Hurwitz zeta values otherwise."""
    import mpmath
    with mpmath.workdps(40):
        ms, mq = mpmath.mpf(s), mpmath.mpf(q)
        if count <= 1000:
            return mpmath.fsum((mq + k) ** -ms for k in range(count))
        if math.isinf(count):
            return mpmath.zeta(ms, mq)
        if s == 1.0:
            return mpmath.digamma(mq + count) - mpmath.digamma(mq)
        return mpmath.zeta(ms, mq) - mpmath.zeta(ms, mq + count)


@pytest.mark.parametrize("s", KERNEL_EXPONENTS)
def test_shifted_power_sums_against_40_digits(s):
    """The kernel's accuracy claim: within 2.5e-15 relative (1.9e-15 at
    worst, at s = -0.5) over the docstring's grid; infinite counts for
    s > 1 only, and q + count <= 1e6 for s < 0, where a 40-digit zeta at
    large integer arguments takes seconds."""
    import mpmath
    for q in KERNEL_SHIFTS:
        counts = [c for c in KERNEL_COUNTS
                  if (s > 1 or not math.isinf(c)) and (s >= 0 or q + c <= 1e6)]
        got = _shifted_power_sums(s, np.full(len(counts), q),
                                  np.array(counts, dtype=float))
        for value, count in zip(got, counts):
            want = _kernel_reference(s, q, count)
            err = abs((mpmath.mpf(float(value)) - want) / want)
            assert err <= 2.5e-15, (q, count, float(err))


def test_power_sums_with_several_starts():
    """Several starts that share last and period give one row per start,
    each the bins of its own range (to rounding), from one kernel call;
    the exponential family's rows are its direct sums row by row."""
    for s in (0.5, 2.0, 3.0):
        for period in (1, 4, 40, 400):
            starts = (28, 9_118_908, 10_132_119)
            rows = power_sums(s, starts, 10_132_119, period)
            assert rows.shape == (3, period)
            for row, first in zip(rows, starts):
                _assert_rel(row, power_sums(s, first, 10_132_119, period),
                            1e-14)
    rows = power_sums(3.0, (28, 91), 100, 400)  # shorter than the period
    assert np.array_equal(rows, [power_sums(3.0, 28, 100, 400),
                                 power_sums(3.0, 91, 100, 400)])
    prior = PriorSpec.exponential(0.5)
    rows = prior.variance_sums((28, 31), 40, 4)
    assert np.array_equal(rows, [prior.variance_sums(28, 40, 4),
                                 prior.variance_sums(31, 40, 4)])
    for bad in (lambda: power_sums(2.0, (1, 5), 10),
                lambda: prior.variance_sums((1, 5), 10)):
        with pytest.raises(ValueError, match="need a period"):
            bad()


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = sequence._shifted_power_sums

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(sequence, "_shifted_power_sums", counted)
    return calls


def test_rough_panel_and_interval_make_three_kernel_calls(monkeypatch):
    """The fig3 alpha = 0.5 panel on 21 points, and the interval at x = 1/2
    per n, each take admissible_truncation's zeta, one call for the prior
    tail and its last decade, and one for the truth's tail."""
    experiments._panel_frame.cache_clear()
    spec = next(s for s in figure_three_panels()
                if s.prior.alpha == 0.5 and s.n == 1e4)
    calls = _count_kernel_calls(monkeypatch)
    render_panel(ExperimentConfig(prior=spec.prior, n_grid=(1e4,),
                                  replications=1, x_grid_points=21), spec)
    assert len(calls) <= 3
    calls.clear()
    run_interval_coverage(
        ExperimentConfig(prior=spec.prior, n_grid=(1e4, 1e8), replications=2),
        LinearFunctional.point_evaluation(0.5))
    assert len(calls) <= 2 * 3


def test_interval_doubling_builds_its_head_once(monkeypatch):
    """x = 0.01 under poly alpha = 1 doubles N from 3826 to 61,216 with
    N_h = 27 throughout: posterior_weights runs once per n."""
    calls = []
    weights = experiments.posterior_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    monkeypatch.setattr(experiments, "posterior_weights", counted)
    cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                           n_grid=(1e4, 1e8), replications=2)
    rows = run_interval_coverage(
        cfg, LinearFunctional.point_evaluation(0.01)).rows
    assert len(rows) == len(calls) == 2


def _count_weights(monkeypatch):
    """The posterior_weights calls of every module that makes them."""
    from heatbayes import credible, posterior
    calls = []
    weights = posterior.posterior_weights

    def counted(*args):
        calls.append(args)
        return weights(*args)

    for module in (experiments, credible, posterior):
        monkeypatch.setattr(module, "posterior_weights", counted)
    return calls


def test_ball_and_risk_weigh_each_n_once(monkeypatch):
    """The credible radius, the honest radius, the draws and the risk split
    of one n all read one frame: posterior_weights runs once per n."""
    calls = _count_weights(monkeypatch)
    cfg = ExperimentConfig(prior=PriorSpec.polynomial(1.0),
                           n_grid=(1e4, 1e8), replications=2)
    for run in (experiments.run_ball_coverage, experiments.run_risk_curve):
        calls.clear()
        assert len(run(cfg).rows) == len(calls) == 2


@pytest.mark.parametrize("truth", [t for t, _ in TRUTHS],
                         ids=["cubic", "power-law"])
@pytest.mark.parametrize("time_horizon", (0.01, 0.1, 1.0))
@pytest.mark.parametrize("n", (1e2, 1e6, 1e12))
@pytest.mark.parametrize("prior", [
    PriorSpec.polynomial(0.1), PriorSpec.polynomial(1.0, 2.5),
    PriorSpec.polynomial(5.0), PriorSpec.exponential(0.5),
    PriorSpec.exponential(5.0)], ids=lambda p: f"{p.kind.value[:4]}-a{p.alpha:g}")
@pytest.mark.parametrize("trunc", (None, 5000))
def test_frame_head_plus_prior_tail_is_the_full_model(trunc, prior, n,
                                                      time_horizon, truth):
    """The frame's head, then the prior-only tail past N_h (w = g = 0,
    1 - g = 1, s = lambda, t = 0, mu0 from its sums), equals
    posterior_weights and realize over all N byte for byte, and so do the
    arrays ball and risk read."""
    cfg = ExperimentConfig(prior=prior, n_grid=(n,), mu0=truth, trunc=trunc,
                           replications=2, time_horizon=time_horizon)
    model = experiments._model(cfg, prior, n, FunctionalMode.FULL)
    kappa, w, head_truth = model.head
    nh, nn = len(kappa), model.nn
    assert nh < nn
    full = posterior_weights(prior, heat_eigenvalues(time_horizon, nn), n)
    lam, zero = prior.variance_sums(nh + 1, nn), np.zeros(nn - nh)
    for name, tail in (("lam", lam), ("mean_weight", zero), ("gain", zero),
                       ("one_minus_gain", np.ones(nn - nh)),
                       ("variance", lam), ("shrink_var", zero)):
        got = np.concatenate((getattr(w, name), tail))
        assert got.tobytes() == getattr(full, name).tobytes(), name
    mu0 = truth.realize(nn).values
    got = np.concatenate((head_truth.values, truth.sums(nh + 1, nn)))
    assert got.tobytes() == mu0.tobytes()
    s, t, bias, _ = experiments._squared_errors(cfg, 0, n, "ball")
    for got, want in ((s, full.variance), (t, full.shrink_var),
                      (bias, -mu0 * full.one_minus_gain)):
        assert got.tobytes() == want.tobytes()


def test_truth_sums_against_direct_bins():
    """Every truth's sums; the cubic's need an even period (the 2M of a grid
    or the 2q of x = p/q), the others take any."""
    for first, last in ((1, 1), (28, 30), (28, 10_000), (87, 200_003)):
        i = np.arange(1, last + 1, dtype=float)
        for source, coefficients in TRUTHS + ROUGH_TRUTHS:
            rough = (source, coefficients) in ROUGH_TRUTHS
            terms = np.where(i >= first, coefficients(i), 0.0)
            assert np.abs(source.sums(first, last)
                          - terms[first - 1:]).max(initial=0.0) <= 1e-15
            odd = () if source.kind is Mu0Kind.TEST_CUBIC else (1, 7)
            for period in odd + (2, 40, 400):
                got = source.sums(first, last, period)
                want = residue_bins_reference(terms, period)
                if rough:
                    _assert_rel(got, want, 1e-12)
                else:
                    assert np.abs(got - want).max() <= 1e-15
    for period in (1, 7):
        with pytest.raises(ValueError):
            Mu0Source.test_cubic().sums(28, 10_000, period)


def test_power_law_truth_must_be_square_summable():
    for beta, eps in ((-0.01, 0.01), (-1.0, 0.01), (0.0, 0.0)):
        with pytest.raises(ValueError):
            Mu0Source.power_law(beta, eps)
    Mu0Source.power_law(0.0)  # beta + eps = 0.01
    assert main(["coverage", "--kind", "interval", "--mu0", "power",
                 "--mu0-beta", "-0.5", "--reps", "2"]) == EXIT_CONFIG


@pytest.mark.parametrize("time_horizon", TIMES)
@pytest.mark.parametrize("prior", PRIORS, ids=PRIOR_IDS)
def test_grid_bins_and_curves(prior, time_horizon):
    """Variance and truth bins (head fold plus closed-form tail, folded
    onto the interior residues r = 1..M-1 as v_r + v_(2M-r) and
    b_r - b_(2M-r)) and the sd and truth curves on x_k = k/M, for N around
    N_h and well past it."""
    for nn in _levels(time_horizon, 2_000, 100_003):
        nh, w = _head(prior, time_horizon, nn)
        i = np.arange(1, nn + 1, dtype=float)
        f = model_factors_reference(prior, SNR, time_horizon, i)
        for m in (1, 2, 20, 200):
            syn = GridSynthesis(np.linspace(0.0, 1.0, m + 1))
            r = np.arange(1, m)
            var_b = syn.bins(w.variance,
                             prior.variance_sums(nh + 1, nn, syn.period),
                             squared=True)
            want_v = residue_bins_reference(f["s"], syn.period)
            _assert_rel(var_b, want_v[r] + want_v[2 * m - r], 1e-12)
            for source, coefficients in TRUTHS + ROUGH_TRUTHS:
                truth = coefficients(i)
                truth_b = syn.bins(source.realize(nh).values,
                                   source.sums(nh + 1, nn, syn.period))
                want_b = residue_bins_reference(truth, syn.period)
                want_b = want_b[r] - want_b[2 * m - r]
                assert np.abs(truth_b - want_b).max(initial=0.0) <= 1e-12
                curves, s2 = syn.curves(truth_b[:, None], var_b)
                sd, truth_x = grid_curves_reference(f, truth, m)
                _assert_rel(np.sqrt(s2), sd, 1e-12)
                assert np.abs(curves[:, 0] - truth_x).max() <= 1e-12


def _check_moments(prior, time_horizon, nn, xs):
    """s_n^2, t_n^2 and the bias of point evaluations, and their
    admissibility verdicts, against the N-term reference."""
    truths = TRUTHS + ROUGH_TRUTHS
    nh, w = _head(prior, time_horizon, nn)
    refs = point_sums_reference(prior, SNR, time_horizon, nn, xs,
                                [c for _, c in truths])
    for x, (s2, t2, biases, decade) in zip(xs, refs):
        L = LinearFunctional.point_evaluation(x)
        if not decade < ADMISSIBLE_TAIL:
            with pytest.raises(InadmissibleFunctionalError):
                functional_moments(L, w, prior, nn)
            continue
        got_s2, got_t2, got_bias = functional_moments(L, w, prior, nn)
        _assert_rel(got_s2, s2, 1e-12)
        _assert_rel(got_t2, t2, 1e-12)
        assert got_bias == 0.0
        for (source, _), bias in zip(truths, biases):
            moments = functional_moments(L, w, prior, nn,
                                         source.realize(nh).values,
                                         source.sums)
            assert moments[:2] == (got_s2, got_t2)
            assert abs(moments[2] - bias) <= 1e-12, (nn, x, source)


@pytest.mark.parametrize("time_horizon", TIMES)
@pytest.mark.parametrize("prior", PRIORS, ids=PRIOR_IDS)
def test_point_evaluation_moments(prior, time_horizon):
    """At N around N_h (inadmissible for rough priors: the verdict is
    checked) and at the admissible truncation where it is moderate."""
    nn = admissible_truncation(prior)
    for nn in _levels(time_horizon, *([nn] if nn <= 100_000 else [])):
        _check_moments(prior, time_horizon, nn, XS)


@pytest.mark.parametrize("tau,time_horizon", [(1.0, 0.1), (2.5, 0.01)])
def test_point_evaluation_moments_rough_truncation(tau, time_horizon):
    """poly alpha = 0.5 at its admissible truncation N = 10,132,119, the
    level of the interval and panel workloads."""
    prior = PriorSpec.polynomial(0.5, tau)
    _check_moments(prior, time_horizon, admissible_truncation(prior),
                   (0.3, 1.0 / 3.0, 0.37, 0.5))


def test_point_evaluation_at_a_numpy_float():
    """x given as a numpy float32 takes the path of the same float64 x."""
    prior = PriorSpec.polynomial(1.0)
    nn = admissible_truncation(prior)
    nh, w = _head(prior, 0.1, nn)
    for x in (0.5, 0.3):
        L = LinearFunctional.point_evaluation(np.float32(x))
        want = LinearFunctional.point_evaluation(float(np.float32(x)))
        assert (functional_moments(L, w, prior, nn)
                == functional_moments(want, w, prior, nn))


def test_tail_needs_one_sum_per_extra_column():
    prior = PriorSpec.exponential(1.0)
    nh, w = _head(prior, 0.1, 300)
    with pytest.raises(ValueError):
        point_evaluation_curves(w, np.zeros(nh), np.linspace(0.0, 1.0, 5),
                                extra_coefficients=np.zeros((nh, 1)),
                                prior=prior, truncation_level=300)
    with pytest.raises(ValueError, match="prior"):  # and a prior
        point_evaluation_curves(w, np.zeros(nh), np.linspace(0.0, 1.0, 5),
                                truncation_level=300)


def test_non_uniform_grid_tail_is_per_index():
    """Off the uniform grid the tail keeps one term and one draw normal per
    coordinate: the same curves as full-length arrays."""
    prior, nn = PriorSpec.exponential(1.0), 300
    x = np.array([0.0, 0.13, 0.5, 0.77, 1.0])
    nh, w = _head(prior, 0.1, nn)
    full = posterior_weights(prior, heat_eigenvalues(0.1, nn), SNR)
    truth = Mu0Source.test_cubic()
    y = np.linspace(-1.0, 1.0, nn)
    got = point_evaluation_curves(
        w, y[:nh], x, truth.realize(nh).values[:, None],
        prior=prior, truncation_level=nn, extra_sums=(truth.sums,))
    want = point_evaluation_curves(full, y, x, truth.realize(nn).values[:, None])
    assert np.abs(got[0] - want[0]).max() <= 1e-15
    _assert_rel(got[1], want[1], 1e-12)
    assert np.abs(got[2] - want[2]).max() <= 1e-12


class TestRenderPanel:
    @pytest.mark.parametrize("prior,mu0", [
        (PriorSpec.polynomial(1.0), Mu0Source.test_cubic()),
        (PriorSpec.exponential(0.5), Mu0Source.test_cubic()),
        (PriorSpec.polynomial(1.0), Mu0Source.power_law(0.3)),
    ], ids=["poly-a1", "exp-a0.5", "poly-a1-power0.3"])
    def test_matches_full_length_path(self, prior, mu0):
        """Against the N-coordinate path: mean bitwise (2M = 40 > N_h),
        truth within 1e-14, half-widths within 1e-12 relative, draws by the
        rounding of their bin variances only."""
        cfg = ExperimentConfig(prior=prior, n_grid=(SNR,), replications=1,
                               seed=7, x_grid_points=21, mu0=mu0)
        spec = PanelSpec(prior=prior, n=SNR, data_stream=3, draws=4)
        panel = render_panel(cfg, spec)
        nn = max(cfg.truncation_for(SNR, prior), admissible_truncation(prior))
        kappa = heat_eigenvalues(0.1, nn)
        mu0 = cfg.mu0.realize(nn)
        y = simulate_observations(mu0, kappa, SNR, 7, 3).y.values
        mean, sd, truth, draws = point_evaluation_curves(
            posterior_weights(prior, kappa, SNR), y, panel.x,
            mu0.values[:, None],
            lambda b: substream(7, "panel", 3, "draw").standard_normal((4, b)))
        assert np.array_equal(panel.post_mean, mean)
        assert np.abs(panel.truth - truth[:, 0]).max() <= 1e-14
        half = 1.959963984540054 * sd
        _assert_rel((panel.upper - panel.lower) / 2.0, half, 1e-12)
        assert np.all(np.abs(panel.draw_curves - draws) <= 1e-12 * (sd + 1e-300))

    def test_head_observations_are_a_prefix(self):
        """The head's observations are the first N_h of the N-draw stream,
        bit for bit."""
        nn = admissible_truncation(PriorSpec.polynomial(1.0))
        for t in TIMES:
            nh = active_head(t, nn)
            mu0 = Mu0Source.test_cubic()
            head = simulate_observations(mu0.realize(nh),
                                         heat_eigenvalues(t, nh), SNR, 7, 2)
            full = simulate_observations(mu0.realize(nn),
                                         heat_eigenvalues(t, nn), SNR, 7, 2)
            assert np.array_equal(head.y.values, full.y.values[:nh])


def test_rough_power_law_interval_through_cli(tmp_path):
    """An interval at a power-law truth of exponent 0.81, where scipy's
    Hurwitz zeta is NaN: the CLI reports the coverage of the N-term
    computation, 0.17 (the value before the tail sums as well)."""
    out = str(tmp_path / "cov.csv")
    assert main(["coverage", "--kind", "interval", "--mu0", "power",
                 "--mu0-beta", "0.3", "--n", "1e8", "--x", "0.37",
                 "--reps", "400", "--seed", "5", "--out", out]) == EXIT_OK
    cols, rows = read_dataset(out)
    row = dict(zip(cols, rows[0]))
    prior = PriorSpec.polynomial(1.0)
    cfg = ExperimentConfig(prior=prior, n_grid=(1e8,))
    nn = max(cfg.truncation_for(1e8, prior), admissible_truncation(prior))
    [(s2, t2, [bias], _)] = point_sums_reference(
        prior, 1e8, 0.1, nn, [0.37], [ROUGH_TRUTHS[0][1]])
    z = substream(5, "interval", 0).standard_normal(400)
    inside = np.abs(math.sqrt(t2) * z + bias) <= -norm.ppf(0.025) * math.sqrt(s2)
    assert row["coverage"] == np.count_nonzero(inside) / 400 == 0.17
    _assert_rel(row["spread"], math.sqrt(s2), 1e-12)


@pytest.mark.parametrize("x", [0.1, 0.9])
def test_interval_near_the_ends_doubles_its_truncation(tmp_path, x):
    """At poly alpha = 1 the per-x check fails at the prior's admissible N
    for x = 0.1 and 0.9; N doubles until the N-term reference's last
    decade holds less than ADMISSIBLE_TAIL, and the CLI reports that N's
    moments."""
    out = str(tmp_path / "cov.csv")
    assert main(["coverage", "--kind", "interval", "--n", "1e4", "--x",
                 str(x), "--reps", "50", "--out", out]) == EXIT_OK
    cols, rows = read_dataset(out)
    row = dict(zip(cols, rows[0]))
    prior = PriorSpec.polynomial(1.0)
    cfg = ExperimentConfig(prior=prior, n_grid=(1e4,))
    nn = max(cfg.truncation_for(1e4, prior), admissible_truncation(prior))
    while True:
        [(s2, t2, [bias], decade)] = point_sums_reference(
            prior, 1e4, 0.1, nn, [x], [_cubic])
        if decade < ADMISSIBLE_TAIL:
            break
        nn *= 2
    assert nn == 7652
    assert point_sums_reference(prior, 1e4, 0.1, nn // 2, [x],
                                [])[0][3] >= ADMISSIBLE_TAIL
    _assert_rel(row["spread"], math.sqrt(s2), 1e-12)
    _assert_rel(row["mean_sd"], math.sqrt(t2), 1e-12)
    z = substream(0, "interval", 0).standard_normal(50)
    inside = np.abs(math.sqrt(t2) * z + bias) <= -norm.ppf(0.025) * math.sqrt(s2)
    assert row["coverage"] == np.count_nonzero(inside) / 50


def test_interval_without_a_small_denominator_keeps_its_error():
    """An x near 0 that is no p/q with a small q fails as before."""
    x = 0.1000000001
    prior = PriorSpec.polynomial(1.0)
    assert point_sums_reference(prior, 1e4, 0.1, admissible_truncation(prior),
                                [x], [])[0][3] >= ADMISSIBLE_TAIL
    assert main(["coverage", "--kind", "interval", "--n", "1e4", "--x",
                 str(x), "--reps", "50"]) == EXIT_CONFIG


@pytest.mark.parametrize("x,doublings", [(0.3, 0), (0.5, 0), (0.01, 4)])
def test_interval_truncation_is_the_first_admissible_doubling(x, doublings):
    """poly alpha = 0.5: x = 0.3 and 1/2 keep N = 10,132,119; x = 0.01 takes
    the moments at 16 N, the first doubling whose check passes."""
    prior = PriorSpec.polynomial(0.5)
    cfg = ExperimentConfig(prior=prior, n_grid=(SNR,), replications=2)
    L = LinearFunctional.point_evaluation(x)
    nn = admissible_truncation(prior) * 2**doublings
    nh, w = _head(prior, 0.1, nn)
    truth = Mu0Source.test_cubic()
    s2, t2, _ = functional_moments(L, w, prior, nn, truth.realize(nh).values,
                                   truth.sums)
    if doublings:
        with pytest.raises(InadmissibleFunctionalError):
            functional_moments(L, w, prior, nn // 2)
    row = run_interval_coverage(cfg, L).rows[0]
    assert row[4:] == (math.sqrt(s2), math.sqrt(t2))


def test_interval_doubling_stops_at_a_billion():
    """x = 0.001 under poly alpha = 0.5 would need N past 1e9, the longest
    range the tail sums are verified for: the check's error stands."""
    cfg = ExperimentConfig(prior=PriorSpec.polynomial(0.5), n_grid=(SNR,),
                           replications=2)
    with pytest.raises(InadmissibleFunctionalError, match="648455616"):
        run_interval_coverage(cfg, LinearFunctional.point_evaluation(0.001))


def test_rough_panel_and_interval_stay_small():
    """The fig3 alpha = 0.5, n = 1e4 panel on 21 points and a 2-replication
    interval at x = 1/2 run at N = 10,132,119 but allocate only O(N_h + 2M)
    memory; N-length float arrays would take 81 MB each."""
    experiments._panel_frame.cache_clear()
    spec = next(s for s in figure_three_panels()
                if s.prior.alpha == 0.5 and s.n == 1e4)
    panel_cfg = ExperimentConfig(prior=spec.prior, n_grid=(1e4,),
                                 replications=1, seed=7, x_grid_points=21)
    interval_cfg = ExperimentConfig(prior=spec.prior, n_grid=(1e4,),
                                    replications=2, seed=7)
    assert admissible_truncation(spec.prior) == 10_132_119
    tracemalloc.start()
    try:
        render_panel(panel_cfg, spec)
        run_interval_coverage(interval_cfg,
                              LinearFunctional.point_evaluation(0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6

"""Sequence-space model: basis, forward operator, test signal, simulation."""

import math
import tracemalloc

import numpy as np
import pytest
from oracles import residue_bins_reference, sine_synthesis_reference

from heatbayes import (
    CoefficientSequence,
    HeatOperator,
    forward_solution,
    heat_eigenvalues,
    simulate_observations,
    sine_basis_eval,
    sobolev_norm,
    true_signal_coefficients,
    true_signal_function,
)
from heatbayes.posterior import PosteriorSummary, posterior_mean_function
from heatbayes.rng import _continued_keys, _encode, normal_matrix, substream
from heatbayes.sequence import (
    AliasingFold,
    GridSynthesis,
    _shared_fold,
    basis_matrix,
    bin_range,
    default_truncation,
    power_sums,
    true_signal_sums,
)


class TestHeatEigenvalues:
    def test_closed_form_values(self):
        """Frozen from direct evaluation of exp(-i^2 pi^2 T)."""
        k = heat_eigenvalues(0.1, 10)
        assert k.values[0] == pytest.approx(0.37270783885343794, rel=1e-15)
        assert k.values[4] == pytest.approx(1.9240359175048976e-11, rel=1e-12)
        assert k.values[0] == pytest.approx(math.exp(-math.pi**2 * 0.1), rel=0)

    def test_small_time_limit(self):
        k = heat_eigenvalues(1e-12, 3)
        assert abs(k.values[0] - 1.0) < 1e-9

    def test_strictly_decreasing_in_log(self):
        op = HeatOperator(0.1, 200)
        logs = op.log_eigenvalues()
        assert np.all(np.diff(logs) < 0)
        vals = op.eigenvalues().values
        pos = vals[vals > 0]
        assert np.all(np.diff(pos) < 0)
        assert np.all(pos < 1.0)

    def test_successive_ratio_identity(self):
        """kappa_{i+1}/kappa_i = exp(-(2i+1) pi^2 T) exactly in log space."""
        T = 0.1
        logs = HeatOperator(T, 30).log_eigenvalues()
        i = np.arange(1, 30)
        np.testing.assert_allclose(
            np.diff(logs), -(2 * i + 1) * math.pi**2 * T, rtol=1e-14
        )

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            heat_eigenvalues(0.0, 5)
        with pytest.raises(ValueError):
            heat_eigenvalues(-1.0, 5)
        with pytest.raises(ValueError):
            heat_eigenvalues(0.1, 0)

    def test_tail_tol_honest(self):
        """Doubling the truncation moves the eigenvalue sum by < tail_tol."""
        k1 = heat_eigenvalues(0.01, 20)
        k2 = heat_eigenvalues(0.01, 40)
        moved = k2.values.sum() - k1.values.sum()
        assert 0 <= moved <= k1.tail_tol


class TestSineBasis:
    def test_known_values(self):
        assert sine_basis_eval(1, 0.5) == pytest.approx(math.sqrt(2), rel=1e-15)
        assert sine_basis_eval(2, 0.5) == 0.0
        assert sine_basis_eval(3, 1.0 / 6.0) == pytest.approx(
            math.sqrt(2), rel=1e-12)

    def test_exact_zeros_at_endpoints(self):
        for i in (1, 2, 17, 1000, 7_654_321):
            assert sine_basis_eval(i, 0.0) == 0.0
            assert sine_basis_eval(i, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sine_basis_eval(1, -0.1)
        with pytest.raises(ValueError):
            sine_basis_eval(1, 1.1)
        with pytest.raises(ValueError):
            sine_basis_eval(0, 0.5)

    def test_orthonormal_on_grid(self):
        """Composite trapezoid integrates trig polynomials exactly."""
        m = 4096
        x = np.linspace(0, 1, m + 1)
        E = basis_matrix(x, 20)
        wts = np.full(m + 1, 1.0 / m)
        wts[0] = wts[-1] = 0.5 / m
        gram = E.T @ (wts[:, None] * E)
        np.testing.assert_allclose(gram, np.eye(20), atol=1e-13)


class TestTrueSignal:
    def test_frozen_leading_coefficients(self):
        """Frozen from 8 sqrt(2) (13 + 11 (-1)^i) / (pi^3 i^3)."""
        mu = true_signal_coefficients(4)
        assert mu.values[0] == pytest.approx(0.7297689184443775, rel=1e-15)
        assert mu.values[1] == pytest.approx(1.0946533776665663, rel=1e-15)
        assert mu.values[0] == pytest.approx(
            16 * math.sqrt(2) / math.pi**3, rel=0)
        assert mu.values[1] == pytest.approx(
            24 * math.sqrt(2) / math.pi**3, rel=0)

    def test_synthesis_matches_polynomial(self):
        """Partial sums converge to 4x(x-1)(8x-5); oracle is the cubic."""
        mu = true_signal_coefficients(400)
        x = np.linspace(0, 1, 41)
        synth = forward_solution(mu, 0.0, x)
        exact = true_signal_function(x)
        assert exact[10] == pytest.approx(2.25, rel=0)  # x = 0.25
        np.testing.assert_allclose(synth, exact, atol=2e-5)

    def test_synthesis_at_quarter_with_default_truncation(self):
        mu = true_signal_coefficients(100)
        val = forward_solution(mu, 0.0, [0.25])[0]
        # analytic truncation bound: sqrt(2) * sum_{i>N} |mu_i|
        bound = math.sqrt(2) * 8 * math.sqrt(2) * 24 / math.pi**3 / (2 * 100**2)
        assert abs(val - 2.25) <= bound
        assert abs(val - 2.25) <= 1e-3

    def test_sobolev_membership_below_2p5(self):
        mu = true_signal_coefficients(2000)
        n1 = sobolev_norm(mu, 2.4).value
        n2 = sobolev_norm(true_signal_coefficients(4000), 2.4).value
        assert n2 - n1 < 0.02 * n1  # converging below beta = 2.5
        # at beta = 2.5 the norm diverges logarithmically: keeps growing
        d1 = sobolev_norm(mu, 2.5).value
        d2 = sobolev_norm(true_signal_coefficients(4000), 2.5).value
        assert d2 > d1 + 0.1


class TestForwardSolution:
    def test_single_mode(self):
        mu = CoefficientSequence(np.array([1.0, 0.0, 0.0]), 3)
        t, x = 0.05, 0.3
        val = forward_solution(mu, t, [x])[0]
        expect = math.exp(-math.pi**2 * t) * math.sqrt(2) * math.sin(math.pi * x)
        assert val == pytest.approx(expect, rel=1e-14)

    def test_zero_signal(self):
        mu = CoefficientSequence(np.zeros(5), 5)
        assert np.all(forward_solution(mu, 0.7, np.linspace(0, 1, 7)) == 0.0)

    def test_grid_validation(self):
        mu = CoefficientSequence(np.ones(3), 3)
        with pytest.raises(ValueError):
            forward_solution(mu, 0.0, [1.5])
        with pytest.raises(ValueError):
            forward_solution(mu, -0.1, [0.5])

    def test_parseval_consistency(self):
        """L2 norm of the t=0 synthesis equals the coefficient norm."""
        rng = np.random.default_rng(5)
        vals = rng.standard_normal(50) / np.arange(1, 51)
        mu = CoefficientSequence(vals, 50)
        m = 4096
        x = np.linspace(0, 1, m + 1)
        f = forward_solution(mu, 0.0, x)
        wts = np.full(m + 1, 1.0 / m)
        wts[0] = wts[-1] = 0.5 / m
        l2 = math.sqrt(float((wts * f**2).sum()))
        assert l2 == pytest.approx(mu.norm(), rel=1e-12)


class TestSimulateObservations:
    def test_high_snr_limit(self):
        mu0 = true_signal_coefficients(100)
        kap = heat_eigenvalues(0.1, 100)
        obs = simulate_observations(mu0, kap, 1e18, seed=11)
        assert np.max(np.abs(obs.y.values - kap.values * mu0.values)) <= 1e-7

    def test_byte_identical_reproduction(self):
        mu0 = true_signal_coefficients(50)
        kap = heat_eigenvalues(0.1, 50)
        a = simulate_observations(mu0, kap, 100.0, seed=42)
        b = simulate_observations(mu0, kap, 100.0, seed=42)
        assert a.y.values.tobytes() == b.y.values.tobytes()
        c = simulate_observations(mu0, kap, 100.0, seed=43)
        assert not np.array_equal(a.y.values, c.y.values)

    def test_zero_signal_clt(self):
        """Per-coordinate means over 1e5 replications; CLT bound, fixed seed."""
        nn, reps = 10, 100_000
        mu0 = CoefficientSequence(np.zeros(nn), nn)
        kap = heat_eigenvalues(0.1, nn)
        acc = np.zeros(nn)
        for r in range(reps):
            acc += simulate_observations(mu0, kap, 1.0, seed=9, replication=r).y.values
        assert np.all(np.abs(acc / reps) <= 3.0 / math.sqrt(reps))

    def test_noise_scaling(self):
        """Empirical variance of y - kappa mu0 matches 1/n per coordinate."""
        nn, reps, n = 5, 20_000, 7.0
        mu0 = true_signal_coefficients(nn)
        kap = heat_eigenvalues(0.1, nn)
        resid = np.empty((reps, nn))
        for r in range(reps):
            obs = simulate_observations(mu0, kap, n, seed=21, replication=r)
            resid[r] = obs.y.values - kap.values * mu0.values
        var = resid.var(axis=0, ddof=1)
        # chi-square concentration: relative 3 sigma ~ 3 sqrt(2/reps)
        assert np.all(np.abs(var - 1.0 / n) <= 3.0 * math.sqrt(2.0 / reps) / n)

    def test_dimension_mismatch(self):
        mu0 = true_signal_coefficients(10)
        kap = heat_eigenvalues(0.1, 20)
        with pytest.raises(ValueError):
            simulate_observations(mu0, kap, 1.0, seed=0)


class TestStreams:
    def test_stream_values_pinned(self):
        z = substream(7, "obs", 0).standard_normal(3)
        assert z.tolist() == [0.7445912798376522, 0.6012494427054094,
                              -0.7965623277820124]

    @pytest.mark.parametrize("row,first", [
        (0, [-2.253016852597314, 2.3537473653341454, 0.17535873957189607]),
        (19, [-0.2953363670344616, 0.4005802513814258, -0.3290329883730591]),
        (2**64 - 1,
         [-0.3075433194193407, 0.7535890285247808, -0.7777755103577165]),
    ])
    def test_draw_values_pinned(self, row, first):
        """First normals of panel draw streams, frozen from the per-stream
        SeedSequence + Philox construction: a numpy whose SeedSequence,
        Philox or normal sampler differs fails here, not silently in every
        figure."""
        assert substream(7, "panel", 3, "draw", row).standard_normal(3).tolist() == first
        if row < 20:
            z = normal_matrix(7, ("panel", 3, "draw"), 20, 3)
            assert z[row].tolist() == first

    def test_string_keys_pinned(self):
        assert _encode("panel") == 6829252156396663685
        assert _encode("draw") == 17402091920879547283
        assert _encode("obs") == 1887465748648775877
        assert _encode(np.str_("obs")) == 1887465748648775877

    @pytest.mark.parametrize("part", [-1, 2**64, np.int64(-3)])
    def test_key_parts_outside_64_bits_rejected(self, part):
        with pytest.raises(ValueError, match=str(part)):
            substream(part)
        with pytest.raises(ValueError, match=str(part)):
            substream(0, "obs", part)


_EDGE_PARTS = (0, 2**32 - 1, 2**32, 2**64 - 1)


def _words(parts):
    return sum(max(1, -(-p.bit_length() // 32)) for p in parts)


def _random_key(rng, length):
    """A seed (0-9 or up to 2**64 - 1) and `length` path parts: str, edge
    ints of one and two words, or ints below 2**64."""
    u = rng.random()
    seed = (int(rng.integers(10)) if u < 0.5 else 2**64 - 1 if u < 0.6
            else int(rng.integers(2**64, dtype=np.uint64)))
    path = []
    for _ in range(length):
        kind = rng.integers(3)
        if kind == 0:
            path.append("".join(rng.choice(list("abcdrwpanel"), rng.integers(1, 7))))
        elif kind == 1:
            path.append(_EDGE_PARTS[rng.integers(len(_EDGE_PARTS))])
        else:
            path.append(int(rng.integers(2**64, dtype=np.uint64)))
    return seed, tuple(path)


class TestNormalMatrix:
    """Rows of normal_matrix are the streams (*path, r), bit for bit."""

    def test_continued_keys_match_seed_sequence(self):
        """12,000 (seed, path, row) cases, prefixes of 4 to 10 words, row
        indices of one word (0, 2**32 - 1, random) and of two (2**32,
        2**64 - 1, random)."""
        rng = np.random.default_rng(2024)
        seen = set()
        cases = 0
        while cases < 12_000:
            seed, path = _random_key(rng, int(rng.integers(1, 5)))
            prefix = [_encode(seed)] + [_encode(p) for p in path]
            n_words = _words(prefix)
            if n_words < 4:
                continue
            seen.add(min(n_words, 5))
            pool = np.random.SeedSequence(prefix).pool
            for lo, hi, edges in ((0, 2**32, (0, 2**32 - 1)),
                                  (2**32, 2**64, (2**32, 2**64 - 1))):
                rows = list(edges) + [int(v) for v in rng.integers(
                    lo, hi, 18, dtype=np.uint64)]
                words = np.array([[r & 0xFFFFFFFF, r >> 32][:_words([r])]
                                  for r in rows], dtype=np.uint32)
                got = _continued_keys(pool, n_words, words)
                want = [np.random.SeedSequence(prefix + [r]).generate_state(
                    2, np.uint64) for r in rows]
                assert got.dtype == np.uint64
                assert np.array_equal(got, want), (seed, path)
                cases += len(rows)
        assert seen == {4, 5}

    def test_rows_equal_substreams(self):
        """A panel's draws, then random keys through both branches:
        prefixes of 1 to 3 words give each row its own SeedSequence, 4 and
        more continue one mix."""
        rng = np.random.default_rng(11)
        cases = [(7, ("panel", 3, "draw"), 20, 400)]
        for _ in range(400):
            seed, path = _random_key(rng, int(rng.integers(0, 4)))
            cases.append((seed, path, int(rng.choice([0, 1, 20])),
                          int(rng.choice([0, 1, 40, 400]))))
        seen = set()
        for seed, path, n_rows, n_cols in cases:
            seen.add(min(_words([_encode(seed)] + [_encode(p) for p in path]), 5))
            z = normal_matrix(seed, path, n_rows, n_cols)
            assert z.shape == (n_rows, n_cols) and z.flags.c_contiguous
            for r in range(n_rows):
                want = substream(seed, *path, r).standard_normal(n_cols)
                assert np.array_equal(z[r], want), (seed, path, r)
        assert seen == {1, 2, 3, 4, 5}

    def test_key_parts_outside_64_bits_rejected(self):
        with pytest.raises(ValueError, match="-1"):
            normal_matrix(0, ("obs", -1), 2, 2)
        with pytest.raises(TypeError):
            normal_matrix(0, ("obs", 1.5), 2, 2)


class TestSobolevNorm:
    def test_single_mode(self):
        mu = CoefficientSequence(np.array([1.0, 0.0]), 2)
        assert sobolev_norm(mu, 2.0).value == 1.0

    def test_inverse_squares(self):
        """Frozen from the direct finite sum sqrt(sum_{i<=10} i^-4)."""
        i = np.arange(1, 11, dtype=float)
        mu = CoefficientSequence(i**-2.0, 10)
        val = sobolev_norm(mu, 0.0).value
        assert val == pytest.approx(1.0402098747338235, rel=1e-15)
        assert val == pytest.approx(math.sqrt(sum(k**-4 for k in range(1, 11))),
                                    rel=1e-15)

    def test_zero_sequence(self):
        mu = CoefficientSequence(np.zeros(4), 4)
        assert sobolev_norm(mu, 1.0).value == 0.0

    def test_rejects_negative_beta(self):
        mu = CoefficientSequence(np.ones(2), 2)
        with pytest.raises(ValueError):
            sobolev_norm(mu, -1.0)


class TestCoefficientSequence:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            CoefficientSequence(np.ones(3), 4)

    def test_finite_invariant(self):
        with pytest.raises(ValueError):
            CoefficientSequence(np.array([1.0, np.nan]), 2)
        with pytest.raises(ValueError):
            CoefficientSequence(np.array([1.0, np.inf]), 2)


class TestDefaultTruncation:
    def test_floor_applies(self):
        assert default_truncation(1e8) == 100
        assert default_truncation(10.0) == 100

    def test_grows_for_enormous_snr(self):
        # only astronomically large n tau^2 pushes past the floor
        assert default_truncation(1e8, tau=1e140) > 100

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            default_truncation(0.0)


class TestGridSynthesis:
    """forward_solution and posterior_mean_function synthesize through the
    same fold-or-column-block path as the credible bands."""

    GRIDS = (np.linspace(0.0, 1.0, 41),
             np.sort(np.r_[0.0, 1.0, np.random.default_rng(4).random(15)]))

    @staticmethod
    def _coefficients(nn):
        i = np.arange(1, nn + 1, dtype=float)
        return np.random.default_rng(nn).standard_normal(nn) * i**-1.2

    @pytest.mark.parametrize("nn", [30, 20_000])
    def test_forward_solution_matches_dense_basis(self, nn):
        mu = CoefficientSequence(self._coefficients(nn), nn)
        i = np.arange(1, nn + 1, dtype=float)
        for t in (0.0, 1e-4):
            damped = mu.values * np.exp(-(i**2) * math.pi**2 * t)
            for x in self.GRIDS:
                ref, _ = sine_synthesis_reference(x, damped[:, None],
                                                  np.zeros(nn))
                np.testing.assert_allclose(forward_solution(mu, t, x),
                                           ref[:, 0], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("nn", [30, 20_000])
    def test_posterior_mean_matches_dense_basis(self, nn):
        mean = CoefficientSequence(self._coefficients(nn), nn)
        var = CoefficientSequence(np.ones(nn), nn)
        summary = PosteriorSummary(mean=mean, variance=var, shrink_var=var)
        for x in self.GRIDS:
            ref, _ = sine_synthesis_reference(x, mean.values[:, None],
                                              np.zeros(nn))
            np.testing.assert_allclose(posterior_mean_function(summary, x),
                                       ref[:, 0], rtol=0, atol=1e-13)

    def test_posterior_mean_needs_no_dense_basis(self):
        """N = 200,000 on 201 points: a dense basis would take 320 MB."""
        nn = 200_000
        mean = CoefficientSequence(self._coefficients(nn), nn)
        var = CoefficientSequence(np.ones(nn), nn)
        summary = PosteriorSummary(mean=mean, variance=var, shrink_var=var)
        x = np.linspace(0.0, 1.0, 201)
        tracemalloc.start()
        try:
            curve = posterior_mean_function(summary, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert curve[0] == 0.0 and curve[-1] == 0.0


class TestSharedFold:
    """GridSynthesis takes one read-only fold per grid size."""

    def test_same_m_same_fold(self):
        a = GridSynthesis(np.linspace(0.0, 1.0, 201)).fold
        assert a is GridSynthesis(np.linspace(0.0, 1.0, 201)).fold
        assert a is _shared_fold(200)

    def test_tables_read_only(self):
        fold = _shared_fold(20)
        for table in (fold.table, fold.square):
            with pytest.raises(ValueError):
                table[1, 1] = 0.0
        with pytest.raises(ValueError):
            fold.table += 1.0

    @pytest.mark.parametrize("m", [1, 20, 200])
    def test_curves_match_fresh_fold(self, m):
        syn = GridSynthesis(np.linspace(0.0, 1.0, m + 1))
        rng = np.random.default_rng(m)
        columns = rng.standard_normal((2 * m, 3))
        variances = rng.random(2 * m)
        fresh = AliasingFold(m).table
        got_curves, got_s2 = syn.curves(columns, variances)
        assert np.array_equal(got_curves, fresh @ columns)
        assert np.array_equal(got_s2, (fresh * fresh) @ variances)

    def test_cache_bounded(self):
        maxsize = _shared_fold.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8


class TestBinRange:
    """bin_range, the one residue binning of head and tail terms."""

    @pytest.mark.parametrize("period", [1, 2, 4, 40, 400])
    @pytest.mark.parametrize("first", [1, 27, 28, 41])
    def test_against_residue_reference(self, first, period):
        rng = np.random.default_rng(first * 1000 + period)
        for length in (0, 1, period - 1, period, period + 1, 7 * period + 3):
            values = rng.standard_normal(length)
            want = residue_bins_reference(
                np.concatenate([np.zeros(first - 1), values]), period)
            got = bin_range(first, values, period)
            assert got.shape == (period,)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)

    def test_long_ranges_stay_at_rounding_level(self):
        """The cubic and i^-2 from i = 28 to the 10,132,119 coefficients of
        the poly alpha = 0.5 panels, against their closed forms; a running
        sum per residue drifts to 3.4e-11 relative at period 4."""
        first, last = 28, 10_132_119
        cubic = true_signal_coefficients(last).values[first - 1:]
        for period in (4, 40, 400):
            got = bin_range(first, cubic, period)
            want = true_signal_sums(first, last, period)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        del cubic
        inverse_squares = np.arange(first, last + 1, dtype=float) ** -2.0
        for period in (4, 40, 400):
            got = bin_range(first, inverse_squares, period)
            want = power_sums(2.0, first, last, period)
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

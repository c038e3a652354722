"""Credible balls for the full parameter and the quadratic-form quantiles
behind their radii.

Under the posterior, ||mu - muhat||^2 is distributed as U = sum s_i Z_i^2,
a nonnegative-weighted chi-square mixture; the credible radius solves
P(U < r^2) = 1 - gamma.  The honest frequentist radius solves the same
equation for the sampling distribution ||W + bias||^2 with coordinate
variances t_i.  Both quantiles come from numerical inversion of the exact
law of the form, found by safeguarded Newton steps on its density:

* central forms, sum w_i Z_i^2 (the credible radius): the Laplace
  transform L(s)/s of the distribution function, with
  L(s) = prod (1 + 2 w_i s)^(-1/2), is inverted by the Fourier series of
  Abate & Whitt (1995) with Euler summation.  L is evaluated in real
  arithmetic, as a log-modulus and a phase: at the nodes
  s_k = (A + 2 pi i k) / (2x), 1 + 2 s_k w_i = a_i (1 + i r_ki) with a_i
  and r_ki real, so each evaluation takes one log per coordinate and one
  log1p and one arctan per node and coordinate, and no complex
  arithmetic per coordinate: a quantile of poly alpha = 1, n = 1e4 takes
  0.3-0.4 ms at N = 100 and 4-6 ms at N = 3826 on one core of a 2-core
  x86 host.  The discretisation error is
  at most e^-A / (1 - e^-A); the Euler sum's own error is estimated by
  the change from one more term, and twice their sum is reported.  Newton
  starts from Wilson & Hilferty's cube-root normal quantile of the gamma
  law with the form's first two moments (Satterthwaite), floored by the
  chi-square_1 quantile of the largest weight and by the gamma's
  lower-tail bound.
* forms with a bias, sum (b_i + sqrt(v_i) Z_i)^2 (the frequentist
  radius): the Gil-Pelaez integral of the characteristic function of the
  form, centred at its mean and scaled to unit sd, is summed at midpoints
  (Davies 1980).  The step keeps the aliased mass below Chernoff bounds on
  both tails, formed from the cumulant generating function centred at the
  form's mean, so that a mean far above the sd does not cancel them away;
  a Gaussian convergence factor with a second-order correction ends the
  sum at a tail bounded through E1(y) < e^-y log(1 + 1/y) (Abramowitz &
  Stegun 5.1.20), and leaves an error of about (sigma^4 / 8) f'''(x),
  which is estimated from the same sum.  Each form has one law, whose
  evaluations pick the width from that smoothing term: the sum at
  sigma = 4e-3 sd, and at 2e-3 only where the first one's term exceeds
  1e-11 in probability (at p = 0.95, the coverage experiments' level, on
  none of the forms tried).  Both sums share the nodes, at the wide sum's
  spacing, and phi is evaluated once per node; each sum stops at the
  exact node where its tail bound, monotone as |phi| does not increase,
  first holds.  On a grid over the aliasing period the wide sum is one
  zero-padded FFT, and Newton starts from its interpolated crossing of
  the level: two or three evaluations of the law then suffice.  The
  error bound also counts the rounding of the form's mean and of x minus
  it, which moves the law as a shift of x would.

The Laplace-Euler series fails on forms with a large noncentrality, whose
terms keep oscillating, and the midpoint sum needs many nodes on central
forms with few dominant weights; hence the split.  Coordinates whose
variance is below eps * max variance enter as the fixed mass b_i^2 (zero
for central forms), as in the Monte Carlo sampler `_form_draws`, which
draws the squared errors of the ball coverage and risk experiments.
Each quantile carries a bound on its absolute numerical error: the
inversion's probability error divided by the density, plus the distance
of the last iterate from the root.  Each law also gives the |F(x) - p|
that resolves p: a tenth of its error bound, or for the Euler series the
rounding of its terms, eps * sum |terms|, where that is larger (A = 25
amplifies rounding by e^(A/2), so F wobbles by about 1e-11 between
neighbouring x, and Newton steps below that chase rounding).  The
inversion stops there, or once the Newton step is below the resolution
eps x of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .numeric import compensated_sum
from .posterior import PosteriorSummary, posterior_weights
from .priors import PriorSpec
from .rng import BLOCK, substream
from .sequence import CoefficientSequence

_EPS = np.finfo(float).eps
# elements per evaluation block of the transforms (nodes x coordinates)
_CELLS = 1 << 20
# Abate-Whitt: discretisation parameter A, then Euler means of _EULER_M + 1
# partial sums from term _EULER_N on
_EULER_A = 25.0
_EULER_N = 38
_EULER_M = 11
_EULER_MEAN = np.array([math.comb(_EULER_M, j) for j in range(_EULER_M + 1)],
                       dtype=float) / 2.0**_EULER_M
# the series' nodes k and frequencies 2 pi k; the terms of the series of F
# and of x f are Re[L(s_k) _EULER_TERMS], with s_k = (A + 2 pi i k) / (2x):
# the signs (-1)^k e^(A/2), halved at k = 0, times x / s_k for F
_EULER_NODES = np.arange(_EULER_N + _EULER_M + 2)
_EULER_FREQ = 2.0 * math.pi * _EULER_NODES
_EULER_TERMS = (np.where(_EULER_NODES == 0, 0.5, (-1.0) ** _EULER_NODES)
                * math.exp(0.5 * _EULER_A)
                * np.stack((2.0 / (_EULER_A + 1j * _EULER_FREQ),
                            np.ones(_EULER_NODES.size))))
# the sums of log1p(r^2) and of arctan r to log |L| and arg L
_LAPLACE_SCALE = np.array([[-0.25], [-0.5]])
# Davies: tail mass allowed beyond each end of the aliasing period and in
# the truncated sum; sd of the convergence factor in units of the form's sd,
# and the smoothing term of the error bound up to which twice that sd serves
_TAIL = 1e-12
_SMOOTH = 2e-3
_SMOOTH_ERR = 10.0 * _TAIL
# Davies: Chernoff points in units of 1 / (2 max v), below it and up to it,
# and absolute points, used below 1 / (2 max v) and negated
_CHERNOFF_BELOW = np.geomspace(1e-4, 0.5, 32)
_CHERNOFF_UP = -np.expm1(np.linspace(math.log(0.5), -20.0, 32))
_CHERNOFF_SPAN = np.geomspace(1e-3, 1e6, 64)
_NEWTON_STEPS = 100


@dataclass(frozen=True)
class QuadraticForm:
    """Distribution of sum w_i Z_i^2 for nonnegative weights w."""

    weights: CoefficientSequence

    @staticmethod
    def from_weights(weights: CoefficientSequence) -> "QuadraticForm":
        if np.any(weights.values < 0):
            raise ValueError("quadratic-form weights must be nonnegative")
        return QuadraticForm(weights)


@dataclass(frozen=True)
class QuantileEstimate:
    """Quantile with a bound on its absolute numerical error."""

    value: float
    stderr: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class CredibleBall:
    """Ball of posterior mass 1 - level around the posterior mean."""

    center: CoefficientSequence
    radius: float
    level: float
    radius_stderr: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("credibility level gamma must lie in (0, 1)")
        if not self.radius > 0:
            raise ValueError("credible radius must be positive")

    def contains(self, mu: CoefficientSequence) -> bool:
        if mu.truncation_level != self.center.truncation_level:
            raise ValueError("truncation mismatch between mu and the ball's center")
        return float(np.linalg.norm(mu.values - self.center.values)) <= self.radius


def _split(var: np.ndarray, bias: np.ndarray | None) -> tuple[np.ndarray, float]:
    """Mask of the coordinates with v_i >= eps * max v, and the fixed mass
    sum b_i^2 of the others: their noise cannot affect double-precision
    sums.  ``bias=None`` is the central form."""
    active = var >= _EPS * var.max()
    mass = 0.0 if bias is None else compensated_sum(bias[~active] ** 2)
    return active, mass


def _form_draws(var: np.ndarray, bias: np.ndarray | None, mc_draws: int,
                seed: int, path: tuple) -> np.ndarray:
    """mc_draws samples of sum_i (b_i + sqrt(v_i) Z_i)^2, block-streamed.

    Only the coordinates `_split` keeps active are sampled.  Blocks of
    fixed size are keyed (seed, *path, block); results do not depend on
    how blocks are assigned to workers.
    """
    active, mass = _split(var, bias)
    w = var[active]
    shift = None if bias is None else bias[active]
    root = np.sqrt(w)
    out = []
    for block_idx, start in enumerate(range(0, mc_draws, BLOCK)):
        m = min(BLOCK, mc_draws - start)
        z = substream(seed, *path, block_idx).standard_normal((m, w.size))
        # squared in place: no second m x w.size temporary
        if shift is None:
            out.append(np.square(z, out=z) @ w)
        else:
            z *= root
            z += shift
            out.append(np.square(z, out=z).sum(axis=1))
    draws = np.concatenate(out)
    return draws if bias is None else draws + mass


def _coordinate_sum(term, nodes: np.ndarray, *coords: np.ndarray) -> np.ndarray:
    """sum over all coordinates of term(nodes[:, None], coords[None, :]), in
    bounded blocks; term returns a new array of the sums over its block's
    coordinates, and may stack several such sums in front of the nodes."""
    cols = min(coords[0].size, _CELLS)
    rows = max(1, _CELLS // cols)
    out = []
    for r in range(0, nodes.size, rows):
        node = nodes[r:r + rows, None]
        total = term(node, *(c[:cols] for c in coords))
        for k in range(cols, coords[0].size, cols):
            total += term(node, *(c[k:k + cols] for c in coords))
        out.append(total)
    return out[0] if len(out) == 1 else np.concatenate(out, axis=-1)


def _laplace_log(w: np.ndarray, x: float) -> tuple[np.ndarray, np.ndarray]:
    """log |L(s_k)| and arg L(s_k) of L(s) = prod (1 + 2 w_i s)^(-1/2) at
    Abate & Whitt's nodes s_k = (A + 2 pi i k) / (2x), k < _EULER_N +
    _EULER_M + 2, in real arithmetic.

    1 + 2 s_k w_i = a_i (1 + i r_ki), with a_i = 1 + A w_i / x and
    r_ki = 2 pi k w_i / (a_i x), so
    log L(s_k) = -1/2 [sum log a_i + 1/2 sum log1p(r_ki^2) + i sum arctan r_ki].
    """
    c = w / (x + _EULER_A * w)  # r_ki = 2 pi k c_i

    def term(node, c):
        # rows log1p(r^2) and arctan r, built in place
        out = np.empty((2, node.size, c.size))
        modulus, phase = out
        np.multiply(node, c, out=phase)
        np.square(phase, out=modulus)
        np.log1p(modulus, out=modulus)
        np.arctan(phase, out=phase)
        return out.sum(axis=-1)

    logs = _coordinate_sum(term, _EULER_FREQ, c)
    logs *= _LAPLACE_SCALE
    logs[0] -= 0.5 * float(np.log1p(_EULER_A / x * w).sum())
    return logs[0], logs[1]


def _euler_law(w: np.ndarray):
    """x -> (F(x), f(x), bound on |error of F|, |F(x) - p| that resolves p)
    for sum w_i Z_i^2.

    F and the density f are the Laplace inverses of L(s)/s and L(s), by
    Abate & Whitt's Fourier series at s_k = (A + 2 pi i k) / (2x).
    """
    stop = _EULER_N + _EULER_M + 1
    discrete = math.exp(-_EULER_A) / -math.expm1(-_EULER_A)

    def law(x):
        log_modulus, phase = _laplace_log(w, x)
        # rows: the terms of the series of F, and of x f
        terms = (np.exp(log_modulus + 1j * phase) * _EULER_TERMS).real
        partial = np.cumsum(terms, axis=1)
        cdf, pdf = partial[:, _EULER_N + 1:stop + 1] @ _EULER_MEAN
        now = partial[0, _EULER_N:stop] @ _EULER_MEAN
        rounding = _EPS * float(np.abs(terms[0]).sum())
        # twice the sum: the Euler term is an estimate, not a bound
        err = 2.0 * (abs(cdf - now) + rounding + discrete)
        return cdf, pdf / x, err, max(0.1 * err, rounding)

    return law


def _davies_law(v: np.ndarray, b2: np.ndarray):
    """(law, start, lo, hi) for the form sum (b_i + sqrt(v_i) Z_i)^2, with
    b2 the squared biases: law(x) = (F(x), f(x), bound on |error of F|,
    |F(x) - p| that resolves p, a tenth of that bound),
    start(p) is near the root of F(x) = p, and outside [lo, hi] each tail
    of the form holds at most _TAIL.

    On the form centred and scaled to unit sd,
    F(x) = 1/2 - (1/pi) int_0^inf Im[phi(u) e^{-iux}] / u du is summed at
    the midpoints u_k = (k + 1/2) delta, with the period 2 pi / delta just
    above hi - lo so that the aliased mass lies in the tails.  Each
    evaluation sums with the convergence factor at twice _SMOOTH, and at
    _SMOOTH where that sum's smoothing term exceeds _SMOOTH_ERR, over the
    same nodes extended once past the first sum's stop.
    """
    # correctly rounded: the law charges its rounding to the error below
    centre = math.fsum(np.concatenate((v, b2)).tolist())
    sd = math.sqrt(2.0 * compensated_sum(v * v) + 4.0 * compensated_sum(v * b2))
    v, b2, mean = v / sd, b2 / sd, centre / sd

    def centred_cumulant(s, v, b2):
        # log E exp(s (b + sqrt(v) Z)^2) - s (v + b^2), s < 1/(2v), with the
        # mean taken out analytically: subtracting s * mean from the
        # cumulant would cancel where mean / sd exceeds 1 / eps
        x = -2.0 * v * s
        return (-0.5 * (np.log1p(x) - x)
                + 2.0 * b2 * v * s * s / (1.0 + x)).sum(axis=1)

    # Chernoff: P(Q <= y) and P(Q >= y) are at most exp(K(s) - s y); the
    # absolute points reach the optimum s (about 7 at unit sd) wherever it
    # lies below top
    top = 0.5 / v.max()
    span = _CHERNOFF_SPAN
    s = np.concatenate((top * _CHERNOFF_BELOW, top * _CHERNOFF_UP,
                        span[span < top], -span))
    bound = (_coordinate_sum(centred_cumulant, s, v, b2)
             - math.log(_TAIL)) / s
    hi = float(bound[s > 0].min())
    lo = max(float(bound[s < 0].max()), -mean)
    # the convergence factor spreads the law by a few multiples of its sd
    delta = 2.0 * math.pi / (hi - lo + 20.0 * (2.0 * _SMOOTH))

    def log_phi(u, v, b2):
        # rows log|phi(u)| and arg phi(u) + u mean, built in place on
        # (coordinates, nodes) blocks, nodes inner, summed over coordinates
        u, v, b2 = u.T, v[:, None], b2[:, None]
        z = (2.0 * v) * u
        q = z * z
        out = np.empty((2,) + z.shape)
        modulus, phase = out
        np.log1p(q, out=modulus)
        np.arctan(z, out=phase)
        phase -= z
        q += 1.0
        drift = (2.0 * v * b2) * (u * u)  # u b^2 z
        drift /= q
        modulus *= -0.25
        modulus -= drift
        phase *= 0.5
        drift *= z
        phase -= drift
        return out.sum(axis=1)

    rows = np.empty((2, 0))  # log_phi at the nodes taken so far
    most = max(1, min(4096, _CELLS // v.size))
    sums = {}  # the terms of the sum at each width taken so far

    def terms(sigma):
        # the nodes up to the first whose tail is within _TAIL, from the rows
        # held on, then in blocks of doubling size: |phi| is nonincreasing,
        # and the factor e^-y (1 + y), y = (sigma u)^2/2, integrates against
        # du/u beyond Y to (E1(Y) + e^-Y)/2 < e^-Y (log(1 + 1/Y) + 1)/2
        nonlocal rows
        if sigma in sums:
            return sums[sigma]
        parts, first, last = [rows], 0, rows.shape[1] or min(256, most)
        while True:
            u = (np.arange(first, last) + 0.5) * delta
            if last > rows.shape[1]:
                parts.append(_coordinate_sum(log_phi, u, v, b2))
            y = 0.5 * (sigma * u) ** 2
            met = (np.exp(parts[-1][0] - y) * (np.log1p(1.0 / y) + 1.0)
                   <= 2.0 * math.pi * _TAIL)
            if met[-1]:
                break
            first, last = last, last + min(last + 256, most)
        rows = np.concatenate(parts, axis=1)
        log_modulus, phase = rows[:, :first + int(np.argmax(met)) + 1]
        k = np.arange(phase.size) + 0.5
        u = k * delta
        y = 0.5 * (sigma * u) ** 2
        amp = np.exp(log_modulus - y) * (1.0 + y)
        weight = amp / k
        # rounding: each term carries the error of its phase, phase - u shift
        sums[sigma] = (u, phase, amp, weight, amp * u**3,
                       _EPS * float(weight @ (1.0 + np.abs(phase))),
                       _EPS * float(weight @ u))
        return sums[sigma]

    def law(x):
        shift = (x - centre) / sd
        for sigma in (2.0 * _SMOOTH, _SMOOTH):
            u, phase, amp, weight, cube, phase_rounding, shift_rounding = terms(sigma)
            arg = u * -shift
            arg += phase
            sin = np.sin(arg)
            cdf = 0.5 - float(weight @ sin) / math.pi
            pdf = delta * float(amp @ np.cos(arg)) / (math.pi * sd)
            d4 = delta * float(cube @ sin) / math.pi  # -f'''(x)
            smoothed = 2.0 * sigma**4 / 8.0 * abs(d4)
            if smoothed <= _SMOOTH_ERR:
                break
        # the rounding of centre (of b^2 and of the sum, eps / 2 each) and
        # of x - centre (eps / 2) moves the law as a shift of x would
        moved = _EPS * (centre + 0.5 * abs(x - centre)) * abs(pdf)
        err = (smoothed + 3.0 * _TAIL + phase_rounding
               + shift_rounding * abs(shift) + moved)
        return cdf, pdf, err, 0.1 * err

    def start(p):
        # F at shift lo + j 2 pi / (size delta) is 1/2 - Im(e^{-i pi j / size}
        # S_j) / pi, S the FFT of the node terms at shift lo zero-padded to
        # size, the rotation that of the half node; bisection on j finds a
        # crossing of p, and the start interpolates it
        u, phase, _, weight, *_ = terms(2.0 * _SMOOTH)
        size = max(4096, 1 << (phase.size - 1).bit_length())
        node = np.fft.fft(weight * np.exp(1j * (phase - u * lo)), size)

        def grid_cdf(j):
            turn = math.pi * j / size
            return 0.5 - (node[j].imag * math.cos(turn)
                          - node[j].real * math.sin(turn)) / math.pi

        a, b = 0, size - 1
        fa, fb = grid_cdf(a), grid_cdf(b)
        if not fa < p <= fb:
            return centre + (lo if fa >= p else hi) * sd
        while b - a > 1:
            mid = (a + b) // 2
            f = grid_cdf(mid)
            a, fa, b, fb = (mid, f, b, fb) if f < p else (a, fa, mid, f)
        shift = lo + (a + (p - fa) / (fb - fa)) * 2.0 * math.pi / (size * delta)
        return centre + float(min(shift, hi)) * sd

    return law, start, centre + lo * sd, centre + hi * sd


def _invert(law, p: float, x: float, lo: float, hi: float) -> QuantileEstimate:
    """Root of law(x)[0] = p in (lo, hi), 0 <= lo, hi may be inf: Newton
    steps on the density inside the bracket and within a factor 4 of x
    (from a deep lower tail, F ~ x^k, they overshoot), else 4 x up to a
    finite hi, then bisection, geometric while hi > 4 lo.  Stops once
    |F(x) - p| is within the law's resolution of p or the step is below
    the resolution of x."""
    for _ in range(_NEWTON_STEPS):
        cdf, pdf, err, tol = law(x)
        if cdf < p:
            lo = x
        else:
            hi = x
        if abs(cdf - p) <= tol or hi - lo <= 4.0 * _EPS * x:
            break
        step = x - (cdf - p) / pdf if pdf > 0 else math.nan
        if abs(step - x) <= _EPS * x:
            break
        if lo < step < hi and 0.25 * x <= step <= 4.0 * x:
            x = step
        elif hi == math.inf:
            x = 4.0 * x
        else:
            x = math.sqrt(lo * hi) if hi > 4.0 * lo > 0.0 else 0.5 * (lo + hi)
    else:
        raise ArithmeticError("quadratic-form quantile did not converge")
    if not pdf > 0:
        raise ArithmeticError("quadratic-form density not positive at quantile")
    return QuantileEstimate(value=x,
                            stderr=(err + abs(cdf - p)) / pdf + 2.0 * _EPS * x)


def _form_quantile(var: np.ndarray, bias: np.ndarray | None,
                   p: float) -> QuantileEstimate:
    """x with P(sum (b_i + sqrt(v_i) Z_i)^2 <= x) = p."""
    active, mass = _split(var, bias)
    v = var[active]
    if bias is not None and np.any(bias[active]):
        law, start, lo, hi = _davies_law(v, bias[active] ** 2)
        est = _invert(law, p, start(p), lo, hi)
        return QuantileEstimate(mass + est.value, est.stderr)
    # central: invert at unit scale, so that c w gives c times the quantile
    scale = v.max()
    w = v / scale
    # start from Wilson & Hilferty's cube-root normal quantile of the gamma
    # law with the same two moments (Satterthwaite), which fails where the
    # cube root nears 0; two floors hold there: the quantile of Z^2, as the
    # form exceeds max w Z_1^2 = Z_1^2, and the point where the gamma's
    # lower-tail bound (x / gscale)^shape / Gamma(shape + 1) reaches p
    m1, m2 = compensated_sum(w), compensated_sum(w * w)
    shape, gscale = 0.5 * m1 * m1 / m2, 2.0 * m2 / m1
    root = (1.0 - 1.0 / (9.0 * shape)
            + NormalDist().inv_cdf(p) / (3.0 * math.sqrt(shape)))
    start = max(gscale * shape * max(root, 0.0) ** 3,
                NormalDist().inv_cdf(0.5 + 0.5 * p) ** 2,
                gscale * math.exp((math.log(p) + math.lgamma(shape + 1.0)) / shape))
    est = _invert(_euler_law(w), p, start, 0.0, math.inf)
    return QuantileEstimate(mass + scale * est.value, scale * est.stderr)


def quadratic_form_quantile(q: QuadraticForm, p: float) -> QuantileEstimate:
    """x with P(sum w_i Z_i^2 <= x) = p, by inversion of the exact law."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile level p must lie in (0, 1)")
    w = q.weights.values
    if w.size == 0 or w.max() <= 0.0:
        raise ValueError("quadratic form needs at least one positive weight")
    return _form_quantile(w, None, p)


def credible_ball(summary: PosteriorSummary, gamma: float) -> CredibleBall:
    """Credible ball of mass 1 - gamma centered at the posterior mean.

    The radius depends only on (prior, kappa, n) through the posterior
    variances, never on the data.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    form = QuadraticForm.from_weights(summary.variance)
    est = quadratic_form_quantile(form, 1.0 - gamma)
    radius = math.sqrt(est.value)
    return CredibleBall(
        center=summary.mean,
        radius=radius,
        level=gamma,
        radius_stderr=est.stderr / (2.0 * radius) if radius > 0 else 0.0,
    )


def frequentist_radius(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                       mu0: CoefficientSequence, gamma: float) -> QuantileEstimate:
    """Radius giving the ball centered at muhat exact coverage 1 - gamma.

    Solves P(||W + E muhat - mu0|| <= r) = 1 - gamma where W has
    coordinate variances t_i; an oracle quantity (it needs mu0).
    Returns the radius with its error bound.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if mu0.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between mu0 and kappa")
    w = posterior_weights(prior, kappa, n)
    bias = -mu0.values * w.one_minus_gain
    t = w.shrink_var
    if t.max() <= 0.0:
        if not np.any(bias):
            raise ValueError("degenerate sampling distribution: no variance, no bias")
        return QuantileEstimate(value=math.sqrt(compensated_sum(bias**2)),
                                stderr=0.0)
    est = _form_quantile(t, bias, 1.0 - gamma)
    radius = math.sqrt(est.value)
    return QuantileEstimate(
        value=radius,
        stderr=est.stderr / (2.0 * radius) if radius > 0 else 0.0,
    )

"""Credible balls for the full parameter and the quadratic-form quantiles
behind their radii.

Under the posterior, ||mu - muhat||^2 is distributed as U = sum s_i Z_i^2,
a nonnegative-weighted chi-square mixture; the credible radius solves
P(U < r^2) = 1 - gamma.  The honest frequentist radius solves the same
equation for the sampling distribution ||W + bias||^2 with coordinate
variances t_i.  Both quantiles come from numerical inversion of the exact
law of the form, found by safeguarded Halley or Newton steps:

* central forms, sum w_i Z_i^2 (the credible radius): the Laplace
  transforms L(s)/s of the distribution function and L(s) of the density,
  with L(s) = prod (1 + 2 w_i s)^(-1/2), are inverted by the Fourier
  series of Abate & Whitt (1995) with Euler summation.  L is evaluated in
  real arithmetic, as a log-modulus and a phase: at the nodes
  s_k = (A + 2 pi i k) / (2x), 1 + 2 s_k w_i = a_i (1 + i r_ki) with a_i
  and r_ki real, so each evaluation takes one log per coordinate and one
  log1p and one arctan per node and coordinate, and no complex
  arithmetic per coordinate.  With 3 or more coordinates the density
  vanishes at 0, so s L(s) is the transform of its slope f', and a third
  series on the same nodes gives f' for Halley's step; with 1 or 2 the
  steps are Newton's.  The discretisation error is at most
  e^-A / (1 - e^-A); the Euler sum's own error is estimated by the change
  from one more term, and twice their sum is reported.  The steps start
  from Wilson & Hilferty's cube-root normal quantile of the gamma law with
  the form's first two moments (Satterthwaite), floored by the
  chi-square_1 quantile of the largest weight and by the gamma's
  lower-tail bound.
* forms with a bias, sum (b_i + sqrt(v_i) Z_i)^2 (the frequentist
  radius): the Laplace inversion integral
  F(x) = (1/2 pi i) int e^(t x) L(t) / t dt, L(t) = E e^(-t Q), taken on
  the form centred and scaled to unit sd, along a hyperbola through the
  real saddle point t of t x + log L(t) - log|t| (Rice 1980).  It is
  summed by the trapezoid rule in w, with the hyperbola's arc variable
  u = sinh w, so that the nodes lie exponentially far out along its arms
  and a slowly decaying integrand needs a hundred or so of them, not a
  thousand (Weideman & Trefethen 2007); the terms stop right after the
  first one below the cut.  With t > 0 (x below the mean) the integral
  is F, and with t < 0 it is F - 1, so each tail comes out relative to
  itself; there is no convergence factor, and so no smoothing bias at the
  edge of a noncentral chi-square_1 coordinate.  The centred cumulant of
  each coordinate, -1/2 (log1p(2 v t) - 2 v t) + 2 v b^2 t^2 / (1 + 2 v t),
  keeps a mean far above the sd from cancelling; on the real axis it and
  its first two derivatives come from one pass over the coordinates, for
  the saddle points, which `_invert` solves.  The error bound is the change
  from step h to h / 2 (the midpoints), the terms past the cut and the
  rounding of the terms, of the form's mean and of x minus it.  One contour
  serves every iterate near the x it was built at (Cauchy's theorem), and
  its terms times t^2 give f' for Halley's step; the inversion starts from
  the saddle-point quantile corrected once by Barndorff-Nielsen's r*,
  inside Cantelli's bracket and, in the lower tail, Chernoff's.

The Laplace-Euler series fails on forms with a large noncentrality, whose
terms keep oscillating; on the central forms the contour, even in w, is
several times slower than the series, and it cannot resolve a quantile
below eps times the form's mean, as y = (x - mean) / sd rounds it away
(chi-square_1 at p = 1e-8); hence the split.  Coordinates whose
variance is below eps * max variance enter as the fixed mass b_i^2 (zero
for central forms), as in the Monte Carlo sampler `_form_draws`, which
draws the squared errors of the ball coverage and risk experiments.
Each quantile carries a bound on its absolute numerical error: the
inversion's probability error divided by the density, plus the distance
of the last iterate from the root and the rounding of the fixed mass and
of its sum with the quantile.  Each law also gives the |F(x) - p|
that resolves p: a tenth of its error bound, or the rounding of its
terms where that is larger (for the Euler series eps * sum |terms|: A = 25
amplifies rounding by e^(A/2), so F wobbles by about 1e-11 between
neighbouring x, and Newton steps below that chase rounding).  The
inversion stops there, or once the step is below the resolution
eps x of x.
"""

from __future__ import annotations

import functools
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
# the series' nodes k and frequencies 2 pi k; the terms of the series of F,
# x f and x^2 f' are Re[L(s_k) _EULER_TERMS], with s_k = (A + 2 pi i k) / (2x):
# the signs (-1)^k e^(A/2), halved at k = 0, times x / s_k for F and x s_k
# for f'
_EULER_NODES = np.arange(_EULER_N + _EULER_M + 2)
_EULER_FREQ = 2.0 * math.pi * _EULER_NODES
_EULER_TERMS = (np.where(_EULER_NODES == 0, 0.5, (-1.0) ** _EULER_NODES)
                * math.exp(0.5 * _EULER_A)
                * np.stack((2.0 / (_EULER_A + 1j * _EULER_FREQ),
                            np.ones(_EULER_NODES.size),
                            0.5 * (_EULER_A + 1j * _EULER_FREQ))))
# the sums of log1p(r^2) and of arctan r to log |L| and arg L
_LAPLACE_SCALE = np.array([[-0.25], [-0.5]])
# contour law: the hyperbola's bend rho, the trapezoid step h in w, the
# ratio to the vertex term below which the terms are cut, and the factor by
# which the last term may grow as x moves before the contour is built again
_CONTOUR_RHO = 0.6
_CONTOUR_STEP = 0.07
_CONTOUR_CUT = 1e-17
_CONTOUR_GROWTH = 1e3
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
    """x -> (F(x), f(x), f'(x), bound on |error of F|, |F(x) - p| that
    resolves p) for sum w_i Z_i^2.

    F, the density f and f' are the Laplace inverses of L(s)/s, L(s) and
    s L(s), by Abate & Whitt's Fourier series at s_k = (A + 2 pi i k) / (2x).
    s L(s) is the transform of f' where f(0+) = 0, with 3 or more
    coordinates; with 1 or 2 the law gives 0 in place of f' (Newton steps).
    """
    stop = _EULER_N + _EULER_M + 1
    discrete = math.exp(-_EULER_A) / -math.expm1(-_EULER_A)
    halley = w.size >= 3

    def law(x):
        log_modulus, phase = _laplace_log(w, x)
        # rows: the terms of the series of F, of x f and of x^2 f'
        terms = (np.exp(log_modulus + 1j * phase) * _EULER_TERMS).real
        partial = np.cumsum(terms, axis=1)
        cdf, pdf, slope = partial[:, _EULER_N + 1:stop + 1] @ _EULER_MEAN
        now = partial[0, _EULER_N:stop] @ _EULER_MEAN
        rounding = _EPS * float(np.abs(terms[0]).sum())
        # twice the sum: the Euler term is an estimate, not a bound
        err = 2.0 * (abs(cdf - now) + rounding + discrete)
        return (cdf, pdf / x, slope / (x * x) if halley else 0.0, err,
                max(0.1 * err, rounding))

    return law


def _contour_law(v: np.ndarray, b2: np.ndarray):
    """(law, start) for the form sum (b_i + sqrt(v_i) Z_i)^2, with b2 the
    squared biases: law(x) = (F(x), f(x), f'(x), bound on |error of F|,
    |F(x) - p| that resolves p), and start(p) = (x, lo, hi), the start
    and a bracket of the p-quantile.

    On the form centred and scaled to unit sd, with ell(t) its centred
    cumulant, F(x) - [t0 < 0] = (1/2 pi i) int e^(t y + ell(t)) / t dt at
    y = (x - mean) / sd is summed by the trapezoid rule in w >= 0 (the
    integrand at -w is the conjugate) along the hyperbola
    t(w) = t0 + (i sinh w - rho (cosh w - 1)) / sigma, whose vertex t0 is
    a saddle point of g(t) = t y + ell(t) - log|t| and sigma^2 = g''(t0).
    One contour serves every y with |t0 (y - y_c)| <= 1/2 around the y_c it
    was built at, while its cut, within _CONTOUR_GROWTH, still holds there.
    """
    # correctly rounded: the law charges its rounding to the error below
    centre = math.fsum(np.concatenate((v, b2)).tolist())
    sd = math.sqrt(2.0 * compensated_sum(v * v) + 4.0 * compensated_sum(v * b2))
    v, b2 = v / sd, b2 / sd
    top = 0.5 / v.max()  # L is analytic right of -top

    def centred_cumulant(t, v, b2):
        # log E exp(-t (Q - mean)), with the mean taken out analytically:
        # adding t * mean to log L would cancel where mean / sd nears 1 / eps
        z = 2.0 * v * t
        return (-0.5 * (np.log1p(z) - z) + b2 * t * z / (1.0 + z)).sum(axis=-1)

    twice, curvature, cross = 2.0 * v, 2.0 * v * v, 4.0 * v * b2

    @functools.lru_cache(maxsize=1)
    def cumulant(t):
        # ell(t), ell'(t) and ell''(t) at a real t > -top, in one pass; the
        # last is kept, as a solve returns the t it evaluated last
        z = twice * t
        shifted = 1.0 + z
        r = 1.0 / shifted
        rows = np.empty((3, v.size))
        rows[0] = -0.5 * (np.log1p(z) - z) + b2 * t * z / shifted
        rows[1] = v * z * r + b2 * z * (2.0 + z) * r * r
        rows[2] = (curvature + cross * r) * r * r
        return rows.sum(axis=-1).tolist()

    def solve(law, side, a):
        # side a at the root a = |t| of law(a)[0], increasing on (0, inf) or
        # (0, top) for side < 0: _invert's Newton steps (f' = err = tol = 0)
        hi = math.inf if side > 0 else top
        return side * _invert(law, 0.0, a if a < hi else 0.5 * hi, 0.0, hi).value

    contour = {}

    def build(y):
        # the vertex on the side of 0 that keeps each tail relative to
        # itself, t0 > 0 below the mean and t0 < 0 above it; nodes at
        # spacing h / 2 in w, in blocks that double from 80, up to the
        # first term at y below _CONTOUR_CUT times the vertex's
        side = 1.0 if y <= 0.0 else -1.0

        def slope(a):
            # side g'(t) and g''(t) at t = side a
            _, d1, d2 = cumulant(side * a)
            return side * (y + d1) - 1.0 / a, d2 + 1.0 / (a * a), 0.0, 0.0, 0.0
        t0 = solve(slope, side, 0.5 * (math.sqrt(y * y + 4.0) - side * y))
        sigma = math.sqrt(slope(side * t0)[1])
        t = log_term = np.empty(0, dtype=complex)
        while True:
            w = np.arange(t.size, max(80, 2 * t.size)) * (0.5 * _CONTOUR_STEP)
            u, bend = np.sinh(w), np.cosh(w)
            block = t0 + (1j * u - _CONTOUR_RHO * (bend - 1.0)) / sigma
            # log of e^ell(t) t'(w) / t, the term of F but for e^(t y)
            logs = (_coordinate_sum(centred_cumulant, block, v, b2)
                    + np.log((1j * bend - _CONTOUR_RHO * u) / (sigma * block)))
            t, log_term = np.concatenate((t, block)), np.concatenate((log_term, logs))
            below = np.flatnonzero(((block - t0) * y + logs - log_term[0]).real
                                   < math.log(_CONTOUR_CUT))
            if below.size:
                break
        end = t.size - block.size + below[0] + 1
        contour.update(y=y, vertex=t0, t=t[:end], log_term=log_term[:end])

    def law(x):
        y = (x - centre) / sd
        # below y_c the terms grow along the contour relative to its vertex,
        # the last one by e^(Re(t - t0) (y - y_c))
        if (not contour or abs(contour["vertex"] * (y - contour["y"])) > 0.5
                or (contour["t"][-1] - contour["vertex"]).real * (y - contour["y"])
                > math.log(_CONTOUR_GROWTH)):
            build(y)
        exponent = contour["t"] * y + contour["log_term"]
        terms = np.exp(exponent)
        terms[0] *= 0.5
        scale = 0.5 * _CONTOUR_STEP / math.pi
        fine = scale * float(terms.imag.sum())
        coarse = 2.0 * scale * float(terms.imag[::2].sum())
        pdf = scale * float((terms * contour["t"]).imag.sum()) / sd
        slope = scale * float((terms * contour["t"] ** 2).imag.sum()) / (sd * sd)
        cdf = fine + (contour["vertex"] < 0.0)
        # each term carries the rounding of its phase; F that of 1 + F - 1
        rounding = _EPS * (scale * float(np.abs(terms) @ (1.0 + np.abs(exponent.imag)))
                           + 0.5 * cdf)
        # the rounding of centre (of b^2 and of the sum, eps / 2 each) and
        # of x - centre (eps / 2) moves the law as a shift of x would
        moved = _EPS * (centre + 0.5 * abs(x - centre)) * abs(pdf)
        err = abs(fine - coarse) + 2.0 * scale * abs(terms[-1]) + rounding + moved
        return cdf, pdf, slope, err, max(0.1 * err, rounding)

    def saddle_point(c, side):
        # (t, ell'(t), -t sqrt(ell''(t))) at the t on `side` with
        # t ell'(t) - ell(t) = c >= 0: for K(s) = ell(-s), the s = -t with
        # s K'(s) - K(s) = c, -K'(s) and s sqrt(K''(s))
        def equation(a):
            # t ell'(t) - ell(t) - c at t = side a, and its a-derivative
            ell, d1, d2 = cumulant(side * a)
            return side * a * d1 - ell - c, a * d2, 0.0, 0.0, 0.0
        t = solve(equation, side, math.sqrt(2.0 * c))
        _, d1, d2 = cumulant(t)
        return t, d1, -t * math.sqrt(d2)

    def start(p):
        # the saddle-point quantile: with w = z_p, x = K'(s) at
        # s K'(s) - K(s) = w^2 / 2, corrected once to r* = w + log(u / w) / w
        # = z_p, u = s sqrt(K''(s)) (Barndorff-Nielsen 1986), as
        # dx / dw = w / s.  Cantelli's inequality brackets the quantile
        # within sd sqrt(p / (1 - p)) above the mean and sd sqrt((1 - p) / p)
        # below it; in the lower tail Chernoff's bound
        # F(K'(s)) <= exp(K(s) - s K'(s)), s < 0, raises lo to where it is p
        z = NormalDist().inv_cdf(p)
        lo = max(-math.sqrt((1.0 - p) / p), -centre / sd)
        hi = math.sqrt(p / (1.0 - p))
        y = 0.0
        if z != 0.0:
            side = -math.copysign(1.0, z)
            t, d1, u = saddle_point(0.5 * z * z, side)
            y = -d1 + math.log(u / z) / t
            if z < 0.0:
                lo = max(lo, -saddle_point(-math.log(p), side)[1])
        return tuple(centre + sd * e for e in (min(max(y, lo), hi), lo, hi))

    return law, start


def _invert(law, p: float, x: float, lo: float, hi: float) -> QuantileEstimate:
    """Root of law(x)[0] = p in (lo, hi), 0 <= lo, hi may be inf: Halley
    steps (Newton's where f' = 0 or Halley's is not within a factor 2 of
    Newton's) inside the bracket and within a factor 4 of x (from a deep
    lower tail, F ~ x^k, they overshoot), else 4 x up to a finite hi, then
    bisection, geometric while hi > 4 lo.  Stops once |F(x) - p| is within
    the law's resolution of p or the step is below the resolution of x."""
    for _ in range(_NEWTON_STEPS):
        cdf, pdf, slope, err, tol = law(x)
        if cdf < p:
            lo = x
        else:
            hi = x
        if abs(cdf - p) <= tol or hi - lo <= 4.0 * _EPS * x:
            break
        newton = (cdf - p) / pdf if pdf > 0 else math.nan
        ratio = 1.0 - 0.5 * newton * slope / pdf if pdf > 0 else 1.0
        step = x - newton / (ratio if 0.5 <= ratio <= 2.0 else 1.0)
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
        law, start = _contour_law(v, bias[active] ** 2)
        est = _invert(law, p, *start(p))
        # the rounding of the frozen mass and of its sum with the quantile
        return QuantileEstimate(mass + est.value,
                                est.stderr + _EPS * (mass + est.value))
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


def _ball_radius(var: np.ndarray, bias: np.ndarray | None,
                 gamma: float) -> QuantileEstimate:
    """r with P(sum (b_i + sqrt(v_i) Z_i)^2 <= r^2) = 1 - gamma, with its
    error bound; ``bias=None`` is the central form."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if var.max() <= 0.0:
        if bias is None or not np.any(bias):
            raise ValueError("degenerate sampling distribution: no variance, no bias")
        return QuantileEstimate(value=math.sqrt(compensated_sum(bias**2)),
                                stderr=0.0)
    est = _form_quantile(var, bias, 1.0 - gamma)
    radius = math.sqrt(est.value)
    return QuantileEstimate(
        value=radius,
        stderr=est.stderr / (2.0 * radius) if radius > 0 else 0.0,
    )


def credible_ball(summary: PosteriorSummary, gamma: float) -> CredibleBall:
    """Credible ball of mass 1 - gamma centered at the posterior mean.

    The radius depends only on (prior, kappa, n) through the posterior
    variances, never on the data.
    """
    est = _ball_radius(summary.variance.values, None, gamma)
    return CredibleBall(center=summary.mean, radius=est.value, level=gamma,
                        radius_stderr=est.stderr)


def frequentist_radius(prior: PriorSpec, kappa: CoefficientSequence, n: float,
                       mu0: CoefficientSequence, gamma: float) -> QuantileEstimate:
    """Radius giving the ball centered at muhat exact coverage 1 - gamma.

    Solves P(||W + E muhat - mu0|| <= r) = 1 - gamma where W has
    coordinate variances t_i; an oracle quantity (it needs mu0).
    Returns the radius with its error bound.
    """
    if mu0.truncation_level != kappa.truncation_level:
        raise ValueError("truncation mismatch between mu0 and kappa")
    w = posterior_weights(prior, kappa, n)
    return _ball_radius(w.shrink_var, -mu0.values * w.one_minus_gain, gamma)

"""Output checks for the benchmark's jobs.

The checks test that each output is right, not that the paper's claims
hold.  Wherever the library's Monte Carlo or draw streams may legitimately
change, the check uses an independent oracle with a statistical tolerance:

* posterior factors are recomputed here from the model's closed forms
  (lambda_i, kappa_i = exp(-i^2 pi^2 T), a_i = n lambda_i kappa_i^2);
* quadratic-form probabilities come from Imhof's (1961) inversion of the
  characteristic function, evaluated by Fourier-weighted quadrature;
  (scaled to unit variance: a noncentral form with a large bias is then
  as easy as a central one);
* Monte Carlo coverages are tested against their exact probabilities with a
  two-sided binomial tail test, and Monte Carlo risks against the exact risk
  within six of their own standard errors.

Only the lemma tables, which are deterministic and seed-free, are compared
with a stored reference (``reference/lemma_suite.json``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta
from scipy.stats import binom, norm

from heatbayes.sequence import CoefficientSequence, simulate_observations

_EPS = np.finfo(float).eps
_CHUNK = 1 << 20
# smallest two-sided binomial tail accepted for a Monte Carlo coverage
BINOM_TAIL = 1e-6
# Monte Carlo estimates must lie within this many standard errors
MC_SIGMAS = 6.0
RTOL = 1e-9
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "lemma_suite.json")


def _blocks(nn: int):
    for start in range(1, nn + 1, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, nn + 1), dtype=float)


def prior_variance(prior, i: np.ndarray) -> np.ndarray:
    if prior.kind.value == "polynomial":
        return prior.tau**2 * i ** (-1.0 - 2.0 * prior.alpha)
    with np.errstate(under="ignore"):
        return np.exp(-prior.alpha * i * i)


def factors(prior, n: float, time_horizon: float, i: np.ndarray) -> dict:
    """Posterior factors at indices i from the closed forms."""
    lam = prior_variance(prior, i)
    with np.errstate(under="ignore", over="ignore"):
        kappa = np.exp(-i * i * math.pi**2 * time_horizon)
        a = n * lam * kappa * kappa
        s = lam / (1.0 + a)
        g = a / (1.0 + a)
        w = n * lam * kappa / (1.0 + a)
    return {"lam": lam, "kappa": kappa, "s": s, "g": g, "t": s * g, "w": w}


def shrink_variances(prior, kappa: np.ndarray, n: float) -> np.ndarray:
    """t_i = lambda_i a_i / (1 + a_i)^2 for given kappa values."""
    lam = prior_variance(prior, np.arange(1, kappa.size + 1, dtype=float))
    with np.errstate(under="ignore"):
        a = n * lam * kappa * kappa
        return lam * a / (1.0 + a) ** 2


def cubic_coefficients(i: np.ndarray) -> np.ndarray:
    sign = np.where(i % 2 == 0, 1.0, -1.0)
    return 8.0 * math.sqrt(2.0) * (13.0 + 11.0 * sign) / (math.pi**3 * i**3)


def cubic_function(x: np.ndarray) -> np.ndarray:
    return 4.0 * x * (x - 1.0) * (8.0 * x - 5.0)


def imhof_cdf(x: float, lam: np.ndarray, delta2: np.ndarray | None = None) -> float:
    """P(sum lam_j (Z_j + delta_j)^2 <= x) for lam_j > 0 (Imhof 1961).

    The form is scaled to unit standard deviation.  When the integrand's
    envelope dies within a few hundred phase cycles (many terms, or a large
    noncentrality) the inversion integral is taken directly; otherwise its
    slowly decaying tail is split into sin(A) cos(xu/2) - cos(A) sin(xu/2),
    with A(u) bounded and slowly varying, and integrated with Fourier weights.
    """
    d2 = np.zeros_like(lam) if delta2 is None else delta2
    sd = math.sqrt(2.0 * float(np.sum(lam * lam * (1.0 + 2.0 * d2))))
    lam = lam / sd
    x = x / sd
    if x <= 0.0:
        return 0.0
    mean = float(np.sum(lam * (1.0 + d2)))

    def parts(u):
        lu = lam * u
        q = 1.0 + lu * lu
        a = 0.5 * float(np.sum(np.arctan(lu) + d2 * lu / q))
        env = math.exp(-0.25 * float(np.sum(np.log(q)))
                       - 0.5 * float(np.sum(d2 * lu * lu / q))) / u
        return a, env

    def full(u):
        if u == 0.0:
            return 0.5 * (mean - x)
        a, env = parts(u)
        return math.sin(a - 0.5 * x * u) * env

    top = 1.0
    while parts(top)[1] * top > 1e-13 and top < 2.0**20:
        top *= 2.0
    if top < 2.0**20 and abs(parts(top)[0] - 0.5 * x * top) < 1000.0 * math.pi:
        val = quad(full, 0.0, top, limit=1000, epsabs=1e-13, epsrel=1e-12)[0]
    else:
        omega = 0.5 * x
        u0 = 2.0 * math.pi / omega
        val = quad(full, 0.0, u0, limit=200, epsabs=1e-13, epsrel=1e-12)[0]
        val += quad(lambda u: math.sin(parts(u)[0]) * parts(u)[1], u0, np.inf,
                    weight="cos", wvar=omega, limlst=200)[0]
        val -= quad(lambda u: math.cos(parts(u)[0]) * parts(u)[1], u0, np.inf,
                    weight="sin", wvar=omega, limlst=200)[0]
    return min(max(0.5 - val / math.pi, 0.0), 1.0)


def _form_cdf(x: float, var: np.ndarray, bias: np.ndarray | None = None) -> float:
    """P(sum (bias_i + sqrt(var_i) Z_i)^2 <= x).

    The smallest terms, whose variances add up to at most 1e-8 of the
    form's, enter with their mean only.  That moves the form by a zero-mean
    amount of at most 1e-4 of its standard deviation, and keeps terms with
    tiny variance but large bias out of the inversion integral.
    """
    b2 = np.zeros_like(var) if bias is None else bias * bias
    v = 2.0 * var * var + 4.0 * var * b2
    order = np.argsort(v)
    frozen = np.zeros(var.size, dtype=bool)
    frozen[order] = np.cumsum(v[order]) <= 1e-8 * v.sum()
    mass = math.fsum(var[frozen] + b2[frozen])
    keep = ~frozen
    return imhof_cdf(x - mass, var[keep], b2[keep] / var[keep])


def _close(name: str, got, want, rtol: float = RTOL, atol: float = 0.0) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    bad = ~(np.abs(got - want) <= atol + rtol * np.abs(want))
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{name}: {got.flat[k]!r} vs oracle {want.flat[k]!r}"]
    return []


def _binomial(name: str, coverage: float, reps: int, p: float) -> list:
    hits = int(round(coverage * reps))
    tail = min(binom.cdf(hits, reps, p), binom.sf(hits - 1, reps, p))
    if tail < BINOM_TAIL:
        return [f"{name}: {hits}/{reps} implausible at exact p={p:.6f} "
                f"(tail {tail:.2e})"]
    return []


def _mc(name: str, est: float, se: float, exact: float) -> list:
    if not abs(est - exact) <= MC_SIGMAS * se + 1e-12 * abs(exact):
        return [f"{name}: {est!r} vs exact {exact!r} (se {se!r})"]
    return []


def _quantile_level(name: str, radius: float, var, bias, level: float,
                    draws: int) -> list:
    """The radius must carry probability `level` up to Monte Carlo error."""
    p = _form_cdf(radius * radius, var, bias)
    se = math.sqrt(level * (1.0 - level) / draws)
    if not abs(p - level) <= MC_SIGMAS * se:
        return [f"{name}: P(Q <= r^2) = {p:.6f}, wanted {level} (se {se:.1e})"]
    return []


# --- figure panels -----------------------------------------------------

def check_panel(panel, cfg, spec, truncation: int, files: dict) -> list:
    """Truth, mean, band and draw curves of one panel, and its files."""
    prior, n, nn, T = spec.prior, spec.n, truncation, cfg.time_horizon
    x = np.linspace(0.0, 1.0, cfg.x_grid_points)
    problems = _close("panel.x", panel.x, x, rtol=0.0)
    # truth: |mu_i| <= C i^-3, so the dropped tail is at most sqrt2 C/(2N^2);
    # rounding of the N-term sum adds at most 8 N eps sqrt2 C zeta(3)
    c = math.sqrt(2.0) * 8.0 * math.sqrt(2.0) * 24.0 / math.pi**3
    tol = c / (2.0 * nn * nn) + 8.0 * nn * _EPS * c * zeta(3.0)
    problems += _close("panel.truth", panel.truth, cubic_function(x), 0.0, tol)

    # band: sd(x_k)^2 = sum_i s_i 2 sin^2(i pi k/M) folds onto i mod M
    m = x.size - 1
    bins = np.zeros(m)
    for i in _blocks(nn):
        bins += np.bincount((i.astype(np.int64) % m), factors(prior, n, T, i)["s"],
                            minlength=m)
    j = np.outer(np.arange(x.size), np.arange(m)) % m
    table = np.where(j == 0, 0.0, 2.0 * np.sin(np.pi * j / m) ** 2)
    sd = np.sqrt(table @ bins)
    z = norm.ppf(1.0 - cfg.gamma / 2.0)
    problems += _close("panel.halfwidth", (panel.upper - panel.lower) / 2.0,
                       z * sd, rtol=1e-8, atol=1e-15)

    # mean: observations from the documented stream (seed, "obs", stream)
    head = np.arange(1, min(nn, 4096) + 1, dtype=float)
    f = factors(prior, n, T, head)
    support = int(np.flatnonzero(f["w"])[-1]) + 1 if np.any(f["w"]) else 0
    if support == head.size and head.size < nn:
        return problems + ["panel.mean: oracle support exceeds 4096"]
    full = np.arange(1, nn + 1, dtype=float)
    obs = simulate_observations(
        CoefficientSequence(cubic_coefficients(full), nn),
        CoefficientSequence(factors(prior, n, T, full)["kappa"], nn),
        n, cfg.seed, spec.data_stream)
    wy = f["w"][:support] * obs.y.values[:support]
    basis = math.sqrt(2.0) * np.sin(np.pi * np.outer(x, head[:support]))
    mean = basis @ wy
    problems += _close("panel.mean", (panel.upper + panel.lower) / 2.0, mean,
                       rtol=0.0, atol=1e-9 * (np.abs(mean).max() + 1e-300))

    d = panel.draw_curves
    if d.shape != (spec.draws, x.size) or not np.all(np.isfinite(d)):
        problems.append(f"panel.draws: shape {d.shape} or non-finite values")
    elif np.any(np.abs(d - mean) > 7.0 * sd + 1e-9):
        problems.append("panel.draws: a draw leaves mean +- 7 sd")
    return problems + check_files(panel, spec.draws, files)


def check_files(panel, draws: int, files: dict) -> list:
    problems = []
    with open(files["csv"], "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != files["csv_sha"]:
        problems.append("csv: checksum differs from the written bytes")
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    columns, table = panel.to_table()
    if tuple(rows[0]) != tuple(columns):
        problems.append("csv: header differs from the panel table")
    parsed = np.array([[float(v) for v in r] for r in rows[1:]])
    if parsed.shape != (len(table), len(columns)) or not np.array_equal(
            parsed, np.array(table, dtype=float)):
        problems.append("csv: values do not round-trip")
    with open(files["svg"], "rb") as fh:
        raw = fh.read()
    if hashlib.sha256(raw).hexdigest() != files["svg_sha"]:
        problems.append("svg: checksum differs from the written bytes")
    lines = ET.fromstring(raw).findall("{http://www.w3.org/2000/svg}polyline")
    if len(lines) != 4 + draws:
        problems.append(f"svg: {len(lines)} polylines, expected {4 + draws}")
    return problems


# --- coverage and risk reports -----------------------------------------

def _full(prior, n: float, T: float, nn: int) -> dict:
    i = np.arange(1, nn + 1, dtype=float)
    f = factors(prior, n, T, i)
    f["mu"] = cubic_coefficients(i)
    return f


def check_ball(report, cfg, truncations) -> list:
    problems = []
    level = 1.0 - cfg.gamma
    for row, nn in zip(report.rows, truncations):
        n, cov, se, radius, r_freq, ratio, risk, risk_se = row
        tag = f"ball n={n:g}"
        f = _full(cfg.prior, n, cfg.time_horizon, nn)
        problems += _quantile_level(f"{tag} radius", radius, f["s"], None,
                                    level, cfg.mc_draws)
        if cfg.mu0.is_random:
            # Bayesian model: coverage is 1 - gamma and risk is sum s_i
            problems += _binomial(f"{tag} coverage", cov, cfg.replications,
                                  level)
            problems += _mc(f"{tag} risk_mc", risk, risk_se,
                            math.fsum(f["s"]))
            if not (math.isnan(r_freq) and math.isnan(ratio)):
                problems.append(f"{tag}: frequentist radius set for a prior draw")
            continue
        bias = -(1.0 - f["g"]) * f["mu"]
        problems += _quantile_level(f"{tag} radius_freq", r_freq, f["t"], bias,
                                    level, cfg.mc_draws)
        problems += _close(f"{tag} radius_ratio", ratio, radius / r_freq)
        problems += _binomial(f"{tag} coverage", cov, cfg.replications,
                              _form_cdf(radius * radius, f["t"], bias))
        problems += _mc(f"{tag} risk_mc", risk, risk_se,
                        math.fsum(bias**2) + math.fsum(f["t"]))
    return problems


def check_interval(report, cfg, truncations, x: float) -> list:
    problems = []
    z = norm.ppf(1.0 - cfg.gamma / 2.0)
    for row, nn in zip(report.rows, truncations):
        n, cov, se, half, spread, mean_sd = row
        tag = f"interval n={n:g}"
        s2, t2, b = [], [], []
        for i in _blocks(nn):
            f = factors(cfg.prior, n, cfg.time_horizon, i)
            l = math.sqrt(2.0) * np.sin(np.pi * np.mod(i * x, 2.0))
            s2.append(float(np.sum(l * l * f["s"])))
            t2.append(float(np.sum(l * l * f["t"])))
            b.append(float(np.sum(l * (f["g"] - 1.0) * cubic_coefficients(i))))
        s_n, t_n = math.sqrt(math.fsum(s2)), math.sqrt(math.fsum(t2))
        problems += _close(f"{tag} spread", spread, s_n)
        problems += _close(f"{tag} mean_sd", mean_sd, t_n)
        problems += _close(f"{tag} halfwidth", half, z * s_n)
        if cfg.mu0.is_random:
            p = 1.0 - cfg.gamma
        else:
            bias = math.fsum(b)
            p = (norm.cdf((z * s_n - bias) / t_n)
                 - norm.cdf((-z * s_n - bias) / t_n))
        problems += _binomial(f"{tag} coverage", cov, cfg.replications, p)
    return problems


def check_risk(report, cfg, truncations) -> list:
    problems = []
    for row, nn in zip(report.rows, truncations):
        n, sq_bias, est_var, spread, exact, total, risk_mc, risk_se = row
        tag = f"risk n={n:g}"
        f = _full(cfg.prior, n, cfg.time_horizon, nn)
        want_bias = math.fsum(((1.0 - f["g"]) * f["mu"]) ** 2)
        want_var = math.fsum(f["t"])
        want_spread = math.fsum(f["s"])
        problems += _close(f"{tag} sq_bias", sq_bias, want_bias)
        problems += _close(f"{tag} est_var", est_var, want_var)
        problems += _close(f"{tag} spread", spread, want_spread)
        problems += _close(f"{tag} risk_exact", exact, want_bias + want_var)
        problems += _close(f"{tag} risk_total", total,
                           want_bias + want_var + want_spread)
        problems += _mc(f"{tag} risk_mc", risk_mc, risk_se, want_bias + want_var)
    return problems


# --- lemma tables ------------------------------------------------------

def check_lemmas(report) -> list:
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    columns, rows = report.to_table()
    if list(columns) != ref["columns"] or len(rows) != len(ref["rows"]):
        return ["lemmas: table layout differs from the reference"]
    problems = []
    for got, want in zip(rows, ref["rows"]):
        for g, w in zip(got, want):
            if isinstance(w, str):
                if g != w:
                    problems.append(f"lemmas: {g!r} != {w!r}")
            elif not (g == w or abs(g - w) <= RTOL * abs(w)):
                problems.append(f"lemmas {got[0]}: {g!r} vs reference {w!r}")
    for N, u, p, root, resid, ratio in report.crossover_rows:
        if not resid <= 1e-10:
            problems.append(f"lemmas: crossover residual {resid:.1e} at N={N:g}")
    return problems

"""Independent oracles shared by the module and acceptance tests.

Everything here deliberately avoids the closed forms under test: Bayes by
quadrature, quantiles by gamma-function inversion (scipy), synthesis by the
defining polynomial.
"""

import math

import numpy as np


def quadrature_bayes(n, lam, kappa, y, points=40_001):
    """Single-coordinate posterior mean/variance by brute-force quadrature.

    Composite Simpson over a window located by a coarse scan of the log
    posterior density likelihood(y | mu) x prior(mu).
    """
    sd_prior = math.sqrt(lam)
    sd_lik = 1.0 / (kappa * math.sqrt(n)) if kappa > 0 else math.inf

    def log_post(mu):
        return -0.5 * n * (y - kappa * mu) ** 2 - 0.5 * mu**2 / lam

    lo = min(-10 * sd_prior, (y / kappa - 10 * sd_lik) if kappa > 0 else 0.0)
    hi = max(10 * sd_prior, (y / kappa + 10 * sd_lik) if kappa > 0 else 0.0)
    coarse = np.linspace(lo, hi, 20_001)
    center = coarse[np.argmax(log_post(coarse))]
    width = 12.0 * min(sd_prior, sd_lik)
    grid = np.linspace(center - width, center + width, points)
    log_density = log_post(grid)
    density = np.exp(log_density - log_density.max())
    h = grid[1] - grid[0]
    simpson = np.ones(points)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0
    mass = float(simpson @ density)
    mean = float(simpson @ (grid * density)) / mass
    var = float(simpson @ ((grid - mean) ** 2 * density)) / mass
    return mean, var


def posterior_weights_reference(prior, kappa, n):
    """The six posterior factor arrays from the log-space formulas over all
    N coordinates, zero kappa included: (lam, w, g, 1-g, s, t).

    This is the full-length evaluation that the library restricts to the
    support of kappa; the two must agree bit for bit.
    """
    from heatbayes.numeric import log1pexp, shrinkage_factors

    nn = kappa.truncation_level
    log_lam = prior.log_variances(nn)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_kap = np.log(kappa.values)
    log_a = math.log(n) + log_lam + 2.0 * log_kap
    log_a = np.where(np.isnan(log_a), -np.inf, log_a)
    g, omg = shrinkage_factors(log_a)
    lam = prior.variance_values(nn)
    s = lam * omg
    t = s * g
    log_w = math.log(n) + log_lam + log_kap - log1pexp(log_a)
    log_w = np.where(np.isnan(log_w), -np.inf, log_w)
    return lam, np.exp(log_w), g, omg, s, t


def sine_synthesis_reference(x, coefficients, variances):
    """Direct synthesis against the full basis matrix, (E @ C, E^2 @ v),
    built a few grid rows at a time to bound memory."""
    from heatbayes.sequence import basis_matrix

    x = np.asarray(x, dtype=float)
    curves = np.empty((x.size, coefficients.shape[1]))
    s2 = np.empty(x.size)
    for k in range(0, x.size, 8):
        E = basis_matrix(x[k:k + 8], variances.size)
        curves[k:k + 8] = E @ coefficients
        s2[k:k + 8] = (E * E) @ variances
    return curves, s2


def replicate_errors(lam, kappa, mu0, l, n, reps, seed, chunk=250):
    """End-to-end replications at a fixed truth, no sufficient statistics.

    Per replication: simulate y = kappa mu0 + Z / sqrt(n) over all
    coordinates, take the posterior mean n lam kappa y / (1 + n lam kappa^2)
    coordinate by coordinate (plain, not log-space, arithmetic), and record
    ||muhat - mu0||^2 and L muhat - L mu0 = l . (muhat - mu0).  Noise comes
    from numpy's default generator, not from the library's streams.
    """
    rng = np.random.default_rng(seed)
    weight = n * lam * kappa / (1.0 + n * lam * kappa**2)
    sq_err, lin_err = [], []
    for start in range(0, reps, chunk):
        z = rng.standard_normal((min(chunk, reps - start), mu0.size))
        err = weight * (kappa * mu0 + z / math.sqrt(n)) - mu0
        sq_err.append(np.einsum("ij,ij->i", err, err))
        lin_err.append(err @ l)
    return np.concatenate(sq_err), np.concatenate(lin_err)

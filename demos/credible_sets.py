"""Credible balls versus honest frequentist confidence balls.

The credible radius solves P(sum s_i Z_i^2 < r^2) = 1 - gamma and is
data-free; the honest radius gives the ball exact frequentist coverage at
the true signal.  Both come from numerical inversion of the exact law of
a quadratic form in normals, each with a bound on its numerical error.  A rough prior keeps the credible ball conservative
(radius ratio above 1); smooth priors shrink it until coverage collapses.
"""

import numpy as np

import heatbayes as hb

n, gamma, N = 1e8, 0.05, 100
kappa = hb.heat_eigenvalues(0.1, N)
mu0 = hb.true_signal_coefficients(N)

for prior in (hb.PriorSpec.polynomial(1.0), hb.PriorSpec.polynomial(3.0),
              hb.PriorSpec.exponential(5.0)):
    obs = hb.simulate_observations(mu0, kappa, n, seed=3)
    summary = hb.compute_posterior(prior, kappa, n, obs)
    ball = hb.credible_ball(summary, gamma)
    honest = hb.frequentist_radius(prior, kappa, n, mu0, gamma)
    label = f"{prior.kind.value} alpha={prior.alpha:g}"
    print(f"{label:24s} credible r {ball.radius:.4f} (+- {ball.radius_stderr:.1e})"
          f"   honest r {honest.value:.4f} (+- {honest.stderr:.1e})"
          f"   ratio {ball.radius / honest.value:.2f}")

# the quantile machinery on its own: an equal-weight form is a chi-square
w = hb.CoefficientSequence(np.ones(3), 3)
est = hb.quadratic_form_quantile(hb.QuadraticForm.from_weights(w), 0.95)
print(f"\nchi-square_3 0.95 quantile by inversion: {est.value:.12f} "
      f"(+- {est.stderr:.1e}); exact 7.814727903251")

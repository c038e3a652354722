"""Frequentist coverage of credible sets, two ways.

First the self-consistency check: when the truth is itself drawn from the
prior, credible sets must cover at exactly their nominal level.  Then the
interesting regime: a fixed truth of finite smoothness, where coverage
depends sharply on whether the prior under- or over-smooths it.
"""

import heatbayes as hb

print("self-consistency (truth ~ prior), n = 1e4, 300 replications:")
for prior in (hb.PriorSpec.polynomial(1.0), hb.PriorSpec.exponential(1.0)):
    cfg = hb.ExperimentConfig(prior=prior, n_grid=(1e4,), gamma=0.05,
                              replications=300,
                              mu0=hb.Mu0Source.prior_draw(), seed=4)
    cov = hb.run_ball_coverage(cfg).column("coverage")[0]
    print(f"  {prior.kind.value:12s} alpha={prior.alpha:g}: "
          f"ball coverage {cov:.3f} (nominal 0.95)")

print("\nfixed cubic truth, n = 1e8, 300 replications:")
for prior in (hb.PriorSpec.polynomial(1.0), hb.PriorSpec.polynomial(3.0),
              hb.PriorSpec.exponential(5.0)):
    cfg = hb.ExperimentConfig(prior=prior, n_grid=(1e8,), gamma=0.05,
                              replications=300, seed=4)
    rep = hb.run_ball_coverage(cfg)
    print(f"  {prior.kind.value:12s} alpha={prior.alpha:g}: coverage "
          f"{rep.column('coverage')[0]:.3f}, credible/honest radius "
          f"{rep.column('radius_ratio')[0]:.2f}")

print("\ninterval coverage for point evaluation at x = 0.5 (truth ~ prior):")
cfg = hb.ExperimentConfig(prior=hb.PriorSpec.exponential(1.0), n_grid=(1e4,),
                          gamma=0.05, replications=300,
                          mu0=hb.Mu0Source.prior_draw(), seed=4)
L = hb.LinearFunctional.point_evaluation(0.5)
print(f"  coverage {hb.run_interval_coverage(cfg, L).column('coverage')[0]:.3f}")

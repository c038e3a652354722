"""The series asymptotics behind the contraction rates, checked numerically.

All rate statements reduce to damped series of the form
sum i^-t e^{-r i^2} / (1 + N i^-u e^{-p i^2})^v and the crossover index
I_N where the damping factor passes 1.  The suite sums each series to a
1e-12 relative tail and compares against the predicted envelopes.
"""

import math

from heatbayes.asymptotics import (
    LemmaParams,
    crossover_index,
    lemma_series_value,
    standard_lemma_suite,
)

# the crossover index against its asymptote sqrt(log N)
for N in (1e4, 1e8, 1e12):
    a = crossover_index(N, u=1.0, p=1.0)
    print(f"N={N:.0e}: I_N = {a:.6f}  "
          f"(asymptote {math.sqrt(math.log(N)):.6f})")

# one series evaluated directly
params = LemmaParams(t=2, r=1, u=1, p=2, v=2)
for N in (1e4, 1e8):
    print(f"damped series at N={N:.0e}: {lemma_series_value(params, N):.6e}")

# the full standard suite as one table
print("\nstandard suite (ratios of exact value to predicted envelope):")
report = standard_lemma_suite((1e4, 1e8, 1e12))
for name, trace in report.traces:
    ratios = ", ".join(f"{r:.3g}" for r in trace.ratio)
    print(f"  {name:22s} [{ratios}]   band {trace.band():.2f}")
print("  growth-integral ratios ->",
      [f"{r:.4f}" for r in report.integral.part1.ratio])
print("  tail-integral ratios  <= 1:",
      [f"{r:.4f}" for r in report.integral.part2.ratio])

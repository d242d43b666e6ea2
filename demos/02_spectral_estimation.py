"""Nonparametric kernel recovery: covariance grid -> spectral inversion.

Simulates an exponential Hawkes process, estimates the binned covariance of
its counting process, inverts the spectrum to a kernel estimate, and
compares the recovered curve with the true kernel.

Run:  python3 demos/02_spectral_estimation.py
"""

import numpy as np

from hawkesdecomp import Exp, HawkesModel, simulate
from hawkesdecomp.covariance import covariance_grid, horizon_from_histogram
from hawkesdecomp.kernels import evaluate
from hawkesdecomp.spectral import invert_to_kernel

model = HawkesModel(mu=1.0, kernel=Exp(0.5, 1.0))
events = simulate(model, 1e4, seed=3)
print(f"simulated {len(events)} events on [0, {events.horizon_T:g}]")

# the histogram heuristic picks a scale-independent lag horizon; here we
# widen it to cover the full decay of the kernel
h95 = horizon_from_histogram(events)
print(f"histogram horizon (95th percentile of inter-event times): {h95:.3f}")

tau_max = 10.0
grid = covariance_grid(events, tau_max / 100, tau_max)
print(f"covariance grid: {len(grid.values)} lags, delta {grid.delta:g}, "
      f"lambda_hat {grid.lambda_hat:.3f}")

estimate = invert_to_kernel(grid)
true = evaluate(model.kernel, estimate.times)
l1 = float(np.sum(np.abs(estimate.values - true)) * estimate.delta)
branching = float(np.sum(estimate.values) * estimate.delta)

print()
print(f"{'lag':>6}{'phi_hat':>10}{'phi_true':>10}")
for i in range(0, 40, 5):
    print(f"{estimate.times[i]:>6.2f}{estimate.values[i]:>10.4f}{true[i]:>10.4f}")
print()
print(f"grid L1 error: {l1:.4f}")
print(f"recovered branching ratio: {branching:.4f} (true 0.5)")

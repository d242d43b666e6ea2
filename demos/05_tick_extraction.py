"""From raw tick readings to an event sequence to a fitted model.

Builds a synthetic price path with self-exciting jump clustering, extracts
threshold-crossing events (the reference price resets at each event), and
runs the decomposition on the extracted sequence.

Run:  python3 demos/05_tick_extraction.py
"""

import numpy as np

from hawkesdecomp import DecompositionConfig, Exp, HawkesModel, decompose, simulate
from hawkesdecomp.io import TickSeries, extract_events_by_threshold

rng = np.random.default_rng(15)

# jump times come from a Hawkes process, so extracted events should show
# self-excitation; between jumps the price diffuses gently
jump_model = HawkesModel(mu=0.3, kernel=Exp(0.5, 1.0))
jumps = simulate(jump_model, 5000.0, seed=16)

times = np.arange(0.0, 5000.0, 0.25)
noise = np.cumsum(rng.normal(0.0, 0.0004, size=times.size))
price = 100.0 * np.exp(noise)
for t in jumps.timestamps:
    price[times >= t] *= 1.0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.004, 0.008)

series = TickSeries(times, price)
events = extract_events_by_threshold(series, threshold=0.004)
print(f"ticks: {times.size}, true jumps: {len(jumps)}, extracted events: {len(events)}")

result = decompose(events, DecompositionConfig(tau_max=8.0))
print(f"K1 = {result.k1.kernel}")
print(f"chosen: {result.chosen} -> {result.chosen_model}")
norm = result.k1.verdict.norm_value
print(f"branching ratio of K1: {norm:.3f} (jump generator used 0.5)")

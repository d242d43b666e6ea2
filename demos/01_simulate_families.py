"""Simulate Hawkes processes driven by each of the four base kernel
families and check the empirical mean rate against the stationary formula
Lambda = mu / (1 - ||phi||).

Run:  python3 demos/01_simulate_families.py
"""

from hawkesdecomp import (
    Exp,
    HawkesModel,
    Pwl,
    Sns,
    Sqr,
    simulate,
    stationarity_norm,
)

MODELS = {
    "EXP  (quick decay)": HawkesModel(mu=0.5, kernel=Exp(0.5, 1.0)),
    "PWL  (slow decay)": HawkesModel(mu=0.5, kernel=Pwl(0.15, 0.3, 2.0)),
    "SQR  (steady pulse)": HawkesModel(mu=0.5, kernel=Sqr(0.2, 2.5)),
    "SNS  (delayed peak)": HawkesModel(mu=0.5, kernel=Sns(0.4, 1.5)),
}

T = 2000.0

print(f"{'model':<22}{'norm':>8}{'Lambda':>10}{'N/T':>10}{'events':>9}")
for label, model in MODELS.items():
    verdict = stationarity_norm(model.kernel)
    expected = model.mu / (1.0 - verdict.norm_value)
    events = simulate(model, T, seed=1)
    print(
        f"{label:<22}{verdict.norm_value:>8.3f}{expected:>10.3f}"
        f"{len(events) / T:>10.3f}{len(events):>9d}"
    )

print()
print("The empirical rate N/T tracks the stationary prediction for every")
print("family.  The sampler draws the process as Poisson clusters, one")
print("generation at a time, and places each child by inverting the kernel's")
print("compensator, so the non-monotone sinusoid takes the same path as the")
print("decaying kernels.")

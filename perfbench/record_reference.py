"""Write reference.json: for each long-history shape, a short fixed event
sequence and its log-likelihood as computed by the checkout's hawkesdecomp.

The long-history workload checks ``log_likelihood`` against these values,
so they are recorded once, at the commit that defined the benchmark::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json

import inputs  # first: puts the checkout's src/ on sys.path
from hawkesdecomp import EventSequence, log_likelihood, simulate
from program import HERE
from workloads import LONG_HISTORY_SHAPES, horizon_for

REFERENCE_SEED = 20240
# events per reference sequence; the quadrature shapes are kept short
REFERENCE_EVENTS = {"exp_x_pwl": 100, "pwl_x_sns": 30, "pwl_x_pwl": 15}
DEFAULT_EVENTS = 300


def main() -> None:
    doc = {}
    for i, shape in enumerate(LONG_HISTORY_SHAPES):
        model = inputs.model_of(shape)
        n = REFERENCE_EVENTS.get(shape["label"], DEFAULT_EVENTS)
        horizon = horizon_for(shape["mu"], inputs.true_norm(shape["kernel"]), n, margin_sd=5.0)
        ts = simulate(model, horizon, REFERENCE_SEED + i).timestamps[:n]
        seq = EventSequence(ts, float(ts[-1]))
        doc[shape["label"]] = {
            "horizon": seq.horizon_T,
            "llh": log_likelihood(model, seq).value,
            "timestamps": ts.tolist(),
        }
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()

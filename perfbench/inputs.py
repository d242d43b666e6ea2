"""The benchmark's set-up step: makes one workload's inputs.

A fresh interpreter imports hawkesdecomp from the checkout and writes the
inputs into a new directory.  Every input comes from ``simulate`` with a
sub-seed derived from the workload seed, so one seed always gives the same
inputs::

    python3 perfbench/inputs.py WORKLOAD SEED OUT_DIR [--tiny]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np
from scipy.integrate import quad

import program
from workloads import (
    CLI_EVENTS,
    DECOMPOSE_EVENTS,
    DECOMPOSE_TRUTHS,
    LONG_HISTORY_SHAPES,
    TINY_EVENTS,
    TINY_RESOLUTION,
    TINY_SEQUENCES,
    TINY_SCORE_DIVISOR,
    count_moments,
    horizon_for,
    sub_seed,
)

program.use_checkout_src()

import hawkesdecomp  # noqa: E402
from hawkesdecomp import HawkesModel, evaluate, simulate  # noqa: E402
from hawkesdecomp.io import write_events  # noqa: E402
from hawkesdecomp.kernels import kernel_from_dict, support_end  # noqa: E402

program.check_imported(hawkesdecomp)


def true_norm(kernel_dict: dict) -> float:
    """Kernel integral by adaptive quadrature (exact where the library's
    closed form is only an upper bound)."""
    kernel = kernel_from_dict(kernel_dict)
    end = support_end(kernel)
    value, _ = quad(lambda t: evaluate(kernel, t), 0.0, end, limit=400, epsabs=1e-12, epsrel=1e-10)
    return value


def model_of(item: dict) -> HawkesModel:
    return HawkesModel(mu=item["mu"], kernel=kernel_from_dict(item["kernel"]))


def _simulated_item(truth: dict, seed: int, index: int, n_target: int) -> tuple[dict, np.ndarray]:
    norm = true_norm(truth["kernel"])
    horizon = horizon_for(truth["mu"], norm, n_target)
    events = simulate(model_of(truth), horizon, sub_seed(seed, index))
    mean, sd = count_moments(truth["mu"], horizon, norm)
    item = dict(truth, horizon=horizon, n=len(events), n_expected=mean, n_sd=sd)
    return item, events


def build(workload: str, seed: int, out_dir: Path, tiny: bool) -> None:
    out_dir.mkdir(parents=True)
    items = []
    truths = DECOMPOSE_TRUTHS[:TINY_SEQUENCES] if tiny else DECOMPOSE_TRUTHS
    if workload == "decompose-10k":
        n_target = TINY_EVENTS if tiny else DECOMPOSE_EVENTS
        for i, truth in enumerate(truths):
            item, events = _simulated_item(truth, seed, i, n_target)
            if tiny:
                item["config"] = dict(item["config"], resolution=TINY_RESOLUTION)
            np.save(out_dir / f"seq{i}.npy", events.timestamps)
            items.append(dict(item, file=f"seq{i}.npy"))
    elif workload == "cli-batch":
        n_target = TINY_EVENTS if tiny else CLI_EVENTS
        (out_dir / "seqs").mkdir()
        for i, truth in enumerate(truths):
            item, events = _simulated_item(truth, seed, i, n_target)
            write_events(events, out_dir / "seqs" / f"seq{i}.csv")
            items.append(dict(item, file=f"seqs/seq{i}.csv"))
    elif workload == "long-history":
        for i, shape in enumerate(LONG_HISTORY_SHAPES):
            n_score = max(shape["n"] // TINY_SCORE_DIVISOR, 10) if tiny else shape["n"]
            norm = true_norm(shape["kernel"])
            # simulate past the scored prefix by five standard deviations, so
            # the prefix always has n_score events and the scoring cost does
            # not swing with the seed
            horizon = horizon_for(shape["mu"], norm, n_score, margin_sd=5.0)
            mean, sd = count_moments(shape["mu"], horizon, norm)
            items.append(dict(shape, n=n_score, horizon=horizon, sim_seed=sub_seed(seed, i),
                              n_expected=mean, n_sd=sd))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    doc = {"workload": workload, "seed": seed, "tiny": tiny, "items": items}
    (out_dir / "inputs.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    build(args.workload, args.seed, args.out_dir, args.tiny)


if __name__ == "__main__":
    main()

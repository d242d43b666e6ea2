"""Write the outputs of one ``hawkesdecomp`` source tree on the benchmark's
inputs, so that two trees can be compared byte for byte.

::

    python tools/outputs.py SRC INPUTS OUT
    python tools/outputs.py --pin

``SRC`` is the directory that holds the ``hawkesdecomp`` package (a
checkout's ``src``); the package is imported from there and nowhere else.
``INPUTS`` holds directories that ``perfbench/inputs.py`` wrote for the
``decompose-10k`` and ``cli-batch`` workloads, at any seeds; the others are
skipped.  For each such directory ``D``, ``OUT/D`` receives:

* ``decompose/``: for a ``decompose-10k`` directory, the ``result_to_dict``
  JSON of each sequence, built as ``perfbench/run.py`` builds it, with its
  workload config (``seqI.json``) and with that config less ``tau_max``
  (``seqI-no-tau-max.json``);
* ``batch/`` and ``batch-holdout/``: for a ``cli-batch`` directory, the JSON
  of each sequence from one ``decompose_batch`` over all its CSVs, with the
  default config and with ``holdout = 0.8``;
* ``cli/``: for a ``cli-batch`` directory, what ``python -m
  hawkesdecomp.cli`` writes with ``PYTHONPATH=SRC``: ``decompose-batch``
  over the CSVs, then ``estimate`` and ``report`` on the first CSV, and
  ``log.txt`` with each command's exit code, stdout and stderr.  Each
  command runs in ``OUT/D/cli`` and names its outputs relative to it.

A sequence that fails is written as ``{"error": "<type>: <message>"}``.
The thread-count variables of BLAS default to 1 here and in the CLI
processes, so that a summation order cannot depend on the thread count.
Compare two trees with ``diff -r``; the parent of a change needs only its
``src`` (``git archive``).

``--pin`` rewrites ``tests/outcome_pin.json`` from the checkout's own
``src``: the ``result_to_dict`` fields of ``pin_text``'s inputs, which
``tests/test_outcome_pin.py`` compares with a fresh run.  A change that
moves an outcome shows what moved as the diff of that one file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = ROOT / "tests" / "outcome_pin.json"

HOLDOUT = 0.8
# the outcome pin's inputs: per truth its seed and kernel (constructor name
# and arguments), each with mu = 0.5 and a norm of about 0.5, so that a
# sequence over PIN_HORIZON holds about 2k events
PIN_MU, PIN_HORIZON = 0.5, 2000.0
PIN_TRUTHS = {
    "exp": (1, ("Exp", 0.5, 1.0)),
    "pwl": (2, ("Pwl", 0.15, 0.3, 2.0)),
    "sqr": (3, ("Sqr", 0.2, 2.5)),
    "sns": (4, ("Sns", 0.375, 1.5)),
    "exp+sqr": (5, ("Sum", ("Exp", 0.4, 4.0), ("Sqr", 0.2, 2.0))),
    "exp*sns": (6, ("Product", ("Exp", 1.0, 0.5), ("Sns", 0.6, 1.5))),
}


def _json(outcome, result_to_dict) -> str:
    if isinstance(outcome, Exception):
        return json.dumps({"error": f"{type(outcome).__name__}: {outcome}"}) + "\n"
    return json.dumps(result_to_dict(outcome), sort_keys=True) + "\n"


def _kernel(hd, spec):
    name, *args = spec
    return getattr(hd, name)(*(_kernel(hd, a) if isinstance(a, tuple) else a for a in args))


def pin_text(hd) -> str:
    """The outcome pin of the package ``hd``: the numpy and scipy versions,
    and per ``PIN_TRUTHS`` sequence the ``result_to_dict`` JSON (or error)
    of ``decompose`` with the default config and with ``holdout = 0.8``,
    one value per line."""
    import numpy
    import scipy

    sequences = [hd.simulate(hd.HawkesModel(PIN_MU, _kernel(hd, spec)), PIN_HORIZON, seed)
                 for seed, spec in PIN_TRUTHS.values()]
    configs = {"default": hd.DecompositionConfig(), "holdout": hd.DecompositionConfig(holdout=HOLDOUT)}
    outcomes = {name: {} for name in PIN_TRUTHS}
    for label, config in configs.items():
        for name, outcome in zip(PIN_TRUTHS, hd.decompose_batch(sequences, config)):
            outcomes[name][label] = json.loads(_json(outcome, hd.io.result_to_dict))
    doc = {"numpy": numpy.__version__, "scipy": scipy.__version__, "outcomes": outcomes}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _decompose_dir(hd, inputs: Path, items: list, out: Path) -> None:
    import numpy as np

    out.mkdir(parents=True)
    for item in items:
        events = hd.EventSequence(np.load(inputs / item["file"]), item["horizon"])
        stem = Path(item["file"]).stem
        no_tau_max = {k: v for k, v in item["config"].items() if k != "tau_max"}
        configs = {stem: item["config"], f"{stem}-no-tau-max": no_tau_max}
        for name, config in configs.items():
            try:
                outcome = hd.decompose(events, hd.DecompositionConfig(**config))
            except (ValueError, hd.NoStationaryModelError) as exc:
                outcome = exc
            (out / f"{name}.json").write_text(_json(outcome, hd.io.result_to_dict))


def _batch_dir(hd, csvs: list, out: Path, config) -> None:
    out.mkdir(parents=True)
    for path, outcome in zip(csvs, hd.decompose_batch([hd.io.read_events(p) for p in csvs], config)):
        (out / f"{path.stem}.json").write_text(_json(outcome, hd.io.result_to_dict))


def _cli_dir(src: Path, csvs: list, out: Path) -> None:
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    commands = [
        ["decompose-batch", "--in-dir", str(csvs[0].parent), "--out-dir", "batch"],
        ["estimate", "--in", str(csvs[0]), "--out", "nu.csv"],
        ["report", "--in", str(csvs[0]), "--out-dir", "report"],
    ]
    log = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "hawkesdecomp.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True, timeout=600)
        log += [f"$ {' '.join(argv)}", f"exit {proc.returncode}", proc.stdout, proc.stderr]
    (out / "log.txt").write_text("\n".join(log))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 3) or (len(args) == 1) != (args[0] == "--pin"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    src = ROOT / "src" if len(args) == 1 else Path(args[0]).resolve()
    sys.path.insert(0, str(src))
    import hawkesdecomp as hd
    import hawkesdecomp.io  # noqa: F401 -- read as hd.io

    if src not in Path(hd.__file__).resolve().parents:
        print(f"hawkesdecomp imported from {hd.__file__}, not from {src}", file=sys.stderr)
        return 2
    if len(args) == 1:
        PIN.write_text(pin_text(hd))
        return 0
    inputs, out = (Path(a).resolve() for a in args[1:])
    out.mkdir(parents=True, exist_ok=True)
    for directory in sorted(p for p in inputs.iterdir() if (p / "inputs.json").is_file()):
        doc = json.loads((directory / "inputs.json").read_text())
        target = out / directory.name
        if doc["workload"] == "decompose-10k":
            _decompose_dir(hd, directory, doc["items"], target / "decompose")
        elif doc["workload"] == "cli-batch":
            csvs = sorted((directory / "seqs").glob("*.csv"))
            _batch_dir(hd, csvs, target / "batch", hd.DecompositionConfig())
            _batch_dir(hd, csvs, target / "batch-holdout", hd.DecompositionConfig(holdout=HOLDOUT))
            _cli_dir(src, csvs, target / "cli")
    return 0


if __name__ == "__main__":
    sys.exit(main())

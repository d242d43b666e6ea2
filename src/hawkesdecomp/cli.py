"""Command-line interface.

Commands: ``simulate``, ``estimate``, ``decompose``, ``decompose-batch``,
``score``, ``report``.  Exit code 0 on success, 2 on invalid input, 3 when
no stationary model is found.  Every optional flag can also be supplied
through a ``key = value`` config file (``--config``); explicit flags win,
and a key that no command takes is invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 -- the benchmark tracer patches this name
from dataclasses import fields
from pathlib import Path

from . import io as hio
from .kernels import kernel_from_dict, number_entry
from .likelihood import log_likelihood
from .search import DecompositionConfig, NoStationaryModelError, decompose, kernel_estimate
from .simulate import HawkesModel, simulate

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_STATIONARY_MODEL = 3

# the errors a command reports with an exit code: input the program cannot
# use (ValueError) and a path it cannot read or write (OSError) exit 2
_ERRORS = (NoStationaryModelError, ValueError, OSError)


def _exit_code(exc: Exception) -> int:
    return EXIT_NO_STATIONARY_MODEL if isinstance(exc, NoStationaryModelError) else EXIT_INVALID_INPUT


# every option a flag or a config key can set: its type and default; a
# DecompositionConfig field annotated ``int`` is read as an int, every other as a float
_OPTIONS = {"seed": (int, 0), "unit": (float, 1.0)} | {
    f.name: (int if f.type == "int" else float, f.default) for f in fields(DecompositionConfig)
}
_DECOMPOSE_OPTIONS = ("unit", *(f.name for f in fields(DecompositionConfig)))


def _load_config(path) -> dict:
    """Parse a flat ``key = value`` config file whose keys are in ``_OPTIONS``."""
    config = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        config[key] = value.strip()
    return config


def _read_model(path) -> HawkesModel:
    """The model in a ``{"mu": ..., "kernel": {...}}`` file; a malformed one
    raises ``ValueError`` naming the problem."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"model must be a JSON object, got {type(doc).__name__}: {doc!r}")
    mu = number_entry(doc, "mu", "model")
    if "kernel" not in doc:
        raise ValueError("model is missing 'kernel'")
    return HawkesModel(mu=mu, kernel=kernel_from_dict(doc["kernel"]))


def _decomposition_config(args) -> DecompositionConfig:
    """The options the command takes; every other field keeps its default."""
    names = [f.name for f in fields(DecompositionConfig) if hasattr(args, f.name)]
    return DecompositionConfig(**{name: getattr(args, name) for name in names})


def _cmd_simulate(args) -> int:
    model = _read_model(args.model)
    events = simulate(model, args.horizon, args.seed)
    hio.write_events(events, args.out)
    print(f"simulated {len(events)} events on [0, {args.horizon:g}] -> {args.out}")
    return EXIT_OK


def _cmd_estimate(args) -> int:
    events = hio.read_events(args.infile, unit=args.unit)
    _, _, grid, estimate = kernel_estimate(events, _decomposition_config(args))
    out = Path(args.out)
    hio.write_csv(out, "lag_time,nu_value", grid.lags, grid.values)
    phi_path = out.parent / "phi_est.csv"
    hio.write_csv(phi_path, "t,phi_hat", estimate.times, estimate.values)
    print(f"wrote {out} and {phi_path} ({len(grid.values)} lags, delta {grid.delta:.6g})")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    events = hio.read_events(args.infile, unit=args.unit)
    result = decompose(events, _decomposition_config(args))
    hio.write_result(result, args.out)
    print(f"chosen {result.chosen} -> {args.out}")
    return EXIT_OK


def _cmd_decompose_batch(args) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    cfg = _decomposition_config(args)
    files = sorted(in_dir.glob("*.csv"))
    if not files:
        raise ValueError(f"no .csv sequences in {in_dir}")
    # only once the options and the inputs check out, so exit 2 leaves no empty directory
    out_dir.mkdir(parents=True, exist_ok=True)

    codes = set()
    for path in files:
        try:
            events = hio.read_events(path, unit=args.unit)
            result = decompose(events, cfg)
            hio.write_result(result, out_dir / (path.stem + ".json"))
            code, outcome = EXIT_OK, result.chosen
        except _ERRORS as exc:
            code = _exit_code(exc)
            outcome = "no stationary model" if code == EXIT_NO_STATIONARY_MODEL else f"invalid ({exc})"
        print(f"{path.name}: {outcome}")
        codes.add(code)
    # one result is success; with none, invalid input outranks no stationary model
    return min(codes)


def _cmd_score(args) -> int:
    model = _read_model(args.model)
    events = hio.read_events(args.infile, unit=args.unit)
    llh = log_likelihood(model, events)
    print(json.dumps({"llh": llh.value, "n": llh.n_events}))
    return EXIT_OK


def _cmd_report(args) -> int:
    events = hio.read_events(args.infile, unit=args.unit)
    result = decompose(events, _decomposition_config(args))
    bundle = hio.build_report(result, events)
    files = hio.emit_report(bundle, args.out_dir)
    for f in files:
        print(f)
    return EXIT_OK


def _add_options(p: argparse.ArgumentParser, *names: str) -> None:
    """A ``--name-with-dashes`` flag for each option; left unset, it reads None."""
    for name in names:
        cast, default = _OPTIONS[name]
        p.add_argument("--" + name.replace("_", "-"), type=cast, help=f"default {default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hawkesdecomp")
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Hawkes process")
    p.add_argument("--model", required=True, help="model JSON ({mu, kernel})")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--out", required=True)
    _add_options(p, "seed")
    p.set_defaults(func=_cmd_simulate)

    about = "the covariance grid and kernel estimate that decompose fits, from the training part under --holdout"
    p = sub.add_parser("estimate", help="covariance grid + nonparametric kernel estimate", description=about)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="covariance CSV (phi_est.csv written alongside)")
    _add_options(p, "unit", "resolution", "horizon_percentile", "tau_max", "holdout")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("decompose", help="automatic kernel decomposition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_options(p, *_DECOMPOSE_OPTIONS)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("decompose-batch", help="decompose every CSV in a directory")
    p.add_argument("--in-dir", dest="in_dir", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_options(p, *_DECOMPOSE_OPTIONS)
    p.set_defaults(func=_cmd_decompose_batch)

    p = sub.add_parser("score", help="log-likelihood of a model on a sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    _add_options(p, "unit")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("report", help="decompose and emit the full report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    _add_options(p, *_DECOMPOSE_OPTIONS)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config) if args.config else {}
        # explicit flags win, then the config file, then the default; a config
        # value is parsed only by a command that takes its flag
        for key, (cast, default) in _OPTIONS.items():
            if hasattr(args, key) and getattr(args, key) is None:
                setattr(args, key, cast(config[key]) if key in config else default)
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())

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
from .covariance import covariance_grid
from .kernels import kernel_from_dict, number_entry
from .likelihood import log_likelihood
from .search import DecompositionConfig, NoStationaryModelError, decompose, lag_grid
from .simulate import EventSequence, HawkesModel, simulate
from .spectral import invert_to_kernel

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_STATIONARY_MODEL = 3


def _config_keys(parser: argparse.ArgumentParser) -> set:
    """The keys a config file may set: the optional flags of every command."""
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        a.dest
        for p in commands.choices.values()
        for a in p._actions
        if a.option_strings and not a.required and a.dest != "help"
    }


def _load_config(path, keys) -> dict:
    """Parse a flat ``key = value`` config file whose keys are in ``keys``."""
    config = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        config[key] = value.strip()
    return config


def _resolve(args, config: dict, key: str, cast, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return cast(config[key])
    return default


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


def _decomposition_config(args, config) -> DecompositionConfig:
    """Each field from its flag, else the config file, else its default; a
    field annotated ``int`` is read as an int, every other as a float."""
    return DecompositionConfig(**{
        f.name: _resolve(args, config, f.name, int if f.type == "int" else float, f.default)
        for f in fields(DecompositionConfig)
    })


def _read_events_arg(args, config) -> EventSequence:
    unit = _resolve(args, config, "unit", float, 1.0)
    return hio.read_events(args.infile, unit=unit)


def _cmd_simulate(args, config) -> int:
    model = _read_model(args.model)
    seed = _resolve(args, config, "seed", int, 0)
    events = simulate(model, args.horizon, seed)
    hio.write_events(events, args.out)
    print(f"simulated {len(events)} events on [0, {args.horizon:g}] -> {args.out}")
    return EXIT_OK


def _cmd_estimate(args, config) -> int:
    events = _read_events_arg(args, config)
    cfg = _decomposition_config(args, config)
    horizon, delta = lag_grid(events, cfg.resolution, cfg.horizon_percentile, cfg.tau_max)
    grid = covariance_grid(events, delta, horizon)
    out = Path(args.out)
    rows = ["lag_time,nu_value"] + [
        f"{lag:.12g},{val:.12g}" for lag, val in zip(grid.lags, grid.values)
    ]
    out.write_text("\n".join(rows) + "\n")
    estimate = invert_to_kernel(grid)
    phi_path = out.parent / "phi_est.csv"
    rows = ["t,phi_hat"] + [
        f"{t:.12g},{v:.12g}" for t, v in zip(estimate.times, estimate.values)
    ]
    phi_path.write_text("\n".join(rows) + "\n")
    print(f"wrote {out} and {phi_path} ({len(grid.values)} lags, delta {grid.delta:.6g})")
    return EXIT_OK


def _cmd_decompose(args, config) -> int:
    events = _read_events_arg(args, config)
    result = decompose(events, _decomposition_config(args, config))
    hio.write_result(result, args.out)
    print(f"chosen {result.chosen} -> {args.out}")
    return EXIT_OK


def _cmd_decompose_batch(args, config) -> int:
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = sorted(in_dir.glob("*.csv"))
    if not files:
        raise ValueError(f"no .csv sequences in {in_dir}")
    cfg = _decomposition_config(args, config)
    unit = _resolve(args, config, "unit", float, 1.0)

    def run(path: Path) -> tuple[str, int]:
        try:
            events = hio.read_events(path, unit=unit)
            result = decompose(events, cfg)
            hio.write_result(result, out_dir / (path.stem + ".json"))
            return f"{path.name}: {result.chosen}", EXIT_OK
        except NoStationaryModelError:
            return f"{path.name}: no stationary model", EXIT_NO_STATIONARY_MODEL
        except (ValueError, OSError) as exc:
            return f"{path.name}: invalid ({exc})", EXIT_INVALID_INPUT

    codes = set()
    for path in files:
        line, code = run(path)
        print(line)
        codes.add(code)
    # one result is success; with none, invalid input outranks no stationary model
    return min(codes)


def _cmd_score(args, config) -> int:
    model = _read_model(args.model)
    events = _read_events_arg(args, config)
    llh = log_likelihood(model, events)
    print(json.dumps({"llh": llh.value, "n": llh.n_events}))
    return EXIT_OK


def _cmd_report(args, config) -> int:
    events = _read_events_arg(args, config)
    result = decompose(events, _decomposition_config(args, config))
    bundle = hio.build_report(result, events)
    files = hio.emit_report(bundle, args.out_dir)
    for f in files:
        print(f)
    return EXIT_OK


def _add_decompose_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--resolution", type=int, default=None, help="lag grid resolution (default 100)")
    p.add_argument("--horizon-percentile", type=float, default=None, dest="horizon_percentile")
    p.add_argument("--tau-max", type=float, default=None, dest="tau_max", help="explicit lag horizon")
    p.add_argument("--eta", type=float, default=None, help="level-2 regularization factor (default 1.2)")
    p.add_argument("--holdout", type=float, default=None, help="train fraction for held-out scoring")
    p.add_argument("--gd-restarts", type=int, default=None, dest="gd_restarts")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hawkesdecomp")
    parser.add_argument("--config", default=None, help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a Hawkes process")
    p.add_argument("--model", required=True, help="model JSON ({mu, kernel})")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="covariance grid + nonparametric kernel estimate")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument("--horizon-percentile", type=float, default=None, dest="horizon_percentile")
    p.add_argument("--unit", type=float, default=None)
    p.add_argument("--out", required=True, help="covariance CSV (phi_est.csv written alongside)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("decompose", help="automatic kernel decomposition")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--unit", type=float, default=None)
    _add_decompose_options(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("decompose-batch", help="decompose every CSV in a directory")
    p.add_argument("--in-dir", dest="in_dir", required=True)
    p.add_argument("--unit", type=float, default=None)
    _add_decompose_options(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=_cmd_decompose_batch)

    p = sub.add_parser("score", help="log-likelihood of a model on a sequence")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--unit", type=float, default=None)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("report", help="decompose and emit the full report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--unit", type=float, default=None)
    _add_decompose_options(p)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config:
        try:
            config = _load_config(args.config, _config_keys(parser))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID_INPUT
    try:
        return args.func(args, config)
    except NoStationaryModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STATIONARY_MODEL
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())

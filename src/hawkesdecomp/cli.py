"""Command-line interface.

Commands: ``simulate``, ``estimate``, ``decompose``, ``decompose-batch``,
``score``, ``report``.  Exit code 0 on success, 2 on invalid input, 3 when
no stationary model is found.  Each command is one entry of ``_COMMANDS``:
its handler, its help, the arguments it takes and the options it takes.
Every option can also be supplied through a ``key = value`` config file
(``--config``); explicit flags win, and a key that no command takes is
invalid input.  An option's text, from its flag or its config line, is read
with its type in one place, ``_parse``.
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
from .search import DecompositionConfig, NoStationaryModelError, decompose, decompose_batch, kernel_estimate
from .simulate import HawkesModel, simulate

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_NO_STATIONARY_MODEL = 3

# decompose-batch reads and fits at most this many files together, one
# search per level over all of them
BATCH_FILES = 16

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

# the arguments besides the options, each declared once: its dest and its flag
_ARGUMENTS = {"model": "--model", "horizon": "--horizon", "infile": "--in", "in_dir": "--in-dir",
              "out": "--out", "out_dir": "--out-dir"}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _parse(name: str, cast, text: str, source: str):
    """``text`` read as ``cast``; text it refuses raises ``ValueError`` naming
    the option and ``source``, the flag or ``path:line`` the text came from.
    (argparse hands ``--name=--`` over as ``[]``, which ``cast`` refuses too.)"""
    try:
        return cast(text)
    except (TypeError, ValueError):
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{source}: {name} must be {kind}, got {text!r}") from None


def _load_config(path) -> dict:
    """Parse a flat ``key = value`` config file whose keys are in ``_OPTIONS``:
    each key's text and the ``path:line`` it is on."""
    config = {}
    for lineno, raw in enumerate(hio.read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        config[key] = (value.strip(), f"{path}:{lineno}")
    return config


def _read_model(path) -> HawkesModel:
    """The model in a ``{"mu": ..., "kernel": {...}}`` file; a malformed one
    raises ``ValueError`` naming the file and the problem."""
    text = hio.read_text(path)  # names the file itself
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"model must be a JSON object, got {type(doc).__name__}: {doc!r}")
        mu = number_entry(doc, "mu", "model")
        if "kernel" not in doc:
            raise ValueError("model is missing 'kernel'")
        return HawkesModel(mu=mu, kernel=kernel_from_dict(doc["kernel"]))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep to read
        raise ValueError(f"{path}: {exc}") from None


def _decomposition_config(args) -> DecompositionConfig:
    """The options the command takes; every other field keeps its default."""
    names = set(_COMMANDS[args.command][3]) & {f.name for f in fields(DecompositionConfig)}
    return DecompositionConfig(**{name: getattr(args, name) for name in names})


def _cmd_simulate(args) -> int:
    horizon = _parse("horizon", float, args.horizon, _ARGUMENTS["horizon"])
    model = _read_model(args.model)
    events = simulate(model, horizon, args.seed)
    hio.write_events(events, args.out)
    print(f"simulated {len(events)} events on [0, {horizon:g}] -> {args.out}")
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
    for first in range(0, len(files), BATCH_FILES):
        chunk = files[first : first + BATCH_FILES]
        outcomes, sequences = {}, {}  # per file: its result or its error; the sequences read
        for path in chunk:
            try:
                sequences[path] = hio.read_events(path, unit=args.unit)
            except _ERRORS as exc:
                outcomes[path] = exc
        for path, outcome in zip(sequences, decompose_batch(list(sequences.values()), cfg)):
            if not isinstance(outcome, Exception):
                try:
                    hio.write_result(outcome, out_dir / (path.stem + ".json"))
                except _ERRORS as exc:
                    outcome = exc
            outcomes[path] = outcome
        for path in chunk:
            outcome = outcomes[path]
            if isinstance(outcome, Exception):
                code = _exit_code(outcome)
                line = "no stationary model" if code == EXIT_NO_STATIONARY_MODEL else f"invalid ({outcome})"
            else:
                code, line = EXIT_OK, outcome.chosen
            print(f"{path.name}: {line}")
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


# each command: its handler, help, arguments and options
_COMMANDS = {
    "simulate": (_cmd_simulate, "simulate a Hawkes process", ("model", "horizon", "out"), ("seed",)),
    "estimate": (_cmd_estimate, "the covariance grid and kernel estimate that decompose fits (+ phi_est.csv)",
                 ("infile", "out"), ("unit", "resolution", "tau_max", "holdout")),
    "decompose": (_cmd_decompose, "automatic kernel decomposition", ("infile", "out"), _DECOMPOSE_OPTIONS),
    "decompose-batch": (_cmd_decompose_batch, "decompose every CSV in a directory", ("in_dir", "out_dir"),
                        _DECOMPOSE_OPTIONS),
    "score": (_cmd_score, "log-likelihood of a model on a sequence", ("model", "infile"), ("unit",)),
    "report": (_cmd_report, "decompose and emit the full report", ("infile", "out_dir"), _DECOMPOSE_OPTIONS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hawkesdecomp")
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, arguments, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=about, description=about)
        for dest in arguments:
            p.add_argument(_ARGUMENTS[dest], dest=dest, required=True)
        # a flag keeps its text, None when unset; main reads it
        for name in options:
            p.add_argument(_flag(name), help=f"default {_OPTIONS[name][1]}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run, _, arguments, options = _COMMANDS[args.command]
    try:
        # argparse 3.10/3.11 hands ``--in=--`` over as [], which no command can use
        for dest, flag in [("config", "--config"), *((dest, _ARGUMENTS[dest]) for dest in arguments)]:
            if not isinstance(getattr(args, dest), (str, type(None))):
                raise ValueError(f"{flag}: expected text, got {getattr(args, dest)!r}")
        config = _load_config(args.config) if args.config else {}
        # explicit flags win, then the config file, then the default; a config
        # value is parsed only by a command that takes its flag
        for name in options:
            cast, default = _OPTIONS[name]
            text, source = getattr(args, name), _flag(name)
            if text is None:
                text, source = config.get(name, (None, None))
            setattr(args, name, default if text is None else _parse(name, cast, text, source))
        return run(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())

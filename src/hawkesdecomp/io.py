"""Data ingestion, threshold event extraction, result persistence, and
report emission (CSV curves, Q-Q data, SVG overview)."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .fit import FitResult
from .kernels import evaluate, kernel_to_dict
from .likelihood import compensator_increments
from .search import DecompositionResult
from .simulate import EventSequence

__all__ = [
    "TickSeries",
    "ReportBundle",
    "InvalidSequenceError",
    "read_text",
    "read_events",
    "write_events",
    "write_csv",
    "write_result",
    "read_ticks",
    "extract_events_by_threshold",
    "result_to_dict",
    "build_report",
    "emit_report",
]


class InvalidSequenceError(ValueError):
    """Extraction produced fewer events than the configured minimum."""


@dataclass(frozen=True)
class TickSeries:
    """Timestamped price or magnitude readings, timestamps finite and
    nondecreasing."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("times and values must be equal-length 1-D arrays")
        if not np.isfinite(t).all():
            raise ValueError("timestamps must be finite")
        if t.size and np.any(np.diff(t) < 0):
            raise ValueError("timestamps must be nondecreasing")


@dataclass(frozen=True)
class ReportBundle:
    """A report's data: the result, whose estimate gives the estimated
    curve, the chosen kernel on the estimate's lags, and the Q-Q pairs."""

    result: DecompositionResult
    curve_fitted: np.ndarray
    qq_theoretical: np.ndarray
    qq_observed: np.ndarray


def read_text(path) -> str:
    """The text of a UTF-8 file, its line breaks read as ``Path.read_text``
    reads them.  A byte that is not UTF-8 raises ``ValueError`` naming the
    file and the line of the first such byte."""
    data = Path(path).read_bytes()
    try:
        return data.decode().replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode, and it is on their last line
        line = len((data[: exc.start].decode() + ".").splitlines())
        raise ValueError(f"{path}: line {line}: byte 0x{data[exc.start]:02x} is not UTF-8") from None


def _read_csv(path, header: str) -> np.ndarray:
    """The columns of a CSV file whose first row is ``header``, as the rows
    of one array; blank and whitespace-only lines are skipped.

    Raises ``ValueError`` naming the file when the header differs, when no
    data row follows it, when a row is not ``header``'s width of numbers,
    or when a value of the first column, the timestamp, is not finite.
    Such a row is named by its line in the file.
    """
    lines = read_text(path).splitlines()
    if not lines or [c.strip() for c in lines[0].split(",")] != header.split(","):
        raise ValueError(f"{path}: expected CSV header {header!r}")
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = header.count(",") + 1
    try:
        table = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        table = exc
    data_lines = ((lineno, line) for lineno, line in enumerate(lines[1:], 2) if line.strip())
    if isinstance(table, ValueError) or table.shape[1] != width:
        # the refused row is looked for only once the table is refused
        for lineno, line in data_lines:
            found = line.count(",") + 1
            if found != width:
                raise ValueError(f"{path}: line {lineno}: column count {found}, expected {width} (header {header!r})")
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: could not convert {line.strip()!r} to numbers") from None
        raise ValueError(f"{path}: {table}")
    if not np.isfinite(table[:, 0]).all():
        row = int(np.argmin(np.isfinite(table[:, 0])))
        raise ValueError(f"{path}: line {[n for n, _ in data_lines][row]}: timestamp {table[row, 0]} is not finite")
    return table.T


def read_events(path, unit: float = 1.0, horizon: float | None = None) -> EventSequence:
    """Read the canonical one-column event CSV (header ``t``).

    ``unit``, finite and positive, rescales timestamps at ingestion
    (timestamps are divided by it); the horizon defaults to the last event
    time.  A timestamp that is not finite is named by its line.
    """
    if not (math.isfinite(unit) and unit > 0):
        raise ValueError(f"unit must be finite and positive, got {unit!r}")
    raw = _read_csv(path, "t")[0]
    with np.errstate(over="ignore"):
        ts = raw / unit  # exact when unit is 1
    if np.any(np.isinf(ts) & np.isfinite(raw)):
        raise ValueError(f"{path}: unit {unit!r} rescales timestamps past the largest float")
    return EventSequence(ts, float(ts[-1]) if horizon is None else horizon)


def write_events(events: EventSequence, path) -> None:
    lines = ["t"] + [repr(float(t)) for t in events.timestamps]
    Path(path).write_text("\n".join(lines) + "\n")


def read_ticks(path) -> TickSeries:
    """Read a two-column CSV with header ``t,value``.  A timestamp that is
    not finite is named by its line."""
    return TickSeries(*_read_csv(path, "t,value"))


def extract_events_by_threshold(
    series: TickSeries,
    threshold: float,
    absolute: bool = False,
    min_events: int = 50,
) -> EventSequence:
    """Log an event whenever the series moves past a threshold.

    Relative mode (default): an event fires when the value differs from the
    reference (the value at the previous event) by more than ``threshold``
    as a fraction; the reference then resets, and a reference of 0 or one
    that is not finite raises ``ValueError``.  Absolute mode: an event
    fires at every row whose value meets the threshold (magnitude floor).
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if series.times.size < 2:
        raise ValueError("need at least two rows")
    if absolute:
        mask = series.values >= threshold
        stamps = series.times[mask]
    else:
        ref = series.values[0]
        out = []
        for t, v in zip(series.times[1:], series.values[1:]):
            if ref == 0 or not math.isfinite(ref):
                raise ValueError(f"relative change from reference value {ref:g} is undefined (at t = {t:g})")
            if abs(v / ref - 1.0) > threshold:
                out.append(t)
                ref = v
        stamps = np.asarray(out, dtype=float)
    # duplicate timestamps collapse to one event (simple process)
    stamps = np.unique(stamps)
    if stamps.size < min_events:
        raise InvalidSequenceError(
            f"sequence invalid: {stamps.size} events < required minimum {min_events}"
        )
    return EventSequence(stamps, float(series.times[-1]))


# ---------------------------------------------------------------------------
# result serialization


def _fit_to_dict(fit: FitResult) -> dict:
    return {"kernel": kernel_to_dict(fit.kernel), "residue": fit.residue, "stationarity": asdict(fit.verdict)}


def result_to_dict(result: DecompositionResult) -> dict:
    return {
        "chosen": result.chosen,
        "eta": result.eta,
        "k1": _fit_to_dict(result.k1),
        "k2": _fit_to_dict(result.k2),
        "gd": {
            "mu": result.gd.model.mu,
            "kernel": kernel_to_dict(result.gd.model.kernel),
            "llh": result.gd.llh if math.isfinite(result.gd.llh) else None,
        },
        "llh_k_chosen": result.llh_k_chosen if math.isfinite(result.llh_k_chosen) else None,
        "llh_k1": result.llh_k1 if math.isfinite(result.llh_k1) else None,
        "llh_k2": result.llh_k2 if math.isfinite(result.llh_k2) else None,
        "mu_hat": result.mu_hat,
        "lambda_hat": result.grid.lambda_hat,
        "grid": {
            "delta": result.grid.delta,
            "tau_max": result.grid.tau_max,
            "n_lags": int(len(result.grid.values)),
        },
        "audit": [{"label": e.label, **_fit_to_dict(e.fit)} for e in result.audit],
    }


def write_result(result: DecompositionResult, path) -> None:
    Path(path).write_text(json.dumps(result_to_dict(result), sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# report


def build_report(result: DecompositionResult, events: EventSequence) -> ReportBundle:
    """Assemble curves and Q-Q data for a decomposition result."""
    fitted = evaluate(result.chosen_kernel, result.estimate.times)
    increments = compensator_increments(result.chosen_model, events)
    observed = np.sort(increments)
    n = observed.size
    theoretical = -np.log1p(-(np.arange(1, n + 1) - 0.5) / n)  # Exp(1) quantiles
    return ReportBundle(
        result=result,
        curve_fitted=np.asarray(fitted),
        qq_theoretical=theoretical,
        qq_observed=observed,
    )


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length ``columns`` side by side under ``header``, each value
    in ``_fmt``'s 12 significant digits."""
    rows = [header] + [",".join(map(_fmt, row)) for row in zip(*columns)]
    Path(path).write_text("\n".join(rows) + "\n")


def _svg_polyline(xs, ys, box, xlim, ylim, color: str) -> str:
    x0, y0, w, h = box
    xmin, xmax = xlim
    ymin, ymax = ylim
    span_x = (xmax - xmin) or 1.0
    span_y = (ymax - ymin) or 1.0
    pts = " ".join(
        f"{x0 + (x - xmin) / span_x * w:.2f},{y0 + h - (y - ymin) / span_y * h:.2f}"
        for x, y in zip(xs, ys)
    )
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{pts}"/>'


def _render_svg(bundle: ReportBundle) -> str:
    """Three-panel overview: kernel curves, candidate residues, Q-Q scatter.

    Hand-rolled so that identical bundles always render byte-identical
    documents.
    """
    width, height = 900, 280
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    # panel 1: estimated vs fitted kernel
    box1 = (40.0, 30.0, 220.0, 200.0)
    xs, estimate = bundle.result.estimate.times, bundle.result.estimate.values
    lo = float(min(estimate.min(), bundle.curve_fitted.min(), 0.0))
    hi = float(max(estimate.max(), bundle.curve_fitted.max(), 1e-12))
    xlim = (float(xs[0]), float(xs[-1]) if xs.size > 1 else float(xs[0]) + 1.0)
    parts.append(f'<text x="40" y="20" font-size="12">kernel: estimated vs fitted</text>')
    parts.append(_svg_polyline(xs, estimate, box1, xlim, (lo, hi), "#888888"))
    parts.append(_svg_polyline(xs, bundle.curve_fitted, box1, xlim, (lo, hi), "#cc3311"))

    # panel 2: residue bars for all audited candidates
    box2 = (320.0, 30.0, 240.0, 200.0)
    audit = bundle.result.audit
    max_res = max(e.fit.residue for e in audit) or 1.0
    bar_w = box2[2] / max(len(audit), 1)
    parts.append('<text x="320" y="20" font-size="12">candidate residues</text>')
    for i, entry in enumerate(audit):
        bh = entry.fit.residue / max_res * box2[3]
        x = box2[0] + i * bar_w
        y = box2[1] + box2[3] - bh
        color = "#0077bb" if entry.fit.verdict.stationary else "#bbbbbb"
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.8:.2f}" height="{bh:.2f}" '
            f'fill="{color}"><title>{entry.label}: {_fmt(entry.fit.residue)}</title></rect>'
        )

    # panel 3: Q-Q scatter with diagonal
    box3 = (620.0, 30.0, 220.0, 200.0)
    qt, qo = bundle.qq_theoretical, bundle.qq_observed
    if qt.size:
        hi3 = float(max(qt.max(), qo.max(), 1e-12))
        parts.append('<text x="620" y="20" font-size="12">Q-Q (unit exponential)</text>')
        parts.append(_svg_polyline([0.0, hi3], [0.0, hi3], box3, (0, hi3), (0, hi3), "#000000"))
        x0, y0, w, h = box3
        for x, y in zip(qt, qo):
            cx = x0 + x / hi3 * w
            cy = y0 + h - min(y / hi3, 1.0) * h
            parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="1.5" fill="#0077bb"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(bundle: ReportBundle, out_dir) -> list[Path]:
    """Write result.json, phi_curves.csv, qq.csv, and report.svg.

    Deterministic: identical bundles produce byte-identical files.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise OSError(f"report directory not writable: {out}") from exc

    files = []

    path = out / "result.json"
    write_result(bundle.result, path)
    files.append(path)

    path = out / "phi_curves.csv"
    estimate = bundle.result.estimate
    write_csv(path, "t,phi_hat,phi_fit", estimate.times, estimate.values, bundle.curve_fitted)
    files.append(path)

    path = out / "qq.csv"
    write_csv(path, "theoretical,observed", bundle.qq_theoretical, bundle.qq_observed)
    files.append(path)

    path = out / "report.svg"
    path.write_text(_render_svg(bundle))
    files.append(path)

    return files

"""Spans and counters recorded from outside hawkesdecomp.

The tracer replaces module attributes with wrappers: the names ``decompose``
looks up in ``hawkesdecomp.search``, the CLI's ``hawkesdecomp.io`` entry
points, and counters around ``residue_of``, the two ``minimize`` imports and
``quad``.  Nothing under ``src/`` changes.  Spans (name, start, end, parent,
thread) stay in memory until the run writes them out.

Fits run in pool threads, so each thread counts into its own dict, and the
search and CLI thread pools are swapped for one that runs each task in the
submitter's ``contextvars`` context: a span opened in a worker names the
span that submitted it as its parent.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import statistics
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_current = contextvars.ContextVar("perfbench_span", default=None)

FAMILY_ORDER = ("EXP", "PWL", "SQR", "SNS")


class ContextPool(ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def shape_of(kernel) -> str:
    """``exp``, ``exp_plus_pwl``, ``pwl_x_sns``, ...: families in the fixed
    family order, so the two operand orders name one shape."""
    parts = getattr(kernel, "left", None), getattr(kernel, "right", None)
    if parts[0] is None:
        return type(kernel).__name__.lower()
    tags = sorted((type(p).__name__.upper() for p in parts), key=FAMILY_ORDER.index)
    op = "_plus_" if type(kernel).__name__ == "Sum" else "_x_"
    return op.join(t.lower() for t in tags)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched = []
        self._local = threading.local()
        self._thread_counts: list[dict] = []
        self.spans: list[dict] = []

    def reset(self) -> None:
        with self._lock:
            self.spans.clear()
            for counts in self._thread_counts:
                counts.clear()

    def add(self, name: str, n: int = 1) -> None:
        """Count into this thread's own dict: the objective counter runs about
        200k times a second from pool threads, and a shared lock there would
        add contention to what it measures."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            with self._lock:
                self._thread_counts.append(counts)
        counts[name] = counts.get(name, 0) + n

    @property
    def counts(self) -> dict:
        """Totals over every thread; read once the counted calls have returned."""
        total: dict = {}
        with self._lock:
            for counts in self._thread_counts:
                for name, n in counts.items():
                    total[name] = total.get(name, 0) + n
        return total

    def call(self, name: str, fn, *args, meta=None, **kwargs):
        """Run ``fn`` inside a span; ``meta(args, result)`` adds fields."""
        with self._lock:
            sid = next(self._ids)
        parent = _current.get()
        token = _current.set(sid)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            _current.reset(token)
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident()}
            if meta is not None and result is not None:
                span.update(meta(args, result))
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, fn, meta=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, meta=meta, **kwargs)

        return traced

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def events_meta(args, result):
    model, events = args[0], args[1]
    return {"shape": shape_of(model.kernel), "n": len(events)}


def simulate_meta(args, result):
    return {"shape": shape_of(args[0].kernel), "n": len(result)}


def bins_meta(args, result):
    events, delta = args[0], args[1]
    return {"bins": int(math.floor(events.horizon_T / delta))}


# names decompose looks up in hawkesdecomp.search -> span name, meta
SEARCH_LAYERS = {
    "covariance_grid": ("covariance.covariance_grid", bins_meta),
    "invert_to_kernel": ("spectral.invert_to_kernel", None),
    "fit_single": ("fit.fit_single", None),
    "fit_expansion": ("fit.fit_expansion", None),
    "log_likelihood": ("likelihood.log_likelihood", events_meta),
    "fit_gd_exponential": ("search.fit_gd_exponential", None),
}
IO_LAYERS = ("read_events", "write_result", "build_report", "emit_report")
FIT_SPANS = ("fit.fit_single", "fit.fit_expansion")


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap the layer boundaries of an imported hawkesdecomp."""
    from hawkesdecomp import fit, io, likelihood, search

    for attr, (name, meta) in SEARCH_LAYERS.items():
        tracer.patch(search, attr, tracer.wrap(name, getattr(search, attr), meta))
    tracer.patch(search, "ThreadPoolExecutor", ContextPool)

    residue_of = fit.residue_of

    def counted_residue(*args, **kwargs):
        tracer.add("fit.objective_evals")
        return residue_of(*args, **kwargs)

    tracer.patch(fit, "residue_of", counted_residue)

    def counted_minimize(prefix, minimize):
        def run(*args, **kwargs):
            res = minimize(*args, **kwargs)
            tracer.add(f"{prefix}.runs")
            tracer.add(f"{prefix}.nfev", int(res.nfev))
            tracer.add(f"{prefix}.converged", int(bool(res.success)))
            return res

        return run

    tracer.patch(fit, "minimize", counted_minimize("fit.nm", fit.minimize))
    tracer.patch(search, "minimize", counted_minimize("search.gd", search.minimize))

    quad = likelihood.quad

    def counted_quad(*args, **kwargs):
        tracer.add("likelihood.quad_calls")
        return quad(*args, **kwargs)

    tracer.patch(likelihood, "quad", counted_quad)

    if cli:
        from hawkesdecomp import cli as cli_module

        for attr in IO_LAYERS:
            tracer.patch(io, attr, tracer.wrap(f"io.{attr}", getattr(io, attr)))
        tracer.patch(io, "compensator_increments", tracer.wrap(
            "likelihood.compensator_increments", io.compensator_increments, events_meta))
        tracer.patch(cli_module, "decompose", tracer.wrap("search.decompose", cli_module.decompose))
        tracer.patch(cli_module, "ThreadPoolExecutor", ContextPool)


# ---------------------------------------------------------------------------
# per-layer metrics


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def decompose_breakdown(spans: list[dict]) -> list[dict]:
    """Per ``search.decompose`` span: wall, self time, the share its child
    spans cover, and the fit, likelihood and GD times inside it."""
    children: dict = {}
    for s in spans:
        children.setdefault((s.get("proc", 0), s["parent"]), []).append(s)
    out = []
    for d in spans:
        if d["name"] != "search.decompose":
            continue
        kids = children.get((d.get("proc", 0), d["id"]), [])
        wall = d["end"] - d["start"]
        covered = _union_length([(k["start"], k["end"]) for k in kids])
        fits = [k for k in kids if k["name"] in FIT_SPANS]

        def busy(name):
            return sum(k["end"] - k["start"] for k in kids if k["name"] == name)

        out.append({
            "wall_s": wall,
            "self_s": wall - covered,
            "coverage": covered / wall if wall > 0 else 0.0,
            "fit_single_s": busy("fit.fit_single"),
            "fit_expansion_s": busy("fit.fit_expansion"),
            "fit_wall_s": (max(k["end"] for k in fits) - min(k["start"] for k in fits)) if fits else 0.0,
            "log_likelihood_s": busy("likelihood.log_likelihood"),
            "fit_gd_exponential_s": busy("search.fit_gd_exponential"),
        })
    return out


def layer_metrics(spans, counts, rounds, shapes, first_call_s=0.0, import_s=(), overhead=(0.0, 0.0)):
    """Every per-layer metric as name -> (value, unit).  Counts and busy
    times are per round (one pass over the workload's inputs); per-call and
    per-decompose times are medians.  A layer the workload does not reach
    reads 0."""
    per_d = decompose_breakdown(spans)

    def durations(name):
        return [s["end"] - s["start"] for s in spans if s["name"] == name]

    def per_decompose(key):
        return _median([d[key] for d in per_d])

    def us_per_event(name, shape):
        sel = [s for s in spans if s["name"] == name and s.get("shape") == shape]
        n = sum(s["n"] for s in sel)
        return 1e6 * sum(s["end"] - s["start"] for s in sel) / n if n else 0.0

    evals = counts.get("fit.objective_evals", 0)
    # fits share the interpreter lock, so the cost of one evaluation is the
    # time any fit was running (per process) over the evaluations, not the
    # fits' summed busy time
    fits = [s for s in spans if s["name"] in FIT_SPANS]
    fit_wall = sum(_union_length([(s["start"], s["end"]) for s in fits if s.get("proc", 0) == proc])
                   for proc in {s.get("proc", 0) for s in fits})
    nm_runs = counts.get("fit.nm.runs", 0)
    traced, untraced = overhead
    m = {
        "fit.fit_single_s": (per_decompose("fit_single_s"), "s"),
        "fit.fit_expansion_s": (per_decompose("fit_expansion_s"), "s"),
        "fit.wall_s": (per_decompose("fit_wall_s"), "s"),
        "fit.objective_evals": (evals / rounds, "count"),
        "fit.us_per_eval": (1e6 * fit_wall / evals if evals else 0.0, "us"),
        "fit.nm_runs": (nm_runs / rounds, "count"),
        "fit.nm_converged_ratio": (counts.get("fit.nm.converged", 0) / nm_runs if nm_runs else 0.0, "ratio"),
        "search.decompose_s": (per_decompose("wall_s"), "s"),
        "search.self_s": (per_decompose("self_s"), "s"),
        "search.span_coverage_min_ratio": (min((d["coverage"] for d in per_d), default=0.0), "ratio"),
        "search.fit_gd_exponential_s": (per_decompose("fit_gd_exponential_s"), "s"),
        "search.gd_nfev": (counts.get("search.gd.nfev", 0) / rounds, "count"),
        "likelihood.log_likelihood_s": (per_decompose("log_likelihood_s"), "s"),
        "likelihood.quad_calls": (counts.get("likelihood.quad_calls", 0) / rounds, "count"),
    }
    for name in ("likelihood.log_likelihood", "likelihood.compensator_increments", "simulate"):
        for shape in shapes:
            m[f"{name}.us_per_event.{shape}"] = (us_per_event(name, shape), "us")
    m["simulate.events"] = (sum(s["n"] for s in spans if s["name"] == "simulate") / rounds, "count")
    m["covariance.covariance_grid_s"] = (_median(durations("covariance.covariance_grid")), "s")
    m["covariance.bins"] = (max((s["bins"] for s in spans if "bins" in s), default=0), "count")
    m["covariance.first_call_s"] = (first_call_s, "s")
    m["spectral.invert_to_kernel_s"] = (_median(durations("spectral.invert_to_kernel")), "s")
    m["cli.import_s"] = (_median(list(import_s)), "s")
    for attr in IO_LAYERS:
        m[f"io.{attr}_s"] = (sum(durations(f"io.{attr}")) / rounds, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_ratio"] = ((traced - untraced) / untraced if untraced > 0 else 0.0, "ratio")
    return m

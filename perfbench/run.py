"""hawkesdecomp benchmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload decompose-10k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, traced per-layer pass
    python3 perfbench/selftest.py             # every workload and both passes, tiny sizes

Workloads (the client waits for each result before the next call):

- ``decompose-10k``: in-process ``decompose`` on four ~10k-event sequences,
  the truths and configs of acceptance criteria 5-7.  Fit cost does not
  depend on n, so this puts the fit engine and decompose's thread pools on
  the blocking path.
- ``long-history``: per kernel shape, ``simulate`` then ``log_likelihood``
  then ``compensator_increments`` on a prefix of fixed length.  This puts
  the n x window and quadrature paths on the blocking path; no fitting.
- ``cli-batch``: fresh ``python -m hawkesdecomp.cli`` processes run
  ``decompose-batch`` over four ~2k-event CSVs, then ``report`` on one of
  them.  Only this workload pays interpreter start, import, the first BLAS
  call of a process, the io layer, and the batch pool nested over the
  search pools.  It does not warm up, because every user process pays that.

Set-up (timed as ``setup_s``, median of three) runs in a fresh interpreter
that imports hawkesdecomp from ``src/`` and writes the inputs.  In-process
workloads then warm up with one full-size call.  Each workload measures
whole rounds (every input once) until ``--seconds`` have passed.  No BLAS or
OpenMP thread variable is set; the values found are recorded.

End-to-end metrics (``--trace 0``), reported by every workload:
``setup_s``, ``op_s.p50`` (median wall time of one operation: a decompose
call, one shape's pass, one CLI process), ``events_per_s`` (input events
carried through the operations per second of measured time) and
``peak_rss_mb`` (largest resident set of any process of the run).  Tail
percentiles are not reported: no run has ten samples beyond one.  The
workload-specific figures (decompose_per_s, simulate_events_per_s,
batch_wall_s, ..., failed_ops_ratio) are printed above the result line.

``--trace 1`` alternates traced and untraced rounds and reports the
per-layer metrics of ``tracer.layer_metrics`` from the traced ones, with the
tracing overhead (traced minus untraced round wall); the spans are written
to ``.perfbench_out/``.  The last stdout line is always one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import program
from program import HERE, WORK

WORKLOAD_NAMES = ("decompose-10k", "long-history", "cli-batch")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150
OVERHEAD_ROUND_CAP_S = 60
# relative tolerance against the log-likelihoods recorded in reference.json
LLH_RTOL = 1e-8


@dataclass
class Tally:
    """Operations attempted and failed; a failure raised or failed its check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")


@dataclass
class Outcome:
    tally: Tally
    setup_s: float
    op_walls: list
    events: int
    round_walls: list
    detail: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)
    layers: dict | None = None
    spans: list | None = None


def _median(values):
    return statistics.median(values) if values else 0.0


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def set_up(args, run_dir: Path):
    """Make the inputs SETUP_REPEATS times in fresh interpreters; returns the
    first input directory, the median set-up time, and whether every
    repetition wrote identical files."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        out = run_dir / f"setup{i}"
        cmd = [sys.executable, str(HERE / "inputs.py"), args.workload, str(args.seed), str(out)]
        if args.tiny:
            cmd.append("--tiny")
        start = time.perf_counter()
        subprocess.run(cmd, check=True, env=program.child_env(), timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        digests.append(_digest(out))
    return run_dir / "setup0", statistics.median(times), len(set(digests)) == 1


def count_problems(item: dict, n: int) -> list:
    """Event count within five standard deviations of the stationary mean."""
    if abs(n - item["n_expected"]) > 5.0 * item["n_sd"]:
        return [f"{n} events, expected {item['n_expected']:.0f} +/- 5 x {item['n_sd']:.0f}"]
    return []


class Rounds:
    """Whole rounds (every input once) until ``seconds`` have passed, at
    least one.  With a tracer, rounds alternate traced and untraced, starting
    traced; the samples of traced rounds are the ones reported, and the
    untraced rounds give the tracing overhead.  The first untraced round is
    skipped only when the traced round took longer than OVERHEAD_ROUND_CAP_S,
    so that a slow input cannot push the pass past its time limit."""

    def __init__(self, seconds: float, tracer=None, install: bool = True):
        self.seconds = seconds
        self.tracer = tracer
        self.install = install  # in-process workloads patch this interpreter
        self.untraced: list = []
        self.traced: list = []
        self.samples: list = []

    def run(self, round_fn) -> None:
        start = time.perf_counter()
        while self._more(time.perf_counter() - start):
            traced = self.tracer is not None and len(self.traced) <= len(self.untraced)
            if traced and self.install:
                import tracer as tr

                tr.install(self.tracer)
            t0 = time.perf_counter()
            try:
                samples = round_fn(traced)
            finally:
                wall = time.perf_counter() - t0
                if traced and self.install:
                    self.tracer.restore()
            (self.traced if traced else self.untraced).append(wall)
            if traced or self.tracer is None:
                self.samples.extend(samples)

    def _more(self, elapsed: float) -> bool:
        if not self.measured:
            return True
        if self.tracer is not None and not self.untraced:
            return self.traced[0] <= OVERHEAD_ROUND_CAP_S
        return elapsed < self.seconds

    @property
    def measured(self) -> list:
        return self.traced if self.tracer is not None else self.untraced

    @property
    def overhead(self) -> tuple:
        """(traced, untraced) median round walls; (0, 0) without an untraced round."""
        return (_median(self.traced), _median(self.untraced)) if self.untraced else (0.0, 0.0)


def _import_program():
    program.use_checkout_src()
    import hawkesdecomp

    program.check_imported(hawkesdecomp)


def _outcome(tally, setup_s, rounds: Rounds, walls: list, events: int) -> Outcome:
    out = Outcome(tally, setup_s, walls, events, rounds.measured)
    if rounds.tracer is not None:
        out.notes.append(
            f"untraced rounds for the overhead: {', '.join(f'{w:.2f}' for w in rounds.untraced)} s"
            if rounds.untraced else
            f"tracing overhead not measured: the traced round took over {OVERHEAD_ROUND_CAP_S} s")
    return out


def _decompose_notes(spans) -> list:
    import tracer as tr

    return [f"traced decompose #{k}: wall {d['wall_s']:.3f} s, layer spans cover "
            f"{100 * d['coverage']:.1f}%, self {d['self_s']:.3f} s"
            for k, d in enumerate(tr.decompose_breakdown(spans))]


# ---------------------------------------------------------------------------
# decompose-10k


def run_decompose(args, run_dir: Path, tracer) -> Outcome:
    setup_dir, setup_s, same = set_up(args, run_dir)
    _import_program()
    import numpy as np
    from hawkesdecomp import DecompositionConfig, EventSequence, decompose, stationarity_norm
    from hawkesdecomp.io import result_to_dict

    import tracer as tr
    from workloads import SHAPES

    items = json.loads((setup_dir / "inputs.json").read_text())["items"]
    tally = Tally()
    tally.record("set-up determinism", [] if same else ["repeated set-ups wrote different inputs"])
    seqs = []
    for item in items:
        ts = np.load(setup_dir / item["file"])
        seqs.append(EventSequence(ts, item["horizon"]))
        tally.record(f"simulate {item['label']}", count_problems(item, len(ts)))
    configs = [DecompositionConfig(**item["config"]) for item in items]
    first_json: dict = {}
    family_checks = []

    def one(i: int, traced: bool):
        item = items[i]
        label = f"decompose {item['label']}"
        start = time.perf_counter()
        try:
            if traced:
                result = tracer.call("search.decompose", decompose, seqs[i], configs[i])
            else:
                result = decompose(seqs[i], configs[i])
        except Exception as exc:  # an operation that raises counts as failed
            tally.record(label, [f"raised {exc!r}"])
            return None
        wall = time.perf_counter() - start
        problems = []
        if not stationarity_norm(result.chosen_kernel).stationary:
            problems.append(f"chosen {result.chosen} model is not stationary")
        llh = result.gd.llh if result.chosen == "GD" else result.llh_k_chosen
        if not math.isfinite(llh):
            problems.append(f"chosen log-likelihood {llh}")
        text = json.dumps(result_to_dict(result), sort_keys=True)
        if first_json.setdefault(i, text) != text:
            problems.append("result_to_dict JSON differs from the first call on this input")
        tally.record(label, problems)
        if item["family"] is not None:
            got = type(result.k1.kernel).__name__.upper()
            family_checks.append((item["label"], got == item["family"], got))
        return wall, len(seqs[i])

    # warm-up: one full-size call; traced, it gives the first covariance_grid call
    first_call_s = 0.0
    if tracer is not None:
        tr.install(tracer)
        try:
            one(0, traced=True)
        finally:
            tracer.restore()
        grids = [s for s in tracer.spans if s["name"] == "covariance.covariance_grid"]
        first_call_s = grids[0]["end"] - grids[0]["start"] if grids else 0.0
        tracer.reset()
    else:
        one(0, traced=False)

    rounds = Rounds(args.seconds, tracer)
    rounds.run(lambda traced: [s for s in (one(i, traced) for i in range(len(items))) if s])
    walls = [w for w, _ in rounds.samples]
    out = _outcome(tally, setup_s, rounds, walls, sum(n for _, n in rounds.samples))
    out.detail["decompose_per_s"] = (len(walls) / sum(out.round_walls), "1/s")
    out.detail["decompose_s.p50"] = (_median(walls), "s")
    misses = [f"{label} truth gave K1={got}" for label, ok, got in family_checks if not ok]
    out.notes.append(
        f"K1 family = generating family in {len(family_checks) - len(misses)}/{len(family_checks)} "
        f"single-family decompositions{': ' + ', '.join(misses) if misses else ''} "
        "(statistical: criterion 5 asks for >= 8/10, so a miss is reported here, not counted as failed)"
    )
    if tracer is not None:
        out.layers = tr.layer_metrics(tracer.spans, tracer.counts, len(rounds.traced), SHAPES,
                                      first_call_s=first_call_s, overhead=rounds.overhead)
        out.spans = tracer.spans
        out.notes.extend(_decompose_notes(tracer.spans))
    return out


# ---------------------------------------------------------------------------
# long-history


def run_long_history(args, run_dir: Path, tracer) -> Outcome:
    setup_dir, setup_s, same = set_up(args, run_dir)
    _import_program()
    import numpy as np
    from hawkesdecomp import EventSequence, compensator_increments, log_likelihood, simulate

    import inputs
    import tracer as tr
    from workloads import SHAPES

    items = json.loads((setup_dir / "inputs.json").read_text())["items"]
    models = [inputs.model_of(item) for item in items]
    tally = Tally()
    tally.record("set-up determinism", [] if same else ["repeated set-ups wrote different inputs"])

    def one(i: int, traced: bool):
        item, model = items[i], models[i]

        def call(name, fn, *a, meta):
            return tracer.call(name, fn, *a, meta=meta) if traced else fn(*a)

        try:
            t0 = time.perf_counter()
            seq = call("simulate", simulate, model, item["horizon"], item["sim_seed"],
                       meta=tr.simulate_meta)
            t1 = time.perf_counter()
            n = min(item["n"], len(seq))
            prefix = EventSequence(seq.timestamps[:n], float(seq.timestamps[n - 1]))
            llh = call("likelihood.log_likelihood", log_likelihood, model, prefix, meta=tr.events_meta)
            inc = call("likelihood.compensator_increments", compensator_increments, model, prefix,
                       meta=tr.events_meta)
            t2 = time.perf_counter()
        except Exception as exc:  # an operation that raises counts as failed
            tally.record(f"shape {item['label']}", [f"raised {exc!r}"])
            return None
        problems = count_problems(item, len(seq))
        if not math.isfinite(llh.value):
            problems.append(f"log-likelihood {llh.value}")
        bound = 4.0 / math.sqrt(n)
        if len(inc) != n:
            problems.append(f"{len(inc)} compensator increments for {n} events")
        elif abs(float(np.mean(inc)) - 1.0) > bound:
            problems.append(f"compensator increments mean {np.mean(inc):.4f}, want 1 +/- {bound:.4f}")
        tally.record(f"shape {item['label']}", problems)
        return t2 - t0, t1 - t0, t2 - t1, len(seq), n

    one(0, traced=False)  # warm-up: one full-size pass
    rounds = Rounds(args.seconds, tracer)
    rounds.run(lambda traced: [s for s in (one(i, traced) for i in range(len(items))) if s])

    # log_likelihood on fixed sequences, against the values recorded in reference.json
    reference = json.loads((HERE / "reference.json").read_text())
    for item, model in zip(items, models):
        ref = reference[item["label"]]
        value = log_likelihood(model, EventSequence(np.asarray(ref["timestamps"]), ref["horizon"])).value
        ok = math.isclose(value, ref["llh"], rel_tol=LLH_RTOL)
        tally.record(f"reference llh {item['label']}",
                     [] if ok else [f"{value!r} vs recorded {ref['llh']!r} (rtol {LLH_RTOL})"])

    walls, sim_s, score_s, simulated, scored = list(zip(*rounds.samples)) or [()] * 5
    out = _outcome(tally, setup_s, rounds, list(walls), sum(scored))
    out.detail["simulate_events_per_s"] = (sum(simulated) / sum(sim_s) if sim_s else 0.0, "1/s")
    out.detail["score_events_per_s"] = (sum(scored) / sum(score_s) if score_s else 0.0, "1/s")
    if tracer is not None:
        out.layers = tr.layer_metrics(tracer.spans, tracer.counts, len(rounds.traced), SHAPES,
                                      overhead=rounds.overhead)
        out.spans = tracer.spans
    return out


# ---------------------------------------------------------------------------
# cli-batch


def _run_child(cmd: list, cwd: Path):
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=program.child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", f"timed out after {CHILD_TIMEOUT_S} s"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


def _csv_rows(path: Path, header: str) -> list:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header is not {header!r}")
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _batch_problems(code, stdout, stderr, items, out_dir: Path) -> list:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    problems = []
    for item in items:
        path = out_dir / (Path(item["file"]).stem + ".json")
        try:
            doc = json.loads(path.read_text())
            if doc["chosen"] not in ("K1", "K2", "GD"):
                problems.append(f"{path.name}: chosen {doc['chosen']!r}")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"{path.name}: {exc!r} (stdout {stdout.strip()!r})")
    return problems


def _report_problems(code, stderr, item, out_dir: Path, batch_json: Path) -> list:
    if code != 0:
        return [f"exit {code}: {stderr.strip()[-300:]}"]
    try:
        text = (out_dir / "result.json").read_text()
        json.loads(text)
        _csv_rows(out_dir / "phi_curves.csv", "t,phi_hat,phi_fit")
        qq = _csv_rows(out_dir / "qq.csv", "theoretical,observed")
        svg = (out_dir / "report.svg").read_text()
    except (OSError, ValueError) as exc:
        return [repr(exc)]
    problems = []
    if len(qq) != item["n"]:
        problems.append(f"qq.csv has {len(qq)} rows for {item['n']} events")
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("report.svg is not an SVG document")
    if batch_json.exists() and batch_json.read_text() != text:
        problems.append("result.json differs from decompose-batch's result for the same file")
    return problems


def run_cli(args, run_dir: Path, tracer) -> Outcome:
    from workloads import CLI_REPORT_INDEX, SHAPES, TINY_RESOLUTION

    setup_dir, setup_s, same = set_up(args, run_dir)
    items = json.loads((setup_dir / "inputs.json").read_text())["items"]
    tally = Tally()
    tally.record("set-up determinism", [] if same else ["repeated set-ups wrote different inputs"])
    for item in items:
        tally.record(f"simulate {item['label']}", count_problems(item, item["n"]))
    options = ["--resolution", str(TINY_RESOLUTION)] if args.tiny else []
    report_item = items[CLI_REPORT_INDEX]
    report_stem = Path(report_item["file"]).stem
    traces: list = []

    def round_fn(traced: bool) -> list:
        out = run_dir / f"round{len(rounds.untraced) + len(rounds.traced)}"
        out.mkdir()
        batch_cmd = ["decompose-batch", "--in-dir", str(setup_dir / "seqs"),
                     "--out-dir", str(out / "batch")] + options
        report_cmd = ["report", "--in", str(setup_dir / report_item["file"]),
                      "--out-dir", str(out / "report")] + options
        runs = {}
        for name, cmd in (("batch", batch_cmd), ("report", report_cmd)):
            if traced:
                spans_file = out / f"{name}-spans.json"
                traces.append(spans_file)
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_file)] + cmd
            else:
                cmd = [sys.executable, "-m", "hawkesdecomp.cli"] + cmd
            runs[name] = _run_child(cmd, run_dir)
        b_wall, b_code, b_out, b_err = runs["batch"]
        r_wall, r_code, _, r_err = runs["report"]
        tally.record("decompose-batch", _batch_problems(b_code, b_out, b_err, items, out / "batch"))
        tally.record("report", _report_problems(r_code, r_err, report_item, out / "report",
                                                out / "batch" / f"{report_stem}.json"))
        return [("batch", b_wall, sum(item["n"] for item in items)), ("report", r_wall, report_item["n"])]

    rounds = Rounds(args.seconds, tracer, install=False)  # the traced CLI installs its own tracer
    rounds.run(round_fn)
    walls = [wall for _, wall, _ in rounds.samples]
    out = _outcome(tally, setup_s, rounds, walls, sum(n for _, _, n in rounds.samples))
    out.detail["batch_wall_s"] = (_median([w for name, w, _ in rounds.samples if name == "batch"]), "s")
    out.detail["report_wall_s"] = (_median([w for name, w, _ in rounds.samples if name == "report"]), "s")
    if tracer is not None:
        import tracer as tr

        spans, counts, import_s, first_calls = [], {}, [], []
        for proc, path in enumerate(traces):
            if not path.exists():
                tally.record(f"trace {path.name}", ["the traced CLI wrote no spans"])
                continue
            doc = json.loads(path.read_text())
            import_s.append(doc["import_s"])
            proc_spans = [dict(s, proc=proc) for s in doc["spans"]]
            spans.extend(proc_spans)
            for k, v in doc["counts"].items():
                counts[k] = counts.get(k, 0) + v
            grids = [s for s in proc_spans if s["name"] == "covariance.covariance_grid"]
            if grids:
                first = min(grids, key=lambda s: s["start"])
                first_calls.append(first["end"] - first["start"])
        out.layers = tr.layer_metrics(spans, counts, len(rounds.traced), SHAPES,
                                      first_call_s=_median(first_calls), import_s=import_s,
                                      overhead=rounds.overhead)
        out.spans = spans
        out.notes.extend(_decompose_notes(spans))
    return out


# ---------------------------------------------------------------------------


RUNNERS = {"decompose-10k": run_decompose, "long-history": run_long_history, "cli-batch": run_cli}


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_one(args) -> int:
    try:
        program.require_program()
    except program.MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tracer = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
    try:
        out = RUNNERS[args.workload](args, run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    peak = _peak_rss_mb()
    tally = out.tally
    unit = {"decompose-10k": "decompose call", "long-history": "shape pass", "cli-batch": "CLI process"}
    print(f"# {args.workload} seed {args.seed}: {len(out.op_walls)} timed operations "
          f"({unit[args.workload]}) in {len(out.round_walls)} round(s) of "
          f"{', '.join(f'{w:.2f}' for w in out.round_walls)} s{' (traced)' if args.trace else ''}")
    detail = dict(out.detail)
    detail["setup_s"] = (out.setup_s, "s")
    detail["peak_rss_mb"] = (peak, "MB")
    detail["failed_ops_ratio"] = (tally.failed / tally.attempted, "ratio")
    for name, (value, unit_name) in detail.items():
        print(f"{name:<24} {value:>14.6g} {unit_name}")
    print(f"# {len(out.op_walls)} samples; no tail percentile (none has ten samples beyond it)")
    print(f"# failed {tally.failed} of {tally.attempted} operations")
    for line in tally.problems + out.notes:
        print(f"# {line}")
    prov = program.provenance(args.workload, args.seed)
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out.layers.items()}
    else:
        metrics = {
            "setup_s": {"value": out.setup_s, "unit": "s"},
            "op_s.p50": {"value": _median(out.op_walls), "unit": "s"},
            "events_per_s": {"value": out.events / sum(out.round_walls), "unit": "1/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    record = dict(result, provenance=prov, detail={k: v[0] for k, v in detail.items()},
                  problems=tally.problems, notes=out.notes)
    if out.spans is not None:
        record["spans"] = out.spans
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so its peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hawkesdecomp benchmark (see module docstring)")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                        help="one workload; all of them, each in its own process, when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

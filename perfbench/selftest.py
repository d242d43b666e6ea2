"""Harness self-test: every workload, untraced and traced, at tiny sizes.

    python3 perfbench/selftest.py

Each run must exit 0 and end with the result object: exactly the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, every output check
passed, and the metric names and units that BENCHMARK.json lists for the
pass.  A copy of the benchmark without ``src/`` must exit non-zero without
printing a result, and the tracer's counters must lose no update under
thread contention.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from program import HERE, ROOT, WORK
from run import WORKLOAD_NAMES
from tracer import Tracer

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _check_result(lines: list, expected: dict) -> list:
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return [f"last line is not JSON: {lines[-1][:200]!r}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct {result['correct']}, {result['failed']} of {result['attempted']} failed")
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(expected))} "
                        f"or units {[n for n in units if units[n] != expected.get(n)]}")
    for name, metric in result["metrics"].items():
        if not (isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])):
            problems.append(f"{name} = {metric['value']!r}")
    return problems


def counters_survive_threads(workers: int = 8, adds: int = 20000) -> bool:
    """More counting threads than cores, switching as often as possible: a
    lost update would leave the total short."""
    tracer = Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(lambda: [tracer.add("n") for _ in range(adds)])
                           for _ in range(workers)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    return tracer.counts.get("n") == workers * adds


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    ok = counters_survive_threads()
    failures = int(not ok)
    print(f"{'ok  ' if ok else 'FAIL'} tracer counters under thread contention", flush=True)
    for trace in (0, 1):
        for workload in WORKLOAD_NAMES:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"] if proc.returncode else []
            problems += _check_result(proc.stdout.strip().splitlines(), expected[trace])
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} --trace {trace}"
                  f"{': ' + '; '.join(problems) if problems else ''}", flush=True)

    # without the program: a non-zero exit and no result line
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD_NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    ok = proc.returncode != 0 and not printed_result
    failures += not ok
    print(f"{'ok  ' if ok else 'FAIL'} without src/: exit {proc.returncode}, result printed: {printed_result}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

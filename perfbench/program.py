"""Where the program under test lives, and the provenance of a run.

The benchmark runs from the root of a source checkout and uses only the
package under ``src/`` there; it never falls back to an installed copy.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "hawkesdecomp"
WORK = ROOT / ".perfbench_out"

# thread-count variables recorded as found; the benchmark never sets them
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgramError(RuntimeError):
    """The checkout holds no ``src/hawkesdecomp`` package."""


def require_program() -> None:
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgramError(f"no hawkesdecomp package under {SRC}")


def use_checkout_src() -> None:
    """Put the checkout's ``src`` first on ``sys.path``."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse a ``hawkesdecomp`` imported from anywhere but this checkout."""
    origin = Path(module.__file__).resolve()
    if PACKAGE.resolve() not in origin.parents:
        raise MissingProgramError(f"{module.__name__} imported from {origin}, not from {SRC}")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's ``src`` first on
    ``PYTHONPATH``, everything else (thread variables included) unchanged."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _openblas_version() -> str | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(workload: str, seed: int) -> dict:
    import mpmath
    import numpy as np
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas": _openblas_version(),
        "thread_vars": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }

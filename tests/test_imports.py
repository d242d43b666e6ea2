"""Every import in a ``hawkesdecomp`` module is used there, or marked ``# noqa``,
every module-level private name is read somewhere in the package, and a
module's ``__all__`` names exactly what exists there and every public
function or class that it defines.

The package re-exports names from ``__init__.py``, which the import check
leaves out.  No lint tool is a dependency, so the checks parse the source
with ``ast``.  Last, importing the CLI loads neither ``scipy.optimize`` nor
``scipy.integrate``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hawkesdecomp"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import without ``# noqa`` that nothing else in ``source`` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "# noqa" in lines[node.lineno - 1]:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_flags_unused_import():
    source = "import json\nimport sys  # noqa: F401\nfrom .simulate import EventSequence, simulate\nsimulate(json)\n"
    assert unused_imports(source) == ["EventSequence"]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level ``_name`` (function, class or
    assignment target) in ``sources`` that no module of them reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [
                f"{module}:{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return unused


def test_every_private_name_is_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_check_flags_unused_private_name():
    sources = {
        "a.py": (
            "__all__ = ['f']\n_LIMIT = 3\n_SCALE: float = 2.0\n"
            "def _helper():\n    return 1\ndef f():\n    return _LIMIT\n"
        ),
        "b.py": "from .a import _SCALE\nclass _Unused:\n    pass\ny = _SCALE\n",
    }
    assert unused_private_names(sources) == ["a.py:_helper", "b.py:_Unused"]


def all_mismatches(source: str) -> list[str]:
    """For a module that declares ``__all__``: each name in it that the
    module does not bind, as ``missing:name``, and each public function or
    class it defines that ``__all__`` leaves out, as ``unlisted:name``."""
    tree = ast.parse(source)
    bound, public, exported = set(), [], None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            if not node.name.startswith("_"):
                public.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            if "__all__" in names:
                exported = ast.literal_eval(node.value)
            bound |= names
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    if exported is None:
        return []
    return [f"missing:{name}" for name in exported if name not in bound] + [
        f"unlisted:{name}" for name in public if name not in exported
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_all_matches_public_definitions(path):
    assert all_mismatches(path.read_text()) == []


def test_check_flags_all_mismatches():
    source = (
        "from .fit import fit_batch\n__all__ = ['fit_batch', 'fit_singles', 'LIMIT', 'run']\nLIMIT = 3\n"
        "def run():\n    pass\ndef helper():\n    pass\nclass Table:\n    pass\ndef _private():\n    pass\n"
    )
    assert all_mismatches(source) == ["missing:fit_singles", "unlisted:helper", "unlisted:Table"]
    assert all_mismatches("def helper():\n    pass\n") == []


def test_cli_import_loads_no_optimizer_or_quadrature():
    # the CLI runs no scipy optimizer or quadrature, so importing it must not
    # pay for loading them
    code = (
        "import sys, hawkesdecomp.cli\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_traced_names_resolve_on_access():
    # the benchmark tracer wraps these names, which load their scipy module
    # only when read
    from scipy.integrate import quad
    from scipy.optimize import minimize

    from hawkesdecomp import fit, likelihood, search

    assert fit.minimize is minimize and search.minimize is minimize and likelihood.quad is quad
    with pytest.raises(AttributeError, match="has no attribute 'integrate'"):
        search.integrate

"""Every import in a ``hawkesdecomp`` module is used there, or marked ``# noqa``.

The package re-exports names from ``__init__.py``, which is left out.  No lint
tool is a dependency, so the check parses the source with ``ast``.
"""

import ast
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

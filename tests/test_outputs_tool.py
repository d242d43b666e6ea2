"""``tools/outputs.py`` writes the same, non-empty tree twice."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_two_runs_write_identical_trees(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    builds = [subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "inputs.py"), workload, seed,
                                str(inputs / f"{workload}-{seed}"), "--tiny"])
              for workload, seed in (("decompose-10k", "201"), ("cli-batch", "5"))]
    assert [b.wait(timeout=120) for b in builds] == [0, 0]
    runs = [subprocess.Popen([sys.executable, str(ROOT / "tools" / "outputs.py"), str(ROOT / "src"), str(inputs),
                              str(tmp_path / name)], stderr=subprocess.PIPE, text=True) for name in ("a", "b")]
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    # two decompose-10k sequences at two configs; the batch JSONs of two
    # sequences at two configs; the CLI's two batch JSONs, estimate's two
    # CSVs, the report's four files and the log
    assert len(a) == 4 + 4 + 9 and all(a.values())
    assert a == b
    assert a["cli-batch-5/cli/log.txt"].count(b"\nexit 0\n") == 3

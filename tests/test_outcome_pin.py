"""The outcome pin: ``decompose`` on a fixed set of simulated sequences
gives the results recorded in ``outcome_pin.json``.

The inputs and the file's text come from ``tools/outputs.py``'s
``pin_text``, and ``python tools/outputs.py --pin`` rewrites the file.
Discrete fields (level names, kernel types, verdicts, labels, lag counts)
must match exactly and numbers to a relative 1e-9.  On the numpy and scipy
versions that the file records, the text must match byte for byte.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy
import scipy

import hawkesdecomp
import hawkesdecomp.io  # noqa: F401 -- read as hawkesdecomp.io by pin_text

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs.py"
PIN = Path(__file__).resolve().parent / "outcome_pin.json"
REL = 1e-9


def load_tool():
    spec = importlib.util.spec_from_file_location("outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differences(pinned, fresh, path="outcomes"):
    """Where ``fresh`` departs from ``pinned``: floats by more than ``REL``
    relative, any other value at all."""
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        if pinned.keys() != fresh.keys():
            return [f"{path}: keys {sorted(pinned)} != {sorted(fresh)}"]
        return [d for key in pinned for d in differences(pinned[key], fresh[key], f"{path}.{key}")]
    if isinstance(pinned, list) and isinstance(fresh, list) and len(pinned) == len(fresh):
        return [d for i, (a, b) in enumerate(zip(pinned, fresh)) for d in differences(a, b, f"{path}[{i}]")]
    if type(pinned) is float and type(fresh) is float:
        same = math.isclose(pinned, fresh, rel_tol=REL, abs_tol=0.0)
    else:
        same = type(pinned) is type(fresh) and pinned == fresh
    return [] if same else [f"{path}: {pinned!r} != {fresh!r}"]


def test_differences_tolerate_only_float_rounding():
    assert differences({"a": [1.0, "K1", True, 3]}, {"a": [1.0 + 1e-12, "K1", True, 3]}) == []
    assert differences({"a": 1.0}, {"a": 1.0 + 1e-8}) == ["outcomes.a: 1.0 != 1.00000001"]
    assert differences({"a": True}, {"a": 1}) == ["outcomes.a: True != 1"]
    assert differences({"a": "K1"}, {"a": "K2"}) and differences({"a": [1]}, {"a": [1, 2]})
    assert differences({"a": 1}, {"b": 1})


def test_outcomes_match_the_pin():
    text = load_tool().pin_text(hawkesdecomp)
    pinned, fresh = json.loads(PIN.read_text()), json.loads(text)
    assert differences(pinned["outcomes"], fresh["outcomes"]) == []
    if (pinned["numpy"], pinned["scipy"]) == (numpy.__version__, scipy.__version__):
        assert text == PIN.read_text()

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
on two lines."""

import math  # a trailing comment keeps its line

# a comment-only line


class Box:
    """Class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Function docstring,
        on two lines."""
        text = """a string
        that is not a docstring"""
        return math.prod(self.size), text
'''


def test_counts_lines_that_hold_code():
    # import, class, the four lines of size, def, the two of text, return
    assert load_tool().code_lines(SOURCE) == 10


def test_empty_source():
    assert load_tool().code_lines("") == 0

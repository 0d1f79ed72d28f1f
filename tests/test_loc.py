"""scripts/loc.py: the lines of code of src/singlab."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", "loc.py")
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    # a comment line
    def area(self, w,
             h):
        """Function docstring."""
        text = """not a docstring"""
        return w * h
'''
    # import, class, def (two lines), the string assignment and return
    assert loc.code_lines(source) == 6

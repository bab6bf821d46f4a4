import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def test_code_lines_skips_blanks_comments_and_docstrings():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = '''"""Module
docstring."""

# a comment
X = 1  # counted


class A:
    """Class docstring."""

    def f(self, a,
          b):
        """Function
        docstring."""
        return """not a
docstring"""
'''
    # X, class A, the two lines of def f and the two of its return.
    assert module.code_lines(source) == 6

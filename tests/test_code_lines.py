"""scripts/code_lines.py counts lines that hold code, never docstrings,
comments or blank lines."""
import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
two lines."""
import os  # a trailing comment does not hide the code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that spans two lines"""
        return (text,
                os.sep)
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, class, def, the two-line string assignment, the two-line return
    assert code_lines.code_lines(path) == 7

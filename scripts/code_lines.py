"""Count the code lines of each module of src/xbarc.

A code line is a line that holds a token other than a comment, a docstring
or layout (newlines, indentation). A token that spans lines, such as a
multi-line string, counts every line it covers. Docstrings are the string
statements that open a module, class or function body.

    python scripts/code_lines.py [package_dir]

prints one "<lines>  <module>" row per module and a total row.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    text = path.read_text()
    docstrings = _docstring_lines(ast.parse(text))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "xbarc"
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

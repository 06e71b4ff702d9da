"""Every tracked Python file parses with the Python 3.10 grammar.

pyproject.toml declares requires-python >= 3.10, and the suite may run on
a newer interpreter only. ast.parse with feature_version=(3, 10) refuses
syntax that 3.10 lacks, such as except* groups or type parameter lists.
It checks grammar only: a call to a standard-library function or argument
added after 3.10 still parses, and only running on 3.10 would find it.
"""
import ast
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracked_python_files() -> list[Path]:
    """The .py files git tracks; every .py file outside hidden directories
    when the tree is not a git checkout."""
    try:
        listed = subprocess.run(
            ["git", "ls-files", "*.py"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return [p for p in ROOT.rglob("*.py") if not any(part.startswith(".") for part in p.relative_to(ROOT).parts)]
    return [ROOT / name for name in listed]


def test_every_python_file_parses_as_python_3_10():
    paths = _tracked_python_files()
    assert paths
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as e:
            failures.append(f"{path.relative_to(ROOT)}:{e.lineno}: {e.msg}")
    assert not failures, "\n".join(failures)

"""The QASM reader against the eval-based reader it replaced.

_reference_statements and _reference_eval_angle are the earlier
implementations, copied unchanged: a character loop that splits statements,
and an angle evaluator that checks the parse tree and then compiles and
evals it. The reader must give the same (line, statement) pairs and, for
every expression without a bool constant, the same float bit for bit or a
QasmError on the same line. Bool constants, which the earlier evaluator read
as 1 and 0, are now a "bad constant".
"""
import ast
import math
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarc import parse_qasm
from xbarc.cli import main
from xbarc.errors import QasmError
from xbarc.qasm import _eval_angle, _statements


def _reference_statements(text: str):
    """Yield (line, statement) with comments stripped, split on ';'."""
    buf = []
    start_line = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("//", 1)[0]
        for ch in line:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield (start_line or lineno), stmt
                buf = []
                start_line = None
            else:
                if ch.strip() and start_line is None:
                    start_line = lineno
                buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        raise QasmError(f"statement not terminated by ';': {tail!r}", start_line)


_ALLOWED_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Constant, ast.Name,
                       ast.Load, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.USub, ast.UAdd,
                       ast.Pow)


def _reference_eval_angle(expr: str, line: int) -> float:
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, RecursionError, MemoryError):  # the last two: nesting too deep
        raise QasmError(f"bad angle expression {expr!r}", line) from None
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_EXPR_NODES):
            raise QasmError(f"unsupported construct in angle {expr!r}", line)
        if isinstance(node, ast.Name) and node.id != "pi":
            raise QasmError(f"unknown symbol {node.id!r} in angle {expr!r}", line)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise QasmError(f"bad constant in angle {expr!r}", line)
            # float arithmetic throughout, so `**` on integer literals overflows
            # instead of computing an exponent tower exactly
            try:
                node.value = float(node.value)
            except OverflowError:
                raise QasmError(f"constant out of range in angle {expr!r}", line) from None
    try:
        angle = eval(compile(tree, "<angle>", "eval"), {"__builtins__": {}}, {"pi": math.pi})
    except (ArithmeticError, RecursionError) as e:
        raise QasmError(f"cannot evaluate angle {expr!r}: {e}", line) from None
    if not (isinstance(angle, float) and math.isfinite(angle)):
        raise QasmError(f"angle {expr!r} is not a finite real number", line)
    return angle


def _outcome(run):
    """What a reader call gives: ("value", result) or ("error", line)."""
    try:
        return "value", run()
    except QasmError as e:
        return "error", e.line


def _statement_outcome(reader, text):
    """The pairs a statement reader yields, then its error or None."""
    pairs = []
    try:
        for pair in reader(text):
            pairs.append(pair)
    except QasmError as e:
        return pairs, (str(e), e.line)
    return pairs, None


_TEXT_PIECES = [";", "//", "\n", "\r\n", " ", "\t", "a", "q[0]", "rx(pi/2)", "h", ",", "\x0c"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_TEXT_PIECES), max_size=30).map("".join))
@example("h q[0];\n  \n  cx\nq[0],\n q[1] ; // x ; y\n;;rz(1)\nq[0]")
@example("  \n\t\n h q[0];")
def test_statements_match_the_character_loop(text):
    assert _statement_outcome(_statements, text) == _statement_outcome(_reference_statements, text)


@st.composite
def _angle_texts(draw, depth=0):
    """An angle expression over the grammar's operators, with the leaves and
    faults the evaluator must tell apart."""
    if depth >= 4 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from(
            ["pi", "0", "1", "2", "3", "0.5", "2.5", "1e-3", "1e308", "1e400", "10", "10**400", "0.0",
             "True", "False", "x", "e", "1j", "'s'", "None", "q[0]", "f(1)", "1//2", "1%2"]
        ))
    shape = draw(st.sampled_from(["binary", "unary", "paren"]))
    if shape == "binary":
        op = draw(st.sampled_from(["+", "-", "*", "/", "**"]))
        return f"{draw(_angle_texts(depth + 1))}{op}{draw(_angle_texts(depth + 1))}"
    if shape == "unary":
        return draw(st.sampled_from(["-", "+"])) + draw(_angle_texts(depth + 1))
    return f"({draw(_angle_texts(depth + 1))})"


def _has_bool(expr: str) -> bool:
    return re.search(r"\b(True|False)\b", expr) is not None


@settings(max_examples=500, deadline=None)
@given(_angle_texts())
@example("-(pi/(2*2))")
@example("2**-1074/2")
@example("-0")
@example("(-8)**0.5")
@example("1e308*10")
@example("0.0**-1")
def test_eval_angle_matches_the_eval_reader(expr):
    got = _outcome(lambda: _eval_angle(expr, 7))
    if _has_bool(expr):
        assert got == ("error", 7)
        return
    want = _outcome(lambda: _reference_eval_angle(expr, 7))
    if want[0] == "value" and got[0] == "value":
        assert got[1].hex() == want[1].hex()  # bit-identical, the sign of zero included
    else:
        assert got == want


@pytest.mark.parametrize(
    "angle, value",
    [("-(pi/(2*2))", -(math.pi / (2 * 2))), ("(((1)))", 1.0), ("((-(pi)))*((2))", -math.pi * 2),
     ("(" * 150 + "pi" + ")" * 150, math.pi), ("-" * 950 + "1", 1.0)],
    ids=["three-levels", "four-levels", "mixed", "150-levels", "950-unary-signs"],
)
def test_nested_parentheses_parse(angle, value):
    (gate,) = parse_qasm(f"qreg q[1]; rz({angle}) q[0];").gates
    assert gate.angle.hex() == value.hex()


@pytest.mark.parametrize("angle", ["True", "-False", "pi*True", "(False)"])
def test_bool_constant_is_a_bad_constant(tmp_path, capsys, angle):
    src = tmp_path / "bool.qasm"
    src.write_text(f"qreg q[1];\nrx({angle}) q[0];\n")
    capsys.readouterr()
    assert main(["compile", "-i", str(src), "-o", str(tmp_path / "bool.json")]) == 1
    assert f"error: line 2: bad constant in angle {angle!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr, fragment",
    [("1/0 + x", "cannot evaluate"), ("x + 1/0", "unknown symbol 'x'"), ("'s' + x", "bad constant"),
     ("1" * 400 + " + 1j", "constant out of range"), ("f(1) + x", "unsupported construct")],
)
def test_first_fault_from_the_left_is_named(expr, fragment):
    with pytest.raises(QasmError, match=re.escape(fragment)):
        _eval_angle(expr, 1)


@pytest.mark.parametrize(
    "stmt",
    ["a" * 20000 + "(", "rx(" + "(" * 20000, "a" + " " * 20000 + "(", "rx(" + "(" * 10000 + ")" * 10000,
     "rx(1" + ")" * 20000 + " q[0]", "h" + " (" * 10000],
    ids=["long-name-open", "open-parens", "spaces-open", "deep-balanced", "close-parens", "spaced-opens"],
)
def test_long_statements_fail_in_linear_time(stmt):
    text = f"qreg q[1];\n{stmt};\n"
    start = time.perf_counter()
    with pytest.raises(QasmError) as exc:
        parse_qasm(text)
    assert time.perf_counter() - start < 1.0
    assert exc.value.line == 2

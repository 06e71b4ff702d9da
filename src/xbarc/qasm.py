"""QASM subset frontend and compiled-output emission.

Input: OPENQASM 2.0 statements only — header, one qreg, gate calls named
by a GateKind value (h|x|y|z|s|sdg|t|tdg|rx|ry|rz|cx|cz|sqswap), and
measure (parsed, warned about and dropped; readout is outside this
toolchain). `include` and `creg` statements are tolerated as no-ops so
unmodified corpus files compile. Keywords match as whole words. Gate
enforces operand counts; the parser positions its error. Anything else is
rejected with a positioned error.

A rotation's angle is an expression over float literals, integer literals
and `pi`, with binary + - * / **, unary + and -, and parentheses to any
depth. Its value is computed from Python's parse tree of the text with
float arithmetic; no input text is compiled or passed to eval.

Output: the compiled schedule as a cycle-annotated QASM dialect, for
reading; the authoritative artifact is the JSON document that
instructions.schedule_to_doc writes.
"""
from __future__ import annotations

import ast
import math
import operator
import re
import warnings

from .circuits import ROTATION_KINDS, Circuit, Gate, GateKind
from .errors import QasmError
from .instructions import Instruction, InstrKind, Schedule

class MeasurementDropped(UserWarning):
    """A measure statement was dropped: readout is outside this toolchain."""


def _statements(text: str):
    """Yield (line, statement) with comments stripped, split on ';'. A
    statement may span lines, which join without a separator; its line is
    that of its first non-blank character."""
    pending, start = "", None  # an unterminated statement and its line
    for lineno, line in enumerate(text.splitlines(), start=1):
        *ended, rest = line.split("//", 1)[0].split(";")
        for piece in ended:
            stmt = (pending + piece).strip()
            if stmt:
                yield start or lineno, stmt
            pending, start = "", None
        pending += rest
        if start is None and rest.strip():
            start = lineno
    if pending.strip():
        raise QasmError(f"statement not terminated by ';': {pending.strip()!r}", start)


# the angle grammar's operators, applied to floats
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
              ast.Pow: operator.pow, ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_angle(expr: str, line: int) -> float:
    """The value of a gate parameter, computed from its parse tree.

    The tree is walked in post-order on an explicit stack, so an expression
    of any depth the parser accepts is evaluated: an operator node is
    replaced by its operator and then its operands, the leftmost on top, and
    the operator takes its operands' values when it comes off the stack.
    Faults are therefore met left to right.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, RecursionError, MemoryError):  # the last two: nesting too deep
        raise QasmError(f"bad angle expression {expr!r}", line) from None
    todo, values = [tree.body], []
    try:
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.unaryop, ast.operator)):  # its operands' values are on top
                n = 1 if isinstance(node, ast.unaryop) else 2
                values[-n:] = [_OPERATORS[type(node)](*values[-n:])]
            elif isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
                todo += (node.op, node.right, node.left)
            elif isinstance(node, ast.UnaryOp) and type(node.op) in _OPERATORS:
                todo += (node.op, node.operand)
            elif isinstance(node, ast.Name):
                if node.id != "pi":
                    raise QasmError(f"unknown symbol {node.id!r} in angle {expr!r}", line)
                values.append(math.pi)
            elif isinstance(node, ast.Constant):
                if type(node.value) not in (int, float):  # bools, strings, complex literals
                    raise QasmError(f"bad constant in angle {expr!r}", line)
                # float arithmetic throughout, so `**` on integer literals overflows
                # instead of computing an exponent tower exactly
                values.append(float(node.value))
            else:
                raise QasmError(f"unsupported construct in angle {expr!r}", line)
    except ArithmeticError as e:
        if isinstance(node, ast.Constant):  # an integer literal beyond the float range
            raise QasmError(f"constant out of range in angle {expr!r}", line) from None
        raise QasmError(f"cannot evaluate angle {expr!r}: {e}", line) from None
    (angle,) = values
    if not (isinstance(angle, float) and math.isfinite(angle)):
        raise QasmError(f"angle {expr!r} is not a finite real number", line)
    return angle


_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_CREG_RE = re.compile(r"^creg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
# name, then the parameters up to the statement's last ')', then the operands;
# the name cannot shrink to let the parameter group match, so matching is
# linear in the statement's length, and ast.parse judges the parentheses
_CALL_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?![A-Za-z0-9_])(?:\s*\((.*)\))?(.*)")
_OPERAND_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")


def parse_qasm(text: str, name: str = "") -> Circuit:
    """Parse the supported OPENQASM 2.0 subset into a Circuit.

    Raises QasmError with a line number on syntax errors, unknown gates,
    out-of-range operands or multiple qregs.
    """
    reg_name = None
    n_qubits = 0
    gates: list[Gate] = []
    for line, stmt in _statements(text):
        call = _CALL_RE.fullmatch(stmt)
        if not call:  # no leading name
            raise QasmError(f"cannot parse statement {stmt!r}", line)
        keyword, param, operand_text = call.groups()  # the name matched whole, never as a prefix
        if keyword.upper() == "OPENQASM":
            version = stmt.split(None, 1)[1] if len(stmt.split()) > 1 else ""
            if not version.startswith("2"):
                raise QasmError(f"unsupported QASM version {version!r}", line)
            continue
        if keyword == "include":
            warnings.warn(f"line {line}: include statement ignored", UserWarning, stacklevel=2)
            continue
        m = _QREG_RE.match(stmt)
        if m:
            if reg_name is not None:
                raise QasmError("multiple qreg declarations", line)
            reg_name = m.group(1)
            n_qubits = int(m.group(2))
            if n_qubits < 1:
                raise QasmError("qreg must hold at least one qubit", line)
            continue
        if _CREG_RE.match(stmt):
            continue
        if keyword == "measure":
            warnings.warn(
                f"line {line}: measurement dropped (readout not compiled)",
                MeasurementDropped,
                stacklevel=2,
            )
            continue
        try:
            kind = GateKind(keyword)
        except ValueError:
            raise QasmError(f"unknown gate {keyword!r}", line) from None
        if reg_name is None:
            raise QasmError("gate call before qreg declaration", line)
        if (param is not None) != (kind in ROTATION_KINDS):
            raise QasmError(f"{keyword} parameter mismatch", line)
        angle = _eval_angle(param, line) if param is not None else None
        operands = []
        for op_text in [t.strip() for t in operand_text.split(",") if t.strip()]:
            om = _OPERAND_RE.match(op_text)
            if not om:
                raise QasmError(f"bad operand {op_text!r}", line)
            if om.group(1) != reg_name:
                raise QasmError(f"unknown register {om.group(1)!r}", line)
            idx = int(om.group(2))
            if idx >= n_qubits:
                raise QasmError(f"operand {reg_name}[{idx}] out of register bounds", line)
            operands.append(idx)
        try:  # operand count, distinct operands
            gates.append(Gate(kind, tuple(operands), angle))
        except ValueError as e:
            raise QasmError(str(e), line) from None
    if reg_name is None:
        raise QasmError("no qreg declaration found", 1)
    return Circuit(name, n_qubits, tuple(gates))


def circuit_to_qasm(circuit: Circuit) -> str:
    """Emit a front-end circuit in the supported input subset."""
    lines = ["OPENQASM 2.0;", f"qreg q[{circuit.n_qubits}];"]
    for g in circuit.gates:
        operands = ",".join(f"q[{q}]" for q in g.qubits)
        if g.angle is not None:
            lines.append(f"{g.kind.value}({g.angle!r}) {operands};")
        else:
            lines.append(f"{g.kind.value} {operands};")
    return "\n".join(lines) + "\n"


def _instruction_line(op: Instruction) -> str:
    k = op.kind
    if k is InstrKind.ZSH:
        return f"zsh({op.angle!r}) q[{op.qubits[0]}];"
    if k in (InstrKind.SG_ROT, InstrKind.SG_ROT_INV):
        suffix = "_inv" if k is InstrKind.SG_ROT_INV else ""
        parity = "even" if op.parity == 0 else "odd"
        return f"sg_r{op.axis}{suffix}({op.angle!r}) {parity};"
    if k is InstrKind.SQSWAP:
        return f"sqswap q[{op.qubits[0]}],q[{op.qubits[1]}];"
    return f"{k.value} q[{op.qubits[0]}];"  # the plain shuttles and zsh_ret


def emit_output(schedule: Schedule) -> str:
    """Cycle-annotated QASM dialect text of a schedule (`compile --emit-qasm`)."""
    lines = [
        "OPENQASM 2.0;",
        f"// compiled schedule for a {schedule.grid_n}x{schedule.grid_n} crossbar",
        f"qreg q[{schedule.n_qubits}];",
    ]
    for idx, cycle in enumerate(schedule.cycles):
        lines.append(f"// cycle {idx} [{cycle.type.value}]")
        for op in cycle.ops:
            lines.append(_instruction_line(op))
    return "\n".join(lines) + "\n"

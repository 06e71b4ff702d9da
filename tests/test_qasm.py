"""QASM parsing, emission and schedule-document round trips."""
import json
import math
import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarc import BenchSpec, GateKind, emit_output, gen_random_uniform, parse_qasm, schedule_from_doc
from xbarc import instructions
from xbarc.circuits import NATIVE_KINDS, ROTATION_KINDS, TWO_QUBIT_KINDS, Circuit, Gate
from xbarc.errors import QasmError
from xbarc.instructions import (
    FIELDS,
    Cycle,
    CycleType,
    Instruction,
    InstrKind,
    Schedule,
    _LAYOUTS,
    grid_side,
    instruction_to_row,
    schedule_to_doc,
)
from xbarc.qasm import MeasurementDropped, circuit_to_qasm

from conftest import checkerboard_sites, compile_native, moves_digest


def test_minimal_cx():
    c = parse_qasm("qreg q[2]; cx q[0],q[1];")
    assert c.n_qubits == 2
    assert [(g.kind, g.qubits) for g in c.gates] == [(GateKind.CNOT, (0, 1))]


def test_zero_angle_rotation():
    c = parse_qasm("qreg q[1]; rz(0) q[0];")
    assert c.gates[0].kind is GateKind.RZ
    assert c.gates[0].angle == 0.0


def test_measure_dropped_with_warning():
    src = "qreg q[3]; h q[0]; cx q[0],q[2]; measure q -> c;"
    with pytest.warns(MeasurementDropped):
        c = parse_qasm(src)
    assert c.n_qubits == 3
    assert [(g.kind, g.qubits) for g in c.gates] == [(GateKind.H, (0,)), (GateKind.CNOT, (0, 2))]


def test_header_and_include_tolerated():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'
    with pytest.warns(UserWarning):
        c = parse_qasm(src)
    assert len(c.gates) == 1


def test_pi_expressions():
    c = parse_qasm("qreg q[1]; rx(pi/2) q[0]; ry(-pi) q[0]; rz(3*pi/4) q[0];")
    assert c.gates[0].angle == pytest.approx(math.pi / 2)
    assert c.gates[1].angle == pytest.approx(-math.pi)
    assert c.gates[2].angle == pytest.approx(3 * math.pi / 4)


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("qreg q[2]; qreg r[2];", "multiple qreg"),
        ("qreg q[2]; foo q[0];", "unknown gate"),
        ("qreg q[2]; h q[5];", "out of register bounds"),
        ("qreg q[2]; h r[0];", "unknown register"),
        ("h q[0];", "before qreg"),
        ("qreg q[2]; cx q[0];", "takes 2 operand"),
        ("qreg q[2]; rx q[0];", "parameter mismatch"),
        ("qreg q[2]; barrier q;", "unknown gate"),
        ("qreg q[2]; rx(bogus) q[0];", "unknown symbol"),
        ("qreg q[2]; h q[0]", "not terminated"),
        # keywords match whole, not as prefixes
        ("qreg q[2]; measurement q[0];", "unknown gate 'measurement'"),
        ("qreg q[2]; measure_all q;", "unknown gate 'measure_all'"),
        ("qreg q[2]; includes q[0];", "unknown gate 'includes'"),
        ("openqasmx 2.0; qreg q[2];", "unknown gate 'openqasmx'"),
    ],
)
def test_positioned_errors(src, fragment):
    with pytest.raises(QasmError) as exc:
        parse_qasm(src)
    assert fragment in str(exc.value)
    assert "line" in str(exc.value)


@pytest.mark.parametrize(
    "angle",
    ["pi/0", "10**400", "1e400", "1e400-1e400", "9**9**9**9", "(-8)**0.5", "1" * 400,
     "-" * 100000 + "1", "+".join(["1"] * 100000)],
    ids=["divide-by-zero", "int-power-overflow", "float-literal-inf", "inf-minus-inf", "power-tower",
         "complex", "long-int-literal", "deep-unary", "deep-sum"],
)
def test_angle_arithmetic_errors_are_positioned(angle):
    with pytest.raises(QasmError, match="angle") as exc:
        parse_qasm(f"qreg q[1];\nrz({angle}) q[0];\n")
    assert exc.value.line == 2


def test_error_line_numbers():
    with pytest.raises(QasmError) as exc:
        parse_qasm("qreg q[2];\nh q[0];\nfoo q[1];\n")
    assert exc.value.line == 3


def test_comments_ignored():
    c = parse_qasm("// top\nqreg q[1]; // reg\nh q[0]; // gate\n")
    assert len(c.gates) == 1


class TestEmit:
    def test_empty_schedule(self):
        s = Schedule("empty", 2, ((0, 0), (1, 1)), (), moves_digest(((0, 0), (1, 1)), []))
        text = emit_output(s)
        assert "qreg q[2];" in text
        assert "// cycle" not in text
        assert schedule_to_doc(s)["cycles"] == []

    def test_single_twoq_cycle_format(self):
        cyc = Cycle((Instruction(InstrKind.SQSWAP, (0, 1)),))
        digest = moves_digest(((1, 0), (1, 1)), [((1, 0), (1, 1))])
        s = Schedule("one", 2, ((1, 0), (1, 1)), (cyc,), digest)
        text = emit_output(s)
        assert "// cycle 0 [twoq]" in text
        assert "sqswap q[0],q[1];" in text

    def test_every_move_line_names_its_direction(self):
        _, s = compile_native(gen_random_uniform(BenchSpec(6, 60, 50.0, 3)))
        lines = [line for line in emit_output(s).splitlines()[3:] if not line.startswith("//")]
        ops = [op for c in s.cycles for op in c.ops]
        assert len(lines) == len(ops)
        moves = [(line, op) for line, op in zip(lines, ops) if op.kind.moves]
        assert {op.kind for _, op in moves} == {kind for kind in InstrKind if kind.moves}
        for line, op in moves:
            # the kind names the direction: sh_l/sh_r/sh_u/sh_d, zsh_l/zsh_r
            assert re.fullmatch(r"z?sh_[lrud](\(.*\))? q\[\d+\];", line) and line.startswith(op.kind.value)
        z = next(op for _, op in moves if op.kind.family is CycleType.Z)
        assert f"{z.kind.value}({z.angle!r}) q[{z.qubits[0]}];" in lines

    def test_doc_round_trip_for_compiled_cnot(self):
        dec, s = compile_native(parse_qasm("qreg q[2]; cx q[0],q[1];", name="rt"))
        again = schedule_from_doc(json.loads(json.dumps(schedule_to_doc(s))))
        assert again == s
        assert again.cycles == s.cycles

    def test_cycle_count_matches_depth(self):
        dec, s = compile_native(parse_qasm("qreg q[2]; cx q[0],q[1];", name="d"))
        assert len(schedule_to_doc(s)["cycles"]) == s.depth


# one instruction of every kind, with parity 0, angle 0.0 and empty src among
# them, and the document row each must write, by the role each plays: a Z
# rotation's phase shuttle (zsh), its return (zsh_ret, a plain shuttle) and
# the compensating pulse of an X/Y rotation (sg_rot_inv, an sg_rot of
# negated angle) are roles, not kinds
INSTRUCTION_CASES = {
    "sh_l": (Instruction(InstrKind.SH_L, (0,)), ["sh_l", 0]),
    "sh_r": (Instruction(InstrKind.SH_R, (1,), src=(3,)), ["sh_r", 1, 3]),
    "sh_u": (Instruction(InstrKind.SH_U, (2,), src=(0, 5)), ["sh_u", 2, 0, 5]),
    "sh_d": (Instruction(InstrKind.SH_D, (0,), src=(7,)), ["sh_d", 0, 7]),
    "zsh": (Instruction(InstrKind.ZSH_L, (0,), angle=0.0, src=(2,)), ["zsh_l", 0, 0.0, 2]),
    "zsh_r": (Instruction(InstrKind.ZSH_R, (1,), angle=-0.5), ["zsh_r", 1, -0.5]),
    "zsh_ret": (Instruction(InstrKind.SH_R, (4,)), ["sh_r", 4]),
    "sg_rot": (Instruction(InstrKind.SG_ROT, angle=0.0, axis="x", parity=0, src=(0, 1)), ["sg_rot", 0.0, "x", 0, 0, 1]),
    "sg_rot_inv": (Instruction(InstrKind.SG_ROT, angle=-1.25, axis="y", parity=1), ["sg_rot", -1.25, "y", 1]),
    "sqswap": (Instruction(InstrKind.SQSWAP, (3, 1), src=(9,)), ["sqswap", 3, 1, 9]),
}


def test_instruction_cases_cover_every_kind():
    assert {op.kind for op, _ in INSTRUCTION_CASES.values()} == set(InstrKind)


def _one_op_schedule(op):
    """A schedule of the one cycle (op,) on five qubits, without an embedded
    circuit, so any src loads; the loader does not replay the digest."""
    return Schedule("row", grid_side(5), tuple(islice(checkerboard_sites(grid_side(5)), 5)), (Cycle((op,)),), "0" * 64)


@pytest.mark.parametrize(("op", "row"), INSTRUCTION_CASES.values(), ids=INSTRUCTION_CASES)
def test_instruction_dict_round_trip(op, row):
    # the document form of an instruction is its row
    assert instruction_to_row(op) == row
    s = _one_op_schedule(op)
    doc = schedule_to_doc(s)
    assert doc["cycles"] == [[row]]
    assert schedule_from_doc(json.loads(json.dumps(doc))) == s


def test_module_docstring_gives_every_row_layout():
    for name, layout in _LAYOUTS.items():
        assert layout.text in instructions.__doc__, name
    for kind in NATIVE_KINDS:
        operands = ["q"] if kind.arity == 1 else ["q0", "q1"]
        assert "[" + ", ".join([f'"{kind.value}"', *operands, *["angle"] * kind.rotation]) + "]" in instructions.__doc__


# one value per Instruction attribute that some kind carries, falsy ones
# included, and the retired direction attribute, which no kind carries
_ATTR_VALUES = {"qubits": (3,), "angle": 0.0, "axis": "x", "parity": 0, "direction": "L"}


@pytest.mark.parametrize(
    ("op", "attr"),
    [pytest.param(op, attr, id=f"{role}-{attr}") for role, (op, _) in INSTRUCTION_CASES.items() for attr in _ATTR_VALUES
     if attr not in {f.attr for f in FIELDS[op.kind]}],
)
def test_writer_rejects_an_attribute_the_kind_does_not_carry(op, attr):
    if attr == "direction":  # a move's direction is its kind: no instruction can be given one
        with pytest.raises(TypeError, match="direction"):
            Instruction(op.kind, direction=_ATTR_VALUES[attr])
        return
    op = op._replace(**{attr: _ATTR_VALUES[attr]})
    message = f"{op.kind.value} carries no field {attr!r}, instruction gives {_ATTR_VALUES[attr]!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        instruction_to_row(op)
    with pytest.raises(ValueError, match=re.escape(message)):
        schedule_to_doc(_one_op_schedule(op))


def test_hand_built_schedule_with_a_stray_field_is_not_written():
    # the row has no slot for a shuttle's angle: dropping it would leave a
    # schedule that does not round-trip
    op = Instruction(InstrKind.SH_R, (0,), angle=0.5)
    digest = moves_digest(((0, 0), (1, 1)), [((1, 0), (1, 1))])
    s = Schedule("stray", 2, ((0, 0), (1, 1)), (Cycle((op,)),), digest)
    with pytest.raises(ValueError, match="sh_r carries no field 'angle'"):
        schedule_to_doc(s)


FRONT_END_KINDS = sorted(GateKind, key=lambda k: k.value)


@st.composite
def compiled_schedules(draw):
    """The schedule of a random circuit of 2-20 qubits and at most 40 gates."""
    n = draw(st.integers(2, 20))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(FRONT_END_KINDS))
        arity = 2 if kind in TWO_QUBIT_KINDS else 1
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=arity, max_size=arity, unique=True))
        angle = draw(st.floats(-10.0, 10.0)) if kind in ROTATION_KINDS else None
        gates.append(Gate(kind, tuple(qubits), angle))
    return compile_native(Circuit("random", n, tuple(gates)))[1]


@settings(max_examples=100, deadline=None)
@given(compiled_schedules())
def test_document_holds_what_a_schedule_holds(s):
    doc = schedule_to_doc(s)
    assert set(doc) == {"name", "grid", "placement", "cycles", "moves_sha256", "circuit"}
    for rows, cycle in zip(doc["cycles"], s.cycles, strict=True):
        for row, op in zip(rows, cycle.ops, strict=True):
            n_slots = sum(len(f.slots) for f in FIELDS[op.kind])
            assert row[0] == op.kind.value and len(row) == 1 + n_slots + len(op.src)
    assert schedule_from_doc(json.loads(json.dumps(doc, separators=(",", ":")))) == s


def test_circuit_to_qasm_round_trip():
    src = "qreg q[3]; h q[0]; rx(0.25) q[1]; sqswap q[0],q[2]; cz q[1],q[2];"
    c = parse_qasm(src, name="x")
    again = parse_qasm(circuit_to_qasm(c), name="x")
    assert again.gates == c.gates
    assert again.n_qubits == c.n_qubits

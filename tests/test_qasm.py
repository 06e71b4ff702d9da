"""QASM parsing, emission and schedule-document round trips."""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarc import GateKind, emit_output, parse_qasm, schedule_from_doc
from xbarc.circuits import ROTATION_KINDS, TWO_QUBIT_KINDS, Circuit, Gate
from xbarc.errors import QasmError
from xbarc.instructions import (
    FIELDS,
    Cycle,
    Instruction,
    InstrKind,
    Schedule,
    TrajectoryDigest,
    instruction_from_dict,
    instruction_to_dict,
    schedule_to_doc,
)
from xbarc.qasm import MeasurementDropped, circuit_to_qasm

from conftest import compile_native


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
        s = Schedule("empty", 2, ((0, 0), (1, 1)), (), TrajectoryDigest().hexdigest())
        text = emit_output(s)
        assert "qreg q[2];" in text
        assert "// cycle" not in text
        assert schedule_to_doc(s)["cycles"] == []

    def test_single_twoq_cycle_format(self):
        cyc = Cycle((Instruction(InstrKind.SQSWAP, (0, 1)),))
        digest = TrajectoryDigest([((1, 0), (1, 1))]).hexdigest()
        s = Schedule("one", 2, ((1, 0), (1, 1)), (cyc,), digest)
        text = emit_output(s)
        assert "// cycle 0 [twoq]" in text
        assert "sqswap q[0],q[1];" in text

    def test_doc_round_trip_for_compiled_cnot(self):
        dec, s = compile_native(parse_qasm("qreg q[2]; cx q[0],q[1];", name="rt"))
        again = schedule_from_doc(json.loads(json.dumps(schedule_to_doc(s))))
        assert again == s
        assert again.cycles == s.cycles

    def test_cycle_count_matches_depth(self):
        dec, s = compile_native(parse_qasm("qreg q[2]; cx q[0],q[1];", name="d"))
        assert len(schedule_to_doc(s)["cycles"]) == s.depth


# one instruction of every kind, with parity 0, angle 0.0 and empty src among
# them, and the document keys each must write, in order
INSTRUCTION_CASES = [
    (Instruction(InstrKind.SH_L, (0,)), ["kind", "q"]),
    (Instruction(InstrKind.SH_R, (1,), src=(3,)), ["kind", "q", "src"]),
    (Instruction(InstrKind.SH_U, (2,), src=(0, 5)), ["kind", "q", "src"]),
    (Instruction(InstrKind.SH_D, (0,), src=(7,)), ["kind", "q", "src"]),
    (Instruction(InstrKind.ZSH, (0,), angle=0.0, direction="L", src=(2,)), ["kind", "q", "angle", "dir", "src"]),
    (Instruction(InstrKind.ZSH_RET, (4,), direction="R"), ["kind", "q", "dir"]),
    (
        Instruction(InstrKind.SG_ROT, angle=0.0, axis="x", parity=0, src=(0, 1)),
        ["kind", "angle", "axis", "parity", "src"],
    ),
    (Instruction(InstrKind.SG_ROT_INV, angle=-1.25, axis="y", parity=1), ["kind", "angle", "axis", "parity"]),
    (Instruction(InstrKind.SQSWAP, (3, 1), src=(9,)), ["kind", "q", "src"]),
]


def test_instruction_cases_cover_every_kind():
    assert {op.kind for op, _ in INSTRUCTION_CASES} == set(InstrKind)


@pytest.mark.parametrize(("op", "keys"), INSTRUCTION_CASES, ids=[op.kind.value for op, _ in INSTRUCTION_CASES])
def test_instruction_dict_round_trip(op, keys):
    d = instruction_to_dict(op)
    assert list(d) == keys
    assert instruction_from_dict(json.loads(json.dumps(d))) == op


FRONT_END_KINDS = sorted(set(GateKind) - {GateKind.MEASURE}, key=lambda k: k.value)


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
    assert set(doc) == {"name", "grid", "placement", "cycles", "trajectory_sha256", "circuit"}
    for cycle in doc["cycles"]:
        for op in cycle:
            assert set(op) - {"src"} == {"kind"} | {f.key for f in FIELDS[InstrKind(op["kind"])]}
    assert schedule_from_doc(json.loads(json.dumps(doc, separators=(",", ":")))) == s


def test_circuit_to_qasm_round_trip():
    src = "qreg q[3]; h q[0]; rx(0.25) q[1]; sqswap q[0],q[2]; cz q[1],q[2];"
    c = parse_qasm(src, name="x")
    again = parse_qasm(circuit_to_qasm(c), name="x")
    assert again.gates == c.gates
    assert again.n_qubits == c.n_qubits

"""Instruction's contract as a record: its fields, defaults, immutability,
equality and repr."""
import pytest

from xbarc.instructions import Instruction, InstrKind

FIELDS = ("kind", "qubits", "angle", "axis", "parity", "src")
DEFAULTS = {"qubits": (), "angle": None, "axis": None, "parity": None, "src": ()}

# one pulse with every field set, and a value differing from it in each field
PULSE = Instruction(InstrKind.SG_ROT, (), 0.5, "x", 0, (2,))
OTHER = {"kind": InstrKind.SH_L, "qubits": (1,), "angle": -0.5, "axis": "y", "parity": 1, "src": (3,)}


def test_fields_and_defaults_in_order():
    assert Instruction._fields == FIELDS
    assert list(Instruction._field_defaults.items()) == list(DEFAULTS.items())
    assert Instruction(InstrKind.SH_L) == Instruction(InstrKind.SH_L, (), None, None, None, ())
    assert tuple(Instruction(InstrKind.SH_L, (4,))) == (InstrKind.SH_L, (4,), None, None, None, ())


@pytest.mark.parametrize("attr", [*FIELDS, "direction"])
def test_assignment_raises(attr):
    op = Instruction(InstrKind.SH_R, (0,))
    with pytest.raises(AttributeError):
        setattr(op, attr, OTHER.get(attr, "L"))
    assert op == Instruction(InstrKind.SH_R, (0,))


def test_replace_gives_a_new_instruction():
    op = Instruction(InstrKind.ZSH_L, (2,), angle=0.25, src=(0,))
    moved = op._replace(kind=InstrKind.ZSH_R, angle=-0.25)
    assert moved == Instruction(InstrKind.ZSH_R, (2,), angle=-0.25, src=(0,))
    assert op == Instruction(InstrKind.ZSH_L, (2,), angle=0.25, src=(0,))


@pytest.mark.parametrize("attr", FIELDS)
def test_instructions_differing_in_one_field_are_unequal(attr):
    other = PULSE._replace(**{attr: OTHER[attr]})
    assert other != PULSE and not other == PULSE
    assert PULSE._replace() == PULSE and hash(PULSE._replace()) == hash(PULSE)


def test_repr_names_every_field():
    assert repr(Instruction(InstrKind.SH_U, (3,), src=(1, 2))) == (
        "Instruction(kind=<InstrKind.SH_U: 'sh_u'>, qubits=(3,), angle=None, axis=None, parity=None, src=(1, 2))"
    )
    assert repr(PULSE) == "Instruction(kind=<InstrKind.SG_ROT: 'sg_rot'>, qubits=(), angle=0.5, axis='x', parity=0, src=(2,))"

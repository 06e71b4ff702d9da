"""Gate-level circuit representation.

A Circuit is an ordered list of gates over virtual qubit ids. Gate kinds
split into the crossbar-native set {rx, ry, rz, sqswap} and front-end
kinds that must be decomposed before mapping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class GateKind(Enum):
    """A gate kind and three facts about it, set once per member: its
    operand count `arity`, whether it takes an angle (`rotation`) and
    whether the crossbar runs it (`native`). Gate and the per-gate walks
    read these attributes: an Enum member used as a set or dict key hashes
    in Python on every lookup. Where they compare with a member, they use a
    name bound once: reading a member off its class (GateKind.RX) takes the
    slow attribute path of a class whose metaclass defines __getattr__, as
    EnumType does."""

    def __new__(cls, value: str, arity: int = 1, rotation: bool = False, native: bool = False):
        member = object.__new__(cls)
        member._value_ = value
        member.arity, member.rotation, member.native = arity, rotation, native
        return member

    RX = "rx", 1, True, True
    RY = "ry", 1, True, True
    RZ = "rz", 1, True, True
    SQSWAP = "sqswap", 2, False, True
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    CNOT = "cx", 2
    CZ = "cz", 2


NATIVE_KINDS = frozenset(kind for kind in GateKind if kind.native)
ROTATION_KINDS = frozenset(kind for kind in GateKind if kind.rotation)
TWO_QUBIT_KINDS = frozenset(kind for kind in GateKind if kind.arity == 2)


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """A real number (not a bool) that is finite as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        n_ops = self.kind.arity
        if len(self.qubits) != n_ops:
            raise ValueError(f"{self.kind.value} takes {n_ops} operand(s), got {self.qubits}")
        if n_ops == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind.value} operands must be distinct: {self.qubits}")
        if (self.angle is not None) != self.kind.rotation:
            raise ValueError(f"angle must be present iff rotation kind, got {self.kind.value}")


@dataclass(frozen=True)
class Circuit:
    name: str
    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"operand {q} out of range for {self.n_qubits} qubits")

    @property
    def is_native(self) -> bool:
        return all(g.kind.native for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)


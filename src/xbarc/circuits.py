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
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    SQSWAP = "sqswap"
    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    SDG = "sdg"
    T = "t"
    TDG = "tdg"
    CNOT = "cx"
    CZ = "cz"
    MEASURE = "measure"


NATIVE_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.SQSWAP})
ROTATION_KINDS = frozenset({GateKind.RX, GateKind.RY, GateKind.RZ})
TWO_QUBIT_KINDS = frozenset({GateKind.SQSWAP, GateKind.CNOT, GateKind.CZ})


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
        n_ops = 2 if self.kind in TWO_QUBIT_KINDS else 1
        if self.kind is GateKind.MEASURE:
            n_ops = len(self.qubits)
        elif len(self.qubits) != n_ops:
            raise ValueError(f"{self.kind.value} takes {n_ops} operand(s), got {self.qubits}")
        if n_ops == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"{self.kind.value} operands must be distinct: {self.qubits}")
        if (self.angle is not None) != (self.kind in ROTATION_KINDS):
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
        return all(g.kind in NATIVE_KINDS for g in self.gates)

    def __len__(self) -> int:
        return len(self.gates)


def gate_to_dict(g: Gate) -> dict:
    d = {"kind": g.kind.value, "q": list(g.qubits)}
    if g.angle is not None:
        d["angle"] = g.angle
    return d


def gate_from_dict(d: dict) -> Gate:
    return Gate(GateKind(d["kind"]), tuple(d["q"]), d.get("angle"))


def circuit_to_dict(c: Circuit) -> dict:
    return {"name": c.name, "n_qubits": c.n_qubits, "gates": [gate_to_dict(g) for g in c.gates]}


def circuit_from_dict(d: dict) -> Circuit:
    return Circuit(d.get("name", ""), d["n_qubits"], tuple(gate_from_dict(g) for g in d["gates"]))

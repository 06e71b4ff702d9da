"""Gate decomposition to the native set and circuit characterization."""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate, GateKind
from .config import ArchConfig
from .errors import DecompositionError


@dataclass(frozen=True)
class CountsByType:
    n_xy: int
    n_z: int
    n_twoq: int

    @property
    def n_total(self) -> int:
        return self.n_xy + self.n_z + self.n_twoq


@dataclass(frozen=True)
class QIG:
    """Qubit interaction graph: edge weight = two-qubit gates on that pair."""

    n_qubits: int
    edges: tuple[tuple[int, int, int], ...]  # (a, b, weight), a < b

    def to_dot(self) -> str:
        lines = ["graph qig {"]
        for q in range(self.n_qubits):
            lines.append(f"  {q};")
        for a, b, w in self.edges:
            lines.append(f'  {a} -- {b} [label="{w}", weight={w}];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_edge_list(self) -> list[dict]:
        return [{"a": a, "b": b, "w": w} for a, b, w in self.edges]

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)


def decompose(circuit: Circuit, config: ArchConfig) -> Circuit:
    """Rewrite every front-end gate with its configured native template.

    Native gates pass through untouched; program order is preserved.
    """
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind.native:
            out.append(g)
            continue
        rule = config.decompositions.get(g.kind)
        if rule is None:
            raise DecompositionError(f"no decomposition rule for {g.kind.value}")
        for step in rule:
            operands = tuple(g.qubits[r] for r in step.qubits)
            out.append(Gate(step.kind, operands, step.angle))
    return Circuit(circuit.name, circuit.n_qubits, tuple(out))


def dependency_depth(circuit: Circuit) -> int:
    """ASAP depth over the dependency DAG; an empty circuit has depth 0."""
    return max(asap_levels(circuit), default=0)


def asap_levels(circuit: Circuit) -> list[int]:
    """Dependency level (1-based) of every gate.

    Gates sharing an operand are ordered by program order; commutation is
    ignored and no architectural constraint is applied.
    """
    level = [0] * circuit.n_qubits
    out = []
    for g in circuit.gates:
        lvl = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = lvl
        out.append(lvl)
    return out


def interaction_graph(circuit: Circuit) -> QIG:
    weights: dict[tuple[int, int], int] = {}
    for g in circuit.gates:
        if g.kind is GateKind.SQSWAP:
            a, b = sorted(g.qubits)
            weights[(a, b)] = weights.get((a, b), 0) + 1
    edges = tuple((a, b, w) for (a, b), w in sorted(weights.items()))
    return QIG(circuit.n_qubits, edges)


def counts_by_type(circuit: Circuit) -> CountsByType:
    """Native gate counts; requires a decomposed circuit."""
    n_xy = n_z = n_twoq = 0
    for g in circuit.gates:
        if g.kind in (GateKind.RX, GateKind.RY):
            n_xy += 1
        elif g.kind is GateKind.RZ:
            n_z += 1
        elif g.kind is GateKind.SQSWAP:
            n_twoq += 1
        else:
            raise ValueError(f"counts_by_type needs a native circuit, found {g.kind.value}")
    return CountsByType(n_xy, n_z, n_twoq)

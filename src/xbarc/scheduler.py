"""Two-pass routing-integrated scheduler.

Pass 1 orders the gates by ASAP dependency level (program order within a
level) and emits one ProtoCycle per gate. Pass 2 expands each ProtoCycle at
the grid state it meets: a two-qubit gate into its routed block, a Z gate
into its phase shuttle and return, an X/Y gate into its compensation
scheme. Blocks are placed in order and never parallelized across gates.
split_cycle runs only when an expansion raises MapperConflict (a Z gate
whose two horizontal neighbours are both occupied, or a scheme with no
common shuttle direction), and on a one-gate ProtoCycle it turns that
conflict into a CompileError. The multi-gate paths (_expand_z_group,
grouped X/Y schemes, the greedy split) are reached by tests only: grouping
gates into shared cycles waits for a benchmark-only change that stops
pinning these names in perfbench's tracer.

Every X/Y rotation claims its own compensation scheme instance: the pulse,
shuttle, inverse-pulse, shuttle-back cost is charged per gate, which is
what makes single-qubit gates a real overhead source on this architecture.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from .circuits import Circuit, GateKind
from .crossbar import Grid, apply_cycle, check_parallel_set
from .errors import CompileError, MapperConflict
from .instructions import Cycle, Instruction, InstrKind, Schedule, TrajectoryDigest, check_placement
from .ir import asap_levels
from .mapper import expand_semi_global, route_two_qubit, z_direction, z_route


@dataclass(frozen=True)
class ProtoCycle:
    """Pass-1 ideal cycle: one gate group of a single kind, pre-routing."""

    kind: str  # "xy" | "z" | "twoq"
    gates: tuple[int, ...]  # indices into the decomposed circuit


def _proto_kind(kind: GateKind) -> str:
    if kind in (GateKind.RX, GateKind.RY):
        return "xy"
    if kind is GateKind.RZ:
        return "z"
    return "twoq"


def _pass1(circuit: Circuit) -> list[ProtoCycle]:
    levels = asap_levels(circuit)
    order = sorted(range(len(circuit.gates)), key=lambda i: (levels[i], i))
    return [ProtoCycle(_proto_kind(circuit.gates[i].kind), (i,)) for i in order]


def _expand_z_group(circuit: Circuit, grid: Grid, gates) -> tuple[Cycle, ...]:
    """One Z cycle (phase shuttles) plus one return cycle for a gate group,
    checked on a copy of the caller's grid."""
    outs, backs = [], []
    for i in gates:
        g = circuit.gates[i]
        q = g.qubits[0]
        d = z_direction(grid, q)
        outs.append(Instruction(InstrKind.ZSH, (q,), angle=g.angle, direction=d, src=(i,)))
        backs.append(
            Instruction(InstrKind.ZSH_RET, (q,), direction="L" if d == "R" else "R", src=(i,))
        )
    out_cycle = Cycle(tuple(outs))
    back_cycle = Cycle(tuple(backs))
    g = grid.copy()
    for cycle in (out_cycle, back_cycle):
        report = check_parallel_set(g, cycle)
        if not report.ok:
            raise MapperConflict(f"z shuttles conflict ({report.kind.value}): {report.detail}")
        apply_cycle(g, cycle)
    return out_cycle, back_cycle


def _expand_proto(circuit: Circuit, grid: Grid, proto: ProtoCycle) -> tuple[Cycle, ...]:
    if proto.kind == "twoq":
        if len(proto.gates) != 1:
            raise CompileError("two-qubit blocks are never grouped")
        i = proto.gates[0]
        a, b = circuit.gates[i].qubits
        return route_two_qubit(grid, a, b, src=i)
    if proto.kind == "z":
        if len(proto.gates) == 1:
            i = proto.gates[0]
            g = circuit.gates[i]
            return z_route(grid, g.qubits[0], g.angle, src=i)
        return _expand_z_group(circuit, grid, proto.gates)
    # xy: one scheme instance over the group's targets
    first = circuit.gates[proto.gates[0]]
    axis = "x" if first.kind is GateKind.RX else "y"
    for i in proto.gates[1:]:
        g = circuit.gates[i]
        if g.kind is not first.kind or g.angle != first.angle:
            raise CompileError("xy group must share axis and angle")
    sources = {circuit.gates[i].qubits[0]: i for i in proto.gates}
    targets = [circuit.gates[i].qubits[0] for i in proto.gates]
    return expand_semi_global(grid, targets, axis, first.angle, sources)


def split_cycle(circuit: Circuit, grid: Grid, proto: ProtoCycle) -> list[tuple[Cycle, ...]]:
    """Partition a conflicted cycle into sequential conflict-free blocks.

    Greedy in program order: keep extending the current subset while it
    still expands conflict-free, defer the rest, then rerun on the deferred
    subset. Terminates in at most len(gates) rounds; a stored remainder
    that is itself clean reschedules in one extra round.
    """
    blocks: list[tuple[Cycle, ...]] = []
    remaining = list(proto.gates)
    while remaining:
        subset: list[int] = []
        deferred: list[int] = []
        block = None
        for i in remaining:
            try:
                candidate = _expand_proto(circuit, grid, ProtoCycle(proto.kind, tuple(subset + [i])))
            except MapperConflict:
                deferred.append(i)
                continue
            subset.append(i)
            block = candidate
        if block is None:
            raise CompileError(
                f"gate {remaining[0]} conflicts with the static grid; cannot schedule"
            )
        blocks.append(block)
        remaining = deferred
    return blocks


def schedule_integrated(decomposed: Circuit, grid: Grid, name: str | None = None) -> Schedule:
    """Compile a native circuit on an idle-configuration grid; an illegal
    placement raises CrossbarError before anything is routed. The grid is
    copied, not advanced."""
    if not decomposed.is_native:
        raise ValueError("schedule_integrated needs a decomposed (native-only) circuit")
    check_placement(grid.n, grid.pos)
    if not grid.is_checkerboard():
        raise ValueError("initial grid must be in the idle configuration")
    if grid.n_qubits != decomposed.n_qubits:
        raise ValueError("grid and circuit disagree on qubit count")

    placement = grid.pos
    grid = grid.copy()
    cycles: list[Cycle] = []
    trajectory = TrajectoryDigest()

    for proto in _pass1(decomposed):
        try:
            blocks = [_expand_proto(decomposed, grid, proto)]
        except MapperConflict:
            blocks = split_cycle(decomposed, grid, proto)
        for cycle in chain.from_iterable(blocks):
            apply_cycle(grid, cycle)
            cycles.append(cycle)
            trajectory.add(grid.coords)

    if not grid.is_checkerboard():
        raise CompileError("final occupancy is not the idle configuration")

    return Schedule(
        name=name if name is not None else decomposed.name,
        grid_n=grid.n,
        placement=placement,
        cycles=tuple(cycles),
        trajectory_sha256=trajectory.hexdigest(),
        circuit=decomposed,
    )


def timed_schedule(decomposed: Circuit, grid: Grid, name: str | None = None):
    """Schedule plus wall-clock compile time in milliseconds."""
    t0 = time.perf_counter()
    schedule = schedule_integrated(decomposed, grid, name)
    return schedule, (time.perf_counter() - t0) * 1000.0

"""Routing-integrated scheduler.

One pass over the gates in ASAP dependency order (program order within a
level) expands each gate into its routed block at the grid state it meets:
a two-qubit gate into its routed exchanges and interaction triplet, a Z
gate into its phase shuttle and return, an X/Y gate into its compensation
scheme. Blocks are placed in order and never parallelized across gates.
The routing entry points check and apply each cycle on the scheduler's one
grid, which records each cycle's site changes for the trajectory digest
(crossbar.step_legal, or check_parallel_set and apply_cycle).

Every X/Y rotation claims its own compensation scheme instance: the pulse,
shuttle, inverse-pulse, shuttle-back cost is charged per gate, which is
what makes single-qubit gates a real overhead source on this architecture.
"""
from __future__ import annotations

import time

from .circuits import Circuit, Gate, GateKind
from .crossbar import Grid
from .crossbar import apply_cycle, check_parallel_set  # noqa: F401  unused; perfbench/tracing.py binds these names
from .errors import CompileError
from .instructions import Cycle, Schedule, check_placement
from .ir import asap_levels
from .mapper import expand_semi_global, route_two_qubit, z_route

split_cycle = None  # unused; perfbench/tracing.py binds this name


# bound once for _route_gate (see GateKind)
_RX, _RY, _RZ = GateKind.RX, GateKind.RY, GateKind.RZ


def _route_gate(grid: Grid, gate: Gate, i: int) -> tuple[Cycle, ...]:
    """Gate i of the circuit as one routed block, applied to `grid`."""
    if gate.kind is _RZ:
        return z_route(grid, gate.qubits[0], gate.angle, src=i)
    if gate.kind is _RX or gate.kind is _RY:
        axis = "x" if gate.kind is _RX else "y"
        return expand_semi_global(grid, gate.qubits[0], axis, gate.angle, src=i)
    a, b = gate.qubits
    return route_two_qubit(grid, a, b, src=i)


def schedule_integrated(decomposed: Circuit, grid: Grid, name: str | None = None) -> Schedule:
    """Compile a native circuit on an idle-configuration grid; an illegal
    placement raises CrossbarError before anything is routed. Routing
    advances a fresh grid at the same placement, so the caller's grid is
    left as it was."""
    if not decomposed.is_native:
        raise ValueError("schedule_integrated needs a decomposed (native-only) circuit")
    check_placement(grid.n, grid.pos)
    if not grid.is_checkerboard():
        raise ValueError("initial grid must be in the idle configuration")
    if grid.n_qubits != decomposed.n_qubits:
        raise ValueError("grid and circuit disagree on qubit count")

    placement = grid.pos
    grid = Grid(grid.n, placement)
    cycles: list[Cycle] = []

    levels = asap_levels(decomposed)
    for i in sorted(range(len(decomposed.gates)), key=lambda i: (levels[i], i)):
        cycles.extend(_route_gate(grid, decomposed.gates[i], i))

    if not grid.is_checkerboard():
        raise CompileError("final occupancy is not the idle configuration")

    return Schedule(
        name=name if name is not None else decomposed.name,
        grid_n=grid.n,
        placement=placement,
        cycles=tuple(cycles),
        moves_sha256=grid.trajectory.hexdigest(),
        circuit=decomposed,
    )


def timed_schedule(decomposed: Circuit, grid: Grid, name: str | None = None):
    """Schedule plus wall-clock compile time in milliseconds."""
    t0 = time.perf_counter()
    schedule = schedule_integrated(decomposed, grid, name)
    return schedule, (time.perf_counter() - t0) * 1000.0

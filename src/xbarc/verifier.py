"""Schedule verification: replay and statevector equivalence, one verdict.

Replay re-runs every cycle from the initial placement through the
scheduler's own judgement, so it cannot catch a fault in the conflict
model itself: crossbar.step_legal for a legal lone move or exchange (the
second mover stepping back across the barrier the first one crosses),
else check_parallel_set, whose report names a conflict, and apply_cycle
for a cycle it judges LEGAL; a refused cycle is reported once and not
applied. On a compiled schedule step_legal takes every cycle of moves, and
only the lone pulses and lone sqswaps reach the other two
(tests/test_crossbar.py::test_only_lone_pulses_and_sqswaps_reach_the_fallback).
It compares the grid's trajectory digest with the moves_sha256 the
scheduler stored. The digest covers the placement and the sites every
cycle changed, with one end mark per cycle, which determines the
occupancy after every cycle, so cycles that are each
legal but no longer reproduce the compiled trajectory fail: a moved,
added or dropped cycle, a pulse cycle included, or a placement that swaps
two qubits. The order of a cycle's rows does not matter. Statevector
equivalence simulates the compiled schedule against the decomposed circuit
at small qubit counts; both sides fold each qubit's rotations, spectator
ones included, into one 2x2 until that qubit's next two-qubit gate
(sim.RotationFold), which applies every gate in place on its own copy of
the probe states, so the probes are never written and a second check of
the same schedule gives the same fidelity. verify() runs both checks;
VerifyReport.ok is the verdict.

Replay reads each instruction kind's facts (its unit step, its cycle
family) from InstrKind's attributes, and every legal cycle's report is the
one shared crossbar.LEGAL. The simulator gives a phase shuttle (zsh_l or
zsh_r, family Z) an RZ by its angle and every sg_rot pulse, the
compensating one of negated angle included, an RX or RY on the addressed
parity.

The loader, instructions.schedule_from_doc, rejects a document field that
an instruction kind does not carry, and a Cycle cannot mix instruction
families, hold two pulses or name a qubit in two of its instructions, so
replay sees only what the schedule holds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit
from .crossbar import ConflictReport, Grid, apply_cycle, apply_op, check_parallel_set, step_legal
from .instructions import CycleType, InstrKind, Schedule
from .sim import apply_1q, apply_2q  # noqa: F401  unused; perfbench/tracing.py binds these names
from .sim import (
    SQSWAP_MATRIX,
    RotationFold,
    random_product_state,
    rx_2x2,
    ry_2x2,
    rz_2x2,
    simulate_circuit,
    zero_state,
)

EQUIV_CAP = 12
SKIPPED = "skipped (n > cap)"
FIDELITY_FLOOR = 1.0 - 1e-9


@dataclass(frozen=True)
class VerifyReport:
    violations: tuple[tuple[int, ConflictReport], ...] = ()
    trajectory_match: bool = True
    equivalence_fidelity: float | str | None = None

    @property
    def replay_ok(self) -> bool:
        return not self.violations and self.trajectory_match

    @property
    def ok(self) -> bool:
        """The replay passed and no computed fidelity is below FIDELITY_FLOOR."""
        fid = self.equivalence_fidelity
        below = isinstance(fid, float) and not fid >= FIDELITY_FLOOR  # NaN counts as below
        return self.replay_ok and not below

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "replay_ok": self.replay_ok,
            "violations": [
                {
                    "cycle": i,
                    "kind": r.kind.value,
                    "culprits": list(r.culprits),
                    "detail": r.detail,
                }
                for i, r in self.violations
            ],
            "trajectory_match": self.trajectory_match,
            "equivalence_fidelity": self.equivalence_fidelity,
        }


def replay_verify(schedule: Schedule) -> VerifyReport:
    """Re-run every cycle from the initial placement and collect deviations.

    Total for every Schedule (its placement was checked when it was made):
    problems land in the report, never in an exception. Each cycle follows
    mapper._checked's rule: step_legal's one pass, else check_parallel_set,
    and apply_cycle only on a LEGAL verdict. A refused cycle is one
    violation and is not applied, so the next cycle is judged on the grid
    as it stood before the refused one. A refused cycle adds nothing to the
    trajectory log either, not even CYCLE_END. The scheduler's digest ends
    every cycle it wrote, so on its document trajectory_match reads false
    once a cycle is refused; a refused cycle that an edit added, a repeated
    one say, may leave it true, and the violation alone fails the replay.
    """
    violations: list[tuple[int, ConflictReport]] = []
    grid = Grid(schedule.grid_n, schedule.placement)
    for idx, cycle in enumerate(schedule.cycles):
        if step_legal(grid, cycle):
            continue
        report = check_parallel_set(grid, cycle)
        if report.ok:
            apply_cycle(grid, cycle)
        else:
            violations.append((idx, report))
    return VerifyReport(tuple(violations), grid.trajectory.hexdigest() == schedule.moves_sha256)


def simulate_schedule(schedule: Schedule, state: np.ndarray) -> np.ndarray:
    """Schedule semantics on the logical state.

    Plain shuttles relabel positions only; a phase shuttle (zsh_l, zsh_r)
    carries an RZ by its angle;
    semi-global pulses rotate every qubit currently in the addressed parity
    (spectators included); sqswap applies the standard 4x4 matrix. Each
    qubit's rotations, spectator ones included, are folded into one 2x2
    until that qubit's next sqswap, which applies them (sim.RotationFold).
    """
    fold = RotationFold(state, schedule.n_qubits)
    grid = Grid(schedule.grid_n, schedule.placement)
    # bound once (see InstrKind)
    z, sg_rot, sqswap = CycleType.Z, InstrKind.SG_ROT, InstrKind.SQSWAP
    for cycle in schedule.cycles:
        for op in cycle.ops:
            kind = op.kind
            if kind.family is z:
                fold.rotate(op.qubits[0], rz_2x2(op.angle))
            elif kind is sg_rot:
                rot = rx_2x2(op.angle) if op.axis == "x" else ry_2x2(op.angle)
                for q in grid.parity_members(op.parity):
                    fold.rotate(q, rot)
            elif kind is sqswap:
                fold.interact(op.qubits[0], op.qubits[1], SQSWAP_MATRIX)
            apply_op(grid, op)
    return fold.result()


def statevector_equiv(decomposed: Circuit, schedule: Schedule, seed: int = 0) -> float | str:
    """Min fidelity |<psi_circuit|psi_schedule>|^2 over the all-zero state
    and 3 seeded random product states, simulated at once as the columns of
    one (2**n, 4) array; the skipped marker above EQUIV_CAP qubits."""
    n = decomposed.n_qubits
    if n > EQUIV_CAP:
        return SKIPPED
    rng = np.random.default_rng([seed, n])
    probes = np.stack([zero_state(n)] + [random_product_state(n, rng) for _ in range(3)], axis=1)
    a = simulate_circuit(decomposed, probes)
    b = simulate_schedule(schedule, probes)
    overlaps = np.einsum("ik,ik->k", a.conj(), b)
    return float(np.minimum(1.0, np.min(np.abs(overlaps) ** 2)))  # NaN stays NaN


def verify(schedule: Schedule) -> VerifyReport:
    """Replay verification, then statevector equivalence when the schedule
    embeds its circuit and every cycle replayed without a violation; the
    verdict is the report's `ok`."""
    report = replay_verify(schedule)
    if report.violations or schedule.circuit is None:
        return report
    return replace(report, equivalence_fidelity=statevector_equiv(schedule.circuit, schedule))

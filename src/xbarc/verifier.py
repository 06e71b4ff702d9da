"""Schedule verification: replay and statevector equivalence, one verdict.

Replay re-runs every cycle from the initial placement through the
scheduler's own check_parallel_set/apply_cycle (so it cannot catch a fault
in the conflict model itself) and compares the grid's trajectory digest,
the occupancy after every cycle, with the digest the scheduler stored, so
cycles that are each legal but no longer reproduce the compiled trajectory
fail. Statevector equivalence simulates the compiled schedule against the
decomposed circuit at small qubit counts; both sides fold each qubit's
rotations, spectator ones included, into one 2x2 until that qubit's next
two-qubit gate (sim.RotationFold). verify() runs both checks;
VerifyReport.ok is the verdict.

Redundant document fields (qubit count, each cycle's written type) are
checked by the loader, instructions.schedule_from_doc, and a Cycle cannot
mix instruction families, so replay sees only what the schedule implies.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .circuits import Circuit
from .crossbar import ConflictKind, ConflictReport, Grid, apply_cycle, apply_op, check_parallel_set
from .errors import CrossbarError
from .instructions import InstrKind, Schedule
from .sim import apply_1q, apply_2q  # noqa: F401  unused; perfbench/tracing.py binds these names
from .sim import (
    SQSWAP_MATRIX,
    RotationFold,
    random_product_state,
    rx_matrix,
    ry_matrix,
    rz_matrix,
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
    problems land in the report, never in an exception. A cycle whose
    instructions cannot all be applied is a BLOCKED_PATH violation;
    apply_cycle undoes it, so the digest and the next cycle see the
    occupancy from before the cycle.
    """
    violations: list[tuple[int, ConflictReport]] = []
    grid = Grid(schedule.grid_n, schedule.placement)
    for idx, cycle in enumerate(schedule.cycles):
        report = check_parallel_set(grid, cycle)
        if not report.ok:
            violations.append((idx, report))
        try:
            apply_cycle(grid, cycle)
        except CrossbarError as e:
            detail = f"cycle is not applicable: {e}"
            violations.append((idx, ConflictReport(ConflictKind.BLOCKED_PATH, detail=detail)))
    return VerifyReport(tuple(violations), grid.trajectory.hexdigest() == schedule.trajectory_sha256)


def simulate_schedule(schedule: Schedule, state: np.ndarray) -> np.ndarray:
    """Schedule semantics on the logical state.

    Plain shuttles relabel positions only; zsh carries an RZ by its angle;
    semi-global pulses rotate every qubit currently in the addressed parity
    (spectators included); sqswap applies the standard 4x4 matrix. Each
    qubit's rotations, spectator ones included, are folded into one 2x2
    until that qubit's next sqswap, which applies them (sim.RotationFold).
    """
    fold = RotationFold(state, schedule.n_qubits)
    grid = Grid(schedule.grid_n, schedule.placement)
    for cycle in schedule.cycles:
        for op in cycle.ops:
            if op.kind is InstrKind.ZSH:
                fold.rotate(op.qubits[0], rz_matrix(op.angle))
            elif op.kind in (InstrKind.SG_ROT, InstrKind.SG_ROT_INV):
                rot = rx_matrix(op.angle) if op.axis == "x" else ry_matrix(op.angle)
                for q in grid.parity_members(op.parity):
                    fold.rotate(q, rot)
            elif op.kind is InstrKind.SQSWAP:
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

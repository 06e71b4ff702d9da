"""Independent schedule validation.

Replay verification re-runs every cycle through the grid-level conflict
checker from the initial placement, hashes the occupancy after every cycle
with TrajectoryDigest and compares the digest with the one the scheduler
stored; a document whose cycles no longer reproduce the compiled
trajectory fails even when every cycle on its own is legal.
Statevector equivalence simulates the compiled schedule literally
(spectator rotations included) against the decomposed circuit at small
qubit counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circuits import Circuit
from .crossbar import ConflictKind, ConflictReport, Grid, apply_op, check_parallel_set
from .errors import CrossbarError
from .instructions import CYCLE_FAMILY, InstrKind, Schedule, TrajectoryDigest
from .sim import (
    SQSWAP_MATRIX,
    apply_1q,
    apply_2q,
    random_product_state,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    simulate_circuit,
    zero_state,
)

EQUIV_CAP = 12
SKIPPED = "skipped (n > cap)"


@dataclass(frozen=True)
class VerifyReport:
    replay_ok: bool
    violations: tuple[tuple[int, ConflictReport], ...] = ()
    trajectory_match: bool = True
    equivalence_fidelity: float | str | None = None

    def to_json_dict(self) -> dict:
        return {
            "replay_ok": self.replay_ok,
            "violations": [
                {
                    "cycle": i,
                    "kind": r.kind.value if r.kind else None,
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

    Total: problems land in the report, never in an exception.
    """
    violations: list[tuple[int, ConflictReport]] = []
    trajectory = TrajectoryDigest()
    grid = Grid(schedule.grid_n, schedule.placement)
    for idx, cycle in enumerate(schedule.cycles):
        families = {CYCLE_FAMILY[op.kind] for op in cycle.ops}
        if families != {cycle.type}:
            violations.append(
                (
                    idx,
                    ConflictReport(
                        ok=False,
                        kind=ConflictKind.MIXED_TYPES,
                        culprits=tuple(range(len(cycle.ops))),
                        detail=f"cycle declared {cycle.type.value} but holds "
                        f"{sorted(f.value for f in families)}",
                    ),
                )
            )
        else:
            report = check_parallel_set(grid, cycle.ops)
            if not report.ok:
                violations.append((idx, report))
        try:
            next_grid = grid
            for op in cycle.ops:
                next_grid = apply_op(next_grid, op)
        except CrossbarError as e:
            violations.append(
                (
                    idx,
                    ConflictReport(
                        ok=False,
                        kind=e.kind or ConflictKind.BLOCKED_PATH,
                        detail=f"cycle is not applicable: {e}",
                    ),
                )
            )
            next_grid = grid  # keep replaying from the last consistent state
        trajectory.add(next_grid.pos)
        grid = next_grid
    match = trajectory.hexdigest() == schedule.trajectory_sha256
    return VerifyReport(
        replay_ok=not violations and match,
        violations=tuple(violations),
        trajectory_match=match,
    )


def simulate_schedule(schedule: Schedule, state: np.ndarray) -> np.ndarray:
    """Literal schedule semantics on the logical state.

    Plain shuttles relabel positions only; zsh carries an RZ by its angle;
    semi-global pulses rotate every qubit currently in the addressed parity
    (spectators included); sqswap applies the standard 4x4 matrix.
    """
    n = schedule.n_qubits
    grid = Grid(schedule.grid_n, schedule.placement)
    for cycle in schedule.cycles:
        for op in cycle.ops:
            if op.kind is InstrKind.ZSH:
                state = apply_1q(state, n, op.qubits[0], rz_matrix(op.angle))
            elif op.kind in (InstrKind.SG_ROT, InstrKind.SG_ROT_INV):
                rot = rx_matrix(op.angle) if op.axis == "x" else ry_matrix(op.angle)
                for q in grid.parity_members(op.parity):
                    state = apply_1q(state, n, q, rot)
            elif op.kind is InstrKind.SQSWAP:
                state = apply_2q(state, n, op.qubits[0], op.qubits[1], SQSWAP_MATRIX)
            grid = apply_op(grid, op)
    return state


def statevector_equiv(
    decomposed: Circuit, schedule: Schedule, cap: int = EQUIV_CAP, seed: int = 0
) -> float | str:
    """Min fidelity |<psi_circuit|psi_schedule>|^2 over the all-zero state
    and 3 seeded random product states; the skipped marker above `cap`."""
    n = decomposed.n_qubits
    if n > cap:
        return SKIPPED
    rng = np.random.default_rng([seed, n])
    states = [zero_state(n)] + [random_product_state(n, rng) for _ in range(3)]
    fidelity = 1.0
    for s0 in states:
        a = simulate_circuit(decomposed, s0)
        b = simulate_schedule(schedule, s0)
        fidelity = min(fidelity, float(abs(np.vdot(a, b)) ** 2))
    return fidelity


def verify(schedule: Schedule, cap: int = EQUIV_CAP, seed: int = 0) -> VerifyReport:
    """Replay verification plus statevector equivalence when available."""
    base = replay_verify(schedule)
    fidelity = None
    if schedule.circuit is not None:
        fidelity = statevector_equiv(schedule.circuit, schedule, cap=cap, seed=seed)
    return VerifyReport(
        replay_ok=base.replay_ok,
        violations=base.violations,
        trajectory_match=base.trajectory_match,
        equivalence_fidelity=fidelity,
    )

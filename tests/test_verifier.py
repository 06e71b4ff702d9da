"""Replay verification and statevector equivalence."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xbarc import (
    BenchSpec,
    Circuit,
    ConflictKind,
    Gate,
    GateKind,
    gen_random_uniform,
    replay_verify,
    statevector_equiv,
    verify,
)
from xbarc import sim, verifier
from xbarc.circuits import ROTATION_KINDS, TWO_QUBIT_KINDS
from xbarc.crossbar import Grid, apply_op
from xbarc.instructions import Cycle, CycleType, Instruction, InstrKind, Schedule, TrajectoryDigest
from xbarc.sim import (
    SQSWAP_MATRIX,
    RotationFold,
    apply_1q,
    apply_2q,
    apply_gate,
    apply_unitary,
    gate_matrix,
    rx_matrix,
    ry_matrix,
    rz_matrix,
    simulate_circuit,
    zero_state,
)
from xbarc.verifier import FIDELITY_FLOOR, SKIPPED, simulate_schedule

from conftest import compile_native


def compiled(circuit):
    return compile_native(circuit)[1]


def literal_circuit(circuit, state):
    """Reference: one kernel call per gate, in circuit order."""
    for g in circuit.gates:
        state = apply_gate(state, circuit.n_qubits, g)
    return state


def literal_schedule(schedule, state):
    """Reference: one kernel call per rotated qubit per op, in schedule order;
    a semi-global pulse rotates every qubit then in its parity."""
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
            apply_op(grid, op)
    return state


ONE_QUBIT_FIXED = (GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG)


@st.composite
def gate_lists(draw, n, kinds):
    """Up to 25 gates on n qubits, drawn from `kinds`; two-qubit kinds only
    when n >= 2, and with probability 1/2 none at all."""
    if n < 2 or draw(st.booleans()):
        kinds = [k for k in kinds if k not in TWO_QUBIT_KINDS]
    gates = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(kinds))
        if kind in TWO_QUBIT_KINDS:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            gates.append(Gate(kind, (a, b)))
        elif kind in (GateKind.RX, GateKind.RY, GateKind.RZ):
            angle = draw(st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),), angle))
        else:
            gates.append(Gate(kind, (draw(st.integers(0, n - 1)),)))
    return tuple(gates)


def random_states(n, batched, seed):
    """A normalised (2**n,) state, or a (2**n, 4) batch of them."""
    rng = np.random.default_rng([seed, n])
    shape = (2**n, 4) if batched else (2**n,)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return state / np.linalg.norm(state, axis=0)


def random_unitary(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]


def kron_chain(n, factors):
    """Plain np.kron reference: the 2**n x 2**n operator with factors[q] on
    qubit q and the identity elsewhere, qubit n-1 the leftmost factor."""
    full = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        full = np.kron(full, factors.get(q, np.eye(2)))
    return full


def full_operator(n, qubits, u):
    """u on `qubits` (qubits[0] the high bit of its basis) as a 2**n x 2**n
    matrix: a 4x4 is the sum of u[2r+s, 2t+w] |r><t| (x) |s><w|."""
    if len(qubits) == 1:
        return kron_chain(n, {qubits[0]: u})
    a, b = qubits
    unit = np.eye(2)
    return sum(
        u[2 * r + s, 2 * t + w] * kron_chain(n, {a: np.outer(unit[r], unit[t]), b: np.outer(unit[s], unit[w])})
        for r in range(2) for s in range(2) for t in range(2) for w in range(2)
    )


@st.composite
def gate_targets(draw):
    """(n, qubits): one qubit, or two distinct ones in either order, on n <= 8."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(n, 2)))
    return n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)))


class TestSimPrimitives:
    @settings(max_examples=150, deadline=None)
    @given(gate_targets(), st.booleans(), st.integers(0, 2**32 - 1))
    @example((1, (0,)), False, 0)
    @example((8, (7,)), True, 1)
    @example((8, (0, 7)), True, 2)
    @example((8, (7, 0)), False, 3)
    @example((5, (2, 3)), True, 4)
    @example((5, (3, 2)), False, 5)
    def test_kernel_matches_kron(self, target, batched, seed):
        # the one gate kernel (RotationFold.apply, behind apply_unitary)
        # against the full operator built from np.kron
        n, qubits = target
        rng = np.random.default_rng(seed)
        u = random_unitary(rng, 2 ** len(qubits))
        state = random_states(n, batched, seed)
        expect = full_operator(n, qubits, u) @ state
        assert np.allclose(apply_unitary(state, n, qubits, u), expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
    def test_every_gate_kind_has_a_unitary_matrix(self, kind):
        arity = 2 if kind in TWO_QUBIT_KINDS else 1
        u = sim.gate_matrix(Gate(kind, tuple(range(arity)), 0.3 if kind in ROTATION_KINDS else None))
        assert u.shape == (2**arity, 2**arity)
        assert np.allclose(u.conj().T @ u, np.eye(2**arity), rtol=0, atol=1e-12)

    def test_apply_1q_matches_kron(self):
        rng = np.random.default_rng(0)
        # one state, then a (2**n, 3) batch: the kron reference acts on each column
        for batch in ((), (3,)):
            for _ in range(20):
                n = rng.integers(1, 5)
                q = int(rng.integers(n))
                u = random_unitary(rng, 2)
                state = rng.normal(size=(2**n, *batch)) + 1j * rng.normal(size=(2**n, *batch))
                full = np.array([[1.0]], dtype=complex)
                for k in range(n - 1, -1, -1):
                    full = np.kron(full, u if k == q else np.eye(2))
                assert np.allclose(apply_1q(state, n, q, u), full @ state)

    def test_apply_2q_matches_explicit_cnot(self):
        # CNOT with control 0, target 1 on 2 qubits, little-endian indexing
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0  # |q1=0, q0=1>
        out = apply_2q(state, 2, 0, 1, gate_matrix(Gate(GateKind.CNOT, (0, 1))))
        expect = np.zeros(4, dtype=complex)
        expect[3] = 1.0  # both excited
        assert np.allclose(out, expect)

    def test_apply_2q_batch_columns_match_single_states(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q1, q2 = (int(q) for q in rng.choice(n, size=2, replace=False))
            u4 = random_unitary(rng, 4)
            states = rng.normal(size=(2**n, 4)) + 1j * rng.normal(size=(2**n, 4))
            out = apply_2q(states, n, q1, q2, u4)
            assert out.shape == states.shape
            # tensordot may sum in another order once the batch axis is there
            for k in range(states.shape[1]):
                single = apply_2q(states[:, k], n, q1, q2, u4)
                assert np.allclose(out[:, k], single, rtol=0, atol=1e-12)


class TestRotationFold:
    """The fold-based simulators against the literal references above."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 6), st.booleans())
    def test_circuit_matches_literal(self, data, n, batched):
        kinds = [GateKind.RX, GateKind.RY, GateKind.RZ, *ONE_QUBIT_FIXED, *TWO_QUBIT_KINDS]
        c = Circuit("c", n, data.draw(gate_lists(n, kinds)))
        state = random_states(n, batched, len(c.gates))
        out = simulate_circuit(c, state)
        assert out.shape == state.shape
        assert np.allclose(out, literal_circuit(c, state), rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 6), st.booleans())
    def test_schedule_matches_literal(self, data, n, batched):
        # a 1-qubit Z gate cannot be scheduled yet (grid side 1), so n = 1
        # draws only XY rotations
        kinds = [GateKind.RX, GateKind.RY] + ([GateKind.RZ, GateKind.SQSWAP] if n > 1 else [])
        s = compiled(Circuit("c", n, data.draw(gate_lists(n, kinds))))
        state = random_states(n, batched, len(s.cycles))
        out = simulate_schedule(s, state)
        assert out.shape == state.shape
        assert np.allclose(out, literal_schedule(s, state), rtol=0, atol=1e-12)

    def test_one_kernel_call_per_two_qubit_gate_and_qubit(self, monkeypatch):
        # structural guard: without the fold, every spectator rotation of a
        # semi-global pulse is a full-state kernel call (thousands here)
        calls = [0]
        original = sim.RotationFold.apply

        def counted(*args):
            calls[0] += 1
            return original(*args)

        c = gen_random_uniform(BenchSpec(12, 300, 50.0, 0))
        s = compiled(c)
        n_twoq = sum(g.kind in TWO_QUBIT_KINDS for g in c.gates)
        monkeypatch.setattr(sim.RotationFold, "apply", counted)
        assert statevector_equiv(c, s) >= FIDELITY_FLOOR
        assert 0 < calls[0] <= 2 * (n_twoq + c.n_qubits)


    def test_fold_works_on_its_own_copy_in_place(self):
        n = 5
        state = random_states(n, True, 7)
        before = state.copy()
        fold = RotationFold(state, n)
        buffer = fold.state
        assert buffer is not state
        gates = [("rotate", 0, rx_matrix(0.3)), ("interact", 0, 4), ("rotate", 4, ry_matrix(1.1)),
                 ("rotate", 2, rz_matrix(0.2)), ("interact", 2, 1), ("interact", 4, 3)]
        for gate in gates:
            if gate[0] == "rotate":
                fold.rotate(gate[1], gate[2])
            else:
                fold.interact(gate[1], gate[2], SQSWAP_MATRIX)
            assert fold.state is buffer
        assert fold.result() is buffer
        assert np.array_equal(state, before)

    def test_result_applies_each_pending_rotation_once(self):
        fold = RotationFold(zero_state(2), 2)
        fold.rotate(0, rx_matrix(0.7))
        first = fold.result().copy()
        assert abs(first[0]) == pytest.approx(math.cos(0.35), abs=1e-12)  # 0.939
        assert np.array_equal(fold.result(), first)

    def test_equiv_twice_gives_the_same_float(self):
        c = gen_random_uniform(BenchSpec(8, 120, 50.0, 3))
        s = compiled(c)
        first = statevector_equiv(c, s)
        assert isinstance(first, float) and first >= FIDELITY_FLOOR
        assert statevector_equiv(c, s) == first


class TestReplay:
    def test_compiled_schedules_replay_clean(self):
        for seed in range(4):
            c = gen_random_uniform(BenchSpec(6, 40, 50.0, seed))
            report = replay_verify(compiled(c))
            assert report.replay_ok
            assert report.violations == () and report.trajectory_match

    def test_corrupted_snapshot_detected(self):
        s = compiled(Circuit("z", 2, (Gate(GateKind.RZ, (0,), 0.5),)))
        # qubit 0 shuttles right and back; store the digest of a trajectory
        # whose first snapshot has its x off by one
        real = TrajectoryDigest([((1, 0), (1, 1)), ((0, 0), (1, 1))]).hexdigest()
        assert s.trajectory_sha256 == real
        wrong = TrajectoryDigest([((0, 0), (1, 1)), ((0, 0), (1, 1))]).hexdigest()
        corrupted = dataclasses.replace(s, trajectory_sha256=wrong)
        report = replay_verify(corrupted)
        assert not report.replay_ok
        assert report.violations == () and not report.trajectory_match

    def test_mixed_cycle_flagged(self):
        # a Cycle holds one instruction family, so replay never meets a mixed one
        ops = (
            Instruction(InstrKind.SG_ROT, angle=0.1, axis="x", parity=0),
            Instruction(InstrKind.SH_R, (0,)),
        )
        with pytest.raises(ValueError, match=r"families \['shuttle', 'xy_rot'\] cannot share a cycle"):
            Cycle(ops)

    def test_conflicting_cycle_flagged(self):
        # hand-built parallel pair that contradicts on QL ordering
        ops = (Instruction(InstrKind.SH_L, (2,)), Instruction(InstrKind.SH_R, (5,)))
        placement = ((0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3))
        moved = ((0, 0), (2, 0), (0, 1), (3, 1), (0, 2), (3, 2), (1, 3), (3, 3))
        digest = TrajectoryDigest([moved]).hexdigest()
        s = Schedule("bad", 4, placement, (Cycle(ops),), digest)
        report = replay_verify(s)
        assert any(r.kind is ConflictKind.QL_CONTRADICTION for _, r in report.violations)


    def test_cycle_failing_partway_rolls_back(self):
        # the first shuttle is legal, the second leaves the 3x3 grid: both
        # violations are reported, the first move is undone, and the next
        # cycle (legal only from the pre-cycle occupancy) replays clean
        placement = ((1, 1), (2, 2))
        broken = Cycle((Instruction(InstrKind.SH_L, (0,)), Instruction(InstrKind.SH_R, (1,))))
        after = Cycle((Instruction(InstrKind.SH_L, (0,)),))
        digest = TrajectoryDigest([placement, ((0, 1), (2, 2))]).hexdigest()
        assert digest == "de26015a7a65bb1dc36c300028a3831a735fe2b6e1b5b6de5d2e68e1efa17c7a"
        report = replay_verify(Schedule("partway", 3, placement, (broken, after), digest))
        assert [(i, r.kind, r.culprits, r.detail) for i, r in report.violations] == [
            (0, ConflictKind.BLOCKED_PATH, (1,), "qubit 1 shuttled off-grid from (2, 2)"),
            (0, ConflictKind.BLOCKED_PATH, (), "cycle is not applicable: sh_r moves qubit 1 off-grid to (3, 2)"),
        ]
        assert report.trajectory_match

    def test_rollback_undoes_moves_in_reverse_order(self):
        # qubit 1 moves into the site qubit 0 just left, then qubit 2 fails;
        # undoing in reverse order puts qubit 0 back on (1, 1), so the next
        # cycle's move onto (1, 1) is refused as occupied
        placement = ((1, 1), (0, 1), (2, 2))
        broken = Cycle(tuple(Instruction(InstrKind.SH_R, (q,)) for q in (0, 1, 2)))
        onto = Cycle((Instruction(InstrKind.SH_R, (1,)),))
        digest = TrajectoryDigest([placement, placement]).hexdigest()
        report = replay_verify(Schedule("reverse", 3, placement, (broken, onto), digest))
        assert [(i, r.detail) for i, r in report.violations] == [
            (0, "qubit 2 shuttled off-grid from (2, 2)"),
            (0, "cycle is not applicable: sh_r moves qubit 2 off-grid to (3, 2)"),
            (1, "destination (1, 1) is occupied"),
            (1, "cycle is not applicable: sh_r destination (1, 1) occupied"),
        ]
        assert report.trajectory_match


class TestEquivalence:
    def test_empty_circuit_fidelity_one(self):
        c = Circuit("e", 2, ())
        s = compiled(c)
        assert statevector_equiv(c, s) >= 1.0 - 1e-12

    def test_cnot_end_to_end(self, default_config):
        from xbarc import decompose

        c = Circuit("c", 2, (Gate(GateKind.CNOT, (0, 1)),))
        dec = decompose(c, default_config)
        s = compiled(c)
        assert statevector_equiv(dec, s) >= 1 - 1e-9

    def test_tampered_inverse_angle_detected(self):
        c = Circuit("x", 3, (Gate(GateKind.RX, (0,), 1.3),))
        s = compiled(c)
        cycles = list(s.cycles)
        for i, cy in enumerate(cycles):
            if cy.type is CycleType.XY_ROT_INV:
                op = cy.ops[0]
                cycles[i] = Cycle((dataclasses.replace(op, angle=op.angle + 0.5),))
        tampered = dataclasses.replace(s, cycles=tuple(cycles))
        fid = statevector_equiv(s.circuit, tampered)
        assert fid < 1 - 1e-3

    def test_cap_skips_large_circuits(self):
        c = Circuit("big", 13, ())
        s = compiled(c)
        assert statevector_equiv(c, s) == SKIPPED

    def test_spectators_simulated_literally(self):
        # dropping the inverse pulse must corrupt the spectator state
        c = Circuit("x", 3, (Gate(GateKind.RX, (0,), 1.3),))
        s = compiled(c)
        kept = tuple(cy for cy in s.cycles if cy.type is not CycleType.XY_ROT_INV)
        broken = dataclasses.replace(s, cycles=kept)
        state = zero_state(3)
        out = simulate_schedule(broken, state)
        ref = zero_state(3)
        # without compensation both parity members got rotated
        assert abs(abs(np.vdot(out, ref)) ** 2 - 1.0) > 1e-3

    def test_random_native_circuits_equivalent(self):
        for seed in (1, 2, 3):
            c = gen_random_uniform(BenchSpec(5, 25, 50.0, seed))
            s = compiled(c)
            fid = statevector_equiv(c, s, seed=seed)
            assert fid >= 1 - 1e-9, (seed, fid)

    def test_each_side_simulated_once(self, monkeypatch):
        calls = {"simulate_circuit": 0, "simulate_schedule": 0}
        for name in calls:
            original = getattr(verifier, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(verifier, name, counted)
        c = gen_random_uniform(BenchSpec(4, 20, 50.0, 0))
        assert statevector_equiv(c, compiled(c)) >= 1 - 1e-9
        assert calls == {"simulate_circuit": 1, "simulate_schedule": 1}

    @pytest.mark.parametrize(
        "kind, mutate",
        [
            (InstrKind.ZSH, lambda op: dataclasses.replace(op, angle=op.angle + 1e-3)),
            (InstrKind.SG_ROT, lambda op: dataclasses.replace(op, parity=1 - op.parity)),
            (InstrKind.SG_ROT_INV, lambda op: dataclasses.replace(op, angle=op.angle + 1e-3)),
        ],
        ids=["zsh_angle", "sg_rot_parity", "sg_rot_inv_angle"],
    )
    def test_single_op_mutation_detected_at_12_qubits(self, kind, mutate):
        s = compiled(gen_random_uniform(BenchSpec(12, 120, 50.0, 4)))
        assert verify(s).ok
        sites = [(i, j) for i, cy in enumerate(s.cycles) for j, op in enumerate(cy.ops) if op.kind is kind]
        i, j = sites[len(sites) // 2]
        ops = s.cycles[i].ops
        cycle = Cycle(ops[:j] + (mutate(ops[j]),) + ops[j + 1:])
        report = verify(dataclasses.replace(s, cycles=s.cycles[:i] + (cycle,) + s.cycles[i + 1:]))
        assert report.replay_ok and not report.ok
        assert report.equivalence_fidelity < FIDELITY_FLOOR

    def test_global_phase_immune(self):
        # rz-only circuit: schedule realizes it up to global phase
        c = Circuit("p", 2, (Gate(GateKind.RZ, (0,), 1.0), Gate(GateKind.RZ, (1,), -2.0)))
        s = compiled(c)
        assert statevector_equiv(c, s) >= 1 - 1e-12


class TestVerify:
    def test_illegal_move_fails_without_equivalence(self):
        s = compiled(Circuit("c", 2, (Gate(GateKind.SQSWAP, (0, 1)),)))
        i = next(i for i, cy in enumerate(s.cycles) if cy.ops[0].kind is InstrKind.SH_R)
        flipped = Cycle((dataclasses.replace(s.cycles[i].ops[0], kind=InstrKind.SH_L),))
        broken = dataclasses.replace(s, cycles=s.cycles[:i] + (flipped,) + s.cycles[i + 1:])
        report = verify(broken)
        assert not report.ok and not report.replay_ok
        assert i in [cycle for cycle, _ in report.violations]
        assert report.equivalence_fidelity is None

    def test_nan_fidelity_fails(self):
        # a non-finite zsh angle makes every overlap NaN; it must not be
        # clamped to a passing 1.0
        s = compiled(Circuit("z", 2, (Gate(GateKind.RZ, (0,), 0.5),)))
        i = next(i for i, cy in enumerate(s.cycles) if cy.ops[0].kind is InstrKind.ZSH)
        nan_cycle = Cycle((dataclasses.replace(s.cycles[i].ops[0], angle=math.nan),))
        broken = dataclasses.replace(s, cycles=s.cycles[:i] + (nan_cycle,) + s.cycles[i + 1:])
        report = verify(broken)
        assert report.replay_ok and math.isnan(report.equivalence_fidelity)
        assert not report.ok

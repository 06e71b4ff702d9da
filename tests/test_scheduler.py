"""Integrated-strategy scheduling: micro-overheads, ordering, determinism."""
import hashlib
from types import SimpleNamespace

import pytest

from xbarc import (
    Circuit,
    Gate,
    GateKind,
    check_parallel_set,
    initial_placement,
    instructions,
    replay_verify,
    schedule_integrated,
    scheduler,
)
from xbarc.crossbar import Grid, apply_cycle
from xbarc.errors import CrossbarError
from xbarc.instructions import CYCLE_END, CycleType, InstrKind, TrajectoryDigest

from conftest import compile_native, moves_digest


def native(name, n, *gates):
    return Circuit(name, n, tuple(gates))


class TestMicroCircuits:
    def test_single_z_two_cycles(self):
        c = native("z", 2, Gate(GateKind.RZ, (0,), 0.5))
        _, s = compile_native(c)
        assert [cy.type for cy in s.cycles] == [CycleType.Z, CycleType.SHUTTLE]
        assert [op.kind for cy in s.cycles for op in cy.ops] == [
            InstrKind.ZSH_R,
            InstrKind.SH_L,
        ]

    def test_single_x_four_cycles_with_company(self):
        # another qubit shares the parity, so compensation is required
        c = native("x", 3, Gate(GateKind.RX, (0,), 0.5))
        _, s = compile_native(c)
        assert [cy.type for cy in s.cycles] == [
            CycleType.XY_ROT,
            CycleType.SHUTTLE,
            CycleType.XY_ROT,
            CycleType.SHUTTLE,
        ]
        assert s.n_instructions == 4
        assert s.cycles[2].ops[0].angle == -0.5  # the inverse pulse

    def test_single_diagonal_sqswap_three_cycles(self):
        c = native("sq", 3, Gate(GateKind.SQSWAP, (0, 2)))  # (0,0) and (1,1)
        _, s = compile_native(c)
        assert [cy.type for cy in s.cycles] == [
            CycleType.SHUTTLE,
            CycleType.TWOQ,
            CycleType.SHUTTLE,
        ]

    def test_lone_x_whole_parity_no_overhead(self):
        c = native("x1", 2, Gate(GateKind.RX, (0,), 0.5))
        _, s = compile_native(c)
        assert s.depth == 1 and s.n_instructions == 1


class TestScheduleInvariants:
    def test_every_cycle_single_type_and_conflict_free(self):
        from xbarc import BenchSpec, gen_random_uniform

        c = gen_random_uniform(BenchSpec(6, 40, 50.0, 3))
        dec, s = compile_native(c)
        grid = Grid(s.grid_n, s.placement)
        for cy in s.cycles:
            assert check_parallel_set(grid, cy).ok
            apply_cycle(grid, cy)
        assert grid.is_checkerboard()

    def test_trajectory_digest_matches_replay(self):
        from xbarc import BenchSpec, gen_random_uniform

        c = gen_random_uniform(BenchSpec(5, 30, 25.0, 9))
        dec, s = compile_native(c)
        grid = Grid(s.grid_n, s.placement)
        snapshots = []
        for cy in s.cycles:
            apply_cycle(grid, cy)
            snapshots.append(grid.pos)
        assert grid.trajectory.hexdigest() == s.moves_sha256
        # the log of site changes hashes to the digest derived from the snapshots
        assert moves_digest(s.placement, snapshots) == s.moves_sha256

    def test_digest_bytes_do_not_depend_on_the_host(self, monkeypatch):
        # the packed fallback (big-endian hosts) gives the native buffer's digest
        placement = ((0, 0), (2, 0), (70000, 3))
        log = TrajectoryDigest(v for site in placement for v in site)
        log.extend((0, 1, 0, CYCLE_END, 2, 70001, 3, CYCLE_END))
        native_hex = log.hexdigest()
        assert native_hex == moves_digest(placement, [((1, 0), (2, 0), (70000, 3)), ((1, 0), (2, 0), (70001, 3))])
        monkeypatch.setattr(instructions, "_NATIVE_IS_DIGEST", False)
        assert log.hexdigest() == native_hex

    def test_determinism_bit_identical(self):
        from xbarc import BenchSpec, gen_random_uniform
        from xbarc.qasm import emit_output

        c = gen_random_uniform(BenchSpec(7, 60, 50.0, 21))
        _, s1 = compile_native(c)
        _, s2 = compile_native(c)
        assert s1 == s2
        assert emit_output(s1) == emit_output(s2)

    def test_caller_grid_left_unchanged(self):
        # two-qubit routes relocate qubits, so advancing the caller's grid
        # would leave it at the final occupancy and change a second compile
        from xbarc import BenchSpec, decompose, gen_random_uniform, load_config

        dec = decompose(gen_random_uniform(BenchSpec(6, 30, 50.0, 4)), load_config("{}"))
        grid = initial_placement(dec.n_qubits)
        before = grid.pos
        first = schedule_integrated(dec, grid)
        assert grid.pos == before
        assert schedule_integrated(dec, grid) == first
        end = Grid(first.grid_n, first.placement)
        for cy in first.cycles:
            apply_cycle(end, cy)
        assert end.pos != before  # the test would notice a missing copy

    def test_checkerboard_at_block_boundaries(self):
        from xbarc import BenchSpec, gen_random_uniform

        c = gen_random_uniform(BenchSpec(6, 30, 50.0, 5))
        dec, s = compile_native(c)
        grid = Grid(s.grid_n, s.placement)
        prev_src = None
        for cy in s.cycles:
            src = tuple(sorted({i for op in cy.ops for i in op.src}))
            if prev_src is not None and src != prev_src:
                assert grid.is_checkerboard()  # boundary between blocks
            apply_cycle(grid, cy)
            prev_src = src
        assert grid.is_checkerboard()

    def test_rejects_non_native(self):
        with pytest.raises(ValueError):
            schedule_integrated(native("h", 1, Gate(GateKind.H, (0,))), initial_placement(1))

    def test_rejects_broken_checkerboard(self):
        c = native("z", 2, Gate(GateKind.RZ, (0,), 0.5))
        with pytest.raises(ValueError):
            schedule_integrated(c, Grid(2, ((1, 0), (1, 1))))

    def test_rejects_shared_site_before_routing(self, monkeypatch):
        c = native("zz", 2, Gate(GateKind.RZ, (0,), 0.5), Gate(GateKind.RZ, (1,), 0.5))
        grid = Grid(4, ((1, 1), (1, 1)))

        def route(*args):
            raise AssertionError("routed before the placement was checked")

        monkeypatch.setattr(scheduler, "_route_gate", route)
        with pytest.raises(CrossbarError, match=r"^qubits 0 and 1 share site \(1, 1\)$"):
            schedule_integrated(c, grid)

    def test_empty_circuit_empty_schedule(self):
        s = schedule_integrated(native("e", 2), initial_placement(2))
        assert s.depth == 0 and s.moves_sha256 == moves_digest(s.placement, [])


class TestOrdering:
    def test_asap_order_with_program_order_ties(self):
        # q1's gate is independent, so it schedules at level 1 in program
        # order ahead of the level-2 gate on q0
        c = native(
            "ord",
            4,
            Gate(GateKind.RZ, (0,), 0.1),
            Gate(GateKind.RZ, (0,), 0.2),
            Gate(GateKind.RZ, (1,), 0.3),
        )
        _, s = compile_native(c)
        zsh_order = [op.src[0] for cy in s.cycles for op in cy.ops if op.kind.family is CycleType.Z]
        assert zsh_order == [0, 2, 1]


class TestDigestCost:
    """The bytes the trajectory digest hashes grow with the placement, the
    site changes and the cycles, not with qubits x cycles: 8 per qubit of
    the placement, 12 per changed site and 4 per cycle."""

    @staticmethod
    def hashed(monkeypatch, fn, *args):
        """fn(*args), and the bytes it fed to sha256 in the instructions module."""
        fed = [0]

        class Counting:
            def __init__(self, data=b""):
                self._sha = hashlib.sha256()
                self.update(data)

            def update(self, data):
                fed[0] += memoryview(data).nbytes
                self._sha.update(data)

            def hexdigest(self):
                return self._sha.hexdigest()

        with monkeypatch.context() as m:
            m.setattr(instructions, "hashlib", SimpleNamespace(sha256=Counting))
            result = fn(*args)
        return result, fed[0]

    @staticmethod
    def formula(s) -> int:
        # every move of a compiled cycle changes the site of a distinct qubit
        moves = sum(op.kind.moves for cy in s.cycles for op in cy.ops)
        return 8 * s.n_qubits + 12 * moves + 4 * s.depth

    def test_same_gates_on_2_and_400_qubits_differ_by_the_placement_alone(self, monkeypatch):
        gates = (
            Gate(GateKind.RZ, (0,), 0.5),
            Gate(GateKind.SQSWAP, (0, 1)),
            Gate(GateKind.RZ, (1,), 0.25),
            Gate(GateKind.SQSWAP, (0, 1)),
        )
        small = initial_placement(2)
        # the 400-qubit register holds qubits 0 and 1 on the same sites, (0, 0)
        # and (1, 1), so the two schedules route alike
        large = initial_placement(400)
        pos = list(large.pos)
        k = pos.index((1, 1))
        pos[1], pos[k] = pos[k], pos[1]
        large = Grid(large.n, tuple(pos))
        schedules, counts = {}, {}
        for n, grid in ((2, small), (400, large)):
            schedules[n], counts[n] = self.hashed(monkeypatch, schedule_integrated, native(f"q{n}", n, *gates), grid)
            assert self.hashed(monkeypatch, replay_verify, schedules[n])[1] == counts[n]
            assert counts[n] == self.formula(schedules[n])
        assert schedules[400].cycles == schedules[2].cycles
        assert counts[400] - counts[2] == 8 * (400 - 2)

    @pytest.mark.parametrize("n_qubits, n_gates", [(12, 200), (200, 150)])
    def test_compiled_randu_schedule_hashes_the_formula(self, monkeypatch, n_qubits, n_gates):
        from xbarc import BenchSpec, gen_random_uniform

        _, s = compile_native(gen_random_uniform(BenchSpec(n_qubits, n_gates, 50.0, 0)))
        assert self.hashed(monkeypatch, replay_verify, s)[1] == self.formula(s)

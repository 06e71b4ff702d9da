"""Integrated-strategy scheduling: micro-overheads, ordering, determinism."""
import pytest

from xbarc import (
    Circuit,
    Gate,
    GateKind,
    check_parallel_set,
    initial_placement,
    instructions,
    schedule_integrated,
    scheduler,
)
from xbarc.crossbar import Grid, apply_cycle
from xbarc.errors import CrossbarError
from xbarc.instructions import CycleType, InstrKind, TrajectoryDigest

from conftest import compile_native


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
        trajectory = TrajectoryDigest()
        snapshots = []
        for cy in s.cycles:
            apply_cycle(grid, cy)
            trajectory.add(grid.coords)
            snapshots.append(grid.pos)
        assert trajectory.hexdigest() == s.trajectory_sha256
        # the coordinate buffer hashes to the digest of the site tuples
        assert TrajectoryDigest(snapshots).hexdigest() == s.trajectory_sha256

    def test_digest_bytes_do_not_depend_on_the_host(self, monkeypatch):
        # the packed fallback (big-endian hosts) gives the native buffer's digest
        snapshots = [((0, 0), (2, 0), (70000, 3)), ((1, 0), (2, 0), (70000, 3))]
        native_hex = TrajectoryDigest(snapshots).hexdigest()
        monkeypatch.setattr(instructions, "_NATIVE_IS_DIGEST", False)
        assert TrajectoryDigest(snapshots).hexdigest() == native_hex

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
        assert s.depth == 0 and s.trajectory_sha256 == TrajectoryDigest().hexdigest()


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

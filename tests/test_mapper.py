"""Placement and routing blocks: geometry, overheads, conflict-freedom."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarc import (
    Circuit,
    Gate,
    GateKind,
    check_parallel_set,
    expand_semi_global,
    grid_for,
    initial_placement,
    route_two_qubit,
    z_route,
)
from xbarc.crossbar import Grid, apply_cycle, checkerboard_sites
from xbarc.errors import CrossbarError
from xbarc.instructions import CycleType, InstrKind

from conftest import sparse_grid


def start_of(grid):
    """A fresh grid at `grid`'s occupancy, built before routing advances it."""
    return Grid(grid.n, grid.pos)


def replay_block(grid, block):
    """Apply a block cycle by cycle to `grid` in place, asserting
    conflict-freedom; return `grid`."""
    for cycle in block:
        report = check_parallel_set(grid, cycle)
        assert report.ok, (cycle, report)
        apply_cycle(grid, cycle)
    return grid


def instructions(block):
    return [op for cycle in block for op in cycle.ops]


class TestInitialPlacement:
    def test_eight_on_4x4(self):
        c = Circuit("p", 8, ())
        g = initial_placement(c, grid_for(8))
        assert g.pos == ((0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3))

    def test_single(self):
        g = initial_placement(Circuit("p", 1, ()), grid_for(1))
        assert g.pos == ((0, 0),)

    def test_five_on_3x3(self):
        g = initial_placement(Circuit("p", 5, ()), grid_for(5))
        assert g.pos == ((0, 0), (2, 0), (1, 1), (0, 2), (2, 2))


class TestRouteTwoQubit:
    def test_already_diagonal(self):
        g = sparse_grid(3, [(1, 1), (0, 0)])
        block = route_two_qubit(g, 0, 1)
        kinds = [op.kind for op in instructions(block)]
        assert len(kinds) == 3
        assert kinds[1] is InstrKind.SQSWAP
        # exactly 2 extra shuttles per two-qubit gate
        assert sum(k is not InstrKind.SQSWAP for k in kinds) == 2
        assert len(block) == 3

    def test_one_exchange_then_interaction(self):
        g = grid_for(8)
        a, b = g.qubit_at((0, 0)), g.qubit_at((2, 2))
        block = route_two_qubit(g, a, b)
        assert len(instructions(block)) == 7  # 4 exchange shuttles + 2 + sqswap
        assert len(block) == 5
        # the exchange itself: 4 instructions over 2 cycles
        first_two = block[:2]
        assert [len(c.ops) for c in first_two] == [2, 2]
        assert all(c.type is CycleType.SHUTTLE for c in first_two)

    def test_exchange_relocates_partner(self):
        g = grid_for(8)
        a, b = g.qubit_at((0, 0)), g.qubit_at((2, 2))
        partner = g.qubit_at((1, 1))
        start = start_of(g)
        end = replay_block(start, route_two_qubit(g, a, b))
        assert end.site_of(partner) == (0, 0)
        assert end.site_of(a) == (1, 1)
        assert end.is_checkerboard()

    def test_empty_step_uses_two_shuttles(self):
        # route across an empty checkerboard site: no exchange partner
        g = sparse_grid(4, [(0, 0), (2, 2)])
        start = start_of(g)
        block = route_two_qubit(g, 0, 1)
        assert len(instructions(block)) == 5  # 2 step shuttles + 2 + sqswap
        assert len(block) == 5
        end = replay_block(start, block)
        assert end.is_checkerboard()

    def test_checkerboard_broken_only_inside(self):
        g = grid_for(8)
        a, b = g.qubit_at((0, 0)), g.qubit_at((2, 2))
        cur = start_of(g)
        block = route_two_qubit(g, a, b)
        boards = []
        for cycle in block:
            apply_cycle(cur, cycle)
            boards.append(cur.is_checkerboard())
        assert boards[-1]  # restored at block end
        assert not all(boards)  # temporarily broken inside

    def test_same_operand_rejected(self):
        with pytest.raises(ValueError):
            route_two_qubit(grid_for(4), 1, 1)


def chebyshev(a, b):
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def manhattan(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


class TestRouteGeometry:
    @settings(max_examples=250, deadline=None)
    @given(st.data())
    def test_exchange_count_is_chebyshev_minus_one(self, data):
        n = data.draw(st.integers(2, 8))
        sites = list(checkerboard_sites(n))
        placed = data.draw(st.permutations(sites))
        k = data.draw(st.integers(2, len(sites)))
        g = Grid(n, tuple(placed[:k]))
        a = data.draw(st.integers(0, k - 1))
        b = data.draw(st.integers(0, k - 1).filter(lambda x: x != a))
        sa, sb = g.site_of(a), g.site_of(b)
        start = start_of(g)
        block = route_two_qubit(g, a, b)
        steps = (len(block) - 3) // 2
        assert len(block) == 3 + 2 * steps
        assert steps == chebyshev(sa, sb) - 1
        # the Manhattan reading holds exactly on equal-axis displacements
        if abs(sa[0] - sb[0]) == abs(sa[1] - sb[1]):
            assert steps == (manhattan(sa, sb) - 2) // 2
        end = replay_block(start, block)
        assert end.is_checkerboard()
        # net effect on non-participants: only swapped-through qubits move
        assert end.site_of(b) == sb

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_full_board_routing_conflict_free(self, data):
        n = data.draw(st.integers(2, 8))
        g = Grid(n, tuple(checkerboard_sites(n)))
        nq = g.n_qubits
        a = data.draw(st.integers(0, nq - 1))
        b = data.draw(st.integers(0, nq - 1).filter(lambda x: x != a))
        end = replay_block(start_of(g), route_two_qubit(g, a, b))
        assert end.is_checkerboard()


class TestZRoute:
    def test_tie_prefers_lower_column(self):
        g = sparse_grid(4, [(1, 1)])
        start = start_of(g)
        block = z_route(g, 0, 0.7)
        out, back = instructions(block)
        assert out.kind is InstrKind.ZSH and out.direction == "L"
        assert out.angle == 0.7
        assert back.kind is InstrKind.ZSH_RET and back.direction == "R"
        end = replay_block(start, block)
        assert end.site_of(0) == (1, 1)

    def test_edge_goes_right(self):
        g = sparse_grid(2, [(0, 0)])
        block = z_route(g, 0, 0.1)
        assert instructions(block)[0].direction == "R"

    def test_overhead_one_instruction_one_cycle(self):
        g = sparse_grid(4, [(1, 1)])
        block = z_route(g, 0, 0.5)
        assert len(instructions(block)) == 2  # gate shuttle + 1 overhead
        assert len(block) == 2

    def test_no_horizontal_neighbour_is_a_user_error(self):
        # a lone qubit on a 1x1 grid has nowhere to shuttle
        no_site = r"^qubit 0 at \(0, 0\) has no empty horizontal neighbour site on the 1x1 grid"
        with pytest.raises(CrossbarError, match=no_site):
            z_route(Grid(1, ((0, 0),)), 0, 0.5)

    def test_z_cycle_types(self):
        g = sparse_grid(4, [(1, 1)])
        block = z_route(g, 0, 0.5)
        assert [c.type for c in block] == [CycleType.Z, CycleType.SHUTTLE]


class TestSemiGlobal:
    def test_full_parity_single_pulse(self):
        g = sparse_grid(2, [(0, 0), (1, 1)])
        block = expand_semi_global(g, 0, "x", 0.4)
        assert len(instructions(block)) == 1
        assert instructions(block)[0].kind is InstrKind.SG_ROT

    def test_lone_target_four_steps(self):
        # rotating one qubit of a populated parity costs the 4-step scheme
        g = grid_for(8)
        target = g.qubit_at((0, 2))
        start = start_of(g)
        block = expand_semi_global(g, target, "y", 1.1)
        kinds = [op.kind for op in instructions(block)]
        assert kinds == [InstrKind.SG_ROT, InstrKind.SH_R, InstrKind.SG_ROT_INV, InstrKind.SH_L]
        assert len(block) == 4
        assert block[0].type is CycleType.XY_ROT
        assert block[2].type is CycleType.XY_ROT_INV
        end = replay_block(start, block)
        assert end.pos == grid_for(8).pos

    def test_inverse_angle_negated(self):
        g = grid_for(8)
        block = expand_semi_global(g, 0, "x", 0.9)
        rot = instructions(block)[0]
        inv = instructions(block)[2]
        assert inv.angle == -rot.angle

    def test_direction_right_unless_blocked(self):
        g = sparse_grid(3, [(0, 0), (2, 0), (1, 1)])
        block = expand_semi_global(g, 0, "x", 0.2)
        assert instructions(block)[1].kind is InstrKind.SH_R
        # target on the right edge must go left
        block = expand_semi_global(g, 1, "x", 0.2)
        assert instructions(block)[1].kind is InstrKind.SH_L


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_random_blocks_conflict_free_and_restoring(data):
    """Any single-gate block replays without conflicts from idle config."""
    n = data.draw(st.integers(2, 8))
    sites = list(checkerboard_sites(n))
    k = data.draw(st.integers(2, len(sites)))
    g = Grid(n, tuple(data.draw(st.permutations(sites))[:k]))
    before = g.pos
    start = start_of(g)
    kind = data.draw(st.sampled_from(["z", "xy", "twoq"]))
    if kind == "z":
        q = data.draw(st.integers(0, k - 1))
        block = z_route(g, q, 0.3)
    elif kind == "xy":
        q = data.draw(st.integers(0, k - 1))
        block = expand_semi_global(g, q, "x", 0.3)
    else:
        a = data.draw(st.integers(0, k - 1))
        b = data.draw(st.integers(0, k - 1).filter(lambda x: x != a))
        block = route_two_qubit(g, a, b)
    # the routing entry points advance the caller's grid by exactly the
    # returned block: no cycle applied but not returned, or returned but not
    # applied
    end = replay_block(start, block)
    assert g.pos == end.pos
    assert g.trajectory.hexdigest() == end.trajectory.hexdigest()
    assert end.is_checkerboard()
    if kind in ("z", "xy"):
        assert end.pos == before  # net position change is zero

"""Grid model, signal requirements and parallel-set conflict detection."""
import itertools
import re

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from xbarc import (
    BenchSpec,
    ConflictKind,
    check_parallel_set,
    gen_random_uniform,
    initial_placement,
    mapper,
    replay_verify,
    shuttle_requirements,
    verifier,
    verify,
)
from xbarc.crossbar import (
    LEGAL,
    ConflictReport,
    Grid,
    Line,
    SignalRequirements,
    _find_ql_cycle,
    apply_cycle,
    apply_op,
    barrier_between,
    ql_index,
    site_barriers,
    sqswap_sites,
    step_legal,
)
from xbarc.errors import CrossbarError
from xbarc.instructions import (
    CYCLE_END,
    Cycle,
    CycleType,
    Instruction,
    InstrKind,
    Schedule,
    grid_side,
)

from conftest import checkerboard_sites, compile_native, moves_digest, sparse_grid
from test_golden import CORPUS


def sh(kind, q):
    return Instruction(kind, (q,))


class TestGridFor:
    """The grid for n qubits: mapper.initial_placement's dense checkerboard
    layout, the one place the idle layout is decided."""

    def test_eight_qubits_on_4x4(self):
        g = initial_placement(8)
        assert g.n == 4
        assert g.pos == ((0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3))

    def test_single_qubit(self):
        g = initial_placement(1)
        assert g.n == 1 and g.pos == ((0, 0),)

    def test_four_qubits_need_3x3(self):
        # exhaustive: N=2 holds ceil(4/2)=2 < 4, N=3 holds ceil(9/2)=5 >= 4
        assert (2 * 2 + 1) // 2 < 4 <= (3 * 3 + 1) // 2
        assert initial_placement(4).n == 3

    @pytest.mark.parametrize("n", range(1, 40))
    def test_minimality_and_checkerboard(self, n):
        g = initial_placement(n)
        assert g.is_checkerboard()
        assert (g.n * g.n + 1) // 2 >= n
        if g.n > 1:
            m = g.n - 1
            assert (m * m + 1) // 2 < n

    def test_ql_anchor_sites(self):
        # the two sites sharing the QL_-2 diagonal on the 4x4 layout
        g = initial_placement(8)
        assert ql_index(g.site_of(4)) == -2  # (0, 2)
        assert ql_index(g.site_of(6)) == -2  # (1, 3)

    def test_first_checkerboard_sites_on_the_least_side(self):
        for n in range(1, 301):
            g = initial_placement(n)
            assert g.n == grid_side(n)
            assert g.pos == tuple(checkerboard_sites(g.n)[:n])

    def test_grid_side_bounds_the_qubit_count(self):
        # the layout takes about 0.5 KB per qubit, so the bound refuses
        # before anything is allocated
        assert grid_side(2**20) == 1449
        with pytest.raises(ValueError, match=r"exceed the bound of 2\*\*20 = 1048576 qubits"):
            grid_side(2**20 + 1)

    def test_each_call_returns_a_fresh_grid(self):
        g = initial_placement(8)
        apply_op(g, sh(InstrKind.SH_R, 0))
        assert g.site_of(0) == (1, 0)
        assert initial_placement(8).pos == ((0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3))


class TestShuttleRequirements:
    def test_left_shuttle_requirement_set(self):
        # qubit on (1,1) of the fully placed 4x4, one site to the left
        g = initial_placement(8)
        q = g.qubit_at((1, 1))
        r = shuttle_requirements(g, q, "L")
        assert r.lowered == Line("CL", 0)
        assert r.raised == frozenset({Line("CL", 1), Line("RL", 0), Line("RL", 1)})
        assert r.ql_gt == frozenset({(-1, 0), (0, 1), (-2, -1), (-2, -3)})

    def test_lone_qubit_vacuous_stayput(self):
        g = sparse_grid(2, [(0, 0)])
        r = shuttle_requirements(g, 0, "R")
        assert r.lowered == Line("CL", 0)
        assert r.raised == frozenset({Line("RL", 0)})
        assert r.ql_gt == frozenset({(1, 0)})

    def test_blocked_destination(self):
        g = sparse_grid(2, [(0, 0), (1, 0)])
        with pytest.raises(CrossbarError, match=r"destination \(1, 0\) occupied"):
            shuttle_requirements(g, 0, "R")

    def test_off_grid_move(self):
        g = sparse_grid(2, [(0, 0)])
        with pytest.raises(CrossbarError):
            shuttle_requirements(g, 0, "L")

    def test_stay_put_only_for_empty_across(self):
        # occupied across-site contributes no requirement-5 pair
        g = sparse_grid(4, [(1, 1), (0, 2), (1, 3)])
        r = shuttle_requirements(g, 0, "L")
        # qubit at (1,3): across CL_0 is (0,3), empty -> pair present
        assert (-2, -3) in r.ql_gt
        # qubit at (0,2): across CL_0 is (1,2), empty -> pair present
        assert (-2, -1) in r.ql_gt


class TestParallelSet:
    def test_opposing_shuttles_ql_contradiction(self):
        g = initial_placement(8)
        ops = [sh(InstrKind.SH_L, g.qubit_at((1, 1))), sh(InstrKind.SH_R, g.qubit_at((2, 2)))]
        rep = check_parallel_set(g, Cycle(tuple(ops)))
        assert not rep.ok
        assert rep.kind is ConflictKind.QL_CONTRADICTION
        assert rep.culprits == (0, 1)

    def test_swap_pair_parallelizes(self):
        # the horizontal half of a shuttle-based exchange: two opposite
        # moves of the two intended movers across one CL
        g = initial_placement(8)
        a, b = g.qubit_at((1, 1)), g.qubit_at((2, 2))
        ops = [sh(InstrKind.SH_R, a), sh(InstrKind.SH_L, b)]
        assert check_parallel_set(g, Cycle(tuple(ops))).ok

    def test_vertical_unwanted_interaction(self):
        # vertical shuttle lowers RL_0 while column 3 holds an occupied pair
        g = sparse_grid(4, [(1, 1), (3, 0), (3, 1)])
        rep = check_parallel_set(g, Cycle((sh(InstrKind.SH_D, 0),)))
        assert rep.kind is ConflictKind.UNWANTED_INTERACTION

    def test_horizontal_unwanted_interaction(self):
        g = sparse_grid(4, [(1, 1), (0, 3), (1, 3)])
        rep = check_parallel_set(g, Cycle((sh(InstrKind.SH_L, 0),)))
        assert rep.kind is ConflictKind.UNWANTED_INTERACTION

    def test_same_destination_blocked(self):
        g = sparse_grid(4, [(0, 0), (2, 0)])
        ops = [sh(InstrKind.SH_R, 0), sh(InstrKind.SH_L, 1)]
        rep = check_parallel_set(g, Cycle(tuple(ops)))
        assert rep.kind is ConflictKind.BLOCKED_PATH

    def test_occupied_destination_blocked(self):
        g = sparse_grid(4, [(0, 0), (1, 1), (2, 2)])
        rep = check_parallel_set(g, Cycle((sh(InstrKind.SH_U, 2),)))  # (2,2) -> (2,3) fine
        assert rep.ok
        rep = check_parallel_set(g, Cycle((Instruction(InstrKind.ZSH_R, (0,), angle=0.3),)))
        assert rep.ok
        g2 = sparse_grid(4, [(0, 0), (1, 0)])
        rep = check_parallel_set(g2, Cycle((sh(InstrKind.SH_R, 0),)))
        assert rep.kind is ConflictKind.BLOCKED_PATH

    def test_barrier_clash(self):
        # left-moves in adjacent columns: one raises CL_1, the other lowers it
        g = initial_placement(8)
        ops = [sh(InstrKind.SH_L, g.qubit_at((1, 1))), sh(InstrKind.SH_L, g.qubit_at((2, 2)))]
        rep = check_parallel_set(g, Cycle(tuple(ops)))
        assert rep.kind is ConflictKind.BARRIER_CLASH

    def test_verdict_invariant_under_permutation(self):
        g = initial_placement(8)
        base = [
            sh(InstrKind.SH_L, g.qubit_at((1, 1))),
            sh(InstrKind.SH_R, g.qubit_at((2, 2))),
            sh(InstrKind.SH_U, g.qubit_at((3, 3))),
        ]
        reports = [check_parallel_set(g, Cycle(p)) for p in itertools.permutations(base)]
        assert len({(r.ok, r.kind) for r in reports}) == 1

    def test_sg_cycle_ok_and_clash(self):
        # a lone pulse is legal; two drives on the shared column lines
        # cannot be built as one cycle
        g = initial_placement(4)
        rot = Instruction(InstrKind.SG_ROT, angle=0.5, axis="x", parity=0)
        assert check_parallel_set(g, Cycle((rot,))) is LEGAL
        other = Instruction(InstrKind.SG_ROT, angle=0.7, axis="x", parity=0)
        with pytest.raises(ValueError, match=r"^a pulse cycle holds one pulse, this one holds 2"):
            Cycle((rot, other))


G8 = initial_placement(8)

# (grid, cycle, (ok, kind, culprits, detail)): one hand-built cycle per case
CONFLICT_PINS = {
    "clash-shuttles": (
        G8,
        [sh(InstrKind.SH_L, G8.qubit_at((1, 1))), sh(InstrKind.SH_L, G8.qubit_at((2, 2)))],
        (False, ConflictKind.BARRIER_CLASH, (0, 1), "[CL_0] lowered by one instruction, raised by another"),
    ),
    "clash-sqswaps": (
        sparse_grid(4, [(1, 0), (1, 1), (2, 1), (2, 2)]),
        [Instruction(InstrKind.SQSWAP, (0, 1)), Instruction(InstrKind.SQSWAP, (2, 3))],
        (False, ConflictKind.BARRIER_CLASH, (0, 1), "[RL_0] lowered by one instruction, raised by another"),
    ),
    "off-grid": (
        sparse_grid(2, [(0, 0)]),
        [sh(InstrKind.SH_L, 0)],
        (False, ConflictKind.BLOCKED_PATH, (0,), "qubit 0 shuttled off-grid from (0, 0)"),
    ),
    "shared-destination": (
        sparse_grid(4, [(0, 0), (2, 0)]),
        [sh(InstrKind.SH_R, 0), sh(InstrKind.SH_L, 1)],
        (False, ConflictKind.BLOCKED_PATH, (0, 1), "two instructions target (1, 0)"),
    ),
    "occupied-destination": (
        sparse_grid(4, [(0, 0), (1, 0)]),
        [sh(InstrKind.SH_R, 0)],
        (False, ConflictKind.BLOCKED_PATH, (0,), "destination (1, 0) is occupied"),
    ),
    "sqswap-not-adjacent": (
        sparse_grid(4, [(0, 0), (2, 2)]),
        [Instruction(InstrKind.SQSWAP, (0, 1))],
        (False, ConflictKind.BLOCKED_PATH, (0,), "sqswap(0,1) needs vertically adjacent sites, got (0, 0), (2, 2)"),
    ),
    "unwanted-row": (
        sparse_grid(4, [(1, 1), (0, 3), (1, 3)]),
        [sh(InstrKind.SH_L, 0)],
        (False, ConflictKind.UNWANTED_INTERACTION, (0,), "CL_0 lowered while row 3 holds an occupied pair"),
    ),
    "unwanted-column": (
        sparse_grid(4, [(1, 1), (3, 0), (3, 1)]),
        [sh(InstrKind.SH_D, 0)],
        (False, ConflictKind.UNWANTED_INTERACTION, (0,), "RL_0 lowered while column 3 holds an occupied pair"),
    ),
    "ql-contradiction": (
        # qubit 4's move owns no pair of the cycle, qubit 3's does
        sparse_grid(5, [(2, 2), (4, 2), (4, 4), (0, 0), (0, 4)]),
        [sh(InstrKind.SH_D, 4), sh(InstrKind.SH_L, 1), sh(InstrKind.SH_U, 3), sh(InstrKind.SH_L, 0)],
        (False, ConflictKind.QL_CONTRADICTION, (1, 2, 3), "QL inequality cycle QL_0 > QL_-1 > QL_0"),
    ),
}


@pytest.mark.parametrize("case", list(CONFLICT_PINS))
def test_conflict_report_pinned(case):
    grid, ops, expected = CONFLICT_PINS[case]
    rep = check_parallel_set(grid, Cycle(tuple(ops)))
    assert (rep.ok, rep.kind, rep.culprits, rep.detail) == expected


def _pulse(angle, axis="x", parity=0):
    return Instruction(InstrKind.SG_ROT, angle=angle, axis=axis, parity=parity)


def _sqswap(q0, q1):
    return Instruction(InstrKind.SQSWAP, (q0, q1))


def _zsh(kind, q):
    return Instruction(kind, (q,), angle=0.5)


# (instructions, the start of Cycle's ValueError): within one cycle a qubit
# takes part in at most one instruction and the shared drive fires at most
# once, so no such cycle can be built
NAMED_TWICE = "is named by two instructions of one cycle"
CYCLE_REFUSALS = {
    "repeated-mover": ([sh(InstrKind.SH_L, 0), sh(InstrKind.SH_R, 0)], f"qubit 0 {NAMED_TWICE}"),
    "repeated-move": ([sh(InstrKind.SH_U, 3), sh(InstrKind.SH_U, 3)], f"qubit 3 {NAMED_TWICE}"),
    "moved-out-and-back": ([sh(InstrKind.SH_U, 0), sh(InstrKind.SH_D, 1), sh(InstrKind.SH_D, 0)],
                           f"qubit 0 {NAMED_TWICE}"),
    "repeated-zsh": ([_zsh(InstrKind.ZSH_L, 2), _zsh(InstrKind.ZSH_L, 2)], f"qubit 2 {NAMED_TWICE}"),
    "zsh-out-and-back": ([_zsh(InstrKind.ZSH_L, 2), _zsh(InstrKind.ZSH_R, 2)], f"qubit 2 {NAMED_TWICE}"),
    "repeated-sqswap": ([_sqswap(0, 1), _sqswap(0, 1)], f"qubit 0 {NAMED_TWICE}"),
    "reversed-sqswap": ([_sqswap(1, 0), _sqswap(0, 1)], f"qubit 0 {NAMED_TWICE}"),
    "sqswaps-share-a-qubit": ([_sqswap(0, 1), _sqswap(1, 2)], f"qubit 1 {NAMED_TWICE}"),
    "sqswaps-share-a-second-qubit": ([_sqswap(0, 1), _sqswap(2, 3), _sqswap(4, 3)], f"qubit 3 {NAMED_TWICE}"),
    "identical-pulses": ([_pulse(0.5), _pulse(0.5)], "a pulse cycle holds one pulse, this one holds 2"),
    "different-pulses": ([_pulse(0.5), _pulse(0.7)], "a pulse cycle holds one pulse, this one holds 2"),
    "pulses-on-both-parities": ([_pulse(0.5), _pulse(0.5, "y", 1), _pulse(0.1)],
                                "a pulse cycle holds one pulse, this one holds 3"),
}


@pytest.mark.parametrize("case", list(CYCLE_REFUSALS))
def test_cycle_refuses(case):
    ops, message = CYCLE_REFUSALS[case]
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        Cycle(tuple(ops))


def test_cycle_takes_distinct_qubits_and_a_lone_instruction_as_it_is():
    assert Cycle((sh(InstrKind.SH_L, 0), sh(InstrKind.SH_R, 1))).ops[1].qubits == (1,)
    assert len(Cycle((_sqswap(0, 1), _sqswap(2, 3), _sqswap(4, 5))).ops) == 3
    assert len(Cycle(tuple(sh(InstrKind.SH_U, q) for q in range(4))).ops) == 4
    # a lone sqswap(q, q) is built and left to the conflict model
    report = check_parallel_set(sparse_grid(2, [(0, 0)]), Cycle((_sqswap(0, 0),)))
    assert report.kind is ConflictKind.BLOCKED_PATH
    with pytest.raises(ValueError, match=r"^cycle must hold at least one instruction$"):
        Cycle(())


def all_legal_single_shuttles(g):
    for q in range(g.n_qubits):
        x, y = g.site_of(q)
        for kind, (dx, dy) in (
            (InstrKind.SH_L, (-1, 0)),
            (InstrKind.SH_R, (1, 0)),
            (InstrKind.SH_U, (0, 1)),
            (InstrKind.SH_D, (0, -1)),
        ):
            dest = (x + dx, y + dy)
            if g.in_grid(dest) and not g.occupied(dest):
                yield sh(kind, q)


class TestIdleConfigProperties:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_legal_shuttle_always_ok_full_board(self, n):
        g = Grid(n, tuple(checkerboard_sites(n)))
        for op in all_legal_single_shuttles(g):
            assert check_parallel_set(g, Cycle((op,))).ok, op

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_single_legal_shuttle_always_ok_sparse(self, data):
        n = data.draw(st.integers(2, 8))
        sites = list(checkerboard_sites(n))
        k = data.draw(st.integers(1, len(sites)))
        chosen = data.draw(st.permutations(sites)).copy()[:k]
        g = Grid(n, tuple(chosen))
        for op in all_legal_single_shuttles(g):
            assert check_parallel_set(g, Cycle((op,))).ok


class TestApplyOp:
    def test_shuttle_moves_one_site(self):
        g = sparse_grid(3, [(1, 1)])
        assert apply_op(g, sh(InstrKind.SH_L, 0)) is None
        assert g.site_of(0) == (0, 1)  # moved in place
        assert g.qubit_at((0, 1)) == 0 and not g.occupied((1, 1))

    def test_sqswap_keeps_positions(self):
        g = Grid(2, ((1, 0), (1, 1)))
        apply_op(g, Instruction(InstrKind.SQSWAP, (0, 1)))
        assert g.pos == ((1, 0), (1, 1))

    def test_zsh_round_trip(self):
        g = sparse_grid(3, [(1, 1)])
        out = Instruction(InstrKind.ZSH_L, (0,), angle=0.1)
        back = Instruction(InstrKind.SH_R, (0,))
        apply_op(g, out)
        assert g.site_of(0) == (0, 1)
        apply_op(g, back)
        assert g.site_of(0) == (1, 1)

    def test_every_moving_kind_steps_by_its_delta(self):
        # the kind is the one place a move's direction lives
        assert {kind.value: kind.delta for kind in InstrKind if kind.moves} == {
            "sh_l": (-1, 0), "sh_r": (1, 0), "sh_u": (0, 1), "sh_d": (0, -1), "zsh_l": (-1, 0), "zsh_r": (1, 0),
        }
        assert all(kind.delta is not None for kind in InstrKind if kind.moves)
        assert [kind for kind in InstrKind if not kind.moves] == [InstrKind.SG_ROT, InstrKind.SQSWAP]
        assert all(kind.delta is None for kind in InstrKind if not kind.moves)
        for kind in (k for k in InstrKind if k.moves):
            g = sparse_grid(3, [(1, 1)])
            apply_op(g, Instruction(kind, (0,), angle=0.1 if kind.family is CycleType.Z else None))
            assert g.site_of(0) == (1 + kind.delta[0], 1 + kind.delta[1])

    def test_retired_kinds_and_fields_are_gone(self):
        assert {kind.value for kind in InstrKind}.isdisjoint({"zsh", "zsh_ret", "sg_rot_inv"})
        assert [t.value for t in CycleType] == ["xy_rot", "z", "shuttle", "twoq"]
        assert not hasattr(Instruction(InstrKind.SH_L, (0,)), "direction")
        assert not hasattr(Instruction, "move_delta")

    def test_bijection_preserved(self):
        g = initial_placement(8)
        apply_op(g, sh(InstrKind.SH_R, 0))
        assert len({g.site_of(q) for q in range(8)}) == 8
        assert all(g.qubit_at(g.site_of(q)) == q for q in range(8))

    def test_illegal_apply_raises(self):
        g = sparse_grid(2, [(0, 0), (1, 0)])
        with pytest.raises(CrossbarError):
            apply_op(g, sh(InstrKind.SH_R, 0))
        assert g.pos == ((0, 0), (1, 0))

    def test_non_adjacent_sqswap_apply_message(self):
        g = sparse_grid(4, [(0, 0), (2, 2)])
        with pytest.raises(CrossbarError, match=r"^sqswap\(0,1\) needs vertically adjacent sites, got \(0, 0\), \(2, 2\)$"):
            apply_op(g, Instruction(InstrKind.SQSWAP, (0, 1)))


class TestQlDigraph:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(lambda p: p[0] != p[1]),
            max_size=20,
        )
    )
    def test_acyclicity_iff_satisfiable(self, pairs):
        """ok <=> a strict voltage assignment exists (topological witness)."""
        from xbarc.crossbar import _find_ql_cycle

        cycle = _find_ql_cycle(pairs)
        nodes = sorted({v for p in pairs for v in p})
        if cycle is None:
            # build the witness by Kahn layering and check every pair
            remaining = dict.fromkeys(nodes)
            out_edges = {v: set() for v in nodes}
            indeg = {v: 0 for v in nodes}
            for a, b in pairs:
                if b not in out_edges[a]:
                    out_edges[a].add(b)
                    indeg[b] += 1
            voltage = {}
            level = len(nodes)
            frontier = [v for v in nodes if indeg[v] == 0]
            while frontier:
                nxt = []
                for v in sorted(frontier):
                    voltage[v] = level
                    for w in sorted(out_edges[v]):
                        indeg[w] -= 1
                        if indeg[w] == 0:
                            nxt.append(w)
                level -= 1
                frontier = nxt
            assert len(voltage) == len(nodes)
            assert all(voltage[a] > voltage[b] for a, b in pairs)
        else:
            # the reported cycle must consist of real pairs, which is a
            # direct proof that no strict assignment exists
            edges = set(zip(cycle, cycle[1:]))
            assert edges <= {tuple(p) for p in pairs}
            assert cycle[0] == cycle[-1] and len(cycle) >= 3


def test_site_barriers_at_edges():
    assert site_barriers((0, 0), 2) == {Line("CL", 0), Line("RL", 0)}
    assert site_barriers((1, 1), 3) == {
        Line("CL", 0),
        Line("CL", 1),
        Line("RL", 0),
        Line("RL", 1),
    }


# --- reference: check_parallel_set as it stood before the occupancy masks,
# copied literally (one SignalRequirements with Line sets per instruction,
# 2N qubit_at/occupied stay-put scan, DFS over the merged QL pairs)


def move_sites(grid, q, delta):
    """Origin and destination of a one-site move of q by `delta` (the
    destination may lie off the grid), as the library once computed them."""
    x, y = grid.site_of(q)
    dx, dy = delta
    return (x, y), (x + dx, y + dy)


def _reference_barrier_signals(grid, a, b, ql_gt=frozenset()):
    lowered = barrier_between(a, b)
    raised = (site_barriers(a, grid.n) | site_barriers(b, grid.n)) - {lowered}
    return SignalRequirements(lowered, frozenset(raised), frozenset(ql_gt))


def _reference_shuttle_signals(grid, origin, dest, movers):
    ql_gt = {(ql_index(dest), ql_index(origin))}
    if origin[1] == dest[1]:
        for x, across_x in ((origin[0], dest[0]), (dest[0], origin[0])):
            for y in range(grid.n):
                other = grid.qubit_at((x, y))
                if other is not None and other not in movers and not grid.occupied((across_x, y)):
                    ql_gt.add((ql_index((x, y)), ql_index((across_x, y))))
    return _reference_barrier_signals(grid, origin, dest, ql_gt)


def _reference_sqswap_signals(grid, a, b):
    return _reference_barrier_signals(grid, *sqswap_sites(grid, a, b))


def reference_check_parallel_set(grid, cycle):
    ops = cycle.ops
    if cycle.type is CycleType.XY_ROT:
        distinct = {(op.kind, op.axis, op.angle, op.parity) for op in ops}
        if len(distinct) > 1:
            return ConflictReport(
                kind=ConflictKind.BARRIER_CLASH,
                culprits=tuple(range(len(ops))),
                detail="conflicting semi-global drives on the shared column lines",
            )
        return ConflictReport()

    movers = frozenset(op.qubits[0] for op in ops if op.kind.moves)

    reqs = []
    dests = {}
    for i, op in enumerate(ops):
        if op.kind.moves:
            q = op.qubits[0]
            origin, dest = move_sites(grid, q, op.kind.delta)
            if not grid.in_grid(dest):
                return ConflictReport(
                    kind=ConflictKind.BLOCKED_PATH,
                    culprits=(i,),
                    detail=f"qubit {q} shuttled off-grid from {origin}",
                )
            dests[i] = dest
            reqs.append(_reference_shuttle_signals(grid, origin, dest, movers))
        else:
            try:
                reqs.append(_reference_sqswap_signals(grid, op.qubits[0], op.qubits[1]))
            except CrossbarError as e:
                return ConflictReport(ConflictKind.BLOCKED_PATH, culprits=(i,), detail=str(e))

    seen_mover = {}
    for i in dests:
        q = ops[i].qubits[0]
        if seen_mover.setdefault(q, i) != i:
            return ConflictReport(
                kind=ConflictKind.BLOCKED_PATH,
                culprits=(seen_mover[q], i),
                detail=f"qubit {q} moved by two instructions",
            )
    seen_dest = {}
    for i, dest in dests.items():
        if seen_dest.setdefault(dest, i) != i:
            return ConflictReport(
                kind=ConflictKind.BLOCKED_PATH,
                culprits=(seen_dest[dest], i),
                detail=f"two instructions target {dest}",
            )
        if grid.occupied(dest):
            return ConflictReport(
                kind=ConflictKind.BLOCKED_PATH,
                culprits=(i,),
                detail=f"destination {dest} is occupied",
            )

    for i, ri in enumerate(reqs):
        for j, rj in enumerate(reqs):
            if i != j and ri.lowered in rj.raised:
                return ConflictReport(
                    kind=ConflictKind.BARRIER_CLASH,
                    culprits=(i, j),
                    detail=f"[{ri.lowered}] lowered by one instruction, raised by another",
                )

    occupied = grid.occupied
    for i, (op, req) in enumerate(zip(ops, reqs)):
        line = req.lowered
        x, y = grid.site_of(op.qubits[0])
        k = line.index
        if line.family == "RL":
            hits = (m for m in range(grid.n) if m != x and occupied((m, k)) and occupied((m, k + 1)))
            where = "column"
        else:
            hits = (m for m in range(grid.n) if m != y and occupied((k, m)) and occupied((k + 1, m)))
            where = "row"
        hit = next(hits, None)
        if hit is not None:
            return ConflictReport(
                kind=ConflictKind.UNWANTED_INTERACTION,
                culprits=(i,),
                detail=f"{line} lowered while {where} {hit} holds an occupied pair",
            )

    cycle = _find_ql_cycle(dict.fromkeys(p for r in reqs for p in sorted(r.ql_gt)))
    if cycle is not None:
        edges = set(zip(cycle, cycle[1:]))
        return ConflictReport(
            kind=ConflictKind.QL_CONTRADICTION,
            culprits=tuple(i for i, r in enumerate(reqs) if r.ql_gt & edges),
            detail="QL inequality cycle " + " > ".join(f"QL_{v}" for v in cycle),
        )

    return ConflictReport()


def report_tuple(report):
    return report.ok, report.kind, report.culprits, report.detail


SHUTTLE_FAMILY = tuple(kind for kind in InstrKind if kind.family is CycleType.SHUTTLE)
Z_FAMILY = tuple(kind for kind in InstrKind if kind.family is CycleType.Z)


@st.composite
def grids(draw):
    """A random occupancy of a side-1..7 grid, drawn from every site or from
    the checkerboard sites only."""
    n = draw(st.integers(1, 7))
    pool = [(x, y) for y in range(n) for x in range(n)]
    if draw(st.booleans()):
        pool = list(checkerboard_sites(n))
    return Grid(n, tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))))


@st.composite
def cycles_on(draw, grid):
    """A one-family cycle of 1-5 moves (plain shuttles, or phase shuttles) or
    sqswaps of the grid's qubits, no qubit named by two of its instructions
    (Cycle's rule). A sqswap's second qubit is the first one's upper or
    lower neighbour when it has one, so that legal sqswaps are common; a
    lone sqswap's may be any qubit, the first one included."""
    n_qubits = grid.n_qubits
    family = draw(st.sampled_from(("shuttle", "z", "twoq")))
    size = draw(st.integers(1, max(1, min(5, n_qubits // 2 if family == "twoq" else n_qubits))))
    free = set(range(n_qubits))
    ops = []
    for _ in range(size):
        q = draw(st.sampled_from(sorted(free)))
        free.discard(q)
        if family == "shuttle":
            ops.append(Instruction(draw(st.sampled_from(SHUTTLE_FAMILY)), (q,)))
        elif family == "z":
            ops.append(Instruction(draw(st.sampled_from(Z_FAMILY)), (q,), angle=0.5))
        else:
            pool = sorted(free) if size > 1 else range(n_qubits)
            x, y = grid.site_of(q)
            near = [p for d in (1, -1) if (p := grid.qubit_at((x, y + d))) in pool]
            other = draw(st.sampled_from(near)) if near and draw(st.booleans()) else draw(st.sampled_from(pool))
            free.discard(other)
            ops.append(Instruction(InstrKind.SQSWAP, (q, other)))
    return Cycle(tuple(ops))


@st.composite
def grids_and_cycles(draw):
    """A grid from grids() and a cycle from cycles_on() on it."""
    grid = draw(grids())
    return grid, draw(cycles_on(grid))


class TestAgainstReference:
    """The mask-based check returns the reference's report on every input."""

    @settings(max_examples=1000, deadline=None)
    @given(grids_and_cycles())
    def test_random_cycles(self, grid_cycle):
        grid, cycle = grid_cycle
        before = grid.pos
        assert report_tuple(check_parallel_set(grid, cycle)) == report_tuple(
            reference_check_parallel_set(grid, cycle)
        )
        assert grid.pos == before

    @pytest.mark.parametrize("n_qubits, n_gates", [(2, 60), (12, 300), (200, 150)])
    def test_every_cycle_of_compiled_circuits(self, n_qubits, n_gates):
        _, s = compile_native(gen_random_uniform(BenchSpec(n_qubits, n_gates, 50.0, 0)))
        grid = Grid(s.grid_n, s.placement)
        for cycle in s.cycles:
            report = check_parallel_set(grid, cycle)
            assert report.ok
            assert report_tuple(report) == report_tuple(reference_check_parallel_set(grid, cycle))
            for op in cycle.ops:
                apply_op(grid, op)


def rebuilt_masks(grid):
    """Column and row occupancy masks computed from scratch from grid.pos."""
    cols, rows = [0] * grid.n, [0] * grid.n
    for x, y in grid.pos:
        cols[x] |= 1 << y
        rows[y] |= 1 << x
    return cols, rows


def assert_masks_match(grid):
    assert (grid.cols, grid.rows) == rebuilt_masks(grid)


class TestOccupancyMasks:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_masks_follow_legal_moves(self, data):
        n = data.draw(st.integers(2, 7))
        sites = list(checkerboard_sites(n))
        k = data.draw(st.integers(1, len(sites)))
        grid = Grid(n, tuple(data.draw(st.permutations(sites))[:k]))
        assert_masks_match(grid)
        for _ in range(data.draw(st.integers(0, 30))):
            op = sh(data.draw(st.sampled_from(SHUTTLE_FAMILY[:4])), data.draw(st.integers(0, k - 1)))
            try:
                apply_op(grid, op)
            except CrossbarError:
                pass  # an illegal move leaves the grid unchanged
            assert_masks_match(grid)

    def test_rollback_restores_masks(self, monkeypatch):
        # qubits 0 and 1 would move, qubit 2 would leave the grid: replay
        # refuses the cycle and applies none of it, so the checks of the next
        # two cycles see the placement's masks, matching the positions, and
        # the refused cycle adds nothing to the digest. Replay offers every
        # cycle to step_legal first; only the broken one falls back to
        # check_parallel_set
        placement = ((1, 1), (0, 1), (2, 2))
        raised = ((1, 2), (0, 1), (2, 2))
        broken = Cycle(tuple(sh(InstrKind.SH_R, q) for q in (0, 1, 2)))
        up, down = Cycle((sh(InstrKind.SH_U, 0),)), Cycle((sh(InstrKind.SH_D, 0),))
        seen, fell_back = [], []

        def stepped(grid, cycle):
            seen.append((grid.pos, (grid.cols, grid.rows) == rebuilt_masks(grid)))
            return step_legal(grid, cycle)

        def checked(grid, cycle):
            fell_back.append((cycle, grid.pos))
            return check_parallel_set(grid, cycle)

        monkeypatch.setattr(verifier, "step_legal", stepped)
        monkeypatch.setattr(verifier, "check_parallel_set", checked)
        digest = moves_digest(placement, [raised, placement])
        report = replay_verify(Schedule("partway", 3, placement, (broken, up, down), digest))
        assert seen == [(placement, True), (placement, True), (raised, True)]
        assert fell_back == [(broken, placement)]
        assert [i for i, _ in report.violations] == [0] and report.trajectory_match


def grid_state(grid):
    """Every qubit's site, the qubit on every occupied site as qubit_at
    reads it, and the occupancy masks."""
    on_sites = ((x, y) for x in range(grid.n) for y in range(grid.n))
    site_map = {site: q for site in on_sites if (q := grid.qubit_at(site)) is not None}
    return grid.pos, site_map, grid.cols[:], grid.rows[:]


def assert_tables_agree(grid):
    """The site table holds each qubit at y * n + x of its coords and -1
    elsewhere, and the masks match the coords."""
    n = grid.n
    table = [-1] * (n * n)
    for q, (x, y) in enumerate(grid.pos):
        table[y * n + x] = q
    assert grid.sites == table
    assert len(grid.coords) == 2 * grid.n_qubits and all(type(v) is int for v in grid.coords)
    assert_masks_match(grid)


class TestSiteTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_off_grid_sites_read_empty(self, n):
        # every site occupied, so an unchecked index would find a qubit:
        # (-1, y) would wrap to the row's last slot, (n, y) to the next row's first
        grid = Grid(n, tuple((x, y) for y in range(n) for x in range(n)))
        off_grid = [(x, y) for x in range(-2, n + 2) for y in range(-2, n + 2) if not grid.in_grid((x, y))]
        assert {(-1, 0), (0, -1), (n, 0), (0, n), (n, n), (-1, -1)} <= set(off_grid)
        for site in off_grid:
            assert grid.qubit_at(site) is None
            assert grid.occupied(site) is False
        for q, site in enumerate(grid.pos):
            assert grid.qubit_at(site) == q and grid.occupied(site) is True

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tables_agree_after_every_cycle(self, data):
        # each cycle goes to step_legal, else to check_parallel_set and, when
        # it is LEGAL, to apply_cycle, as mapper._checked and replay walk it
        grid = data.draw(grids())
        assert_tables_agree(grid)
        for _ in range(data.draw(st.integers(1, 12))):
            cycle = data.draw(cycles_on(grid))
            if not step_legal(grid, cycle) and check_parallel_set(grid, cycle).ok:
                apply_cycle(grid, cycle)
            assert_tables_agree(grid)


class TestApplyCycle:
    # qubit 0 moves up to (1, 2) and qubit 1 down to (2, 1); then qubit 2
    # either leaves the grid or steps onto qubit 0's new site
    PLACEMENT = ((1, 1), (2, 2), (0, 2))
    LEGAL = (sh(InstrKind.SH_U, 0), sh(InstrKind.SH_D, 1))

    @pytest.mark.parametrize(
        "last, culprits, detail",
        [
            (sh(InstrKind.SH_L, 2), (2,), "qubit 2 shuttled off-grid from (0, 2)"),
            (sh(InstrKind.SH_R, 2), (0, 2), "two instructions target (1, 2)"),
        ],
        ids=["off-grid", "occupied"],
    )
    def test_inapplicable_cycle_is_refused(self, last, culprits, detail):
        # the judge refuses the whole cycle before any of it runs, and
        # replay reports it once, applies none of it and logs nothing for it
        grid = Grid(3, self.PLACEMENT)
        before = grid_state(grid), list(grid.trajectory)
        cycle = Cycle(self.LEGAL + (last,))
        report = check_parallel_set(grid, cycle)
        assert (report.kind, report.culprits, report.detail) == (ConflictKind.BLOCKED_PATH, culprits, detail)
        assert (grid_state(grid), list(grid.trajectory)) == before
        replayed = replay_verify(Schedule("refused", 3, self.PLACEMENT, (cycle,), moves_digest(self.PLACEMENT, [])))
        assert replayed.violations == ((0, report),) and replayed.trajectory_match

    def test_legal_cycle_records_the_occupancy_after_it(self):
        grid = Grid(3, self.PLACEMENT)
        apply_cycle(grid, Cycle(self.LEGAL))
        after = ((1, 2), (2, 1), (0, 2))
        assert grid.pos == after
        assert_masks_match(grid)
        assert list(grid.trajectory) == [1, 1, 2, 2, 0, 2, 0, 1, 2, 1, 2, 1, CYCLE_END]
        assert grid.trajectory.hexdigest() == moves_digest(self.PLACEMENT, [after])

    def test_rows_in_either_order_log_the_same_changes(self):
        # the changes are logged in ascending qubit order, whatever the
        # order of the cycle's rows
        forward, backward = Grid(3, self.PLACEMENT), Grid(3, self.PLACEMENT)
        apply_cycle(forward, Cycle(self.LEGAL))
        apply_cycle(backward, Cycle(self.LEGAL[::-1]))
        assert list(backward.trajectory) == list(forward.trajectory)

    def test_pulse_and_sqswap_cycles_add_only_the_end(self):
        grid = Grid(3, ((1, 1), (1, 2)))
        apply_cycle(grid, Cycle((Instruction(InstrKind.SG_ROT, angle=0.5, axis="x", parity=1),)))
        apply_cycle(grid, Cycle((Instruction(InstrKind.SQSWAP, (0, 1)),)))
        assert list(grid.trajectory) == [1, 1, 1, 2, CYCLE_END, CYCLE_END]

    @settings(max_examples=500, deadline=None)
    @given(grids_and_cycles())
    # two moves, and two sqswaps lowering different row barriers
    @example((Grid(3, PLACEMENT), Cycle(LEGAL)))
    @example((
        Grid(4, ((0, 0), (0, 1), (2, 2), (2, 3))),
        Cycle((Instruction(InstrKind.SQSWAP, (0, 1)), Instruction(InstrKind.SQSWAP, (2, 3)))),
    ))
    def test_accepted_cycle_always_applies(self, grid_and_cycle):
        """Whenever check_parallel_set judges a cycle LEGAL, apply_cycle
        raises nothing and leaves each mover on its origin plus its kind's
        delta, the other qubits where they were: the invariant that lets
        apply_cycle trust its callers' verdict. The hypothesis statistics
        (--hypothesis-show-statistics) report the share of accepted cycles
        with two or more instructions."""
        grid, cycle = grid_and_cycle
        if not check_parallel_set(grid, cycle).ok:
            event("refused")
            return
        event("accepted, one instruction" if len(cycle.ops) == 1 else "accepted, two or more instructions")
        placement, expected = grid.pos, list(grid.pos)
        for op in cycle.ops:
            if op.kind.moves:
                (x, y), (dx, dy) = placement[op.qubits[0]], op.kind.delta
                expected[op.qubits[0]] = (x + dx, y + dy)
        apply_cycle(grid, cycle)
        assert grid.pos == tuple(expected)
        assert_tables_agree(grid)
        assert grid.trajectory.hexdigest() == moves_digest(placement, [grid.pos])

    @settings(max_examples=300, deadline=None)
    @given(grids_and_cycles())
    # two moves listed against qubit order
    @example((Grid(3, ((1, 1), (2, 2))), Cycle((sh(InstrKind.SH_D, 1), sh(InstrKind.SH_U, 0)))))
    def test_digest_equals_the_snapshot_reference(self, grid_and_cycle):
        # the cycle is offered twice and applied each time check_parallel_set
        # accepts it; the digest equals the one derived by diffing the
        # snapshots after each applied run
        grid, cycle = grid_and_cycle
        placement, snapshots = grid.pos, []
        for _ in range(2):
            if check_parallel_set(grid, cycle).ok:
                apply_cycle(grid, cycle)
                snapshots.append(grid.pos)
        assert grid.trajectory.hexdigest() == moves_digest(placement, snapshots)


def test_only_lone_pulses_and_sqswaps_reach_the_fallback(monkeypatch):
    """Compiling and verifying the golden corpus, every cycle that
    mapper._checked or replay_verify passes to check_parallel_set is a lone
    pulse or a lone sqswap: every move cycle is a lone move or an exchange,
    which step_legal takes. The fallback judge and apply_cycle are kept
    simple rather than fast on that ground.

    The traffic as measured: a compile and a verify of randu-q12 (12
    qubits, 1000 gates, 50 % two-qubit, seed 0) each send the fallback 1001
    lone pulses and sqswaps per walk, of randu-q200 (200 qubits, 300 gates)
    300, and no move cycle. Every two-move cycle of a compiled schedule is
    an exchange: all 15,424 of the random-uniform circuits of 2, 3, 12 and
    50 qubits at 1000 gates and 200 qubits at 300 gates, seeds 0 to 2."""
    seen = []
    for module in (mapper, verifier):
        def spy(grid, cycle, caller=module.__name__):
            seen.append((caller, cycle))
            return check_parallel_set(grid, cycle)

        monkeypatch.setattr(module, "check_parallel_set", spy)
    for name in sorted(CORPUS):
        _, schedule = compile_native(CORPUS[name]())
        assert verify(schedule).ok, name
    assert {caller for caller, _ in seen} == {mapper.__name__, verifier.__name__}
    moving = [(caller, cycle) for caller, cycle in seen if len(cycle.ops) > 1 or cycle.ops[0].kind.moves]
    assert not moving, (
        f"{len(moving)} cycles of moves or of two or more instructions now reach check_parallel_set, "
        f"the fallback judge, which was kept simple rather than fast, and step_legal takes only a lone move "
        f"or an exchange: measure the fallback's cost again. First: {moving[0]}"
    )

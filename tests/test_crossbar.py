"""Grid model, signal requirements and parallel-set conflict detection."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarc import (
    BenchSpec,
    ConflictKind,
    check_parallel_set,
    gen_random_uniform,
    grid_for,
    replay_verify,
    shuttle_requirements,
    verifier,
)
from xbarc.crossbar import (
    ConflictReport,
    Grid,
    Line,
    SignalRequirements,
    _find_ql_cycle,
    apply_cycle,
    apply_op,
    barrier_between,
    checkerboard_sites,
    move_sites,
    ql_index,
    site_barriers,
    sqswap_sites,
)
from xbarc.errors import CrossbarError
from xbarc.instructions import (
    MOVE_KINDS,
    SG_KINDS,
    Cycle,
    Instruction,
    InstrKind,
    Schedule,
    TrajectoryDigest,
)

from conftest import compile_native, sparse_grid


def sh(kind, q):
    return Instruction(kind, (q,))


class TestGridFor:
    def test_eight_qubits_on_4x4(self):
        g = grid_for(8)
        assert g.n == 4
        assert g.pos == ((0, 0), (2, 0), (1, 1), (3, 1), (0, 2), (2, 2), (1, 3), (3, 3))

    def test_single_qubit(self):
        g = grid_for(1)
        assert g.n == 1 and g.pos == ((0, 0),)

    def test_four_qubits_need_3x3(self):
        # exhaustive: N=2 holds ceil(4/2)=2 < 4, N=3 holds ceil(9/2)=5 >= 4
        assert (2 * 2 + 1) // 2 < 4 <= (3 * 3 + 1) // 2
        assert grid_for(4).n == 3

    @pytest.mark.parametrize("n", range(1, 40))
    def test_minimality_and_checkerboard(self, n):
        g = grid_for(n)
        assert g.is_checkerboard()
        assert (g.n * g.n + 1) // 2 >= n
        if g.n > 1:
            m = g.n - 1
            assert (m * m + 1) // 2 < n

    def test_ql_anchor_sites(self):
        # the two sites sharing the QL_-2 diagonal on the 4x4 layout
        g = grid_for(8)
        assert ql_index(g.site_of(4)) == -2  # (0, 2)
        assert ql_index(g.site_of(6)) == -2  # (1, 3)


class TestShuttleRequirements:
    def test_left_shuttle_requirement_set(self):
        # qubit on (1,1) of the fully placed 4x4, one site to the left
        g = grid_for(8)
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
        g = grid_for(8)
        ops = [sh(InstrKind.SH_L, g.qubit_at((1, 1))), sh(InstrKind.SH_R, g.qubit_at((2, 2)))]
        rep = check_parallel_set(g, Cycle(tuple(ops)))
        assert not rep.ok
        assert rep.kind is ConflictKind.QL_CONTRADICTION
        assert rep.culprits == (0, 1)

    def test_swap_pair_parallelizes(self):
        # the horizontal half of a shuttle-based exchange: two opposite
        # moves of the two intended movers across one CL
        g = grid_for(8)
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
        rep = check_parallel_set(g, Cycle((Instruction(InstrKind.ZSH, (0,), angle=0.3, direction="R"),)))
        assert rep.ok
        g2 = sparse_grid(4, [(0, 0), (1, 0)])
        rep = check_parallel_set(g2, Cycle((sh(InstrKind.SH_R, 0),)))
        assert rep.kind is ConflictKind.BLOCKED_PATH

    def test_barrier_clash(self):
        # left-moves in adjacent columns: one raises CL_1, the other lowers it
        g = grid_for(8)
        ops = [sh(InstrKind.SH_L, g.qubit_at((1, 1))), sh(InstrKind.SH_L, g.qubit_at((2, 2)))]
        rep = check_parallel_set(g, Cycle(tuple(ops)))
        assert rep.kind is ConflictKind.BARRIER_CLASH

    def test_verdict_invariant_under_permutation(self):
        g = grid_for(8)
        base = [
            sh(InstrKind.SH_L, g.qubit_at((1, 1))),
            sh(InstrKind.SH_R, g.qubit_at((2, 2))),
            sh(InstrKind.SH_U, g.qubit_at((3, 3))),
        ]
        reports = [check_parallel_set(g, Cycle(p)) for p in itertools.permutations(base)]
        assert len({(r.ok, r.kind) for r in reports}) == 1

    def test_sg_cycle_ok_and_clash(self):
        g = grid_for(4)
        rot = Instruction(InstrKind.SG_ROT, angle=0.5, axis="x", parity=0)
        assert check_parallel_set(g, Cycle((rot,))).ok
        other = Instruction(InstrKind.SG_ROT, angle=0.7, axis="x", parity=0)
        assert not check_parallel_set(g, Cycle((rot, other))).ok


G8 = grid_for(8)

# (grid, cycle, (ok, kind, culprits, detail)): one hand-built cycle per case
CONFLICT_PINS = {
    "clash-semi-global": (
        grid_for(4),
        [
            Instruction(InstrKind.SG_ROT, angle=0.5, axis="x", parity=0),
            Instruction(InstrKind.SG_ROT, angle=0.7, axis="x", parity=0),
        ],
        (False, ConflictKind.BARRIER_CLASH, (0, 1), "conflicting semi-global drives on the shared column lines"),
    ),
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
    "duplicate-mover": (
        sparse_grid(4, [(1, 1)]),
        [sh(InstrKind.SH_L, 0), sh(InstrKind.SH_R, 0)],
        (False, ConflictKind.BLOCKED_PATH, (0, 1), "qubit 0 moved by two instructions"),
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
        out = Instruction(InstrKind.ZSH, (0,), angle=0.1, direction="L")
        back = Instruction(InstrKind.ZSH_RET, (0,), direction="R")
        apply_op(g, out)
        assert g.site_of(0) == (0, 1)
        apply_op(g, back)
        assert g.site_of(0) == (1, 1)

    def test_bijection_preserved(self):
        g = grid_for(8)
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
    if ops[0].kind in SG_KINDS:
        distinct = {(op.kind, op.axis, op.angle, op.parity) for op in ops}
        if len(distinct) > 1:
            return ConflictReport(
                kind=ConflictKind.BARRIER_CLASH,
                culprits=tuple(range(len(ops))),
                detail="conflicting semi-global drives on the shared column lines",
            )
        return ConflictReport()

    movers = frozenset(op.qubits[0] for op in ops if op.kind in MOVE_KINDS)

    reqs = []
    dests = {}
    for i, op in enumerate(ops):
        if op.kind in MOVE_KINDS:
            q = op.qubits[0]
            origin, dest = move_sites(grid, q, op.move_delta())
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


SHUTTLE_FAMILY = (InstrKind.SH_L, InstrKind.SH_R, InstrKind.SH_U, InstrKind.SH_D, InstrKind.ZSH_RET)


@st.composite
def grids_and_cycles(draw):
    """A random occupancy of a side-1..7 grid, drawn from every site or from
    the checkerboard sites only, and a one-family cycle of 1-5 moves
    (shuttles and zsh_ret, or zsh) or sqswaps. A sqswap's second qubit is
    the first one's upper or lower neighbour when it has one, so that legal
    sqswaps are common."""
    n = draw(st.integers(1, 7))
    pool = [(x, y) for y in range(n) for x in range(n)]
    if draw(st.booleans()):
        pool = list(checkerboard_sites(n))
    sites = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    grid = Grid(n, tuple(sites))
    qubit = st.integers(0, len(sites) - 1)
    family = draw(st.sampled_from(("shuttle", "z", "twoq")))
    ops = []
    for _ in range(draw(st.integers(1, 5))):
        q = draw(qubit)
        if family == "shuttle":
            kind = draw(st.sampled_from(SHUTTLE_FAMILY))
            direction = draw(st.sampled_from("LR")) if kind is InstrKind.ZSH_RET else None
            ops.append(Instruction(kind, (q,), direction=direction))
        elif family == "z":
            ops.append(Instruction(InstrKind.ZSH, (q,), angle=0.5, direction=draw(st.sampled_from("LR"))))
        else:
            x, y = grid.site_of(q)
            near = [grid.qubit_at((x, y + d)) for d in (1, -1) if grid.occupied((x, y + d))]
            other = draw(st.sampled_from(near)) if near and draw(st.booleans()) else draw(qubit)
            ops.append(Instruction(InstrKind.SQSWAP, (q, other)))
    return grid, Cycle(tuple(ops))


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
        # qubits 0 and 1 move, qubit 2 leaves the grid: replay undoes both
        # moves, and the checks of the next two cycles see masks that match
        # the positions
        placement = ((1, 1), (0, 1), (2, 2))
        raised = ((1, 2), (0, 1), (2, 2))
        broken = Cycle(tuple(sh(InstrKind.SH_R, q) for q in (0, 1, 2)))
        up, down = Cycle((sh(InstrKind.SH_U, 0),)), Cycle((sh(InstrKind.SH_D, 0),))
        seen = []

        def checked(grid, cycle):
            seen.append((grid.pos, (grid.cols, grid.rows) == rebuilt_masks(grid)))
            return check_parallel_set(grid, cycle)

        monkeypatch.setattr(verifier, "check_parallel_set", checked)
        digest = TrajectoryDigest([placement, raised, placement]).hexdigest()
        report = replay_verify(Schedule("partway", 3, placement, (broken, up, down), digest))
        assert seen == [(placement, True), (placement, True), (raised, True)]
        assert [i for i, _ in report.violations] == [0, 0] and report.trajectory_match


def grid_state(grid):
    return grid.pos, dict(grid._site_map), grid.cols[:], grid.rows[:]


class TestApplyCycle:
    # qubit 0 moves up to (1, 2) and qubit 1 down to (2, 1); then qubit 2
    # either leaves the grid or steps onto qubit 0's new site
    PLACEMENT = ((1, 1), (2, 2), (0, 2))
    LEGAL = (sh(InstrKind.SH_U, 0), sh(InstrKind.SH_D, 1))

    @pytest.mark.parametrize("last", [sh(InstrKind.SH_L, 2), sh(InstrKind.SH_R, 2)], ids=["off-grid", "occupied"])
    def test_failing_move_undoes_the_cycle(self, last):
        grid = Grid(3, self.PLACEMENT)
        before = grid_state(grid)
        with pytest.raises(CrossbarError):
            apply_cycle(grid, Cycle(self.LEGAL + (last,)))
        assert grid_state(grid) == before
        assert grid.trajectory.hexdigest() == TrajectoryDigest([self.PLACEMENT]).hexdigest()

    def test_legal_cycle_records_the_occupancy_after_it(self):
        grid = Grid(3, self.PLACEMENT)
        apply_cycle(grid, Cycle(self.LEGAL))
        after = ((1, 2), (2, 1), (0, 2))
        assert grid.pos == after
        assert_masks_match(grid)
        assert grid.trajectory.hexdigest() == TrajectoryDigest([after]).hexdigest()

    @settings(max_examples=300, deadline=None)
    @given(grids_and_cycles())
    def test_any_cycle_applies_whole_or_not_at_all(self, grid_and_cycle):
        grid, cycle = grid_and_cycle
        before = grid_state(grid)
        try:
            apply_cycle(grid, cycle)
        except CrossbarError:
            assert grid_state(grid) == before
            recorded = before[0]
        else:
            assert_masks_match(grid)
            recorded = grid.pos
        assert grid.trajectory.hexdigest() == TrajectoryDigest([recorded]).hexdigest()

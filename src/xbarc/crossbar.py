"""N x N dot-grid model with shared control lines and conflict detection.

Coordinates: x = column from the left, y = row from the bottom. Three line
families address the array:

  CL_i  vertical barrier between columns i and i+1, i in [0, N-1)
  RL_j  horizontal barrier between rows j and j+1, j in [0, N-1)
  QL_k  diagonal DC line through all sites with x - y = k

Grid boundaries act as always-raised barriers and carry no line id. In the
idle configuration every occupied site satisfies (x + y) % 2 == 0, which
guarantees empty horizontal/vertical neighbours for shuttling.

A shuttle of one qubit needs: (1) an empty destination, (2) the barrier
between origin and destination lowered, (3) every other barrier bordering
either site raised, (4) the destination QL voltage above the origin QL
voltage, and (5), for horizontal moves, every other qubit in the two
affected columns biased above its empty site across the lowered barrier so
it stays put. Only ordering relations between QL voltages matter, so (4)
and (5) become a digraph of strict inequalities; a parallel instruction set
is satisfiable exactly when the merged digraph is acyclic. Every such pair
joins adjacent diagonals (a unit move changes x - y by one, and a stay-put
qubit sits one column from its empty site), so the digraph lies on the path
... QL_-1 - QL_0 - QL_1 ... and has a cycle exactly when some pair occurs in
both directions.

Grid keeps one occupancy bitmask per column (bit y) and per row (bit x), so
a line's occupancy is one integer operation: the stay-put qubits of a
column are cols[x] & ~cols[across], and an occupied pair across a lowered
row barrier is rows[k] & rows[k + 1]. step_legal judges by that
occupied-pair test alone: every move of a lone move or an exchange lowers
one barrier, and once no row (column) across it holds an occupied pair,
each row adds at most one inequality, on its own edge, so no edge runs both
ways and every destination is empty.

Every move (a shuttle sh_l/sh_r/sh_u/sh_d or a phase shuttle zsh_l/zsh_r)
steps its one qubit by its kind's unit delta; a semi-global pulse (sg_rot)
and a sqswap leave positions as they are.

instructions.check_placement checks a placement when a Schedule is made
or schedule_integrated starts, Cycle keeps a cycle of two or more
instructions to one family, with no pulse and no qubit named by two of its
instructions (the crossbar runs one instruction type per cycle, and one
shared drive fires at most once), and apply_op checks each move it
applies; Grid trusts all three. check_parallel_set trusts the first two
but judges a cycle before any of it is applied, so it checks what depends
on the grid itself: an off-grid or occupied destination is a BLOCKED_PATH
conflict, as are two moves onto one site.

A cycle is judged and applied in one of two ways. step_legal takes a legal
lone move or a legal exchange, a pair of moves whose second mover steps
back across the barrier the first one crosses: it judges the cycle by
integer arithmetic on the grid's coordinates and masks, then moves its
qubits and logs them in the same pass. Every other cycle goes to
check_parallel_set, which names the conflict, and only a LEGAL one on to
apply_cycle. The scheduler's check (mapper._checked) and replay
(verifier.replay_verify) offer each cycle to step_legal first. Every
two-move cycle of a compiled schedule is an exchange, so step_legal takes
every move cycle, and only lone pulses and lone sqswaps reach the fallback;
tests/test_crossbar.py::test_only_lone_pulses_and_sqswaps_reach_the_fallback
pins this and records the traffic. So the fallback only has to be
correct, for documents written elsewhere, and it names a QL conflict from
the pair sets it builds for its report.

A Grid is mutable and apply_op/apply_cycle/step_legal advance it in place,
O(1) per move: Grid.move writes two slots of each of its flat tables, the
coordinates, the site table indexed y * N + x and the two mask lists, all
plain lists of ints, so a move neither hashes a site nor boxes a value.
The grid's own TrajectoryDigest, `grid.trajectory`, opens with the
placement; step_legal and apply_cycle log each cycle they apply in it,
Grid.move and apply_op log nothing. A cycle's entries are one (q, x, y) per
qubit whose site it changed, in ascending q, then CYCLE_END. A cycle names
each mover once, so every mover of an applied cycle changes its site:
apply_cycle logs each mover's site after the cycle, and step_legal writes
the same entries directly. Neither applies a refused cycle, which logs
nothing. So the digest costs O(placement + site changes + cycles), and a
cycle's rows may be listed in any order.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, NamedTuple

from .errors import CrossbarError
from .instructions import CYCLE_END, DELTAS, Cycle, CycleType, Instruction, InstrKind, TrajectoryDigest


# bound once for the per-cycle and per-instruction functions (see InstrKind)
_XY_ROT, _SQSWAP = CycleType.XY_ROT, InstrKind.SQSWAP


class Line(NamedTuple):
    family: str  # "CL" | "RL"
    index: int

    def __repr__(self):
        return f"{self.family}_{self.index}"


class ConflictKind(Enum):
    QL_CONTRADICTION = "ql_contradiction"
    BARRIER_CLASH = "barrier_clash"
    UNWANTED_INTERACTION = "unwanted_interaction"
    BLOCKED_PATH = "blocked_path"


@dataclass(frozen=True)
class ConflictReport:
    kind: ConflictKind | None = None  # None: the cycle is legal
    culprits: tuple[int, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.kind is None


LEGAL = ConflictReport()  # what check_parallel_set returns for every legal cycle


@dataclass(frozen=True)
class SignalRequirements:
    lowered: Line  # the one barrier an instruction opens
    raised: frozenset[Line]  # every other barrier bordering its two sites
    ql_gt: frozenset[tuple[int, int]]  # (a, b) means voltage(QL_a) > voltage(QL_b)


class Grid:
    """Mutable qubit -> site bijection on an N x N array.

    Three flat tables and two occupancy bitmask lists, all plain Python
    ints: `coords` holds every qubit's (x, y) as x0, y0, x1, y1, ...;
    `sites` holds, at index y * N + x, the qubit on (x, y) or -1 for an
    empty site; cols[x] has bit y set and rows[y] has bit x set when (x, y)
    holds a qubit. qubit_at and occupied bounds-check a site before they
    index `sites`, as a negative index would wrap around. move updates all
    four in place in O(1), writing two slots of each table. `trajectory`, the
    TrajectoryDigest log, opens with the placement; step_legal, which
    applies every move cycle of a compiled schedule, and apply_cycle, which
    applies the rest (lone pulses and sqswaps), add each cycle they apply
    to it. move adds nothing, so a grid advanced by apply_op alone keeps
    the placement only. Whoever advances a grid owns it:
    schedule_integrated, replay_verify and simulate_schedule each build
    their own from a placement (metrics.esp walks flat tables of its own,
    not a Grid), and the routing entry points
    (route_two_qubit, z_route, expand_semi_global) advance the grid they
    are given. Grid checks and converts nothing: its placement, a tuple of
    (x, y) tuples, comes from a checked Schedule, from
    schedule_integrated's check_placement or from mapper.initial_placement,
    and every move from apply_op or step_legal.
    """

    __slots__ = ("n", "coords", "cols", "rows", "sites", "trajectory")

    def __init__(self, n: int, pos: tuple[tuple[int, int], ...]):
        self.n = n
        self.coords = [v for site in pos for v in site]
        self.sites = sites = [-1] * (n * n)
        self.cols = cols = [0] * n
        self.rows = rows = [0] * n
        for q, (x, y) in enumerate(pos):
            sites[y * n + x] = q
            cols[x] |= 1 << y
            rows[y] |= 1 << x
        self.trajectory = TrajectoryDigest(self.coords)

    @property
    def pos(self) -> tuple[tuple[int, int], ...]:
        """Snapshot of every qubit's site, in qubit order."""
        xy = self.coords
        return tuple(zip(xy[0::2], xy[1::2]))

    @property
    def n_qubits(self) -> int:
        return len(self.coords) // 2

    def site_of(self, q: int) -> tuple[int, int]:
        i = 2 * q
        return self.coords[i], self.coords[i + 1]

    def qubit_at(self, site: tuple[int, int]) -> int | None:
        x, y = site
        n = self.n
        if 0 <= x < n and 0 <= y < n:
            q = self.sites[y * n + x]
            if q >= 0:
                return q
        return None

    def occupied(self, site) -> bool:
        x, y = site
        n = self.n
        return 0 <= x < n and 0 <= y < n and self.sites[y * n + x] >= 0

    def in_grid(self, site) -> bool:
        x, y = site
        return 0 <= x < self.n and 0 <= y < self.n

    def move(self, q: int, site: tuple[int, int]) -> None:
        """Put q on `site` in place, unchecked: apply_op checked the move
        or step_legal the cycle. The trajectory log is left to the two cycle
        appliers."""
        i = 2 * q
        n, xy, sites, cols, rows = self.n, self.coords, self.sites, self.cols, self.rows
        x, y = xy[i], xy[i + 1]
        sites[y * n + x] = -1
        cols[x] ^= 1 << y
        rows[y] ^= 1 << x
        xy[i], xy[i + 1] = x, y = site
        sites[y * n + x] = q
        cols[x] |= 1 << y
        rows[y] |= 1 << x

    def is_checkerboard(self) -> bool:
        xy = self.coords
        return all((x + y) % 2 == 0 for x, y in zip(xy[0::2], xy[1::2]))

    def parity_members(self, parity: int) -> tuple[int, ...]:
        return tuple(q for q, x in enumerate(self.coords[0::2]) if x % 2 == parity)

    def __repr__(self):
        return f"Grid(n={self.n}, pos={self.pos})"


def ql_index(site) -> int:
    x, y = site
    return x - y


def site_barriers(site, n: int) -> set[Line]:
    """Interior barriers bordering a site (boundaries are always raised)."""
    x, y = site
    out = set()
    if x >= 1:
        out.add(Line("CL", x - 1))
    if x <= n - 2:
        out.add(Line("CL", x))
    if y >= 1:
        out.add(Line("RL", y - 1))
    if y <= n - 2:
        out.add(Line("RL", y))
    return out


def barrier_between(a, b) -> Line:
    """Barrier between two sites one column or one row apart (a move's
    origin and destination, or sqswap_sites)."""
    (ax, ay), (bx, by) = a, b
    return Line("CL", min(ax, bx)) if ay == by else Line("RL", min(ay, by))


def sqswap_sites(grid: Grid, a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Sites of sqswap(a, b); raises CrossbarError unless they are
    vertically adjacent."""
    sa, sb = grid.site_of(a), grid.site_of(b)
    if sa[0] != sb[0] or abs(sa[1] - sb[1]) != 1:
        raise CrossbarError(f"sqswap({a},{b}) needs vertically adjacent sites, got {sa}, {sb}")
    return sa, sb


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ql_pairs(grid: Grid, origin, dest, movers: dict[int, int]) -> set[tuple[int, int]]:
    """QL inequalities of a one-site move: the destination above the origin
    and, for a horizontal move, every stay-put qubit of the two affected
    columns above its empty site across the lowered barrier. A stay-put
    qubit of column x is occupied, empty across, and not one of `movers`
    (column -> row bits of the moving qubits' origins)."""
    pairs = {(ql_index(dest), ql_index(origin))}
    if origin[1] == dest[1]:
        cols = grid.cols
        for x, across in ((origin[0], dest[0]), (dest[0], origin[0])):
            for y in _bits(cols[x] & ~cols[across] & ~movers.get(x, 0)):
                pairs.add((x - y, across - y))
    return pairs


def _destination(grid: Grid, q: int, delta, name) -> tuple[int, int]:
    """Destination of a legal one-site move of q by `delta`, read from
    grid.coords and grid.cols; CrossbarError when it is off the grid or
    occupied, naming the move `name`: a string, or an InstrKind by its
    value, which is read only then (Enum.value is a Python-level property)."""
    i = 2 * q
    dx, dy = delta
    x, y = grid.coords[i] + dx, grid.coords[i + 1] + dy
    if 0 <= x < grid.n and 0 <= y < grid.n:
        if not grid.cols[x] >> y & 1:
            return x, y
        raise CrossbarError(f"{getattr(name, 'value', name)} destination {(x, y)} occupied")
    raise CrossbarError(f"{getattr(name, 'value', name)} moves qubit {q} off-grid to {(x, y)}")


def shuttle_requirements(grid: Grid, q: int, direction: str) -> SignalRequirements:
    """Requirements for a lone shuttle of q one site L/R/U/D: lower the
    barrier between origin and destination, raise every other barrier
    bordering either site, and the move's QL inequalities. An illegal move
    raises apply_op's CrossbarError."""
    origin, dest = grid.site_of(q), _destination(grid, q, DELTAS[direction], f"shuttle {direction}")
    lowered = barrier_between(origin, dest)
    raised = (site_barriers(origin, grid.n) | site_barriers(dest, grid.n)) - {lowered}
    ql_gt = _ql_pairs(grid, origin, dest, {origin[0]: 1 << origin[1]})
    return SignalRequirements(lowered, frozenset(raised), frozenset(ql_gt))


def _find_ql_cycle(pairs: Iterable[tuple[int, int]]) -> list[int] | None:
    """Return one cycle (as node list, first node repeated last) in the
    a->b digraph, or None. Adding a before each b keeps graphlib's search
    in first-occurrence order of nodes and of each node's successors, so
    the cycle named is the first a depth-first search meets."""
    sorter = TopologicalSorter()
    for a, b in pairs:
        sorter.add(a)
        sorter.add(b, a)
    try:
        sorter.prepare()
    except CycleError as e:
        return e.args[1]
    return None


def _shared_or_clashing(grid: Grid, ops, sites, moves: bool) -> ConflictReport | None:
    """The blocked paths and barrier clashes of a cycle of moves or of two
    or more sqswaps, whose qubits are distinct (Cycle's rule): two moves
    onto one site or one onto an occupied site (in index order), and a
    barrier one instruction lowers that borders another's sites, which
    raises it.

    The distinct-destination test never changes the verdict: two moves onto
    one site come from two different neighbours of it, so each lowers a
    barrier bordering the other's destination, and the barrier-clash test
    would refuse the cycle anyway. It is kept for its report, which names
    the real fault, BLOCKED_PATH "two instructions target ...", rather than
    a BARRIER_CLASH; test_check_gives_the_reference_report pins it."""
    if moves:
        seen_dest: dict[tuple[int, int], int] = {}
        for i, (_, dest) in enumerate(sites):
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
    # each lowered barrier as (column barrier?, index): CL_k or RL_k
    lowered = [(y0 == y1, min(x0, x1) if y0 == y1 else min(y0, y1)) for (x0, y0), (x1, y1) in sites]
    for i, line in enumerate(lowered):
        cl, k = line
        for j, ((ax, ay), (bx, by)) in enumerate(sites):
            # the coordinate across the barrier of each of j's sites
            a, b = (ax, bx) if cl else (ay, by)
            if line != lowered[j] and (k <= a <= k + 1 or k <= b <= k + 1):
                return ConflictReport(
                    kind=ConflictKind.BARRIER_CLASH,
                    culprits=(i, j),
                    detail=f"[{Line('CL' if cl else 'RL', k)}] lowered by one instruction, raised by another",
                )
    return None


def check_parallel_set(grid: Grid, cycle: Cycle) -> ConflictReport:
    """Can this cycle's instructions run in parallel on this grid?

    The cycle holds one instruction family and names each qubit in at most
    one instruction (Cycle's rule): a lone semi-global pulse, which is
    always LEGAL, moves (the shuttles of one cycle family, or the phase
    shuttles of the other) or sqswaps. Intended movers contribute mover
    constraints; only non-movers contribute stay-put constraints. Conflicts
    are classified as BLOCKED_PATH, BARRIER_CLASH, UNWANTED_INTERACTION or
    QL_CONTRADICTION (checked in that order).

    This is the fallback judge: mapper._checked and replay_verify offer
    every cycle to step_legal first, and on compiled schedules only lone
    pulses and lone sqswaps reach it
    (test_only_lone_pulses_and_sqswaps_reach_the_fallback), so it is
    written to name the conflict rather than to be fast. A lone pulse or
    sqswap costs O(1) integer operations. A cycle of
    moves or of two or more sqswaps adds the O(instructions^2) pairwise
    checks of _shared_or_clashing, and a cycle of moves lists each move's
    QL pairs (_ql_pairs) and merges them; _find_ql_cycle names a cycle in
    the merged set, or finds none and the cycle is LEGAL. A move's sites
    are read from grid.coords, and the occupied pairs across a lowered
    barrier from the grid's column and row masks.
    """
    ops = cycle.ops
    kind = ops[0].kind
    if kind.family is _XY_ROT:  # a lone pulse (Cycle's rule)
        return LEGAL
    moves = kind.moves  # otherwise every instruction is a sqswap
    n, xy, cols, rows = grid.n, grid.coords, grid.cols, grid.rows

    # each instruction's two sites: a move's origin and destination, or the
    # sites of a sqswap's two qubits
    sites: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for i, op in enumerate(ops):
        if moves:
            q = op.qubits[0]
            x, y = xy[2 * q], xy[2 * q + 1]
            dx, dy = op.kind.delta
            if not (0 <= x + dx < n and 0 <= y + dy < n):
                return ConflictReport(
                    kind=ConflictKind.BLOCKED_PATH,
                    culprits=(i,),
                    detail=f"qubit {q} shuttled off-grid from {(x, y)}",
                )
            sites.append(((x, y), (x + dx, y + dy)))
        else:
            try:
                sites.append(sqswap_sites(grid, op.qubits[0], op.qubits[1]))
            except CrossbarError as e:
                return ConflictReport(ConflictKind.BLOCKED_PATH, culprits=(i,), detail=str(e))

    # blocked paths and barrier clashes: instruction j raises every barrier
    # bordering its two sites except the one it lowers; a lone sqswap has
    # neither
    if moves or len(ops) > 1:
        report = _shared_or_clashing(grid, ops, sites, moves)
        if report is not None:
            return report

    # unwanted interactions: the barrier an instruction lowers runs the
    # whole line, so an occupied pair across it elsewhere couples those
    # qubits regardless of QL relations
    for i, ((x0, y0), (x1, y1)) in enumerate(sites):
        if y0 == y1:  # horizontal shuttle, CL_k lowered: other rows
            k, family, where = min(x0, x1), "CL", "row"
            hits = cols[k] & cols[k + 1] & ~(1 << y0)
        else:  # vertical shuttle or sqswap, RL_k lowered: other columns
            k, family, where = min(y0, y1), "RL", "column"
            hits = rows[k] & rows[k + 1] & ~(1 << x0)
        if hits:
            return ConflictReport(
                kind=ConflictKind.UNWANTED_INTERACTION,
                culprits=(i,),
                detail=f"{family}_{k} lowered while {where} {next(_bits(hits))} holds an occupied pair",
            )

    if not moves:  # a sqswap holds its two QL lines equal: no inequality
        return LEGAL

    movers: dict[int, int] = {}
    for (x, y), _ in sites:
        movers[x] = movers.get(x, 0) | 1 << y
    # merged inequality set: instruction by instruction, each one's pairs
    # sorted, first occurrence kept, so the reported cycle is deterministic
    ql_gt = [_ql_pairs(grid, origin, dest, movers) for origin, dest in sites]
    ql_cycle = _find_ql_cycle(dict.fromkeys(p for pairs in ql_gt for p in sorted(pairs)))
    if ql_cycle is None:
        return LEGAL
    edges = set(zip(ql_cycle, ql_cycle[1:]))
    return ConflictReport(
        kind=ConflictKind.QL_CONTRADICTION,
        culprits=tuple(i for i, pairs in enumerate(ql_gt) if pairs & edges),
        detail="QL inequality cycle " + " > ".join(f"QL_{v}" for v in ql_cycle),
    )


def apply_op(grid: Grid, op: Instruction) -> None:
    """Advance the grid in place by one instruction; the one check that a
    move stays on the grid and lands on an empty site (_destination, which
    reads grid.coords and grid.cols), then one Grid.move. A failed check
    raises CrossbarError and leaves the grid unchanged."""
    kind = op.kind
    if kind.moves:
        q = op.qubits[0]
        grid.move(q, _destination(grid, q, kind.delta, kind))
    elif kind is _SQSWAP:
        sqswap_sites(grid, *op.qubits)
    # sqswap and semi-global rotations leave positions unchanged


def apply_cycle(grid: Grid, cycle: Cycle) -> None:
    """Apply a cycle that check_parallel_set judged LEGAL on this grid:
    apply_op on each instruction in order, then close the cycle in
    grid.trajectory: the (q, x, y) of each mover after the cycle, in
    ascending q, then CYCLE_END. A cycle names each mover once (Cycle's
    rule), so every mover changed its site. On compiled schedules every
    cycle that reaches it is a lone pulse or a lone sqswap, which logs
    CYCLE_END alone.

    LEGAL means every destination is on the grid, empty and distinct from
    the others, and every sqswap's two sites are adjacent, so each apply_op
    succeeds in turn. Both callers meet the precondition: mapper._checked
    raises CompileError on a refused cycle and replay_verify reports it,
    and neither applies it."""
    ops = cycle.ops
    for op in ops:
        apply_op(grid, op)
    if ops[0].kind.moves:  # only moves change sites; a lone pulse or sqswap builds no generator
        for q in sorted(op.qubits[0] for op in ops):
            grid.trajectory.extend((q, *grid.site_of(q)))
    grid.trajectory.append(CYCLE_END)


def step_legal(grid: Grid, cycle: Cycle) -> bool:
    """Apply a lone move or an exchange that check_parallel_set judges
    legal, in one pass: Grid.move to the sites the judgement computed, then
    the movers' (q, x, y) in ascending q and CYCLE_END in grid.trajectory,
    as apply_cycle would log them. An exchange is a pair of moves whose
    second mover steps back across the barrier the first one crosses: it
    starts on the first's destination column (or row) and moves by the
    opposite delta. False, with the grid untouched, for a pulse, a sqswap,
    any other cycle of moves or a conflict; check_parallel_set and
    apply_cycle report and apply those. On compiled schedules every cycle
    of two moves is an exchange, so it takes every move cycle, most of
    each schedule.

    The verdict is check_parallel_set's, from two integer tests on the
    first move: its destination lies on the grid, and no row (for a CL) or
    column (for an RL) holds an occupied pair across the barrier it lowers.
    Every move of a lone move or an exchange lowers that one barrier. A row
    (column) across it with both sites occupied is a mover's occupied
    destination or an unwanted interaction, which the second test refuses;
    any other row holds at most one qubit at the barrier, so every mover
    lands on an empty site and the row adds at most one QL inequality, from
    its mover or its stay-put qubit, on its own diagonal edge. Distinct rows
    give distinct edges, so no edge runs both ways and the merged path
    digraph has no cycle. The exchange's second move starts across the
    barrier from the first's origin line and lands on the site across it
    from its own origin, so it is on the grid, off the first's destination
    and clashes with no barrier.
    """
    ops = cycle.ops
    if len(ops) > 2 or not ops[0].kind.moves:
        return False
    n, xy, cols, rows = grid.n, grid.coords, grid.cols, grid.rows
    a = ops[0]
    q = a.qubits[0]
    x, y = xy[2 * q], xy[2 * q + 1]
    dx, dy = a.kind.delta
    u, v = x + dx, y + dy
    if not (0 <= u < n and 0 <= v < n) or ((cols[x] & cols[u]) if dx else (rows[y] & rows[v])):
        return False
    if len(ops) == 1:
        grid.move(q, (u, v))
        grid.trajectory.extend((q, u, v, CYCLE_END))
        return True
    b = ops[1]
    p = b.qubits[0]
    s, t = xy[2 * p], xy[2 * p + 1]
    ex, ey = b.kind.delta
    if ex != -dx or ey != -dy or (s != u if dx else t != v):
        return False
    w, z = s + ex, t + ey
    grid.move(q, (u, v))
    grid.move(p, (w, z))
    grid.trajectory.extend((q, u, v, p, w, z, CYCLE_END) if q < p else (p, w, z, q, u, v, CYCLE_END))
    return True

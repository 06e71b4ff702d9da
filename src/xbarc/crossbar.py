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
check_parallel_set reads a line's occupancy in one integer operation: the
stay-put qubits of a column are cols[x] & ~cols[across], an occupied pair
across a lowered row barrier is rows[k] & rows[k + 1], and the QL pairs of a
whole cycle fold into two masks, one per direction along the path.

instructions.check_placement checks a placement when a Schedule is made
or schedule_integrated starts, Cycle keeps every cycle to one instruction
family, and apply_op checks each move it applies; Grid trusts all three.
check_parallel_set trusts the first two but judges a cycle before any of
it is applied, so it checks the moves itself: an off-grid or occupied
destination is a BLOCKED_PATH conflict, as are two moves of one qubit or
two moves onto one site.

A Grid is mutable and apply_op/apply_cycle advance it in place, O(1) per
move, returning None. apply_cycle is the one place a cycle is applied: it
undoes a cycle that fails partway and adds the occupancy after every cycle
to the grid's own TrajectoryDigest, `grid.trajectory`.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, NamedTuple

from .errors import CrossbarError
from .instructions import (
    DELTAS, Cycle, CycleType, Instruction, InstrKind, TrajectoryDigest, coord_buffer, grid_side,
)


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

    `coords` holds every qubit's (x, y) as one flat uint32 buffer, x0, y0,
    x1, y1, ..., next to a site -> qubit map and two occupancy bitmask lists:
    cols[x] has bit y set and rows[y] has bit x set when (x, y) holds a
    qubit. move updates all four in place in O(1), so apply_cycle's undo,
    which moves qubits back, restores them too. `trajectory` starts empty
    and apply_cycle adds the occupancy after every cycle to it. Whoever
    advances a grid owns it: schedule_integrated, replay_verify,
    simulate_schedule and metrics.esp each build their own from a
    placement, and the routing entry points (route_two_qubit, z_route,
    expand_semi_global) advance the grid they are given. Grid checks and
    converts nothing: its placement, a tuple of (x, y) tuples, comes from a
    checked Schedule, from schedule_integrated's check_placement or from the
    checkerboard, and every move from apply_op.
    """

    __slots__ = ("n", "coords", "cols", "rows", "_site_map", "trajectory")

    def __init__(self, n: int, pos: tuple[tuple[int, int], ...]):
        self.n = n
        self.coords = coord_buffer(pos)
        self._site_map = {site: q for q, site in enumerate(pos)}
        self.cols = [0] * n
        self.rows = [0] * n
        for x, y in pos:
            self.cols[x] |= 1 << y
            self.rows[y] |= 1 << x
        self.trajectory = TrajectoryDigest()

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
        return self._site_map.get(site)

    def occupied(self, site) -> bool:
        return site in self._site_map

    def in_grid(self, site) -> bool:
        x, y = site
        return 0 <= x < self.n and 0 <= y < self.n

    def move(self, q: int, site: tuple[int, int]) -> None:
        """Put q on `site` in place, unchecked: apply_op checked the move, or
        apply_cycle is undoing one."""
        i = 2 * q
        xy = self.coords
        x, y = xy[i], xy[i + 1]
        del self._site_map[x, y]
        self.cols[x] ^= 1 << y
        self.rows[y] ^= 1 << x
        x, y = site
        xy[i], xy[i + 1] = site
        self._site_map[site] = q
        self.cols[x] |= 1 << y
        self.rows[y] |= 1 << x

    def is_checkerboard(self) -> bool:
        xy = self.coords
        return all((x + y) % 2 == 0 for x, y in zip(xy[0::2], xy[1::2]))

    def column_parity(self, q: int) -> int:
        return self.coords[2 * q] % 2

    def parity_members(self, parity: int) -> tuple[int, ...]:
        return tuple(q for q, x in enumerate(self.coords[0::2]) if x % 2 == parity)

    def __repr__(self):
        return f"Grid(n={self.n}, pos={self.pos})"


def checkerboard_sites(n: int):
    """Checkerboard sites in left-to-right, bottom-to-top order."""
    for y in range(n):
        for x in range(n):
            if (x + y) % 2 == 0:
                yield (x, y)


def grid_for(n_qubits: int) -> Grid:
    """Smallest grid whose checkerboard holds n_qubits (side grid_side),
    with qubit i on the i-th checkerboard site in left-to-right,
    bottom-to-top order."""
    n = grid_side(n_qubits)
    return Grid(n, tuple(islice(checkerboard_sites(n), n_qubits)))


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


def move_sites(grid: Grid, q: int, delta) -> tuple[tuple[int, int], tuple[int, int]]:
    """Origin and destination of a one-site move of q by `delta` (the
    destination may lie off the grid)."""
    x, y = grid.site_of(q)
    dx, dy = delta
    return (x, y), (x + dx, y + dy)


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


def _stay_put(grid: Grid, x: int, across: int, movers: dict[int, int]) -> int:
    """Row bits of the qubits in column x that must stay put while the
    barrier to column `across` is lowered: occupied, empty across, and not
    one of `movers` (column -> row bits of the moving qubits' origins).
    The one home of the stay-put rule: check_parallel_set shifts the mask
    into its QL masks, _ql_pairs lists it as pairs."""
    return grid.cols[x] & ~grid.cols[across] & ~movers.get(x, 0)


def _ql_pairs(grid: Grid, origin, dest, movers: dict[int, int]) -> set[tuple[int, int]]:
    """QL inequalities of a one-site move: the destination above the origin
    and, for a horizontal move, every stay-put qubit of the two affected
    columns above its empty site across the lowered barrier."""
    pairs = {(ql_index(dest), ql_index(origin))}
    if origin[1] == dest[1]:
        for x, across in ((origin[0], dest[0]), (dest[0], origin[0])):
            for y in _bits(_stay_put(grid, x, across, movers)):
                pairs.add((x - y, across - y))
    return pairs


def _legal_move(grid: Grid, q: int, delta, name: str):
    """move_sites of a legal move; CrossbarError, naming the move `name`,
    when the destination is off the grid or occupied."""
    origin, dest = move_sites(grid, q, delta)
    if not grid.in_grid(dest):
        raise CrossbarError(f"{name} moves qubit {q} off-grid to {dest}")
    if grid.occupied(dest):
        raise CrossbarError(f"{name} destination {dest} occupied")
    return origin, dest


def shuttle_requirements(grid: Grid, q: int, direction: str) -> SignalRequirements:
    """Requirements for a lone shuttle of q one site L/R/U/D: lower the
    barrier between origin and destination, raise every other barrier
    bordering either site, and the move's QL inequalities. An illegal move
    raises apply_op's CrossbarError."""
    origin, dest = _legal_move(grid, q, DELTAS[direction], f"shuttle {direction}")
    lowered = barrier_between(origin, dest)
    raised = (site_barriers(origin, grid.n) | site_barriers(dest, grid.n)) - {lowered}
    ql_gt = _ql_pairs(grid, origin, dest, {origin[0]: 1 << origin[1]})
    return SignalRequirements(lowered, frozenset(raised), frozenset(ql_gt))


def _borders(line: Line, site) -> bool:
    """Does the interior barrier `line` border `site`?"""
    c = site[0] if line.family == "CL" else site[1]
    return line.index <= c <= line.index + 1


def _find_ql_cycle(pairs: Iterable[tuple[int, int]]) -> list[int] | None:
    """Return one cycle (as node list) in the a->b digraph, or None."""
    adj: dict[int, list[int]] = {}
    for a, b in pairs:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in adj}
    parent: dict[int, int] = {}
    for root in adj:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(adj[root]))]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
                if color[nxt] == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
        # exhausted component
    return None


def check_parallel_set(grid: Grid, cycle: Cycle) -> ConflictReport:
    """Can this cycle's instructions run in parallel on this grid?

    The cycle holds one instruction family (Cycle's rule): semi-global
    pulses, moves (shuttles, zsh, zsh_ret) or sqswaps. Intended movers
    contribute mover constraints; only non-movers contribute stay-put
    constraints. Conflicts are classified as BLOCKED_PATH, BARRIER_CLASH,
    UNWANTED_INTERACTION or QL_CONTRADICTION (checked in that order).

    A call costs O(instructions + stay-put qubits) integer operations and
    builds no per-instruction line sets. Barriers are compared from the
    instructions' sites, occupied pairs across a lowered barrier are read
    from the grid's row and column masks, and the QL pairs are folded into
    two masks in which bit n-1-k stands for the QL_k - QL_k+1 edge: `up`
    when QL_k+1 must sit above QL_k, `down` when below. Every pair joins
    adjacent diagonals, so the merged digraph is a subgraph of a path and
    has a cycle exactly when up & down != 0. Only then are the pairs listed
    and _find_ql_cycle run, to name the cycle and the instructions in it.
    """
    ops = cycle.ops
    if cycle.type in (CycleType.XY_ROT, CycleType.XY_ROT_INV):  # semi-global pulses
        # one family is one kind (sg_rot or sg_rot_inv), so the kind is not compared
        distinct = {(op.axis, op.angle, op.parity) for op in ops}
        if len(distinct) > 1:
            return ConflictReport(
                kind=ConflictKind.BARRIER_CLASH,
                culprits=tuple(range(len(ops))),
                detail="conflicting semi-global drives on the shared column lines",
            )
        return LEGAL
    moves = ops[0].kind.moves  # otherwise every instruction is a sqswap

    # each instruction's two sites: a move's origin and destination, or the
    # sites of a sqswap's two qubits
    sites: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for i, op in enumerate(ops):
        if moves:
            origin, dest = move_sites(grid, op.qubits[0], op.move_delta())
            if not grid.in_grid(dest):
                return ConflictReport(
                    kind=ConflictKind.BLOCKED_PATH,
                    culprits=(i,),
                    detail=f"qubit {op.qubits[0]} shuttled off-grid from {origin}",
                )
            sites.append((origin, dest))
        else:
            try:
                sites.append(sqswap_sites(grid, op.qubits[0], op.qubits[1]))
            except CrossbarError as e:
                return ConflictReport(ConflictKind.BLOCKED_PATH, culprits=(i,), detail=str(e))

    # blocked paths: duplicate movers, shared destinations, occupied destinations
    if moves:
        seen_mover: dict[int, int] = {}
        for i, op in enumerate(ops):
            q = op.qubits[0]
            if seen_mover.setdefault(q, i) != i:
                return ConflictReport(
                    kind=ConflictKind.BLOCKED_PATH,
                    culprits=(seen_mover[q], i),
                    detail=f"qubit {q} moved by two instructions",
                )
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

    # barrier clashes: instruction j raises every barrier bordering its two
    # sites except the one it lowers
    lowered = [barrier_between(a, b) for a, b in sites]
    for i, line in enumerate(lowered):
        for j, (a, b) in enumerate(sites):
            if line != lowered[j] and (_borders(line, a) or _borders(line, b)):
                return ConflictReport(
                    kind=ConflictKind.BARRIER_CLASH,
                    culprits=(i, j),
                    detail=f"[{line}] lowered by one instruction, raised by another",
                )

    # unwanted interactions: the barrier an instruction lowers runs the
    # whole line, so an occupied pair across it elsewhere couples those
    # qubits regardless of QL relations
    for i, (((x, y), _), line) in enumerate(zip(sites, lowered)):
        k = line.index
        if line.family == "RL":  # vertical shuttle or sqswap: other columns
            hits, where = grid.rows[k] & grid.rows[k + 1] & ~(1 << x), "column"
        else:  # horizontal shuttle: other rows
            hits, where = grid.cols[k] & grid.cols[k + 1] & ~(1 << y), "row"
        if hits:
            return ConflictReport(
                kind=ConflictKind.UNWANTED_INTERACTION,
                culprits=(i,),
                detail=f"{line} lowered while {where} {next(_bits(hits))} holds an occupied pair",
            )

    if not moves:  # a sqswap holds its two QL lines equal: no inequality
        return LEGAL

    movers: dict[int, int] = {}
    for (x, y), _ in sites:
        movers[x] = movers.get(x, 0) | 1 << y
    n = grid.n
    up = down = 0
    for (x0, y0), (x1, y1) in sites:
        dest_ql, origin_ql = x1 - y1, x0 - y0
        if dest_ql > origin_ql:
            up |= 1 << (n - 1 - origin_ql)
        else:
            down |= 1 << (n - 1 - dest_ql)
        if y0 == y1:
            # row bit y of either column stands for the QL_(left-y) edge,
            # bit n-1-left+y of the QL masks
            left = min(x0, x1)
            down |= _stay_put(grid, left, left + 1, movers) << (n - 1 - left)
            up |= _stay_put(grid, left + 1, left, movers) << (n - 1 - left)
    if not up & down:
        return LEGAL

    # merged inequality set: instruction by instruction, each one's pairs
    # sorted, first occurrence kept, so the reported cycle is deterministic
    ql_gt = [_ql_pairs(grid, origin, dest, movers) for origin, dest in sites]
    ql_cycle = _find_ql_cycle(dict.fromkeys(p for pairs in ql_gt for p in sorted(pairs)))
    edges = set(zip(ql_cycle, ql_cycle[1:]))
    return ConflictReport(
        kind=ConflictKind.QL_CONTRADICTION,
        culprits=tuple(i for i, pairs in enumerate(ql_gt) if pairs & edges),
        detail="QL inequality cycle " + " > ".join(f"QL_{v}" for v in ql_cycle),
    )


def apply_op(grid: Grid, op: Instruction) -> None:
    """Advance the grid in place by one instruction; the one check that a
    move stays on the grid and lands on an empty site. A failed check
    raises CrossbarError and leaves the grid unchanged."""
    if op.kind.moves:
        q = op.qubits[0]
        _, dest = _legal_move(grid, q, op.move_delta(), op.kind.value)
        grid.move(q, dest)
    elif op.kind is InstrKind.SQSWAP:
        sqswap_sites(grid, *op.qubits)
    # sqswap and semi-global rotations leave positions unchanged


def apply_cycle(grid: Grid, cycle: Cycle) -> None:
    """apply_op on each instruction in order, then add the occupancy to
    grid.trajectory. A CrossbarError partway undoes the moves before it in
    reverse order (a move's origin is empty once every later move is
    undone) and is re-raised, so the digest records the occupancy from
    before the cycle."""
    ops = cycle.ops
    try:
        for i, op in enumerate(ops):
            apply_op(grid, op)
    except CrossbarError:
        for op in reversed(ops[:i]):
            if op.kind.moves:
                q = op.qubits[0]
                (x, y), (dx, dy) = grid.site_of(q), op.move_delta()
                grid.move(q, (x - dx, y - dy))
        raise
    finally:
        grid.trajectory.add(grid.coords)

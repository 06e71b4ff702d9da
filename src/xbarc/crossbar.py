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
is satisfiable exactly when the merged digraph is acyclic.

Each rule has one owner: instructions.check_placement checks a placement
when a Schedule is made or schedule_integrated starts, Cycle keeps every
cycle to one instruction family, apply_op checks each move, and Grid and
check_parallel_set trust all three.

A Grid is mutable and apply_op/apply_cycle advance it in place, O(1) per
move, returning None. Whoever advances a grid owns it; code that must not
disturb its caller's grid works on a Grid.copy() (see Grid).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import islice
from typing import Iterable, NamedTuple

from .errors import CrossbarError
from .instructions import (
    DELTAS, MOVE_KINDS, SG_KINDS, Cycle, Instruction, InstrKind, coord_buffer, grid_side,
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


@dataclass(frozen=True)
class SignalRequirements:
    lowered: Line  # the one barrier an instruction opens
    raised: frozenset[Line]  # every other barrier bordering its two sites
    ql_gt: frozenset[tuple[int, int]]  # (a, b) means voltage(QL_a) > voltage(QL_b)


class Grid:
    """Mutable qubit -> site bijection on an N x N array.

    `coords` holds every qubit's (x, y) as one flat uint32 buffer, x0, y0,
    x1, y1, ..., next to a site -> qubit map; move updates both in place in
    O(1). Whoever advances a grid owns it: schedule_integrated, replay_verify,
    simulate_schedule and metrics.esp each build or copy their own, and the
    routing entry points (route_two_qubit, z_route, expand_semi_global)
    copy the caller's grid once per gate and leave it unchanged. Grid
    checks and converts nothing: its placement, a tuple of (x, y) tuples,
    comes from a checked Schedule, from schedule_integrated's
    check_placement or from the checkerboard, and every move from apply_op.
    """

    __slots__ = ("n", "coords", "_site_map")

    def __init__(self, n: int, pos: tuple[tuple[int, int], ...]):
        self.n = n
        self.coords = coord_buffer(pos)
        self._site_map = {site: q for q, site in enumerate(pos)}

    def copy(self) -> "Grid":
        """An independent grid at the same occupancy (O(n_qubits))."""
        other = Grid.__new__(Grid)
        other.n = self.n
        other.coords = self.coords[:]
        other._site_map = self._site_map.copy()
        return other

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
        replay_verify is undoing one."""
        i = 2 * q
        xy = self.coords
        del self._site_map[xy[i], xy[i + 1]]
        xy[i], xy[i + 1] = site
        self._site_map[site] = q

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


def _barrier_signals(grid: Grid, a, b, ql_gt=frozenset()) -> SignalRequirements:
    """Lower the barrier between adjacent sites a and b and raise every
    other barrier bordering either site."""
    lowered = barrier_between(a, b)
    raised = (site_barriers(a, grid.n) | site_barriers(b, grid.n)) - {lowered}
    return SignalRequirements(lowered, frozenset(raised), frozenset(ql_gt))


def _shuttle_signals(grid: Grid, origin, dest, movers: frozenset[int]) -> SignalRequirements:
    """Signal requirements for a one-site move from origin to dest; stay-put
    constraints are emitted only for qubits outside `movers`."""
    ql_gt = {(ql_index(dest), ql_index(origin))}
    if origin[1] == dest[1]:
        # horizontal move: bias every other qubit in the two affected
        # columns above its empty neighbour across the lowered barrier
        for x, across_x in ((origin[0], dest[0]), (dest[0], origin[0])):
            for y in range(grid.n):
                other = grid.qubit_at((x, y))
                if other is not None and other not in movers and not grid.occupied((across_x, y)):
                    ql_gt.add((ql_index((x, y)), ql_index((across_x, y))))
    return _barrier_signals(grid, origin, dest, ql_gt)


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
    """Requirements for a lone shuttle of q one site L/R/U/D; an illegal
    move raises apply_op's CrossbarError."""
    origin, dest = _legal_move(grid, q, DELTAS[direction], f"shuttle {direction}")
    return _shuttle_signals(grid, origin, dest, frozenset({q}))


def _sqswap_signals(grid: Grid, a: int, b: int) -> SignalRequirements:
    # the two QL lines must sit at equal potential; equality adds no
    # ordering constraint to the inequality digraph
    return _barrier_signals(grid, *sqswap_sites(grid, a, b))


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

    The cycle holds one instruction family (Cycle's rule), so it is
    semi-global iff its first instruction is. Intended movers contribute
    mover constraints; only non-movers contribute stay-put constraints.
    Conflicts are classified as BLOCKED_PATH, BARRIER_CLASH,
    UNWANTED_INTERACTION or QL_CONTRADICTION (checked in that order).
    """
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

    # per-instruction signal requirements
    reqs: list[SignalRequirements] = []
    dests: dict[int, tuple[int, int]] = {}
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
            reqs.append(_shuttle_signals(grid, origin, dest, movers))
        else:  # sqswap, the one kind left in a non-semi-global cycle
            try:
                reqs.append(_sqswap_signals(grid, op.qubits[0], op.qubits[1]))
            except CrossbarError as e:
                return ConflictReport(ConflictKind.BLOCKED_PATH, culprits=(i,), detail=str(e))

    # blocked paths: duplicate movers, shared destinations, occupied destinations
    # (dests lists the movers in instruction order)
    seen_mover: dict[int, int] = {}
    for i in dests:
        q = ops[i].qubits[0]
        if seen_mover.setdefault(q, i) != i:
            return ConflictReport(
                kind=ConflictKind.BLOCKED_PATH,
                culprits=(seen_mover[q], i),
                detail=f"qubit {q} moved by two instructions",
            )
    seen_dest: dict[tuple[int, int], int] = {}
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

    # barrier clashes between lowered and raised sets
    for i, ri in enumerate(reqs):
        for j, rj in enumerate(reqs):
            if i != j and ri.lowered in rj.raised:
                return ConflictReport(
                    kind=ConflictKind.BARRIER_CLASH,
                    culprits=(i, j),
                    detail=f"[{ri.lowered}] lowered by one instruction, raised by another",
                )

    # unwanted interactions: the barrier an instruction lowers runs the
    # whole line, so an occupied pair across it elsewhere couples those
    # qubits regardless of QL relations
    occupied = grid.occupied
    for i, (op, req) in enumerate(zip(ops, reqs)):
        line = req.lowered
        x, y = grid.site_of(op.qubits[0])
        k = line.index
        if line.family == "RL":  # vertical shuttle or sqswap: other columns
            hits = (m for m in range(grid.n) if m != x and occupied((m, k)) and occupied((m, k + 1)))
            where = "column"
        else:  # horizontal shuttle: other rows
            hits = (m for m in range(grid.n) if m != y and occupied((k, m)) and occupied((k + 1, m)))
            where = "row"
        hit = next(hits, None)
        if hit is not None:
            return ConflictReport(
                kind=ConflictKind.UNWANTED_INTERACTION,
                culprits=(i,),
                detail=f"{line} lowered while {where} {hit} holds an occupied pair",
            )

    # merged inequality set: instruction by instruction, each one's pairs
    # sorted, first occurrence kept, so the reported cycle is deterministic
    cycle = _find_ql_cycle(dict.fromkeys(p for r in reqs for p in sorted(r.ql_gt)))
    if cycle is not None:
        edges = set(zip(cycle, cycle[1:]))
        return ConflictReport(
            kind=ConflictKind.QL_CONTRADICTION,
            culprits=tuple(i for i, r in enumerate(reqs) if r.ql_gt & edges),
            detail="QL inequality cycle " + " > ".join(f"QL_{v}" for v in cycle),
        )

    return ConflictReport()


def apply_op(grid: Grid, op: Instruction) -> None:
    """Advance the grid in place by one instruction; the one check that a
    move stays on the grid and lands on an empty site. A failed check
    raises CrossbarError and leaves the grid unchanged."""
    if op.kind in MOVE_KINDS:
        q = op.qubits[0]
        _, dest = _legal_move(grid, q, op.move_delta(), op.kind.value)
        grid.move(q, dest)
    elif op.kind is InstrKind.SQSWAP:
        sqswap_sites(grid, *op.qubits)
    # sqswap and semi-global rotations leave positions unchanged


def apply_cycle(grid: Grid, cycle: Cycle) -> None:
    """apply_op on each instruction in order; a CrossbarError partway
    leaves the moves before it applied."""
    for op in cycle.ops:
        apply_op(grid, op)

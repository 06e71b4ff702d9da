"""The verify path's hot functions against the earlier implementations.

The functions prefixed _reference_ are copied unchanged from the versions
before the crossbar check and apply, the document loader and the rotation
fold were rewritten for speed: check_parallel_set (with _legal_move,
_borders, move_sites and _stay_put, since removed), apply_op, the
object-row document writer and loader (schedule_to_doc and instruction_to_dict;
instruction_from_dict with _circuit_from_doc, _cycle_from_doc and
schedule_from_doc, and the FIELDS table and circuit functions they read),
and RotationFold.rotate, which multiplied numpy 2x2s. The rewrites must give the same output on every
input below: the same conflict report, the same grid or CrossbarError
message, and the same folded state.

_reference_paired_check_parallel_set and _reference_pairwise_clear are the
conflict check as it stood before crossbar.step_legal judged and applied
cycles of moves in one pass. step_legal takes a lone move or an exchange
(two moves, the second stepping back across the barrier the first one
crosses): it must never apply a cycle that check judges illegal, must
apply every legal lone move and exchange, leaving the grid and its log as
apply_cycle leaves them, and must leave both untouched when it declines;
step_legal, or else check_parallel_set and apply_cycle, must leave the
grid the reference check and apply leave. check_parallel_set, which now
judges QL conflicts from the pair sets it lists for its report, must give
the reference's report on every cycle.

The document loader now reads positional rows, so it is compared with the
reference on the object form of each input: _objects writes every row as
the object the reference reads, and _rows, the other way, turns the
reference writer's documents into rows, which must be what schedule_to_doc
writes. On every input the rows loader accepts exactly when the reference
accepts the object form, and then builds an equal Schedule. The loader
builds a row of one source gate, the only shape compiled documents hold,
inline, and every other row by its general path, _instruction_from_row,
which must build what the inline path and the reference build.
"""
import copy
import json
import math
import random
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import compile_native, moves_digest
from test_cli import MALFORMED_DOCUMENTS, MALFORMED_IDS
from test_crossbar import grid_state, grids_and_cycles, report_tuple
from test_golden import CORPUS
from xbarc import BenchSpec, gen_random_uniform, instructions
from xbarc.cli import main
from xbarc.circuits import NATIVE_KINDS, Circuit, Gate, GateKind, is_finite_real, is_int
from xbarc.crossbar import (
    _XY_ROT,
    LEGAL,
    ConflictKind,
    ConflictReport,
    Grid,
    Line,
    _bits,
    _find_ql_cycle,
    _ql_pairs,
    _shared_or_clashing,
    apply_cycle,
    apply_op,
    barrier_between,
    check_parallel_set,
    sqswap_sites,
    step_legal,
)
from xbarc.errors import CrossbarError, XbarcError
from xbarc.instructions import (
    Cycle,
    CycleType,
    Instruction,
    InstrKind,
    Schedule,
    _cycle_from_doc,
    _instruction_from_row,
    _string,
    _typed,
    grid_side,
    schedule_from_doc,
    schedule_to_doc,
)
from xbarc.sim import SQSWAP_MATRIX, RotationFold, rx_2x2, ry_2x2, rz_2x2


def move_sites(grid: Grid, q: int, delta):
    """Origin and destination of a one-site move of q by `delta` (the
    destination may lie off the grid), as the library once computed them."""
    x, y = grid.site_of(q)
    dx, dy = delta
    return (x, y), (x + dx, y + dy)


def _reference_legal_move(grid: Grid, q: int, delta, name):
    """move_sites of a legal move; CrossbarError when the destination is off
    the grid or occupied, naming the move `name`: a string, or an InstrKind
    by its value, which is read only then (Enum.value is a Python-level
    property)."""
    origin, dest = move_sites(grid, q, delta)
    if grid.in_grid(dest) and not grid.occupied(dest):
        return origin, dest
    name = getattr(name, "value", name)
    if not grid.in_grid(dest):
        raise CrossbarError(f"{name} moves qubit {q} off-grid to {dest}")
    raise CrossbarError(f"{name} destination {dest} occupied")


def _reference_borders(line: Line, site) -> bool:
    """Does the interior barrier `line` border `site`?"""
    c = site[0] if line.family == "CL" else site[1]
    return line.index <= c <= line.index + 1


def _reference_stay_put(grid: Grid, x: int, across: int, movers: dict[int, int]) -> int:
    """Row bits of the qubits in column x that must stay put while the
    barrier to column `across` is lowered: occupied, empty across, and not
    one of `movers` (column -> row bits of the moving qubits' origins).
    _ql_clash shifts the mask into its QL masks and _ql_pairs lists it as
    pairs; _legal_step folds the same mask inline for a pair of moves."""
    return grid.cols[x] & ~grid.cols[across] & ~movers.get(x, 0)


def _reference_check_parallel_set(grid: Grid, cycle: Cycle) -> ConflictReport:
    """Can this cycle's instructions run in parallel on this grid?

    The cycle holds one instruction family (Cycle's rule): semi-global
    pulses, moves (the shuttles of one cycle family, or the phase shuttles
    of the other) or sqswaps. Intended movers
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
    if cycle.type is CycleType.XY_ROT:  # semi-global pulses
        # the family is the one kind sg_rot, so the kind is not compared
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
            origin, dest = move_sites(grid, op.qubits[0], op.kind.delta)
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
            if line != lowered[j] and (_reference_borders(line, a) or _reference_borders(line, b)):
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
            down |= _reference_stay_put(grid, left, left + 1, movers) << (n - 1 - left)
            up |= _reference_stay_put(grid, left + 1, left, movers) << (n - 1 - left)
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


def _reference_apply_op(grid: Grid, op: Instruction) -> None:
    """Advance the grid in place by one instruction; the one check that a
    move stays on the grid and lands on an empty site. A failed check
    raises CrossbarError and leaves the grid unchanged."""
    kind = op.kind
    if kind.moves:
        q = op.qubits[0]
        _, dest = _reference_legal_move(grid, q, kind.delta, kind)
        grid.move(q, dest)
    elif kind is InstrKind.SQSWAP:
        sqswap_sites(grid, *op.qubits)
    # sqswap and semi-global rotations leave positions unchanged


def _reference_pairwise_clear(cols: list[int], ops, sites, moves: bool) -> bool:
    """True when _shared_or_clashing would find nothing, judged without its
    report data: the moves' qubits and destinations distinct (by set size),
    each destination empty in `cols`, and, for two instructions, neither
    lowering a barrier that borders the other's sites. False leaves the
    cycle to _shared_or_clashing, as it does every barrier check of three
    or more instructions."""
    k = len(ops)
    if moves:
        if len({op.qubits[0] for op in ops}) != k or len({dest for _, dest in sites}) != k:
            return False
        for _, (x, y) in sites:
            if cols[x] >> y & 1:
                return False
    if k != 2:
        return False
    ((ax0, ay0), (ax1, ay1)), ((bx0, by0), (bx1, by1)) = sites
    # each lowered barrier, CL_k between columns or RL_k between rows, and
    # the coordinates across it of the other instruction's two sites
    if ay0 == ay1:
        a_cl, a_k, b0, b1 = True, min(ax0, ax1), bx0, bx1
    else:
        a_cl, a_k, b0, b1 = False, min(ay0, ay1), by0, by1
    if by0 == by1:
        b_cl, b_k, a0, a1 = True, min(bx0, bx1), ax0, ax1
    else:
        b_cl, b_k, a0, a1 = False, min(by0, by1), ay0, ay1
    if a_cl is b_cl and a_k == b_k:  # one barrier, lowered by both
        return True
    return not (a_k <= b0 <= a_k + 1 or a_k <= b1 <= a_k + 1 or b_k <= a0 <= b_k + 1 or b_k <= a1 <= b_k + 1)


def _reference_paired_check_parallel_set(grid: Grid, cycle: Cycle) -> ConflictReport:
    """Can this cycle's instructions run in parallel on this grid?

    The cycle holds one instruction family (Cycle's rule): semi-global
    pulses, moves (the shuttles of one cycle family, or the phase shuttles
    of the other) or sqswaps. Intended movers
    contribute mover constraints; only non-movers contribute stay-put
    constraints. Conflicts are classified as BLOCKED_PATH, BARRIER_CLASH,
    UNWANTED_INTERACTION or QL_CONTRADICTION (checked in that order).

    A call costs O(instructions + stay-put qubits) integer operations for a
    lone instruction, the common cycle, and for a legal pair, which
    _pairwise_clear clears; the O(instructions^2) pairwise checks of
    _shared_or_clashing run only for a cycle it cannot clear. A move's
    sites are read from grid.coords; its destination's occupancy and the
    occupied pairs across a lowered barrier are read from the grid's column
    and row masks.
    The QL pairs are folded into two masks in which bit n-1-k stands for the
    QL_k - QL_k+1 edge: `up` when QL_k+1 must sit above QL_k, `down` when
    below. Every pair joins adjacent diagonals, so the merged digraph is a
    subgraph of a path and has a cycle exactly when up & down != 0. Line
    objects and QL pair sets are built only for a report: only then are the
    pairs listed and _find_ql_cycle run, to name the cycle and the
    instructions in it.
    """
    ops = cycle.ops
    kind = ops[0].kind
    if kind.family is _XY_ROT:  # semi-global pulses
        # the family is the one kind sg_rot, so the kind is not compared
        distinct = {(op.axis, op.angle, op.parity) for op in ops}
        if len(distinct) > 1:
            return ConflictReport(
                kind=ConflictKind.BARRIER_CLASH,
                culprits=tuple(range(len(ops))),
                detail="conflicting semi-global drives on the shared column lines",
            )
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
    # bordering its two sites except the one it lowers
    if len(ops) > 1:
        if not _reference_pairwise_clear(cols, ops, sites, moves):
            report = _shared_or_clashing(grid, ops, sites, moves)
            if report is not None:
                return report
    elif moves:
        x, y = sites[0][1]
        if cols[x] >> y & 1:
            return ConflictReport(
                kind=ConflictKind.BLOCKED_PATH,
                culprits=(0,),
                detail=f"destination {(x, y)} is occupied",
            )

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
            down |= _reference_stay_put(grid, left, left + 1, movers) << (n - 1 - left)
            up |= _reference_stay_put(grid, left + 1, left, movers) << (n - 1 - left)
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


class _ReferenceField(NamedTuple):
    """A document field of an instruction and the values the loader accepts."""

    key: str
    attr: str  # the Instruction attribute it holds
    accepts: Callable[[object], bool]
    want: str  # the accepted values, for error messages


def _reference_is_index(v) -> bool:
    """A non-negative integer (is_int, inlined): a qubit or a source gate index."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _reference_qubits(arity: int) -> _ReferenceField:
    def listed(v) -> bool:
        return isinstance(v, list) and len(v) == arity and all(map(_reference_is_index, v))

    return _ReferenceField("q", "qubits", listed, f"q as a list of {arity} qubit{'s' * (arity > 1)}")


_REFERENCE_Q1 = _reference_qubits(1)
_REFERENCE_ANGLE = _ReferenceField("angle", "angle", is_finite_real, "a numeric angle, finite as a float")

# The fields each instruction kind carries besides "kind", in document key
# order; any kind may also carry "src", the indices of its source gates in
# the embedded circuit, written last. zsh_l/zsh_r carry the Z phase as their
# angle.
_REFERENCE_FIELDS: dict[InstrKind, tuple[_ReferenceField, ...]] = {
    **{kind: (_REFERENCE_Q1,) for kind in InstrKind if kind.family is CycleType.SHUTTLE},
    **{kind: (_REFERENCE_Q1, _REFERENCE_ANGLE) for kind in InstrKind if kind.family is CycleType.Z},
    InstrKind.SG_ROT: (
        _REFERENCE_ANGLE,
        _ReferenceField("axis", "axis", lambda v: v in ("x", "y"), "axis x or y"),
        _ReferenceField("parity", "parity", lambda v: is_int(v) and v in (0, 1), "parity 0 or 1"),
    ),
    InstrKind.SQSWAP: (_reference_qubits(2),),
}
# the loader's lookup by document string: kind, its FIELDS row, its keys
_REFERENCE_ROWS = {
    kind.value: (kind, row, {"kind", "src"} | {f.key for f in row}) for kind, row in _REFERENCE_FIELDS.items()
}
# the kinds of the earlier format that kept a Z move's direction in a "dir"
# field and had a separate inverse pulse
_REFERENCE_RETIRED = ("zsh", "zsh_ret", "sg_rot_inv")

# the attributes each kind must leave at their defaults: those of the other
# kinds' fields
_REFERENCE_ATTRS = {f.attr for row in _REFERENCE_FIELDS.values() for f in row}
_REFERENCE_UNSET = {
    kind: sorted(_REFERENCE_ATTRS - {f.attr for f in row}) for kind, row in _REFERENCE_FIELDS.items()
}
_REFERENCE_BLANK = Instruction(None)  # every attribute but kind at its default
# the writer's lookup: kind -> its FIELDS row, a getter of its _UNSET
# attributes, and their defaults
_REFERENCE_WRITE = {
    kind: (_REFERENCE_FIELDS[kind], attrgetter(*unset), attrgetter(*unset)(_REFERENCE_BLANK))
    for kind, unset in _REFERENCE_UNSET.items()
}


def _reference_instruction_to_dict(op: Instruction) -> dict:
    """Document form of an instruction: kind, the fields FIELDS lists for
    it, and src unless it is empty. An attribute set that the kind does not
    carry, which the document could not hold, raises ValueError naming both."""
    row, get_unset, defaults = _REFERENCE_WRITE[op.kind]
    if get_unset(op) != defaults:
        attr = next(a for a in _REFERENCE_UNSET[op.kind] if getattr(op, a) != getattr(_REFERENCE_BLANK, a))
        raise ValueError(f"{op.kind.value} carries no field {attr!r}, instruction gives {getattr(op, attr)!r}")
    d = {"kind": op.kind.value}
    for f in row:
        value = getattr(op, f.attr)
        d[f.key] = list(value) if type(value) is tuple else value
    if op.src:
        d["src"] = list(op.src)
    return d


def _reference_gate_to_dict(g: Gate) -> dict:
    d = {"kind": g.kind.value, "q": list(g.qubits)}
    if g.angle is not None:
        d["angle"] = g.angle
    return d


def _reference_gate_from_dict(d: dict) -> Gate:
    return Gate(GateKind(d["kind"]), tuple(d["q"]), d.get("angle"))


def _reference_circuit_to_dict(c: Circuit) -> dict:
    return {"name": c.name, "n_qubits": c.n_qubits, "gates": [_reference_gate_to_dict(g) for g in c.gates]}


def _reference_circuit_from_dict(d: dict) -> Circuit:
    return Circuit(d.get("name", ""), d["n_qubits"], tuple(_reference_gate_from_dict(g) for g in d["gates"]))


def _reference_schedule_to_doc(s: Schedule) -> dict:
    doc = {
        "name": s.name,
        "grid": s.grid_n,
        "placement": [list(p) for p in s.placement],
        "cycles": [[_reference_instruction_to_dict(op) for op in c.ops] for c in s.cycles],
        "moves_sha256": s.moves_sha256,
    }
    if s.circuit is not None:
        doc["circuit"] = _reference_circuit_to_dict(s.circuit)
    return doc


def _reference_instruction_from_dict(d: dict) -> Instruction:
    """Inverse of instruction_to_dict. A key the kind does not carry, or a
    value its field does not accept, raises XbarcError naming both; a
    retired kind raises XbarcError asking for a recompile."""
    name = d["kind"]
    row = _REFERENCE_ROWS.get(name) if type(name) is str else None
    if row is None and name in _REFERENCE_RETIRED:
        raise XbarcError(f"document holds the retired kind {name!r}; it predates this format, recompile it")
    # InstrKind raises ValueError "... is not a valid InstrKind" for any other value
    kind, fields, keys = row or _REFERENCE_ROWS[InstrKind(name).value]
    if not keys.issuperset(d):
        key = next(key for key in d if key not in keys)
        raise XbarcError(f"{kind.value} carries no field {key!r}; its fields are {sorted(keys)}")
    values = {}
    for f in fields:
        value = d.get(f.key)
        if not f.accepts(value):
            raise XbarcError(f"{kind.value} needs {f.want}, document gives {value!r}")
        values[f.attr] = tuple(value) if type(value) is list else value
    if "src" in d:
        src = d["src"]
        if not (isinstance(src, list) and all(map(_reference_is_index, src))):
            _typed(src, list, f"{kind.value} src")
            raise XbarcError(f"{kind.value} src must list non-negative integers, document gives {src!r}")
        values["src"] = tuple(src)
    return Instruction(kind, **values)


# a tuple: a set lookup would fail on an unhashable kind such as a list
_REFERENCE_NATIVE_NAMES = tuple(sorted(kind.value for kind in NATIVE_KINDS))


def _reference_circuit_from_doc(d) -> Circuit:
    """circuit_from_dict after the checks its constructors leave out."""
    _typed(d, dict, "circuit")
    _string(d.get("name", ""), "circuit name")
    n = d["n_qubits"]
    if not (is_int(n) and n >= 1):
        raise XbarcError(f"circuit n_qubits must be a positive integer, document gives {n!r}")
    for i, g in enumerate(_typed(d["gates"], list, "circuit gates")):
        kind = _typed(g, dict, f"circuit gate {i}")["kind"]
        if kind not in _REFERENCE_NATIVE_NAMES:
            raise XbarcError(f"circuit gate {i} kind must be rx, ry, rz or sqswap, document gives {kind!r}")
        q = _typed(g["q"], list, f"circuit gate {i} q")
        if not all(map(is_int, q)):
            raise XbarcError(f"circuit gate {i} q must list integers, document gives {q!r}")
        if "angle" in g and not is_finite_real(g["angle"]):
            raise XbarcError(
                f"circuit gate {i} angle must be a finite number, document gives {g['angle']!r}"
            )
    return _reference_circuit_from_dict(d)



def _reference_cycle_from_doc(i: int, ops) -> Cycle:
    ops = _typed(ops, list, f"cycle {i}")
    try:
        return Cycle(tuple(_reference_instruction_from_dict(_typed(op, dict, f"cycle {i} op")) for op in ops))
    except ValueError as e:  # an unknown kind, or mixed instruction families
        raise XbarcError(f"cycle {i}: {e}") from None


def _reference_schedule_from_doc(doc: dict) -> Schedule:
    """Inverse of schedule_to_doc. A malformed document raises XbarcError
    naming the field."""
    if not isinstance(doc, dict):
        raise XbarcError("schedule document must be a JSON object")
    if "n" in doc:  # both earlier formats wrote n and typed cycles
        raise XbarcError("document writes n and typed cycles; it predates this format, recompile it")
    try:
        grid_n, placement = doc["grid"], _typed(doc["placement"], list, "placement")
        if not placement:
            raise XbarcError("placement must list at least one qubit's site")
        for q, site in enumerate(placement):
            if not (isinstance(site, list) and len(site) == 2 and all(map(is_int, site))):
                raise XbarcError(
                    f"placement of qubit {q} must be an [x, y] integer pair, document gives {site!r}"
                )
        n = len(placement)
        if not (is_int(grid_n) and grid_n == grid_side(n)):
            raise XbarcError(f"grid must be {grid_side(n)} for {n} qubits, document gives {grid_n!r}")
        cycles = tuple(_reference_cycle_from_doc(i, c) for i, c in enumerate(_typed(doc["cycles"], list, "cycles")))
        schedule = Schedule(
            name=_string(doc.get("name", ""), "name"),
            grid_n=grid_n,
            placement=tuple(tuple(p) for p in placement),
            cycles=cycles,
            moves_sha256=_string(doc["moves_sha256"], "moves_sha256"),
            circuit=_reference_circuit_from_doc(doc["circuit"]) if "circuit" in doc else None,
        )
    except KeyError as e:
        raise XbarcError(f"schedule document lacks key {e.args[0]!r}") from None
    circuit = schedule.circuit
    if circuit is not None and circuit.n_qubits != n:
        raise XbarcError(f"embedded circuit has {circuit.n_qubits} qubits, schedule has {n}")
    for c in cycles:
        for op in c.ops:
            for q in op.qubits:
                if q >= n:
                    raise XbarcError(f"{op.kind.value} names qubit {q}, outside range({n})")
            if circuit is not None and op.src and max(op.src) >= len(circuit.gates):
                raise XbarcError(
                    f"{op.kind.value} src names gate {max(op.src)}, "
                    f"outside the embedded circuit's range({len(circuit.gates)})"
                )
    return schedule


class _ReferenceFold(RotationFold):
    """RotationFold with the earlier numpy rotate."""

    def rotate(self, q: int, u: np.ndarray) -> None:
        p = self.pending[q]
        self.pending[q] = u if p is None else u @ p


# -- conflict check and apply


def _clash(sites, *ops):
    return Grid(5, sites), Cycle(tuple(Instruction(kind, qubits) for kind, qubits in ops))


@settings(max_examples=600, deadline=None)
@given(grids_and_cycles())
# barrier clashes, which random draws seldom reach: two moves out of one
# column, two out of one row, and two sqswaps in adjacent rows
@example(_clash(((2, 0), (2, 2)), (InstrKind.SH_L, (0,)), (InstrKind.SH_R, (1,))))
@example(_clash(((0, 2), (2, 2)), (InstrKind.SH_U, (0,)), (InstrKind.SH_D, (1,))))
@example(_clash(((0, 1), (0, 2), (2, 2), (2, 3)), (InstrKind.SQSWAP, (0, 1)), (InstrKind.SQSWAP, (2, 3))))
def test_check_gives_the_reference_report(grid_cycle):
    grid, cycle = grid_cycle
    assert report_tuple(check_parallel_set(grid, cycle)) == report_tuple(_reference_check_parallel_set(grid, cycle))


def _applied(apply, grid, op):
    """(the CrossbarError message or None, the grid state) after apply(grid, op)."""
    try:
        apply(grid, op)
    except CrossbarError as e:
        return str(e), grid_state(grid)
    return None, grid_state(grid)


@settings(max_examples=400, deadline=None)
@given(grids_and_cycles())
def test_apply_gives_the_reference_grid_or_error(grid_cycle):
    grid, cycle = grid_cycle
    mine, theirs = Grid(grid.n, grid.pos), Grid(grid.n, grid.pos)
    for op in cycle.ops:
        assert _applied(apply_op, mine, op) == _applied(_reference_apply_op, theirs, op)


@pytest.mark.parametrize("n_qubits, n_gates", [(12, 300), (200, 150)])
def test_compiled_cycles_check_and_apply_as_the_reference(n_qubits, n_gates):
    _, s = compile_native(gen_random_uniform(BenchSpec(n_qubits, n_gates, 50.0, 0)))
    mine, theirs = Grid(s.grid_n, s.placement), Grid(s.grid_n, s.placement)
    for cycle in s.cycles:
        assert check_parallel_set(mine, cycle) is LEGAL
        assert report_tuple(_reference_check_parallel_set(theirs, cycle)) == report_tuple(LEGAL)
        for op in cycle.ops:
            assert _applied(apply_op, mine, op) == _applied(_reference_apply_op, theirs, op)


MOVING_KINDS = tuple(kind for kind in InstrKind if kind.moves)


@st.composite
def one_or_two_moves(draw):
    """A random occupancy of a side-2..7 grid, drawn from every site or from
    the checkerboard sites only, and a cycle of one or two moves of one
    family (plain shuttles, or phase shuttles). The second move's qubit is
    another one (Cycle's rule), often one of the first one's eight
    neighbours, so that exchanges, shared destinations and barriers lowered
    side by side are common."""
    n = draw(st.integers(2, 7))
    pool = [(x, y) for y in range(n) for x in range(n)]
    if draw(st.booleans()):
        pool = [(x, y) for x, y in pool if (x + y) % 2 == 0]
    sites = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True))
    grid = Grid(n, tuple(sites))
    family = draw(st.sampled_from((CycleType.SHUTTLE, CycleType.Z)))
    kinds = st.sampled_from([kind for kind in MOVING_KINDS if kind.family is family])
    angle = 0.5 if family is CycleType.Z else None
    q = draw(st.integers(0, len(sites) - 1))
    ops = [Instruction(draw(kinds), (q,), angle=angle)]
    others = [p for p in range(len(sites)) if p != q]
    if others and draw(st.booleans()):
        x, y = sites[q]
        near = [p for i in (-1, 0, 1) for j in (-1, 0, 1) if (p := grid.qubit_at((x + i, y + j))) not in (None, q)]
        p = draw(st.sampled_from(near)) if near and draw(st.booleans()) else draw(st.sampled_from(others))
        ops.append(Instruction(draw(kinds), (p,), angle=angle))
    return grid, Cycle(tuple(ops))


def _moves(n, sites, *ops):
    return Grid(n, sites), Cycle(tuple(Instruction(kind, (q,)) for kind, q in ops))


STAY_PUT_ABOVE = _moves(5, ((0, 0), (1, 2), (3, 4)), (InstrKind.SH_R, 0), (InstrKind.SH_L, 2))
STAY_PUT_BELOW = _moves(5, ((1, 0), (0, 2), (2, 4)), (InstrKind.SH_L, 0), (InstrKind.SH_R, 2))


@st.composite
def exchanges(draw):
    """The router's exchange, legal or not: a qubit and a diagonal neighbour
    on a side-2..7 grid, stepping in opposite directions across the one
    barrier between their columns (or rows), listed in either order, with
    stay-put qubits around them drawn from every other site or, so that the
    cycle is often legal, from the other checkerboard sites of their
    parity. Phase shuttles move only left or right."""
    n = draw(st.integers(2, 7))
    x, y = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
    q_site, p_site = ((x, y), (x + 1, y + 1)) if draw(st.booleans()) else ((x, y + 1), (x + 1, y))
    if draw(st.booleans()):
        q_site, p_site = p_site, q_site
    family = draw(st.sampled_from((CycleType.SHUTTLE, CycleType.Z)))
    horizontal = family is CycleType.Z or draw(st.booleans())
    step = (p_site[0] - q_site[0], 0) if horizontal else (0, p_site[1] - q_site[1])
    kind_of = {kind.delta: kind for kind in MOVING_KINDS if kind.family is family}
    pool = [(i, j) for j in range(n) for i in range(n) if (i, j) not in (q_site, p_site)]
    if draw(st.booleans()):
        pool = [(i, j) for i, j in pool if (i + j) % 2 == sum(q_site) % 2]
    others = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True)) if pool else []
    sites = draw(st.permutations([q_site, p_site, *others]))
    angle = 0.5 if family is CycleType.Z else None
    ops = [Instruction(kind_of[step], (sites.index(q_site),), angle=angle),
           Instruction(kind_of[(-step[0], -step[1])], (sites.index(p_site),), angle=angle)]
    if draw(st.booleans()):
        ops.reverse()
    return Grid(n, tuple(sites)), Cycle(tuple(ops))


def _lone_move_or_exchange(grid: Grid, cycle: Cycle) -> bool:
    """Is the cycle one move, or two whose second steps by the first's
    opposite delta across the barrier the first one crosses?"""
    a, *rest = cycle.ops
    if not a.kind.moves or len(rest) > 1:
        return False
    if not rest:
        return True
    (b,) = rest
    (dx, dy), (ex, ey) = a.kind.delta, b.kind.delta
    a_origin, b_origin = grid.site_of(a.qubits[0]), grid.site_of(b.qubits[0])
    a_line = barrier_between(a_origin, (a_origin[0] + dx, a_origin[1] + dy))
    return (ex, ey) == (-dx, -dy) and a_line == barrier_between(b_origin, (b_origin[0] + ex, b_origin[1] + ey))


@settings(max_examples=1500, deadline=None)
@given(st.one_of(one_or_two_moves(), exchanges()))
# the router's exchange, a QL contradiction of opposing moves, an occupied
# pair across the lowered barrier, two barriers that border each other, and
# two QL contradictions that only a stay-put qubit closes: at (1, 2), above
# its empty site across CL_0, and at (0, 2), below its empty site across
# CL_0, each against a move across CL_2 on the same QL edge
@example(_moves(4, ((1, 1), (2, 2)), (InstrKind.SH_R, 0), (InstrKind.SH_L, 1)))
@example(_moves(4, ((1, 1), (2, 2)), (InstrKind.SH_L, 0), (InstrKind.SH_R, 1)))
@example(_moves(4, ((1, 1), (0, 3), (1, 3)), (InstrKind.SH_L, 0)))
@example(_moves(5, ((2, 0), (2, 2)), (InstrKind.SH_L, 0), (InstrKind.SH_R, 1)))
@example(STAY_PUT_ABOVE)
@example(STAY_PUT_BELOW)
def test_step_applies_exactly_the_legal_cycles(grid_cycle):
    """step_legal never applies a cycle the reference check judges illegal,
    and applies every legal lone move and legal exchange, leaving the grid
    and its log as apply_cycle does; a cycle it declines leaves both
    untouched. Either way, step_legal, or else check_parallel_set and, on a
    legal cycle, apply_cycle, leave the grid the reference check and apply
    leave, and the log derived from its snapshots. The hypothesis
    statistics (--hypothesis-show-statistics) report the share of each
    shape drawn, legal exchanges among them."""
    grid, cycle = grid_cycle
    placement = grid.pos
    # fresh grids each run: the examples' grids are built once
    stepped, applied, walked, reference = (Grid(grid.n, placement) for _ in range(4))
    before = grid_state(stepped), list(stepped.trajectory)
    legal = _reference_paired_check_parallel_set(reference, cycle).ok
    steppable = _lone_move_or_exchange(reference, cycle)
    shape = ("exchange" if len(cycle.ops) == 2 else "lone move") if steppable else "other pair"
    event(f"{'legal' if legal else 'illegal'} {shape}")
    took = step_legal(stepped, cycle)
    assert legal or not took  # never an illegal cycle
    assert took or not (legal and steppable)  # every legal lone move and exchange
    if took:
        apply_cycle(applied, cycle)
        assert grid_state(stepped) == grid_state(applied) and stepped.coords == applied.coords
        assert list(stepped.trajectory) == list(applied.trajectory)
    else:
        assert (grid_state(stepped), list(stepped.trajectory)) == before
    # the callers' walk of the cycle against the reference check and apply
    if not step_legal(walked, cycle) and check_parallel_set(walked, cycle).ok:
        apply_cycle(walked, cycle)
    if legal:
        for op in cycle.ops:
            _reference_apply_op(reference, op)
    assert grid_state(walked) == grid_state(reference)
    assert walked.trajectory.hexdigest() == moves_digest(placement, [reference.pos] if legal else [])


@settings(max_examples=1500, deadline=None)
@given(st.one_of(one_or_two_moves(), grids_and_cycles()))
@example(_moves(4, ((1, 1), (2, 2)), (InstrKind.SH_L, 0), (InstrKind.SH_R, 1)))
@example(_moves(5, ((2, 0), (2, 2)), (InstrKind.SH_L, 0), (InstrKind.SH_R, 1)))
@example(STAY_PUT_ABOVE)
@example(STAY_PUT_BELOW)
def test_check_gives_the_paired_reference_report(grid_cycle):
    """check_parallel_set gives the reference report on cycles of every
    family and size, three or more moves and sqswaps included."""
    grid, cycle = grid_cycle
    assert report_tuple(check_parallel_set(grid, cycle)) == report_tuple(
        _reference_paired_check_parallel_set(grid, cycle)
    )


# -- loader


def _loaded(load, doc):
    """The Schedule load gives for doc, or its error's type and message."""
    try:
        return load(doc)
    except (XbarcError, ValueError) as e:
        return type(e), str(e)


def _op_object(row):
    """The object the reference reads for an instruction row: the slots
    after the kind go to the keys of the kind's reference FIELDS in order,
    "q" taking one slot per qubit, and the slots after those to "src". A row
    that is no list, an empty row and a row whose first slot names no
    current kind become what the reference refuses for the same fault: the
    row as it is, {} and the kind alone."""
    if not isinstance(row, list):
        return row
    if not row:
        return {}
    entry = _REFERENCE_ROWS.get(row[0]) if type(row[0]) is str else None
    if entry is None:
        return {"kind": row[0]}
    d, slot = {"kind": row[0]}, 1
    for f in entry[1]:
        if slot >= len(row):  # a short row: the reference misses this key
            break
        width = 2 if f.key == "q" and row[0] == "sqswap" else 1
        d[f.key] = row[slot:slot + width] if f.key == "q" else row[slot]
        slot += width
    if row[slot:]:
        d["src"] = row[slot:]
    return d


def _gate_object(row):
    """The object the reference reads for a circuit gate row: a rotation's
    last slot is its angle, the other slots after the kind its "q"."""
    if not isinstance(row, list):
        return row
    if not row:
        return {}
    if row[0] in ("rx", "ry", "rz") and len(row) > 1:
        return {"kind": row[0], "q": row[1:-1], "angle": row[-1]}
    return {"kind": row[0], "q": row[1:]}


def _objects(doc):
    """doc with every instruction and circuit gate row written as the
    object the reference reads; anything else as it is."""
    doc = dict(doc)
    if isinstance(doc.get("cycles"), list):
        doc["cycles"] = [[_op_object(row) for row in c] if isinstance(c, list) else c for c in doc["cycles"]]
    circuit = doc.get("circuit")
    if isinstance(circuit, dict) and isinstance(circuit.get("gates"), list):
        doc["circuit"] = circuit | {"gates": [_gate_object(row) for row in circuit["gates"]]}
    return doc


def _rows(doc):
    """The reference writer's document with every instruction and circuit
    gate object written as a positional row: the kind, each field's value
    in reference FIELDS order with a "q" list spread, then src; a gate's
    qubits, then its angle."""

    def row(d):
        out = [d["kind"]]
        for f in _REFERENCE_ROWS[d["kind"]][1]:
            out += d[f.key] if f.key == "q" else [d[f.key]]
        return out + d.get("src", [])

    doc = doc | {"cycles": [[row(d) for d in c] for c in doc["cycles"]]}
    if "circuit" in doc:
        gates = [[g["kind"], *g["q"], *([g["angle"]] if "angle" in g else [])] for g in doc["circuit"]["gates"]]
        doc["circuit"] = doc["circuit"] | {"gates": gates}
    return doc


@pytest.fixture(scope="module")
def bell_document(tmp_path_factory):
    """The compiled Bell document that test_cli's edits apply to."""
    tmp = tmp_path_factory.mktemp("bell")
    (tmp / "bell.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    assert main(["compile", "-i", str(tmp / "bell.qasm"), "-o", str(tmp / "bell.json")]) == 0
    return json.loads((tmp / "bell.json").read_text())


@pytest.mark.parametrize("edit, message", MALFORMED_DOCUMENTS, ids=MALFORMED_IDS)
def test_malformed_documents_load_as_the_reference(bell_document, edit, message):
    doc = copy.deepcopy(bell_document)
    edit(doc)
    got = _loaded(schedule_from_doc, doc)
    assert isinstance(got, tuple) and message in got[1]
    assert isinstance(_loaded(_reference_schedule_from_doc, _objects(doc)), tuple)


# the golden corpus, and a circuit of each benchmark workload's shape at seed 0
_DOCUMENT_CIRCUITS = CORPUS | {
    "randu-q12": lambda: gen_random_uniform(BenchSpec(12, 1000, 50.0, 0)),
    "randu-q200": lambda: gen_random_uniform(BenchSpec(200, 300, 50.0, 0)),
}


@pytest.mark.parametrize("name", sorted(_DOCUMENT_CIRCUITS))
def test_documents_convert_and_load_as_the_reference(name):
    _, s = compile_native(_DOCUMENT_CIRCUITS[name]())
    objects = json.loads(json.dumps(_reference_schedule_to_doc(s)))
    rows = json.loads(json.dumps(schedule_to_doc(s)))
    assert _rows(objects) == rows and _objects(rows) == objects
    assert schedule_from_doc(rows) == _reference_schedule_from_doc(objects) == s


# values a corrupted slot may take: wrong types, out-of-range numbers,
# non-finite floats, other kinds, and the shapes of other slots
_CORRUPT = (None, True, -1, 0, 1, 2, 7, 12, 999, 1000, 10**20, 1.5, float("nan"), float("inf"), "x", "y", "sh_l",
            "sqswap", "sg_rot", "zsh_r", [], [0], [1], [0, 1], [0, 7], [-1], [1.5], [True], {}, "0")


def _paths(node, path=()):
    """Every key or index path in a JSON document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@pytest.fixture(scope="module")
def randu_q12_document():
    _, s = compile_native(gen_random_uniform(BenchSpec(12, 1000, 50.0, 0)))
    return json.loads(json.dumps(schedule_to_doc(s)))


def test_randu_q12_document_loads_as_the_reference(randu_q12_document):
    doc = randu_q12_document
    assert schedule_from_doc(doc) == _reference_schedule_from_doc(_objects(doc))


@pytest.mark.parametrize("seed", range(3))
def test_single_field_corruptions_load_as_the_reference(randu_q12_document, seed):
    """Corrupt one slot or key at a time, three in four of them in the
    cycles: replace its value, or drop it, or insert one before it, which
    makes a row one slot short or long. Load each document with the rows
    loader and its object form with the reference; the edit is undone
    after each."""
    rng = random.Random(seed)
    doc = randu_q12_document
    paths = list(_paths(doc))
    op_paths = [p for p in paths if p[0] == "cycles" and len(p) >= 3]
    failures = 0
    for _ in range(60):
        *parents, key = rng.choice(op_paths if rng.random() < 0.75 else paths)
        parent = doc
        for k in parents:
            parent = parent[k]
        saved = copy.copy(parent)
        edit = rng.random()
        if edit < 0.1:
            del parent[key]
        elif edit < 0.2 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(rng.choice(_CORRUPT)))
        else:
            parent[key] = copy.deepcopy(rng.choice(_CORRUPT))
        try:
            got = _loaded(schedule_from_doc, doc)
            theirs = _loaded(_reference_schedule_from_doc, _objects(doc))
            assert isinstance(got, tuple) == isinstance(theirs, tuple), (parents, key, got, theirs)
            assert isinstance(got, tuple) or got == theirs
            failures += isinstance(got, tuple)
        finally:  # in place, so the parent's own parent still holds it
            parent.clear()
            parent.update(saved) if isinstance(parent, dict) else parent.extend(saved)
    assert failures > 15  # most corruptions are faults


def _compiled_documents():
    """(the document as written and read back, the Schedule) of every
    circuit of the golden corpus."""
    for name in sorted(CORPUS):
        _, s = compile_native(CORPUS[name]())
        yield json.loads(json.dumps(schedule_to_doc(s))), s


def test_compiled_documents_never_reach_the_general_row_path(monkeypatch):
    """Every row of a compiled document names exactly one source gate, so
    loading the golden corpus builds every row inline and never calls
    _instruction_from_row; the inline path takes only that shape on that
    ground. A row of two source gates, the spy's own check, reaches it.

    The rows as measured: the documents of the benchmark workloads at seed
    0 hold 4,789 such rows (randu-q12) and 4,504 (randu-q200)."""
    calls = []

    def spy(i, j, row, n, n_gates):
        calls.append(row)
        return _instruction_from_row(i, j, row, n, n_gates)

    monkeypatch.setattr(instructions, "_instruction_from_row", spy)
    for doc, s in _compiled_documents():
        assert schedule_from_doc(doc) == s
    assert not calls, (
        f"{len(calls)} rows of compiled documents now reach the general row path, which the loader's inline "
        f"path was narrowed around: measure the loader again. First: {calls[0]}"
    )
    doc["cycles"][0][0].append(0)
    schedule_from_doc(doc)
    assert calls == [doc["cycles"][0][0]]


def test_general_row_path_builds_every_compiled_row():
    for doc, s in _compiled_documents():
        n, n_gates = s.n_qubits, len(s.circuit.gates)
        for i, (rows, cycle) in enumerate(zip(doc["cycles"], s.cycles, strict=True)):
            general = tuple(_instruction_from_row(i, j, row, n, n_gates) for j, row in enumerate(rows))
            assert general == _cycle_from_doc(i, rows, n, n_gates).ops == cycle.ops


@st.composite
def valid_rows(draw):
    """A valid instruction row of any kind, with 0, 1 or 2 to 4 source
    gates, and the qubit count and embedded gate count (math.inf: no
    circuit) it is valid for. Angles are finite floats or integers."""
    n = draw(st.integers(1, 12))
    n_gates = draw(st.one_of(st.just(math.inf), st.integers(1, 40)))
    kind = draw(st.sampled_from(list(InstrKind)))
    qubit = st.integers(0, n - 1)
    angle = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10, 10))
    if kind.family is CycleType.XY_ROT:
        row = [kind.value, draw(angle), draw(st.sampled_from("xy")), draw(st.integers(0, 1))]
    elif kind.family is CycleType.TWOQ:
        row = [kind.value, draw(qubit), draw(qubit)]
    elif kind.family is CycleType.Z:
        row = [kind.value, draw(qubit), draw(angle)]
    else:
        row = [kind.value, draw(qubit)]
    width = draw(st.sampled_from((0, 1, 2, 3, 4)))
    row += [draw(st.integers(0, 49 if n_gates == math.inf else n_gates - 1)) for _ in range(width)]
    return row, n, n_gates


@settings(max_examples=400, deadline=None)
@given(valid_rows())
def test_general_row_path_builds_what_the_inline_path_and_reference_build(row_n_gates):
    """The general path builds the Instruction the reference loader builds
    from the row's object form, and _cycle_from_doc builds the same, inline
    for a row of one source gate and by the general path otherwise."""
    row, n, n_gates = row_n_gates
    op = _instruction_from_row(0, 0, row, n, n_gates)
    event({0: "no source gate", 1: "one source gate"}.get(len(op.src), "two or more source gates"))
    assert op == _reference_instruction_from_dict(_op_object(row))
    assert _cycle_from_doc(0, [row], n, n_gates).ops == (op,)


@st.composite
def small_circuits(draw):
    """A random circuit of 1-12 qubits and at most 30 front-end gates; on
    one qubit only X/Y rotations, as a 1x1 grid has no site for a Z
    shuttle."""
    n = draw(st.integers(1, 12))
    kinds = (GateKind.RX, GateKind.RY) if n == 1 else sorted(GateKind, key=lambda k: k.value)
    gates = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(kinds))
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=kind.arity, max_size=kind.arity, unique=True))
        gates.append(Gate(kind, tuple(qubits), draw(st.floats(-10.0, 10.0)) if kind.rotation else None))
    return Circuit("small", n, tuple(gates))


# a circuit whose schedule holds all eight instruction kinds
_EVERY_KIND = gen_random_uniform(BenchSpec(12, 200, 50.0, 0))


def test_every_kind_example_holds_every_kind():
    _, s = compile_native(_EVERY_KIND)
    assert {op.kind for c in s.cycles for op in c.ops} == set(InstrKind)


@settings(max_examples=60, deadline=None)
@given(small_circuits())
@example(_EVERY_KIND)
def test_schedule_round_trips_through_json(circuit):
    _, s = compile_native(circuit)
    assert schedule_from_doc(json.loads(json.dumps(schedule_to_doc(s)))) == s


# -- rotation fold


def _random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / abs(np.diag(r)))


@pytest.mark.parametrize("seed", range(20))
def test_fold_matches_the_numpy_rotate(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    state = rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2))
    mine, theirs = RotationFold(state, n), _ReferenceFold(state, n)
    for _ in range(40):
        step = rng.integers(3 if n > 1 else 2)
        q = int(rng.integers(n))
        if step == 0:  # a random 2x2, given as an array
            u = _random_unitary(rng, 2)
            mine.rotate(q, u)
            theirs.rotate(q, u)
        elif step == 1:  # a rotation factor, as nested pairs and as an array
            theta = float(rng.uniform(-7, 7))
            factor = (rx_2x2, ry_2x2, rz_2x2)[int(rng.integers(3))](theta)
            mine.rotate(q, factor)
            theirs.rotate(q, np.array(factor, dtype=complex))
        else:
            b = int((q + rng.integers(1, n)) % n)
            mine.interact(q, b, SQSWAP_MATRIX)
            theirs.interact(q, b, SQSWAP_MATRIX)
        assert np.allclose(mine.state, theirs.state, rtol=0, atol=1e-12)
    assert np.allclose(mine.result(), theirs.result(), rtol=0, atol=1e-12)

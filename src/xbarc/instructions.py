"""Compiled-program representation: instructions, cycles, schedules.

The compiler emits the four operations of the shared-control crossbar as
eight instruction kinds: a one-site shuttle (sh_l, sh_r, sh_u, sh_d), a
timed phase shuttle carrying a Z rotation (zsh_l, zsh_r), a semi-global
pulse on one column parity (sg_rot) and a vertical sqswap. A moving kind
names its direction, and its unit step is the kind's `delta`; a Z
rotation's return move is a plain shuttle, and the compensating pulse of
an X/Y rotation is an sg_rot of the negated angle.

A Schedule is a sequence of single-type cycles of parallel instructions
from an initial placement. Positions after each cycle follow from those
two; the schedule keeps only their sha256 (TrajectoryDigest), which replay
recomputes to catch a document whose cycles no longer reproduce the
compiled trajectory. A cycle's type follows from its instructions and the
qubit count from the placement, so neither is stored.

The JSON document written by schedule_to_doc, the authoritative compiled
artifact, holds what a Schedule holds, each cycle as a list of instruction
objects. Writer and loader read the fields of each instruction kind from
FIELDS; schedule_from_doc round-trips the document exactly and rejects a
field that a kind does not carry. It refuses a document of an earlier
format, one that wrote n and typed cycles or holds an instruction kind
since retired, with "recompile it".

The loader makes one pass over the document. It checks the placement and
grid, builds the embedded circuit gate by gate, then checks and builds each
instruction once: the form the writer gives each kind is checked inline,
fields, qubit range and src range together, and built positionally; any
other form goes through instruction_from_dict, which names its fault. Of
several faults in one document, the first the pass meets is named.
"""
from __future__ import annotations

import hashlib
import math
import struct
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import attrgetter
from typing import Callable, NamedTuple

from .circuits import NATIVE_KINDS, Circuit, Gate, circuit_to_dict, is_finite_real, is_int
from .errors import CrossbarError, XbarcError


class CycleType(Enum):
    XY_ROT = "xy_rot"
    Z = "z"
    SHUTTLE = "shuttle"
    TWOQ = "twoq"


# unit step of a move in each direction, as (dx, dy)
DELTAS = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}


class InstrKind(Enum):
    """An instruction kind and three facts about it, set once per member and
    stored nowhere else:

    - `family`: the CycleType of the cycles it runs in ("each cycle is
      dedicated to one instruction type"). zsh_l/zsh_r carry the phase and
      get their own Z cycle; the return move is a plain shuttle.
    - `delta`: the unit step (dx, dy) of a kind that moves its one qubit one
      site; None for pulses and sqswaps.
    - `moves`: whether it has a delta.

    The per-instruction walks read these attributes: an Enum member used as
    a set or dict key hashes in Python on every lookup. Where they compare
    with a member, they use a name bound once at module or function level:
    reading a member off its class (InstrKind.SG_ROT) takes the slow
    attribute path of a class whose metaclass defines __getattr__, as
    EnumType does.
    """

    def __new__(cls, value: str, family: CycleType, delta=None):
        member = object.__new__(cls)
        member._value_ = value
        member.family, member.delta, member.moves = family, delta, delta is not None
        return member

    SH_L = "sh_l", CycleType.SHUTTLE, DELTAS["L"]
    SH_R = "sh_r", CycleType.SHUTTLE, DELTAS["R"]
    SH_U = "sh_u", CycleType.SHUTTLE, DELTAS["U"]
    SH_D = "sh_d", CycleType.SHUTTLE, DELTAS["D"]
    ZSH_L = "zsh_l", CycleType.Z, DELTAS["L"]
    ZSH_R = "zsh_r", CycleType.Z, DELTAS["R"]
    SG_ROT = "sg_rot", CycleType.XY_ROT
    SQSWAP = "sqswap", CycleType.TWOQ


class Field(NamedTuple):
    """A document field of an instruction and the values the loader accepts."""

    key: str
    attr: str  # the Instruction attribute it holds
    accepts: Callable[[object], bool]
    want: str  # the accepted values, for error messages


def _is_index(v) -> bool:
    """A non-negative integer (is_int, inlined): a qubit or a source gate index."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _qubits(arity: int) -> Field:
    def listed(v) -> bool:
        return isinstance(v, list) and len(v) == arity and all(map(_is_index, v))

    return Field("q", "qubits", listed, f"q as a list of {arity} qubit{'s' * (arity > 1)}")


_Q1 = _qubits(1)
_ANGLE = Field("angle", "angle", is_finite_real, "a numeric angle, finite as a float")

# The fields each instruction kind carries besides "kind", in document key
# order; any kind may also carry "src", the indices of its source gates in
# the embedded circuit, written last. zsh_l/zsh_r carry the Z phase as their
# angle.
FIELDS: dict[InstrKind, tuple[Field, ...]] = {
    **{kind: (_Q1,) for kind in InstrKind if kind.family is CycleType.SHUTTLE},
    **{kind: (_Q1, _ANGLE) for kind in InstrKind if kind.family is CycleType.Z},
    InstrKind.SG_ROT: (
        _ANGLE,
        Field("axis", "axis", lambda v: v in ("x", "y"), "axis x or y"),
        Field("parity", "parity", lambda v: is_int(v) and v in (0, 1), "parity 0 or 1"),
    ),
    InstrKind.SQSWAP: (_qubits(2),),
}
# the loader's lookup by document string: kind, its FIELDS row, its keys
_ROWS = {kind.value: (kind, row, {"kind", "src"} | {f.key for f in row}) for kind, row in FIELDS.items()}
# the kinds of the earlier format that kept a Z move's direction in a "dir"
# field and had a separate inverse pulse
_RETIRED = ("zsh", "zsh_ret", "sg_rot_inv")


# Instruction and Cycle are frozen slotted dataclasses with a hand-written
# __init__ that sets each field through a prebound object.__setattr__: the
# generated frozen __init__ looks that method up once per field, and the
# slots keep each instance to one object with no __dict__. Assignment still
# raises FrozenInstanceError, and equality, hashing, repr and
# dataclasses.replace are the generated ones.
_set = object.__setattr__


@dataclass(frozen=True, slots=True, init=False)
class Instruction:
    kind: InstrKind
    # which of the fields below a kind carries: FIELDS
    qubits: tuple[int, ...] = ()
    angle: float | None = None
    axis: str | None = None
    parity: int | None = None  # addressed column parity
    src: tuple[int, ...] = ()  # indices of source gates in the decomposed circuit

    def __init__(self, kind, qubits=(), angle=None, axis=None, parity=None, src=()):
        _set(self, "kind", kind)
        _set(self, "qubits", qubits)
        _set(self, "angle", angle)
        _set(self, "axis", axis)
        _set(self, "parity", parity)
        _set(self, "src", src)


@dataclass(frozen=True, slots=True, init=False)
class Cycle:
    ops: tuple[Instruction, ...]

    def __init__(self, ops):
        if not ops:
            raise ValueError("cycle must hold at least one instruction")
        family = ops[0].kind.family
        for op in ops:
            if op.kind.family is not family:
                held = sorted({op.kind.family.value for op in ops})
                raise ValueError(f"instruction families {held} cannot share a cycle")
        _set(self, "ops", ops)

    @property
    def type(self) -> CycleType:
        """The one family (InstrKind.family) of the cycle's instructions."""
        return self.ops[0].kind.family


def grid_side(n_qubits: int) -> int:
    """Side N of the grid `xbarc compile` uses for n_qubits: the least N
    whose checkerboard holds them, ceil(N^2 / 2) >= n_qubits."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return math.isqrt(2 * n_qubits - 2) + 1


def check_placement(grid_n: int, placement) -> None:
    """Raise CrossbarError unless every site lies on the grid_n x grid_n
    grid and no two qubits share a site."""
    owner: dict[tuple[int, int], int] = {}
    for q, (x, y) in enumerate(placement):
        if not (0 <= x < grid_n and 0 <= y < grid_n):
            raise CrossbarError(f"qubit {q} at {(x, y)} outside {grid_n}x{grid_n} grid")
        if owner.setdefault((x, y), q) != q:
            raise CrossbarError(f"qubits {owner[x, y]} and {q} share site {(x, y)}")


@dataclass(frozen=True)
class Schedule:
    """A compiled program; its placement is legal (check_placement)."""

    name: str
    grid_n: int
    placement: tuple[tuple[int, int], ...]
    cycles: tuple[Cycle, ...]
    trajectory_sha256: str  # TrajectoryDigest of the occupancy after every cycle
    circuit: Circuit | None = None  # decomposed source, embedded for verification

    def __post_init__(self):
        check_placement(self.grid_n, self.placement)

    @property
    def n_qubits(self) -> int:
        return len(self.placement)

    @property
    def n_instructions(self) -> int:
        return sum(len(c.ops) for c in self.cycles)

    @property
    def depth(self) -> int:
        return len(self.cycles)


def coord_buffer(pos) -> array:
    """Sites (x, y) in qubit order as one flat uint32 buffer x0, y0, x1, y1, ..."""
    return array("I", chain.from_iterable(pos))


# coord_buffer's bytes are already the digest's little-endian uint32s
_NATIVE_IS_DIGEST = sys.byteorder == "little" and array("I").itemsize == 4


class TrajectoryDigest:
    """sha256 over the occupancy after every cycle of a schedule.

    Each snapshot is every qubit's (x, y) in qubit order, packed as
    little-endian uint32, so any grid size encodes without loss. add takes
    a grid's coord_buffer and hashes its bytes as they are; the constructor
    takes snapshots as tuples of sites.
    """

    __slots__ = ("_sha",)

    def __init__(self, snapshots=()):
        self._sha = hashlib.sha256()
        for pos in snapshots:
            self.add(coord_buffer(pos))

    def add(self, coords: array) -> None:
        if _NATIVE_IS_DIGEST:
            self._sha.update(coords)
        else:
            self._sha.update(struct.pack(f"<{len(coords)}I", *coords))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


# the attributes each kind must leave at their defaults: those of the other
# kinds' fields
_ATTRS = {f.attr for row in FIELDS.values() for f in row}
_UNSET = {kind: sorted(_ATTRS - {f.attr for f in row}) for kind, row in FIELDS.items()}
_BLANK = Instruction(None)  # every attribute but kind at its default
# the writer's lookup: kind -> its FIELDS row, a getter of its _UNSET
# attributes, and their defaults
_WRITE = {kind: (FIELDS[kind], attrgetter(*unset), attrgetter(*unset)(_BLANK)) for kind, unset in _UNSET.items()}


def instruction_to_dict(op: Instruction) -> dict:
    """Document form of an instruction: kind, the fields FIELDS lists for
    it, and src unless it is empty. An attribute set that the kind does not
    carry, which the document could not hold, raises ValueError naming both."""
    row, get_unset, defaults = _WRITE[op.kind]
    if get_unset(op) != defaults:
        attr = next(a for a in _UNSET[op.kind] if getattr(op, a) != getattr(_BLANK, a))
        raise ValueError(f"{op.kind.value} carries no field {attr!r}, instruction gives {getattr(op, attr)!r}")
    d = {"kind": op.kind.value}
    for f in row:
        value = getattr(op, f.attr)
        d[f.key] = list(value) if type(value) is tuple else value
    if op.src:
        d["src"] = list(op.src)
    return d


def instruction_from_dict(d: dict) -> Instruction:
    """Inverse of instruction_to_dict. A key the kind does not carry, or a
    value its field does not accept, raises XbarcError naming both; a
    retired kind raises XbarcError asking for a recompile."""
    name = d["kind"]
    row = _ROWS.get(name) if type(name) is str else None
    if row is None and name in _RETIRED:
        raise XbarcError(f"document holds the retired kind {name!r}; it predates this format, recompile it")
    # InstrKind raises ValueError "... is not a valid InstrKind" for any other value
    kind, fields, keys = row or _ROWS[InstrKind(name).value]
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
        if not (isinstance(src, list) and all(map(_is_index, src))):
            _typed(src, list, "{} src", kind.value)
            raise XbarcError(f"{kind.value} src must list non-negative integers, document gives {src!r}")
        values["src"] = tuple(src)
    return Instruction(kind, **values)


def schedule_to_doc(s: Schedule) -> dict:
    doc = {
        "name": s.name,
        "grid": s.grid_n,
        "placement": [list(p) for p in s.placement],
        "cycles": [[instruction_to_dict(op) for op in c.ops] for c in s.cycles],
        "trajectory_sha256": s.trajectory_sha256,
    }
    if s.circuit is not None:
        doc["circuit"] = circuit_to_dict(s.circuit)
    return doc


def _typed(value, kind: type, what: str, *args):
    """`value`, if it is a `kind` (list or dict); an XbarcError naming
    `what`, formatted with `args` only then, otherwise."""
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise XbarcError(f"{what.format(*args)} must be {noun}, document gives {value!r}")
    return value


def _string(value, what: str) -> str:
    """`value`, if it is a string; an XbarcError naming `what` otherwise."""
    if not isinstance(value, str):
        raise XbarcError(f"{what} must be a string, document gives {value!r}")
    return value


# the native kinds by name, looked up by string only: a dict lookup would
# fail on an unhashable kind such as a list
_NATIVE_BY_NAME = {kind.value: kind for kind in NATIVE_KINDS}


def _circuit_from_doc(d) -> Circuit:
    """circuit_from_dict, with the checks its constructors leave out made
    on each gate before it is built."""
    _typed(d, dict, "circuit")
    name = _string(d.get("name", ""), "circuit name")
    n = d["n_qubits"]
    if not (is_int(n) and n >= 1):
        raise XbarcError(f"circuit n_qubits must be a positive integer, document gives {n!r}")
    gates = []
    for i, g in enumerate(_typed(d["gates"], list, "circuit gates")):
        kind_name = _typed(g, dict, "circuit gate {}", i)["kind"]
        kind = _NATIVE_BY_NAME.get(kind_name) if type(kind_name) is str else None
        if kind is None:
            raise XbarcError(f"circuit gate {i} kind must be rx, ry, rz or sqswap, document gives {kind_name!r}")
        q = _typed(g["q"], list, "circuit gate {} q", i)
        if not all(map(is_int, q)):
            raise XbarcError(f"circuit gate {i} q must list integers, document gives {q!r}")
        angle = g.get("angle")
        if "angle" in g and not is_finite_real(angle):
            raise XbarcError(f"circuit gate {i} angle must be a finite number, document gives {angle!r}")
        gates.append(Gate(kind, tuple(q), angle))
    return Circuit(name, n, tuple(gates))


# the families _cycle_from_doc tells apart, bound once (see InstrKind)
_XY_ROT, _SHUTTLE, _TWOQ = CycleType.XY_ROT, CycleType.SHUTTLE, CycleType.TWOQ


def _in_range(op: Instruction, n: int, n_gates) -> Instruction:
    """`op`, if its qubits lie below n and its src below n_gates."""
    for q in op.qubits:
        if q >= n:
            raise XbarcError(f"{op.kind.value} names qubit {q}, outside range({n})")
    if op.src and max(op.src) >= n_gates:
        raise XbarcError(
            f"{op.kind.value} src names gate {max(op.src)}, outside the embedded circuit's range({n_gates})"
        )
    return op


def _cycle_from_doc(i: int, ops, n: int, n_gates) -> Cycle:
    """Cycle i of a document on n qubits whose embedded circuit holds n_gates
    gates (math.inf without one). Each instruction is checked once, its field
    checks and its qubit and src ranges together, and built positionally.
    The form the writer gives each kind, a float angle and at most one src,
    is checked inline; any other instruction goes through
    instruction_from_dict and _in_range, which accept it or raise the error
    that names its fault."""
    built = []
    try:
        for d in _typed(ops, list, "cycle {}", i):
            name = d.get("kind") if type(d) is dict else None
            row = _ROWS.get(name) if type(name) is str else None
            op = None
            if row is not None and row[2].issuperset(d):
                kind = row[0]
                family = kind.family
                src = ()
                if "src" in d:  # one source gate, in range, or the slow path
                    src = d["src"]
                    g = src[0] if type(src) is list and len(src) == 1 else None
                    src = (g,) if type(g) is int and 0 <= g < n_gates else None
                if src is None:
                    pass
                elif family is _XY_ROT:
                    a, axis, parity = d.get("angle"), d.get("axis"), d.get("parity")
                    # a - a == 0.0: the float is finite
                    if (type(a) is float and a - a == 0.0 and (axis == "x" or axis == "y")
                            and type(parity) is int and 0 <= parity <= 1):
                        op = Instruction(kind, (), a, axis, parity, src)
                else:  # a move or a sqswap: its qubits in range
                    q = d.get("q")
                    q0 = q[0] if type(q) is list and q else None
                    if type(q0) is not int or not 0 <= q0 < n:
                        pass
                    elif family is _TWOQ:
                        q1 = q[1] if len(q) == 2 else None
                        if type(q1) is int and 0 <= q1 < n:
                            op = Instruction(kind, (q0, q1), None, None, None, src)
                    elif len(q) != 1:
                        pass
                    elif family is _SHUTTLE:
                        op = Instruction(kind, (q0,), None, None, None, src)
                    elif type(a := d.get("angle")) is float and a - a == 0.0:  # a phase shuttle
                        op = Instruction(kind, (q0,), a, None, None, src)
            if op is None:
                op = _in_range(instruction_from_dict(_typed(d, dict, "cycle {} op", i)), n, n_gates)
            built.append(op)
        return Cycle(tuple(built))
    except ValueError as e:  # an unknown kind, or mixed instruction families
        raise XbarcError(f"cycle {i}: {e}") from None


def schedule_from_doc(doc: dict) -> Schedule:
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
        circuit = _circuit_from_doc(doc["circuit"]) if "circuit" in doc else None
        if circuit is not None and circuit.n_qubits != n:
            raise XbarcError(f"embedded circuit has {circuit.n_qubits} qubits, schedule has {n}")
        n_gates = math.inf if circuit is None else len(circuit.gates)
        cycles = _typed(doc["cycles"], list, "cycles")
        return Schedule(
            name=_string(doc.get("name", ""), "name"),
            grid_n=grid_n,
            placement=tuple(tuple(p) for p in placement),
            cycles=tuple(_cycle_from_doc(i, c, n, n_gates) for i, c in enumerate(cycles)),
            trajectory_sha256=_string(doc["trajectory_sha256"], "trajectory_sha256"),
            circuit=circuit,
        )
    except KeyError as e:
        raise XbarcError(f"schedule document lacks key {e.args[0]!r}") from None

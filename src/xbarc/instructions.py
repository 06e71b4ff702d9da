"""Compiled-program representation: instructions, cycles, schedules.

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
field that a kind does not carry.
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

from .circuits import NATIVE_KINDS, Circuit, circuit_from_dict, circuit_to_dict, is_finite_real, is_int
from .errors import CrossbarError, XbarcError


class CycleType(Enum):
    XY_ROT = "xy_rot"
    XY_ROT_INV = "xy_rot_inv"
    Z = "z"
    SHUTTLE = "shuttle"
    TWOQ = "twoq"


# Unit move per direction. Plain shuttles name their direction in the kind,
# zsh/zsh_ret in their direction field.
DELTAS = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}


class InstrKind(Enum):
    """An instruction kind and three facts about it, set once per member and
    stored nowhere else:

    - `family`: the CycleType of the cycles it runs in ("each cycle is
      dedicated to one instruction type"). zsh carries the phase and gets
      its own Z cycle; the return move is an ordinary shuttle.
    - `moves`: it moves its one qubit one site (shuttles, zsh, zsh_ret).
    - `delta`: the unit move a plain shuttle names in its kind; None for
      zsh/zsh_ret, whose direction field names it, and for non-moves.

    The per-instruction walks read these attributes: an Enum member used as
    a set or dict key hashes in Python on every lookup.
    """

    def __new__(cls, value: str, family: CycleType, moves: bool = False, delta=None):
        member = object.__new__(cls)
        member._value_ = value
        member.family, member.moves, member.delta = family, moves, delta
        return member

    SH_L = "sh_l", CycleType.SHUTTLE, True, DELTAS["L"]
    SH_R = "sh_r", CycleType.SHUTTLE, True, DELTAS["R"]
    SH_U = "sh_u", CycleType.SHUTTLE, True, DELTAS["U"]
    SH_D = "sh_d", CycleType.SHUTTLE, True, DELTAS["D"]
    ZSH = "zsh", CycleType.Z, True
    ZSH_RET = "zsh_ret", CycleType.SHUTTLE, True
    SG_ROT = "sg_rot", CycleType.XY_ROT
    SG_ROT_INV = "sg_rot_inv", CycleType.XY_ROT_INV
    SQSWAP = "sqswap", CycleType.TWOQ


MOVE_KINDS = frozenset(kind for kind in InstrKind if kind.moves)


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
_DIR = Field("dir", "direction", lambda v: v in ("L", "R"), "direction L or R")
_SG = (
    _ANGLE,
    Field("axis", "axis", lambda v: v in ("x", "y"), "axis x or y"),
    Field("parity", "parity", lambda v: is_int(v) and v in (0, 1), "parity 0 or 1"),
)

# The fields each instruction kind carries besides "kind", in document key
# order; any kind may also carry "src", the indices of its source gates in
# the embedded circuit, written last. zsh carries the Z phase as its angle.
FIELDS: dict[InstrKind, tuple[Field, ...]] = {
    **{kind: (_Q1,) for kind in InstrKind if kind.delta},
    InstrKind.ZSH: (_Q1, _ANGLE, _DIR),
    InstrKind.ZSH_RET: (_Q1, _DIR),
    InstrKind.SG_ROT: _SG,
    InstrKind.SG_ROT_INV: _SG,
    InstrKind.SQSWAP: (_qubits(2),),
}
# the loader's lookup by document string: kind, its FIELDS row, its keys
_ROWS = {kind.value: (kind, row, {"kind", "src"} | {f.key for f in row}) for kind, row in FIELDS.items()}


@dataclass(frozen=True)
class Instruction:
    kind: InstrKind
    # which of the fields below a kind carries: FIELDS
    qubits: tuple[int, ...] = ()
    angle: float | None = None
    axis: str | None = None
    parity: int | None = None  # addressed column parity
    direction: str | None = None
    src: tuple[int, ...] = ()  # indices of source gates in the decomposed circuit

    def move_delta(self) -> tuple[int, int] | None:
        return self.kind.delta or DELTAS.get(self.direction)


@dataclass(frozen=True)
class Cycle:
    ops: tuple[Instruction, ...]

    def __post_init__(self):
        if not self.ops:
            raise ValueError("cycle must hold at least one instruction")
        family = self.ops[0].kind.family
        if any(op.kind.family is not family for op in self.ops):
            held = sorted({op.kind.family.value for op in self.ops})
            raise ValueError(f"instruction families {held} cannot share a cycle")

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
# the writer's lookup: kind -> its FIELDS row, a getter of its _UNSET
# attributes, and their defaults, which the dataclass keeps as class attributes
_WRITE = {kind: (FIELDS[kind], attrgetter(*unset), attrgetter(*unset)(Instruction)) for kind, unset in _UNSET.items()}


def instruction_to_dict(op: Instruction) -> dict:
    """Document form of an instruction: kind, the fields FIELDS lists for
    it, and src unless it is empty. An attribute set that the kind does not
    carry, which the document could not hold, raises ValueError naming both."""
    row, get_unset, defaults = _WRITE[op.kind]
    if get_unset(op) != defaults:
        attr = next(a for a in _UNSET[op.kind] if getattr(op, a) != getattr(Instruction, a))
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
    value its field does not accept, raises XbarcError naming both."""
    name = d["kind"]
    row = _ROWS.get(name) if type(name) is str else None
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
            _typed(src, list, f"{kind.value} src")
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


def _typed(value, kind: type, what: str):
    """`value`, if it is a `kind` (list or dict); an XbarcError naming `what` otherwise."""
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise XbarcError(f"{what} must be {noun}, document gives {value!r}")
    return value


def _string(value, what: str) -> str:
    """`value`, if it is a string; an XbarcError naming `what` otherwise."""
    if not isinstance(value, str):
        raise XbarcError(f"{what} must be a string, document gives {value!r}")
    return value


# a tuple: a set lookup would fail on an unhashable kind such as a list
_NATIVE_NAMES = tuple(sorted(kind.value for kind in NATIVE_KINDS))


def _circuit_from_doc(d) -> Circuit:
    """circuit_from_dict after the checks its constructors leave out."""
    _typed(d, dict, "circuit")
    _string(d.get("name", ""), "circuit name")
    n = d["n_qubits"]
    if not (is_int(n) and n >= 1):
        raise XbarcError(f"circuit n_qubits must be a positive integer, document gives {n!r}")
    for i, g in enumerate(_typed(d["gates"], list, "circuit gates")):
        kind = _typed(g, dict, f"circuit gate {i}")["kind"]
        if kind not in _NATIVE_NAMES:
            raise XbarcError(f"circuit gate {i} kind must be rx, ry, rz or sqswap, document gives {kind!r}")
        q = _typed(g["q"], list, f"circuit gate {i} q")
        if not all(map(is_int, q)):
            raise XbarcError(f"circuit gate {i} q must list integers, document gives {q!r}")
        if "angle" in g and not is_finite_real(g["angle"]):
            raise XbarcError(
                f"circuit gate {i} angle must be a finite number, document gives {g['angle']!r}"
            )
    return circuit_from_dict(d)


def _cycle_from_doc(i: int, ops) -> Cycle:
    ops = _typed(ops, list, f"cycle {i}")
    try:
        return Cycle(tuple(instruction_from_dict(_typed(op, dict, f"cycle {i} op")) for op in ops))
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
        cycles = tuple(_cycle_from_doc(i, c) for i, c in enumerate(_typed(doc["cycles"], list, "cycles")))
        schedule = Schedule(
            name=_string(doc.get("name", ""), "name"),
            grid_n=grid_n,
            placement=tuple(tuple(p) for p in placement),
            cycles=cycles,
            trajectory_sha256=_string(doc["trajectory_sha256"], "trajectory_sha256"),
            circuit=_circuit_from_doc(doc["circuit"]) if "circuit" in doc else None,
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

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
two; the schedule keeps only moves_sha256, the sha256 of the placement and
of the sites each cycle changed (TrajectoryDigest), which replay recomputes
to catch a document whose cycles no longer reproduce the compiled
trajectory. A cycle's type follows from its instructions and the qubit
count from the placement, so neither is stored. A cycle names each qubit
in at most one of its instructions and holds at most one pulse, since one
shared drive fires at most once per cycle (Cycle).

The JSON document written by schedule_to_doc, the authoritative compiled
artifact, holds what a Schedule holds. Each instruction is one row, a JSON
array: its kind's name, the slots of its FIELDS in table order (a qubit
tuple spread over one slot per qubit), then src, the indices of its source
gates in the embedded circuit, as many as it has:

    ["sh_l", q, src...]    ["sh_r", q, src...]    ["sh_u", q, src...]
    ["sh_d", q, src...]    ["zsh_l", q, angle, src...]
    ["zsh_r", q, angle, src...]    ["sg_rot", angle, axis, parity, src...]
    ["sqswap", q0, q1, src...]

for example ["sh_r", 25, 0], ["zsh_l", 3, 1.25, 9] or ["sg_rot", 0.4622,
"x", 0, 0]. The embedded circuit is {"name", "n_qubits", "gates"}, each gate
a row of its name, its qubits and a rotation's angle:

    ["rx", q, angle]    ["ry", q, angle]    ["rz", q, angle]
    ["sqswap", q0, q1]

for example ["rx", 3, 0.5] or ["sqswap", 1, 2]. Writer and loader read each
instruction kind's slots from FIELDS, and schedule_from_doc round-trips the
document exactly. It refuses a document of an earlier format with
"recompile it": one that wrote n and typed cycles, holds trajectory_sha256
(the digest of every qubit's site after every cycle, which moves_sha256
replaced), holds an instruction kind since retired, or writes an
instruction or a gate as an object.

The loader makes one pass over the document. It checks the placement and
grid, builds the embedded circuit gate by gate, then checks each
instruction row, qubit and src ranges included, and builds it
positionally. A row with exactly one source gate, as every compiled row
has (tests/test_hot_path_reference.py::
test_compiled_documents_never_reach_the_general_row_path), is checked
inline by family; any other row, and a row with a fault, goes to
the general path, which checks it slot by slot against its kind's layout.
Both accept the same values. Of several faults in one document, the first
the pass meets is named.
"""
from __future__ import annotations

import hashlib
import math
import reprlib
import struct
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import Callable, NamedTuple

from .circuits import NATIVE_KINDS, Circuit, Gate, is_finite_real, is_int
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
    """An Instruction attribute, the row slots that hold it, and the values
    the loader accepts in each of those slots."""

    attr: str
    slots: tuple[str, ...]  # one slot name per value: a qubit tuple spreads
    accepts: Callable[[object], bool]  # one slot's value
    want: str  # what a slot accepts, for error messages


def _is_index(v) -> bool:
    """A non-negative JSON integer (not a bool): a qubit or a source gate index."""
    return type(v) is int and v >= 0


_Q1 = Field("qubits", ("q",), _is_index, "a qubit index (a non-negative integer)")
_ANGLE = Field("angle", ("angle",), is_finite_real, "a number finite as a float")

# The fields each instruction kind carries, in row order; a row ends with
# the indices of the kind's source gates in the embedded circuit (src).
# zsh_l/zsh_r carry the Z phase as their angle.
FIELDS: dict[InstrKind, tuple[Field, ...]] = {
    **{kind: (_Q1,) for kind in InstrKind if kind.family is CycleType.SHUTTLE},
    **{kind: (_Q1, _ANGLE) for kind in InstrKind if kind.family is CycleType.Z},
    InstrKind.SG_ROT: (
        _ANGLE,
        Field("axis", ("axis",), lambda v: v in ("x", "y"), "x or y"),
        Field("parity", ("parity",), lambda v: type(v) is int and 0 <= v <= 1, "0 or 1"),
    ),
    InstrKind.SQSWAP: (_Q1._replace(slots=("q0", "q1")),),
}
# the kinds of the format before one kind per move, which kept a Z move's
# direction in a "dir" field and had a separate inverse pulse
_RETIRED = ("zsh", "zsh_ret", "sg_rot_inv")


class Instruction(NamedTuple):
    kind: InstrKind
    # which of the fields below a kind carries: FIELDS
    qubits: tuple[int, ...] = ()
    angle: float | None = None
    axis: str | None = None
    parity: int | None = None  # addressed column parity
    src: tuple[int, ...] = ()  # indices of source gates in the decomposed circuit


# the families Cycle and _cycle_from_doc tell apart, bound once (see InstrKind)
_XY_ROT, _SHUTTLE, _Z, _TWOQ = CycleType.XY_ROT, CycleType.SHUTTLE, CycleType.Z, CycleType.TWOQ


@dataclass(frozen=True, slots=True, init=False)
class Cycle:
    """Instructions that run in one cycle. The crossbar runs one instruction
    type per cycle and drives every qubit of a column parity with one shared
    pulse, so a cycle of two or more instructions holds no pulse, keeps to
    one instruction family and names each qubit in at most one of its
    instructions; any other raises ValueError. A lone instruction is a
    cycle as it is: a lone sqswap(q, q) is left to the conflict model,
    which reports it."""

    ops: tuple[Instruction, ...]

    def __init__(self, ops):
        if not ops:
            raise ValueError("cycle must hold at least one instruction")
        if len(ops) > 1:
            first = ops[0]
            family = first.kind.family
            for op in ops:
                if op.kind.family is not family:
                    held = sorted({op.kind.family.value for op in ops})
                    raise ValueError(f"instruction families {held} cannot share a cycle")
            if family is _XY_ROT:
                raise ValueError(f"a pulse cycle holds one pulse, this one holds {len(ops)}: one drive per cycle")
            if len(ops) == 2 and family is not _TWOQ:  # two moves, as every exchange
                q = first.qubits[0]
                if q == ops[1].qubits[0]:
                    raise ValueError(f"qubit {q} is named by two instructions of one cycle")
            else:
                named = set()
                for op in ops:
                    for q in op.qubits:
                        if q in named:
                            raise ValueError(f"qubit {q} is named by two instructions of one cycle")
                    named.update(op.qubits)
        object.__setattr__(self, "ops", ops)

    @property
    def type(self) -> CycleType:
        """The one family (InstrKind.family) of the cycle's instructions."""
        return self.ops[0].kind.family


MAX_QUBITS = 2**20  # grid_side's bound


def grid_side(n_qubits: int) -> int:
    """Side N of the grid mapper.initial_placement lays n_qubits out on:
    the least N whose checkerboard holds them, ceil(N^2 / 2) >= n_qubits.
    The loader requires this side of every document. Every compile path
    calls it before the layout is built, and the loader refuses a placement
    of more than MAX_QUBITS sites before it reads one, so the qubit count
    is bounded at 2**20 (N = 1449): the layout takes about 0.5 KB per
    qubit, its N^2 site table included, and a few bytes of QASM could
    otherwise ask for gigabytes."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > MAX_QUBITS:
        raise ValueError(f"{n_qubits} qubits exceed the bound of 2**20 = {MAX_QUBITS} qubits")
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
    moves_sha256: str  # TrajectoryDigest.hexdigest of the placement and every cycle's site changes
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


# an array("I")'s bytes are already the digest's little-endian uint32s
_NATIVE_IS_DIGEST = sys.byteorder == "little" and array("I").itemsize == 4

# closes each cycle's changes in a TrajectoryDigest: no qubit index, since
# a qubit index is below the qubit count and a coordinate fits a uint32
CYCLE_END = 0xFFFFFFFF


class TrajectoryDigest(list):
    """The log a schedule's trajectory digest hashes, as a list of uint32s.

    The log opens with the placement, every qubit's (x, y) in qubit order.
    Each applied cycle then adds the (q, x, y) of every qubit whose site the
    cycle changed, in ascending q, and CYCLE_END; a cycle names each mover
    once (Cycle), so these are its movers. A pulse or sqswap cycle adds
    CYCLE_END alone, and a refused cycle adds nothing. Given the
    placement, this log and the sequence of occupancy snapshots after every
    cycle determine each other, so the digest checks the whole trajectory
    while costing O(placement + site changes + cycles) rather than
    O(qubits x cycles).

    crossbar.step_legal writes a legal lone move or exchange in this form
    at once; crossbar.apply_cycle logs each mover's site after the cycle in
    this form.
    hexdigest packs the log once into a uint32 array and hashes
    it as little-endian uint32 on any host, so any grid size encodes without
    loss.
    """

    __slots__ = ()

    def hexdigest(self) -> str:
        words = array("I")
        words.fromlist(self)  # a list's fast path; array("I", self) iterates a subclass
        if not _NATIVE_IS_DIGEST:
            words = struct.pack(f"<{len(words)}I", *words)
        return hashlib.sha256(words).hexdigest()


_BLANK = Instruction(None)  # every attribute but kind at its default


class _Layout(NamedTuple):
    """One kind's row, as the writer and the loader read it from FIELDS."""

    kind: InstrKind
    family: CycleType
    slots: tuple[tuple[str, Field], ...]  # (name, field) of each slot between the kind and src
    width: int  # the length of a row with one source gate, as every compiled row has
    get: Callable  # the kind's field attributes, then src
    unset: tuple[str, ...]  # the other kinds' attributes: this kind leaves them at their defaults
    get_unset: Callable
    defaults: tuple
    text: str  # the row layout, for error messages


def _layout(kind: InstrKind, fields: tuple[Field, ...]) -> _Layout:
    unset = tuple(sorted({f.attr for row in FIELDS.values() for f in row} - {f.attr for f in fields}))
    slots = tuple((name, f) for f in fields for name in f.slots)
    text = "[" + ", ".join([f'"{kind.value}"', *(name for name, _ in slots), "src..."]) + "]"
    get_unset = attrgetter(*unset)
    return _Layout(
        kind, kind.family, slots, len(slots) + 2, attrgetter(*(f.attr for f in fields), "src"),
        unset, get_unset, get_unset(_BLANK), text,
    )


# every kind's layout by its name: the loader looks up a row's first slot,
# the writer op.kind._value_ (the member's value as a plain attribute; a
# member as a dict key would hash in Python, and Enum.value is a property)
_LAYOUTS = {kind.value: _layout(kind, fields) for kind, fields in FIELDS.items()}


def instruction_to_row(op: Instruction) -> list:
    """Document row of an instruction: its kind's name, the slots of the
    fields FIELDS lists for it, a qubit tuple spread over one slot per
    qubit, then its src. An attribute set that the kind does not carry,
    which the row has no slot for, raises ValueError naming both."""
    name = op.kind._value_
    layout = _LAYOUTS[name]
    if layout.get_unset(op) != layout.defaults:
        attr = next(a for a in layout.unset if getattr(op, a) != getattr(_BLANK, a))
        raise ValueError(f"{name} carries no field {attr!r}, instruction gives {getattr(op, attr)!r}")
    row = [name]
    for value in layout.get(op):
        if type(value) is tuple:
            row += value
        else:
            row.append(value)
    return row


def gate_to_row(g: Gate) -> list:
    """Document row of a circuit gate: its kind's name, its qubits, then a
    rotation's angle."""
    if g.angle is None:
        return [g.kind._value_, *g.qubits]
    return [g.kind._value_, *g.qubits, g.angle]


def schedule_to_doc(s: Schedule) -> dict:
    doc = {
        "name": s.name,
        "grid": s.grid_n,
        "placement": [list(p) for p in s.placement],
        "cycles": [[instruction_to_row(op) for op in c.ops] for c in s.cycles],
        "moves_sha256": s.moves_sha256,
    }
    c = s.circuit
    if c is not None:
        doc["circuit"] = {"name": c.name, "n_qubits": c.n_qubits, "gates": [gate_to_row(g) for g in c.gates]}
    return doc


# characters of a document value that an error message repeats
_ECHO_CHARS = 60


class _Echo(reprlib.Repr):
    """reprlib.Repr that writes every value whose repr fits in _ECHO_CHARS
    characters as repr does, objects in their key order (reprlib sorts
    keys): such a repr holds at most 20 items of one list ("[1, 1, ...]")
    and 30 levels of nesting ("[[...]]"). It reads no more of a longer list,
    object or string, so a value of any size costs little."""

    def __init__(self):
        super().__init__()
        self.maxlist = self.maxdict = 20
        self.maxlevel = 30
        self.maxstring = self.maxlong = self.maxother = _ECHO_CHARS

    def repr_dict(self, x, level):
        if not x or level <= 0:
            return "{...}" if x else "{}"
        pieces = [f"{self.repr1(k, level - 1)}: {self.repr1(v, level - 1)}" for k, v in islice(x.items(), self.maxdict)]
        return "{" + ", ".join(pieces + ["..."] * (len(x) > self.maxdict)) + "}"


_ECHO = _Echo()


def _echo(value) -> str:
    """A document value as an error message repeats it: repr(value) when
    that is at most _ECHO_CHARS characters long, else its first
    _ECHO_CHARS characters and "..."."""
    text = _ECHO.repr(value)
    return text if len(text) <= _ECHO_CHARS else text[:_ECHO_CHARS] + "..."


def _typed(value, kind: type, what: str, *args):
    """`value`, if it is a `kind` (list or dict); an XbarcError naming
    `what`, formatted with `args` only then, otherwise."""
    if not isinstance(value, kind):
        noun = "a list" if kind is list else "an object"
        raise XbarcError(f"{what.format(*args)} must be {noun}, document gives {_echo(value)}")
    return value


def _string(value, what: str) -> str:
    """`value`, if it is a string; an XbarcError naming `what` otherwise."""
    if not isinstance(value, str):
        raise XbarcError(f"{what} must be a string, document gives {_echo(value)}")
    return value


def _not_a_row(where: str, row) -> None:
    """Raise an XbarcError if `row` is no non-empty list: an object, as
    every row was before rows were positional, asks for a recompile."""
    if isinstance(row, dict):
        raise XbarcError(f"{where} is an object, not a row; the document predates this format, recompile it")
    if not _typed(row, list, where):
        raise XbarcError(f"{where} is an empty row; a row starts with its kind")


# the native kinds by name, looked up by string only: a dict lookup would
# fail on an unhashable kind such as a list
_NATIVE_BY_NAME = {kind.value: kind for kind in NATIVE_KINDS}


def _circuit_from_doc(d) -> Circuit:
    """The embedded circuit, each gate row checked slot by slot, qubit range
    included, before the Gate is built; Gate's own check, distinct
    operands, raises an XbarcError naming the gate."""
    _typed(d, dict, "circuit")
    name = _string(d.get("name", ""), "circuit name")
    try:
        n, rows = d["n_qubits"], d["gates"]
    except KeyError as e:
        raise XbarcError(f"circuit lacks key {e.args[0]!r}") from None
    if not (is_int(n) and n >= 1):
        raise XbarcError(f"circuit n_qubits must be a positive integer, document gives {_echo(n)}")
    gates = []
    for i, row in enumerate(_typed(rows, list, "circuit gates")):
        kind = _NATIVE_BY_NAME.get(row[0]) if type(row) is list and row and type(row[0]) is str else None
        if kind is None:
            _not_a_row(f"circuit gate {i}", row)
            raise XbarcError(f"circuit gate {i} kind must be rx, ry, rz or sqswap, document gives {_echo(row[0])}")
        end = 1 + kind.arity
        if len(row) != end + kind.rotation:
            layout = ", ".join([f'"{kind.value}"', *(["q"] if kind.arity == 1 else ["q0", "q1"])]
                               + ["angle"] * kind.rotation)
            raise XbarcError(f"circuit gate {i} row {_echo(row)} has {len(row)} slots; a {kind.value} row is [{layout}]")
        qubits = tuple(row[1:end])
        for q in qubits:
            if not is_int(q):
                raise XbarcError(f"circuit gate {i} qubit must be an integer, document gives {_echo(q)}")
            if not 0 <= q < n:
                raise XbarcError(f"circuit gate {i} operand {q} out of range for {n} qubits")
        angle = row[end] if kind.rotation else None
        if kind.rotation and not is_finite_real(angle):
            raise XbarcError(f"circuit gate {i} angle must be a finite number, document gives {_echo(angle)}")
        try:
            gates.append(Gate(kind, qubits, angle))
        except ValueError as e:
            raise XbarcError(f"circuit gate {i}: {e}") from None
    return Circuit(name, n, tuple(gates))


def _instruction_from_row(i: int, j: int, row, n: int, n_gates) -> Instruction:
    """The instruction of `row`, op j of cycle i, checked slot by slot in
    order against its kind's layout: the general path for a row
    _cycle_from_doc does not build inline, one without exactly one source
    gate or one with a fault. The first fault raises an XbarcError naming
    it."""
    where = f"cycle {i} op {j}"
    _not_a_row(where, row)
    name = row[0]
    if type(name) is str and name in _RETIRED:
        raise XbarcError(f"{where}: document holds the retired kind {name!r}; it predates this format, recompile it")
    layout = _LAYOUTS.get(name) if type(name) is str else None
    if layout is None:
        raise XbarcError(f"{where}: {_echo(name)} is not a valid InstrKind")
    fields = {}
    for slot, (key, f) in enumerate(layout.slots, 1):
        if slot == len(row):
            raise XbarcError(f"{where}: row {_echo(row)} ends before its {key}; a {name} row is {layout.text}")
        v = row[slot]
        if not f.accepts(v):
            raise XbarcError(f"{where}: {name} {key} must be {f.want}, document gives {_echo(v)}")
        if f.attr == "qubits" and v >= n:
            raise XbarcError(f"{where}: {name} names qubit {v}, outside range({n})")
        fields[f.attr] = fields.get(f.attr, ()) + (v,)
    src = tuple(row[layout.width - 1:])
    for slot, g in enumerate(src, layout.width - 1):
        if not _is_index(g):
            raise XbarcError(
                f"{where}: {name} slot {slot} must be a source gate index (a non-negative integer), "
                f"document gives {_echo(g)}; a {name} row is {layout.text}"
            )
        if g >= n_gates:
            raise XbarcError(f"{where}: {name} src names gate {g}, outside the embedded circuit's range({n_gates})")
    return Instruction(layout.kind, src=src, **{a: v if a == "qubits" else v[0] for a, v in fields.items()})


def _cycle_from_doc(i: int, ops, n: int, n_gates) -> Cycle:
    """Cycle i of a document on n qubits whose embedded circuit holds n_gates
    gates (math.inf without one). A row with exactly one source gate, as
    every compiled row has, is checked once inline by family, qubit and src
    ranges included, and its instruction built positionally; every other
    row, and a row that fails an inline check, goes to
    _instruction_from_row, which checks it slot by slot and builds it or
    names its first fault. The checks here and the fields' `accepts` there
    take the same values."""
    built = []
    for row in _typed(ops, list, "cycle {}", i):
        layout = _LAYOUTS.get(row[0]) if type(row) is list and row and type(row[0]) is str else None
        op = None
        if layout is not None and len(row) == layout.width:
            g = row[-1]
            if type(g) is int and 0 <= g < n_gates:
                src = (g,)
                family = layout.family
                if family is _SHUTTLE:
                    q = row[1]
                    if type(q) is int and 0 <= q < n:
                        op = Instruction(layout.kind, (q,), None, None, None, src)
                elif family is _TWOQ:
                    q, q1 = row[1], row[2]
                    if type(q) is int and 0 <= q < n and type(q1) is int and 0 <= q1 < n:
                        op = Instruction(layout.kind, (q, q1), None, None, None, src)
                elif family is _Z:
                    q, a = row[1], row[2]
                    # a - a == 0.0: the float is finite
                    if type(q) is int and 0 <= q < n and (type(a) is float and a - a == 0.0 or is_finite_real(a)):
                        op = Instruction(layout.kind, (q,), a, None, None, src)
                else:  # a semi-global pulse
                    a, axis, parity = row[1], row[2], row[3]
                    if ((type(a) is float and a - a == 0.0 or is_finite_real(a)) and (axis == "x" or axis == "y")
                            and type(parity) is int and 0 <= parity <= 1):
                        op = Instruction(layout.kind, (), a, axis, parity, src)
        if op is None:
            op = _instruction_from_row(i, len(built), row, n, n_gates)
        built.append(op)
    try:
        return Cycle(tuple(built))
    except ValueError as e:  # no instruction, mixed families, two pulses or a qubit named twice
        raise XbarcError(f"cycle {i}: {e}") from None


def schedule_from_doc(doc: dict) -> Schedule:
    """Inverse of schedule_to_doc. A malformed document raises XbarcError
    naming the field."""
    if not isinstance(doc, dict):
        raise XbarcError("schedule document must be a JSON object")
    if "n" in doc:  # both earlier formats wrote n and typed cycles
        raise XbarcError("document writes n and typed cycles; it predates this format, recompile it")
    if "trajectory_sha256" in doc:  # the digest of whole-grid snapshots, before moves_sha256
        raise XbarcError(
            "document holds trajectory_sha256, a digest of every qubit's site after every cycle; "
            "the document predates this format, recompile it"
        )
    try:
        grid_n, placement = doc["grid"], _typed(doc["placement"], list, "placement")
        if not placement:
            raise XbarcError("placement must list at least one qubit's site")
        if len(placement) > MAX_QUBITS:
            raise XbarcError(f"placement lists {len(placement)} sites, over the bound of 2**20 = {MAX_QUBITS} qubits")
        for q, site in enumerate(placement):
            if not (isinstance(site, list) and len(site) == 2 and all(map(is_int, site))):
                raise XbarcError(
                    f"placement of qubit {q} must be an [x, y] integer pair, document gives {_echo(site)}"
                )
        n = len(placement)
        if not (is_int(grid_n) and grid_n == grid_side(n)):
            raise XbarcError(f"grid must be {grid_side(n)} for {n} qubits, document gives {_echo(grid_n)}")
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
            moves_sha256=_string(doc["moves_sha256"], "moves_sha256"),
            circuit=circuit,
        )
    except KeyError as e:
        raise XbarcError(f"schedule document lacks key {e.args[0]!r}") from None

"""Compiled-program representation: instructions, cycles, schedules.

A Schedule is a sequence of single-type cycles of parallel instructions
from an initial placement. Positions after each cycle follow from those
two; the schedule keeps only their sha256 (TrajectoryDigest), which replay
recomputes to catch a document whose cycles no longer reproduce the
compiled trajectory. A cycle's type follows from its instructions and the
qubit count from the placement, so neither is stored. The JSON document
produced by schedule_to_doc is the authoritative compiled artifact and
still writes both; schedule_from_doc round-trips it exactly and is the one
place that checks every such redundant field against the derived value.
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

from .circuits import Circuit, circuit_from_dict, circuit_to_dict, is_finite_real, is_int
from .errors import CrossbarError, XbarcError


class InstrKind(Enum):
    SH_L = "sh_l"
    SH_R = "sh_r"
    SH_U = "sh_u"
    SH_D = "sh_d"
    ZSH = "zsh"
    ZSH_RET = "zsh_ret"
    SG_ROT = "sg_rot"
    SG_ROT_INV = "sg_rot_inv"
    SQSWAP = "sqswap"


class CycleType(Enum):
    XY_ROT = "xy_rot"
    XY_ROT_INV = "xy_rot_inv"
    Z = "z"
    SHUTTLE = "shuttle"
    TWOQ = "twoq"


# Which cycle type each instruction kind belongs to ("each cycle is
# dedicated to one instruction type"). zsh carries the phase and gets its
# own Z cycle; the return move is an ordinary shuttle.
CYCLE_FAMILY = {
    InstrKind.SH_L: CycleType.SHUTTLE,
    InstrKind.SH_R: CycleType.SHUTTLE,
    InstrKind.SH_U: CycleType.SHUTTLE,
    InstrKind.SH_D: CycleType.SHUTTLE,
    InstrKind.ZSH_RET: CycleType.SHUTTLE,
    InstrKind.ZSH: CycleType.Z,
    InstrKind.SG_ROT: CycleType.XY_ROT,
    InstrKind.SG_ROT_INV: CycleType.XY_ROT_INV,
    InstrKind.SQSWAP: CycleType.TWOQ,
}

# Unit move per direction. Plain shuttles name their direction in the kind,
# zsh/zsh_ret in their direction field.
DELTAS = {"L": (-1, 0), "R": (1, 0), "U": (0, 1), "D": (0, -1)}
_SHUTTLE_DIRECTION = {
    InstrKind.SH_L: "L",
    InstrKind.SH_R: "R",
    InstrKind.SH_U: "U",
    InstrKind.SH_D: "D",
}

MOVE_KINDS = frozenset(
    {InstrKind.SH_L, InstrKind.SH_R, InstrKind.SH_U, InstrKind.SH_D, InstrKind.ZSH, InstrKind.ZSH_RET}
)
SG_KINDS = frozenset({InstrKind.SG_ROT, InstrKind.SG_ROT_INV})
ANGLE_KINDS = SG_KINDS | {InstrKind.ZSH}


@dataclass(frozen=True)
class Instruction:
    kind: InstrKind
    qubits: tuple[int, ...] = ()
    angle: float | None = None  # zsh: carried Z phase; sg kinds: rotation angle
    axis: str | None = None  # sg kinds: "x" | "y"
    parity: int | None = None  # sg kinds: addressed column parity
    direction: str | None = None  # zsh / zsh_ret: "L" | "R"
    src: tuple[int, ...] = ()  # indices of source gates in the decomposed circuit

    def move_delta(self) -> tuple[int, int] | None:
        if self.kind in (InstrKind.ZSH, InstrKind.ZSH_RET):
            return DELTAS[self.direction]
        direction = _SHUTTLE_DIRECTION.get(self.kind)
        return None if direction is None else DELTAS[direction]


@dataclass(frozen=True)
class Cycle:
    ops: tuple[Instruction, ...]

    def __post_init__(self):
        if not self.ops:
            raise ValueError("cycle must hold at least one instruction")
        families = {CYCLE_FAMILY[op.kind] for op in self.ops}
        if len(families) > 1:
            held = sorted(f.value for f in families)
            raise ValueError(f"instruction families {held} cannot share a cycle")

    @property
    def type(self) -> CycleType:
        """The one family (CYCLE_FAMILY) of the cycle's instructions."""
        return CYCLE_FAMILY[self.ops[0].kind]


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


def instruction_to_dict(op: Instruction) -> dict:
    """Document form of an instruction; unset fields are left out."""
    d = {
        "kind": op.kind.value,
        "q": list(op.qubits) or None,
        "angle": op.angle,
        "axis": op.axis,
        "parity": op.parity,
        "dir": op.direction,
        "src": list(op.src) or None,
    }
    return {key: value for key, value in d.items() if value is not None}


def instruction_from_dict(d: dict) -> Instruction:
    return Instruction(
        kind=InstrKind(d["kind"]),
        qubits=tuple(_typed(d.get("q", []), list, f"{d['kind']} q")),
        angle=d.get("angle"),
        axis=d.get("axis"),
        parity=d.get("parity"),
        direction=d.get("dir"),
        src=tuple(_typed(d.get("src", []), list, f"{d['kind']} src")),
    )


def schedule_to_doc(s: Schedule) -> dict:
    doc = {
        "name": s.name,
        "n": s.n_qubits,
        "grid": s.grid_n,
        "placement": [list(p) for p in s.placement],
        "cycles": [
            {"type": c.type.value, "ops": [instruction_to_dict(op) for op in c.ops]}
            for c in s.cycles
        ],
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


def _circuit_from_doc(d) -> Circuit:
    """circuit_from_dict after the checks its constructors leave out."""
    _typed(d, dict, "circuit")
    _string(d.get("name", ""), "circuit name")
    n = d["n_qubits"]
    if not (is_int(n) and n >= 1):
        raise XbarcError(f"circuit n_qubits must be a positive integer, document gives {n!r}")
    for i, g in enumerate(_typed(d["gates"], list, "circuit gates")):
        kind = _typed(g, dict, f"circuit gate {i}")["kind"]
        if kind not in ("rx", "ry", "rz", "sqswap"):  # NATIVE_KINDS; a set would fail on a list
            raise XbarcError(f"circuit gate {i} kind must be rx, ry, rz or sqswap, document gives {kind!r}")
        q = _typed(g["q"], list, f"circuit gate {i} q")
        if not all(map(is_int, q)):
            raise XbarcError(f"circuit gate {i} q must list integers, document gives {q!r}")
        if "angle" in g and not is_finite_real(g["angle"]):
            raise XbarcError(
                f"circuit gate {i} angle must be a finite number, document gives {g['angle']!r}"
            )
    return circuit_from_dict(d)


def _check_instruction(op: Instruction, n: int) -> None:
    arity = 2 if op.kind is InstrKind.SQSWAP else 0 if op.kind in SG_KINDS else 1
    if len(op.qubits) != arity:
        raise XbarcError(f"{op.kind.value} needs {arity} qubit(s), document gives {op.qubits}")
    for q in op.qubits:
        if not (is_int(q) and 0 <= q < n):
            raise XbarcError(f"{op.kind.value} names qubit {q!r}, outside range({n})")
    if not all(is_int(i) and i >= 0 for i in op.src):
        raise XbarcError(
            f"{op.kind.value} src must list non-negative integers, document gives {list(op.src)!r}"
        )
    if op.kind in (InstrKind.ZSH, InstrKind.ZSH_RET) and op.direction not in ("L", "R"):
        raise XbarcError(f"{op.kind.value} needs direction L or R, document gives {op.direction!r}")
    if op.kind in ANGLE_KINDS and not is_finite_real(op.angle):
        raise XbarcError(
            f"{op.kind.value} needs a numeric angle, finite as a float, document gives {op.angle!r}"
        )
    if op.kind in SG_KINDS:
        if op.axis not in ("x", "y"):
            raise XbarcError(f"{op.kind.value} needs axis x or y, document gives {op.axis!r}")
        if not (is_int(op.parity) and op.parity in (0, 1)):
            raise XbarcError(f"{op.kind.value} needs parity 0 or 1, document gives {op.parity!r}")


def _cycle_from_doc(i: int, c: dict) -> Cycle:
    """Cycle i of a document, after checking its written type against the
    family its instructions hold."""
    ops = tuple(
        instruction_from_dict(_typed(op, dict, f"cycle {i} op"))
        for op in _typed(c["ops"], list, f"cycle {i} ops")
    )
    try:
        cycle = Cycle(ops)
    except ValueError as e:
        raise XbarcError(f"cycle {i}: {e}") from None
    if c["type"] != cycle.type.value:
        raise XbarcError(
            f"cycle {i} is written as type {c['type']!r} but holds {cycle.type.value} instructions"
        )
    return cycle


def schedule_from_doc(doc: dict) -> Schedule:
    """Inverse of schedule_to_doc. A malformed document, or one whose written
    n or cycle type disagrees with its placement or instructions, raises
    XbarcError."""
    if not isinstance(doc, dict):
        raise XbarcError("schedule document must be a JSON object")
    if "trajectory_sha256" not in doc and "positions" in doc:
        raise XbarcError(
            "document stores a position history instead of trajectory_sha256; "
            "it predates this format, recompile it"
        )
    try:
        n, grid_n, placement = doc["n"], doc["grid"], doc["placement"]
        for key, value in (("n", n), ("grid", grid_n)):
            if not (is_int(value) and value >= 1):
                raise XbarcError(f"{key} must be a positive integer, document gives {value!r}")
        if grid_n != grid_side(n):
            raise XbarcError(f"grid must be {grid_side(n)} for {n} qubits, document gives {grid_n}")
        if not isinstance(placement, list) or len(placement) != n:
            raise XbarcError(f"placement must list one site for each of the {n} qubits")
        for q, site in enumerate(placement):
            if not (isinstance(site, list) and len(site) == 2 and all(map(is_int, site))):
                raise XbarcError(
                    f"placement of qubit {q} must be an [x, y] integer pair, document gives {site!r}"
                )
        cycles = tuple(
            _cycle_from_doc(i, _typed(c, dict, f"cycle {i}"))
            for i, c in enumerate(_typed(doc["cycles"], list, "cycles"))
        )
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
    if schedule.circuit is not None and schedule.circuit.n_qubits != n:
        raise XbarcError(f"embedded circuit has {schedule.circuit.n_qubits} qubits, schedule has {n}")
    for c in cycles:
        for op in c.ops:
            _check_instruction(op, n)
    return schedule

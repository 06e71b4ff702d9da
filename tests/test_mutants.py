"""The verifier's power as a seeded catalogue of mutants.

Each mutant kind edits one instruction or one cycle of a compiled
random-uniform schedule (300 gates, 50 % two-qubit, seed 0) and declares
its verdict: *killed* (verify fails), *equivalent* (verify passes, since
the mutant computes the same unitary along the same trajectory) or
*refused* (the mutant cannot be built: Cycle raises ValueError, and a
document holding it exits 1 from `xbarc verify` and `xbarc stats`). A
killed kind also declares whether replay alone kills it, which is what
holds above EQUIV_CAP, where verify skips the statevector check.

At 12 qubits every kind's verdict is asserted on MUTANTS_PER_KIND sites
drawn by random.Random(0). At 200 qubits only the kinds that replay kills
and the refused kinds are asserted. The known survivors there are the
kinds that change what a pulse or a phase shuttle computes but move no
qubit: the sg_rot and zsh angles, the pulse axis and the pulse parity, all
0/10 killed at 200 qubits in the table of ROADMAP direction 10. A check
that scales past 12 qubits (direction 11) will assert them there too.

A compiled schedule has no two adjacent cycles that both leave every site
as it is (test_adjacent_cycles_always_hold_a_move), so a swap of adjacent
cycles always moves a move cycle, and replay kills it.
"""
import json
import random
from dataclasses import replace
from typing import Callable, NamedTuple

import pytest

from conftest import compile_native
from xbarc import BenchSpec, gen_random_uniform, verify
from xbarc.cli import main
from xbarc.crossbar import Grid, apply_cycle
from xbarc.instructions import Cycle, CycleType, Instruction, InstrKind, Schedule, schedule_to_doc
from xbarc.verifier import EQUIV_CAP

MUTANTS_PER_KIND = 4

_OPPOSITE = {InstrKind.SH_L: InstrKind.SH_R, InstrKind.SH_U: InstrKind.SH_D, InstrKind.ZSH_L: InstrKind.ZSH_R}
_OPPOSITE |= {b: a for a, b in _OPPOSITE.items()}


def _ops(accepts: Callable[[Instruction], bool]):
    """The (cycle, op) sites of every instruction `accepts` takes."""
    return lambda s: [(i, j) for i, c in enumerate(s.cycles) for j, op in enumerate(c.ops) if accepts(op)]


def _cycles(s: Schedule):
    return [(i, 0) for i in range(len(s.cycles))]


def _with_cycles(s: Schedule, cycles) -> Schedule:
    """s with other cycles, its digest kept: what replay checks them against."""
    return replace(s, cycles=tuple(cycles))


def _edit(change: Callable[[Instruction], Instruction]):
    """A mutation that replaces op j of cycle i with change(op)."""

    def mutate(s, i, j, rng):
        ops = s.cycles[i].ops
        return _with_cycles(s, s.cycles[:i] + (Cycle(ops[:j] + (change(ops[j]),) + ops[j + 1:]),) + s.cycles[i + 1:])

    return mutate


def _repeat_op(s, i, j, rng):
    """Op j listed a second time inside cycle i."""
    ops = s.cycles[i].ops
    return _with_cycles(s, s.cycles[:i] + (Cycle(ops + (ops[j],)),) + s.cycles[i + 1:])


def _move_operand(s, i, j, rng):
    """sqswap(q0, q1) of cycle i becomes sqswap(q0, r), r a qubit that is not
    q0's upper or lower neighbour when the cycle runs."""
    grid = Grid(s.grid_n, s.placement)
    for cycle in s.cycles[:i]:
        apply_cycle(grid, cycle)
    q0, q1 = s.cycles[i].ops[j].qubits
    x, y = grid.site_of(q0)
    far = [r for r in range(s.n_qubits) if r != q0 and grid.site_of(r) not in ((x, y - 1), (x, y + 1))]
    return _edit(lambda op: op._replace(qubits=(q0, rng.choice(far))))(s, i, j, rng)


def _moves(cycle: Cycle) -> bool:
    return cycle.ops[0].kind.moves


class MutantKind(NamedTuple):
    name: str
    sites: Callable[[Schedule], list[tuple[int, int]]]  # the (cycle, op) sites it can mutate
    mutate: Callable  # (schedule, cycle, op, rng) -> the mutant schedule
    verdict: str  # "killed", "equivalent" or "refused"
    replay_kills: bool = False  # replay alone kills it, at any qubit count


def _pulses(op):
    return op.kind is InstrKind.SG_ROT


def _sqswaps(op):
    return op.kind is InstrKind.SQSWAP


CATALOGUE = [
    MutantKind("sg_rot angle + 0.3", _ops(_pulses), _edit(lambda op: op._replace(angle=op.angle + 0.3)), "killed"),
    MutantKind("zsh angle + 0.3", _ops(lambda op: op.kind.family is CycleType.Z),
               _edit(lambda op: op._replace(angle=op.angle + 0.3)), "killed"),
    MutantKind("pulse parity flipped", _ops(_pulses), _edit(lambda op: op._replace(parity=1 - op.parity)), "killed"),
    MutantKind("pulse axis flipped", _ops(_pulses),
               _edit(lambda op: op._replace(axis="y" if op.axis == "x" else "x")), "killed"),
    MutantKind("zsh_l and zsh_r swapped", _ops(lambda op: op.kind.family is CycleType.Z),
               _edit(lambda op: op._replace(kind=_OPPOSITE[op.kind])), "killed", replay_kills=True),
    MutantKind("shuttle direction flipped", _ops(lambda op: op.kind.family is CycleType.SHUTTLE),
               _edit(lambda op: op._replace(kind=_OPPOSITE[op.kind])), "killed", replay_kills=True),
    MutantKind("cycle dropped", _cycles, lambda s, i, j, rng: _with_cycles(s, s.cycles[:i] + s.cycles[i + 1:]),
               "killed", replay_kills=True),
    MutantKind("cycle duplicated", _cycles, lambda s, i, j, rng: _with_cycles(s, s.cycles[:i + 1] + s.cycles[i:]),
               "killed", replay_kills=True),
    MutantKind("adjacent cycles swapped",
               lambda s: [(i, 0) for i in range(len(s.cycles) - 1) if s.cycles[i] != s.cycles[i + 1]],
               lambda s, i, j, rng: _with_cycles(s, s.cycles[:i] + s.cycles[i:i + 2][::-1] + s.cycles[i + 2:]),
               "killed", replay_kills=True),
    MutantKind("sqswap operand moved off its neighbours", _ops(_sqswaps), _move_operand, "killed", replay_kills=True),
    MutantKind("sqswap operands reversed", _ops(_sqswaps), _edit(lambda op: op._replace(qubits=op.qubits[::-1])),
               "equivalent"),
    MutantKind("sqswap repeated inside its cycle", _ops(_sqswaps), _repeat_op, "refused"),
    MutantKind("pulse repeated inside its cycle", _ops(_pulses), _repeat_op, "refused"),
]
SIZES = {12: CATALOGUE, 200: [k for k in CATALOGUE if k.replay_kills or k.verdict == "refused"]}


@pytest.fixture(scope="module", params=sorted(SIZES))
def compiled(request):
    _, s = compile_native(gen_random_uniform(BenchSpec(request.param, 300, 50.0, 0)))
    assert s.n_qubits == request.param and verify(s).ok
    return s


def _drawn(s: Schedule, kind: MutantKind, rng: random.Random):
    sites = kind.sites(s)
    assert len(sites) >= MUTANTS_PER_KIND, kind.name
    return rng.sample(sites, MUTANTS_PER_KIND)


def test_catalogue_verdicts(compiled):
    s = compiled
    rng = random.Random(0)
    for kind in SIZES[s.n_qubits]:
        for i, j in _drawn(s, kind, rng):
            where = f"{kind.name} at cycle {i} op {j}, {s.n_qubits} qubits"
            if kind.verdict == "refused":
                with pytest.raises(ValueError, match="is named by two instructions|a pulse cycle holds one pulse"):
                    kind.mutate(s, i, j, rng)
                continue
            report = verify(kind.mutate(s, i, j, rng))
            assert report.ok is (kind.verdict == "equivalent"), where
            if kind.replay_kills:
                assert not report.replay_ok, where
            elif s.n_qubits <= EQUIV_CAP:
                # the statevector check kills or clears it; replay alone passes it
                assert report.replay_ok and isinstance(report.equivalence_fidelity, float), where


def test_refused_mutants_are_a_user_error_in_a_document(compiled, tmp_path, capsys):
    s = compiled
    rng = random.Random(1)
    for kind in (k for k in SIZES[s.n_qubits] if k.verdict == "refused"):
        doc = schedule_to_doc(s)
        i, j = _drawn(s, kind, rng)[0]
        doc["cycles"][i].append(doc["cycles"][i][j])
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(doc))
        for command in ("verify", "stats"):
            capsys.readouterr()
            assert main([command, "-i", str(path)]) == 1, (kind.name, command)
            assert f"cycle {i}: " in capsys.readouterr().err


def test_adjacent_cycles_always_hold_a_move(compiled):
    cycles = compiled.cycles
    assert all(_moves(a) or _moves(b) for a, b in zip(cycles, cycles[1:]))

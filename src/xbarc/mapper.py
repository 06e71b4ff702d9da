"""Placement and routing onto the grid.

initial_placement is the one place the idle layout is decided: the dense
checkerboard on the smallest grid that holds the circuit, qubit i on the
i-th checkerboard site in left-to-right, bottom-to-top order.

Two-qubit gates route the first operand through a chain of diagonal steps
(shuttle-based exchanges with whoever occupies the step target, or a plain
two-shuttle move onto an empty checkerboard site) until it sits diagonally
adjacent to the second operand, then a horizontal shuttle / sqswap /
horizontal shuttle triplet performs the interaction and restores the
checkerboard. A Z rotation rides a phase shuttle (zsh_l or zsh_r, carrying
the angle) to a neighbouring column and returns by a plain shuttle the
other way. A targeted X/Y rotation uses the semi-global compensation
scheme: an sg_rot pulse on the target's column parity, a shuttle of the
target out, an sg_rot of the negated angle on the same parity, a shuttle
of the target home. Each move is emitted as the kind whose delta is its
unit step. Every entry point routes one gate on the grid it is given and
advances it through `_checked`. Every routed cycle of moves, a lone move
or an exchange (the second mover stepping back across the barrier the
first one crosses), is judged and applied in one pass by
crossbar.step_legal; the other cycles, a lone pulse or a lone sqswap
(tests/test_crossbar.py::test_only_lone_pulses_and_sqswaps_reach_the_fallback),
are checked with check_parallel_set and applied with apply_cycle. Both
record its site changes in grid.trajectory.
"""
from __future__ import annotations

from .crossbar import Grid, apply_cycle, check_parallel_set, step_legal
from .errors import CompileError, CrossbarError
from .instructions import Cycle, CycleType, Instruction, InstrKind, grid_side

# unit step (dx, dy) -> the plain shuttle, and dx -> the phase shuttle
_SHUTTLE = {kind.delta: kind for kind in InstrKind if kind.family is CycleType.SHUTTLE}
_ZSH = {kind.delta[0]: kind for kind in InstrKind if kind.family is CycleType.Z}


def initial_placement(n_qubits: int) -> Grid:
    """A fresh Grid of side grid_side(n_qubits) with qubit i on the i-th
    checkerboard site ((x + y) even) in left-to-right, bottom-to-top order."""
    n = grid_side(n_qubits)
    return Grid(n, tuple((x, y) for y in range(n) for x in range(y % 2, n, 2))[:n_qubits])


def _shuttle(q: int, dx: int, dy: int, src: tuple[int, ...]) -> Instruction:
    return Instruction(_SHUTTLE[dx, dy], (q,), src=src)


def _checked(grid: Grid, cycle: Cycle) -> None:
    """Apply a routed cycle to the grid: step_legal's one pass, else
    check_parallel_set, whose conflict is a CompileError, and apply_cycle."""
    if step_legal(grid, cycle):
        return
    report = check_parallel_set(grid, cycle)
    if not report.ok:
        raise CompileError(f"internal routing conflict: {report.kind.value}: {report.detail}")
    apply_cycle(grid, cycle)


def _pick_corner(grid: Grid, a_site, b_site):
    """Diagonal-neighbour site of b minimizing the step count from a.

    Step count from s to t over diagonal moves is max(|dx|, |dy|); ties
    prefer the corner nearest a in x, then lower column, then lower row.
    On N >= 2 every site has a diagonal neighbour inside the grid.
    """
    (ax, ay), (bx, by) = a_site, b_site
    return min((max(abs(ax - tx), abs(ay - ty)), abs(ax - tx), tx, ty)
               for tx in (bx - 1, bx + 1) for ty in (by - 1, by + 1) if grid.in_grid((tx, ty)))[2:]


def _axis_steps(p: int, t: int, k: int) -> list[int]:
    """k unit steps from p to t on one axis: straight toward t, then
    away-and-back pairs, away toward the lower coordinate unless t is 0."""
    toward, away = (1 if t > p else -1), (1 if t == 0 else -1)
    return [toward] * abs(t - p) + [away, -away] * ((k - abs(t - p)) // 2)


def _diagonal_path(start, target):
    """Diagonal unit steps from start to target (both checkerboard sites):
    k = Chebyshev(start, target) steps, both axes moving on each."""
    (px, py), (tx, ty) = start, target
    k = max(abs(tx - px), abs(ty - py))
    return list(zip(_axis_steps(px, tx, k), _axis_steps(py, ty, k)))


def route_two_qubit(grid: Grid, a: int, b: int, src: int = 0) -> tuple[Cycle, ...]:
    """Route qubit a next to b and emit the interaction cycles.

    k diagonal steps (k = Chebyshev(a, b) - 1) bring a diagonally adjacent
    to b; each step is two 2-instruction parallel shuttle cycles when the
    step target is occupied (a shuttle-based exchange, 4 instructions /
    2 cycles) or two 1-instruction cycles onto an empty site. The block
    ends with [horizontal shuttle of a into b's column, sqswap, horizontal
    shuttle back]; the checkerboard is broken only inside those cycles.
    Each cycle is checked and applied to `grid` as it is emitted.
    """
    if a == b:
        raise ValueError("two-qubit gate needs distinct operands")
    cycles: list[Cycle] = []
    a_site, b_site = grid.site_of(a), grid.site_of(b)
    corner = _pick_corner(grid, a_site, b_site)
    srcs = (src,)

    for sx, sy in _diagonal_path(a_site, corner):
        px, py = grid.site_of(a)
        step_target = (px + sx, py + sy)
        partner = grid.qubit_at(step_target)
        h_ops = [_shuttle(a, sx, 0, srcs)]
        v_ops = [_shuttle(a, 0, sy, srcs)]
        if partner is not None:
            h_ops.append(_shuttle(partner, -sx, 0, srcs))
            v_ops.append(_shuttle(partner, 0, -sy, srcs))
        for ops in (h_ops, v_ops):
            cycle = Cycle(tuple(ops))
            _checked(grid, cycle)
            cycles.append(cycle)

    ax, ay = grid.site_of(a)
    bx, by = grid.site_of(b)
    if abs(ax - bx) != 1 or abs(ay - by) != 1:
        raise CompileError(f"routing left {a} at {(ax, ay)}, not diagonal to {b} at {(bx, by)}")

    dx = bx - ax
    triplet = (
        Cycle((_shuttle(a, dx, 0, srcs),)),
        Cycle((Instruction(InstrKind.SQSWAP, (a, b), src=srcs),)),
        Cycle((_shuttle(a, -dx, 0, srcs),)),
    )
    for cycle in triplet:
        _checked(grid, cycle)
    return (*cycles, *triplet)


def z_route(grid: Grid, q: int, angle: float, src: int = 0) -> tuple[Cycle, ...]:
    """Z rotation as a phase shuttle (zsh_l or zsh_r) to an empty horizontal
    neighbour (the lower column winning ties) and a plain shuttle back,
    checked and applied to `grid`."""
    x, y = grid.site_of(q)
    dx = next((dx for dx in (-1, 1) if grid.in_grid((x + dx, y)) and not grid.occupied((x + dx, y))), None)
    if dx is None:
        raise CrossbarError(
            f"qubit {q} at {(x, y)} has no empty horizontal neighbour site "
            f"on the {grid.n}x{grid.n} grid for its Z shuttle"
        )
    out = Cycle((Instruction(_ZSH[dx], (q,), angle=angle, src=(src,)),))
    back = Cycle((_shuttle(q, -dx, 0, (src,)),))
    _checked(grid, out)
    _checked(grid, back)
    return out, back


def expand_semi_global(grid: Grid, q: int, axis: str, angle: float, src: int = 0) -> tuple[Cycle, ...]:
    """Semi-global X/Y rotation on qubit q.

    If q is alone in its column parity, one pulse suffices. Otherwise: pulse
    the parity, shuttle q to the other parity (right unless blocked, else
    left), pulse the parity by the negated angle, shuttle back. The cycles,
    the lone pulse included, are checked and applied to `grid`.
    """
    x, y = grid.site_of(q)
    parity = x % 2
    srcs = (src,)
    rot = Instruction(InstrKind.SG_ROT, angle=angle, axis=axis, parity=parity, src=srcs)
    # q is alone in its parity when it is alone in its column and every
    # other column of that parity is empty: O(side) from the column masks
    same_parity = grid.cols[parity::2]
    if grid.cols[x] == 1 << y and same_parity.count(0) == len(same_parity) - 1:
        cycles = (Cycle((rot,)),)
    else:
        dx = 1 if grid.in_grid((x + 1, y)) and not grid.occupied((x + 1, y)) else -1
        inv = Instruction(InstrKind.SG_ROT, angle=-angle, axis=axis, parity=parity, src=srcs)
        cycles = (
            Cycle((rot,)),
            Cycle((_shuttle(q, dx, 0, srcs),)),
            Cycle((inv,)),
            Cycle((_shuttle(q, -dx, 0, srcs),)),
        )
    for cycle in cycles:
        _checked(grid, cycle)
    return cycles

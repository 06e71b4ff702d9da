"""Placement and routing onto the grid.

Two-qubit gates route the first operand through a chain of diagonal steps
(shuttle-based exchanges with whoever occupies the step target, or a plain
two-shuttle move onto an empty checkerboard site) until it sits diagonally
adjacent to the second operand, then a horizontal shuttle / sqswap /
horizontal shuttle triplet performs the interaction and restores the
checkerboard. Z rotations ride a timed shuttle to a neighbouring column and
back. A targeted X/Y rotation uses the semi-global compensation scheme:
rotate the target's column parity, shuttle the target out, rotate the
parity back, shuttle the target home. Every entry point routes one gate on
its own copy of the grid and checks its shuttles and swaps with `_checked`.
"""
from __future__ import annotations

from itertools import islice

from .circuits import Circuit
from .crossbar import Grid, apply_cycle, check_parallel_set, checkerboard_sites
from .errors import CompileError, CrossbarError
from .instructions import Cycle, Instruction, InstrKind


def initial_placement(circuit: Circuit, grid: Grid) -> Grid:
    """Trivial one-to-one placement: qubit i on the i-th checkerboard site
    in left-to-right, bottom-to-top order."""
    sites = tuple(islice(checkerboard_sites(grid.n), circuit.n_qubits))
    if len(sites) < circuit.n_qubits:
        raise CompileError(f"{grid.n}x{grid.n} grid cannot hold {circuit.n_qubits} qubits")
    return Grid(grid.n, sites)


def _h_shuttle(q: int, dx: int, src) -> Instruction:
    return Instruction(InstrKind.SH_R if dx > 0 else InstrKind.SH_L, (q,), src=tuple(src))


def _v_shuttle(q: int, dy: int, src) -> Instruction:
    return Instruction(InstrKind.SH_U if dy > 0 else InstrKind.SH_D, (q,), src=tuple(src))


def _checked(grid: Grid, cycle: Cycle) -> None:
    report = check_parallel_set(grid, cycle)
    if not report.ok:
        raise CompileError(f"internal routing conflict: {report.kind.value}: {report.detail}")
    apply_cycle(grid, cycle)


def _pick_corner(grid: Grid, a_site, b_site):
    """Diagonal-neighbour site of b minimizing the step count from a.

    Step count from s to t over diagonal moves is max(|dx|, |dy|); ties
    prefer the corner nearest a in x, then lower column, then lower row.
    """
    ax, ay = a_site
    bx, by = b_site
    best = None
    for cx in (-1, 1):
        for cy in (-1, 1):
            t = (bx + cx, by + cy)
            if not grid.in_grid(t):
                continue
            k = max(abs(ax - t[0]), abs(ay - t[1]))
            key = (k, abs(ax - t[0]), t[0], t[1])
            if best is None or key < best[0]:
                best = (key, t)
    if best is None:  # pragma: no cover - impossible for N >= 2
        raise CompileError(f"no diagonal neighbour of {b_site} inside the grid")
    return best[1]


def _diagonal_path(grid: Grid, start, target):
    """Diagonal unit steps from start to target (both checkerboard sites)."""
    steps = []
    px, py = start
    tx, ty = target
    while (px, py) != (tx, ty):
        if px < tx:
            sx = 1
        elif px > tx:
            sx = -1
        else:  # wiggle x, preferring the lower column
            sx = -1 if px - 1 >= 0 else 1
        if py < ty:
            sy = 1
        elif py > ty:
            sy = -1
        else:
            sy = -1 if py - 1 >= 0 else 1
        px, py = px + sx, py + sy
        steps.append((sx, sy))
    return steps


def route_two_qubit(grid: Grid, a: int, b: int, src: int = 0) -> tuple[Cycle, ...]:
    """Route qubit a next to b and emit the interaction cycles.

    k diagonal steps (k = Chebyshev(a, b) - 1) bring a diagonally adjacent
    to b; each step is two 2-instruction parallel shuttle cycles when the
    step target is occupied (a shuttle-based exchange, 4 instructions /
    2 cycles) or two 1-instruction cycles onto an empty site. The block
    ends with [horizontal shuttle of a into b's column, sqswap, horizontal
    shuttle back]; the checkerboard is broken only inside those cycles.
    Routes on a copy: the caller's grid is left unchanged.
    """
    if a == b:
        raise ValueError("two-qubit gate needs distinct operands")
    grid = grid.copy()
    cycles: list[Cycle] = []
    a_site, b_site = grid.site_of(a), grid.site_of(b)
    corner = _pick_corner(grid, a_site, b_site)
    srcs = (src,)

    for sx, sy in _diagonal_path(grid, a_site, corner):
        px, py = grid.site_of(a)
        step_target = (px + sx, py + sy)
        partner = grid.qubit_at(step_target)
        h_ops = [_h_shuttle(a, sx, srcs)]
        v_ops = [_v_shuttle(a, sy, srcs)]
        if partner is not None:
            h_ops.append(_h_shuttle(partner, -sx, srcs))
            v_ops.append(_v_shuttle(partner, -sy, srcs))
        for ops in (h_ops, v_ops):
            cycle = Cycle(tuple(ops))
            _checked(grid, cycle)
            cycles.append(cycle)

    ax, ay = grid.site_of(a)
    bx, by = grid.site_of(b)
    if abs(ax - bx) != 1 or abs(ay - by) != 1:
        raise CompileError(f"routing left {a} at {(ax, ay)}, not diagonal to {b} at {(bx, by)}")

    dx = bx - ax
    cycle_in = Cycle((_h_shuttle(a, dx, srcs),))
    _checked(grid, cycle_in)
    cycles.append(cycle_in)

    swap = Cycle((Instruction(InstrKind.SQSWAP, (a, b), src=srcs),))
    _checked(grid, swap)
    cycles.append(swap)

    cycle_out = Cycle((_h_shuttle(a, -dx, srcs),))
    _checked(grid, cycle_out)
    cycles.append(cycle_out)

    return tuple(cycles)


def z_route(grid: Grid, q: int, angle: float, src: int = 0) -> tuple[Cycle, ...]:
    """Z rotation as a phase-carrying shuttle to an empty horizontal
    neighbour (the lower column winning ties) and back, checked on a copy
    of the caller's grid."""
    x, y = grid.site_of(q)
    if x - 1 >= 0 and not grid.occupied((x - 1, y)):
        direction, back_dir = "L", "R"
    elif x + 1 < grid.n and not grid.occupied((x + 1, y)):
        direction, back_dir = "R", "L"
    else:
        raise CrossbarError(
            f"qubit {q} at {(x, y)} has no empty horizontal neighbour site "
            f"on the {grid.n}x{grid.n} grid for its Z shuttle"
        )
    out = Cycle((Instruction(InstrKind.ZSH, (q,), angle=angle, direction=direction, src=(src,)),))
    back = Cycle((Instruction(InstrKind.ZSH_RET, (q,), direction=back_dir, src=(src,)),))
    grid = grid.copy()
    _checked(grid, out)
    _checked(grid, back)
    return out, back


def expand_semi_global(grid: Grid, q: int, axis: str, angle: float, src: int = 0) -> tuple[Cycle, ...]:
    """Semi-global X/Y rotation on qubit q.

    If q is alone in its column parity, one pulse suffices. Otherwise: pulse
    the parity, shuttle q to the other parity (right unless blocked, else
    left), pulse the inverse, shuttle back. The cycles are checked on a copy
    of the caller's grid.
    """
    parity = grid.column_parity(q)
    srcs = (src,)
    rot = Instruction(InstrKind.SG_ROT, angle=angle, axis=axis, parity=parity, src=srcs)
    if grid.parity_members(parity) == (q,):
        return (Cycle((rot,)),)

    x, y = grid.site_of(q)
    dx = 1 if grid.in_grid((x + 1, y)) and not grid.occupied((x + 1, y)) else -1
    inv = Instruction(InstrKind.SG_ROT_INV, angle=-angle, axis=axis, parity=parity, src=srcs)
    cycles = (
        Cycle((rot,)),
        Cycle((_h_shuttle(q, dx, srcs),)),
        Cycle((inv,)),
        Cycle((_h_shuttle(q, -dx, srcs),)),
    )
    g = grid.copy()
    for cycle in cycles:
        _checked(g, cycle)
    return cycles

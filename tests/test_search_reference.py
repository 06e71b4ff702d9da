"""The conflict model's cycle finder and the router's corner and path against
the hand-written searches they replaced.

_reference_find_ql_cycle, _reference_pick_corner and
_reference_diagonal_path are the earlier implementations, copied unchanged:
a colour depth-first search with a parent map, a loop over b's four diagonal
neighbours, and a step-by-step walk. The replacements must give the same
output on every input below, so schedules, documents and conflict reports
do not change.
"""
import random

import pytest

from xbarc.crossbar import Grid, _find_ql_cycle
from xbarc.errors import CompileError
from xbarc.mapper import _diagonal_path, _pick_corner

from conftest import checkerboard_sites


def _reference_find_ql_cycle(pairs):
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


def _reference_pick_corner(grid, a_site, b_site):
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


def _reference_diagonal_path(grid, start, target):
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


def _pair_lists(seed: int, count: int):
    """Seeded random pair lists: path-shaped ones, whose pairs join adjacent
    nodes as every QL pair does, and general ones; a small node range and
    repeated entries give duplicates."""
    rng = random.Random(seed)
    for i in range(count):
        size = rng.randint(0, 14)
        if i % 2:
            pairs = []
            for _ in range(size):
                k = rng.randint(-4, 4)
                pairs.append((k, k + 1) if rng.random() < 0.5 else (k + 1, k))
        else:
            pairs = [tuple(rng.sample(range(-3, 4), 2)) for _ in range(size)]
        if pairs and rng.random() < 0.3:
            pairs += rng.choices(pairs, k=rng.randint(1, 3))
            rng.shuffle(pairs)
        yield pairs


@pytest.mark.parametrize("seed", range(4))
def test_find_ql_cycle_matches_the_colour_dfs(seed):
    n_cyclic = 0
    for pairs in _pair_lists(seed, 1000):
        want = _reference_find_ql_cycle(pairs)
        assert _find_ql_cycle(pairs) == want, pairs
        n_cyclic += want is not None
    assert 100 < n_cyclic < 900  # both outcomes are exercised


@pytest.mark.parametrize("n", range(2, 10))
def test_corner_and_path_match_the_walk(n):
    grid = Grid(n, ())
    sites = list(checkerboard_sites(n))
    for a in sites:
        for b in sites:
            corner = _pick_corner(grid, a, b)
            assert corner == _reference_pick_corner(grid, a, b), (a, b)
            assert _diagonal_path(a, b) == _reference_diagonal_path(grid, a, b), (a, b)

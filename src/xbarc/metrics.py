"""Gate/depth overhead and estimated success probability.

ESP multiplies one fidelity factor per executed instruction, drawn from a
per-type per-site map: every move, plain or phase shuttle, reads the
shuttle fidelity at its destination, the origin stepped by its kind's
delta; sqswap reads its class at the lower of its two sites; and a
semi-global pulse (sg_rot, the compensating pulse of negated angle
included) charges one single-qubit factor for every qubit currently in the
addressed parity, spectators included.

esp does not multiply in instruction order: one integer walk counts, per
class and per site, how many factors the schedule charges there, and the
product then takes f ** k once per site with a nonzero count k. The model
is the same; the product is only reassociated, so ESP differs from
in-order multiplication in its last digits.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .circuits import Circuit
from .config import ArchConfig, FIDELITY_CLASSES
from .crossbar import apply_op  # noqa: F401  unused; perfbench/tracing.py binds this name
from .errors import CompileError, CrossbarError
from .instructions import InstrKind, Schedule
from .ir import CountsByType, counts_by_type, dependency_depth

_CLAMP_LO = 1e-12


@dataclass(frozen=True)
class FidelityMap:
    """One (N, N) fidelity table per class; esp reads each as a flat row-major list."""

    grid_n: int
    values: dict[str, np.ndarray]  # class -> (N, N) array indexed [y, x]


def build_fidelity_map(n: int, config: ArchConfig) -> FidelityMap:
    """Draw per-type per-site fidelities for an n x n grid from
    Normal(mean, std), clamped to (0, 1]. The seeded generator walks sites
    row-major for each class in the fixed order single_qubit, shuttle,
    sqswap."""
    rng = np.random.default_rng(config.seed)
    values = {}
    for cls in FIDELITY_CLASSES:
        draws = rng.normal(config.means[cls], config.stds[cls], size=(n, n))
        values[cls] = np.clip(draws, _CLAMP_LO, 1.0)
    return FidelityMap(n, values)


@dataclass(frozen=True)
class MetricsReport:
    name: str
    n_qubits: int
    n_decomposed: int
    n_final: int
    gate_overhead_pct: float
    d_dependency: int
    d_final: int
    depth_overhead_pct: float
    esp: float
    compile_time_ms: float
    counts: CountsByType

    def to_json_dict(self) -> dict:
        """The fields in declaration order; counts gain their n_total, and
        compile_time_ms is rounded to the sweep CSV's 3 decimals."""
        d = asdict(self)
        d["compile_time_ms"] = round(self.compile_time_ms, 3)
        d["counts"]["n_total"] = self.counts.n_total
        return d


# stable CSV layout; twoq/xy percentages use the share-of-total convention
CSV_COLUMNS = [
    "name",
    "n_qubits",
    "n_decomposed",
    "n_final",
    "gate_oh_pct",
    "d_dep",
    "d_final",
    "depth_oh_pct",
    "esp",
    "compile_ms",
    "twoq_pct_post_decomp",
    "xy_pct_post_decomp",
    "error",
]


def csv_row(report: MetricsReport) -> list:
    total = max(report.counts.n_total, 1)
    return [
        report.name,
        report.n_qubits,
        report.n_decomposed,
        report.n_final,
        f"{report.gate_overhead_pct:.4f}",
        report.d_dependency,
        report.d_final,
        f"{report.depth_overhead_pct:.4f}",
        f"{report.esp:.6e}",
        f"{report.compile_time_ms:.3f}",
        f"{100.0 * report.counts.n_twoq / total:.4f}",
        f"{100.0 * report.counts.n_xy / total:.4f}",
        "",
    ]


def _factor_counts(schedule: Schedule) -> tuple[list[int], list[int], list[int]]:
    """How many single_qubit, shuttle and sqswap factors the schedule
    charges at each site, as three flat lists indexed y * N + x.

    One walk over flat tables, the coordinates x0, y0, x1, y1, ... and a
    site table holding the qubit on each site or -1. A pulse only counts
    itself in pulses[parity]; arrived[q] is that count for q's column parity
    when q reached its site, so when q leaves, and at the end, its site is
    charged the pulses q sat through there. A move off the grid or onto an
    occupied site, or a sqswap of qubits that are not vertically adjacent,
    raises CrossbarError, as apply_op would."""
    n = schedule.grid_n
    xy = [v for site in schedule.placement for v in site]
    sites = [-1] * (n * n)
    for q, (x, y) in enumerate(schedule.placement):
        sites[y * n + x] = q
    single, shuttle, sqswap = [0] * (n * n), [0] * (n * n), [0] * (n * n)
    pulses = [0, 0]
    arrived = [0] * len(schedule.placement)
    sqswap_kind = InstrKind.SQSWAP  # bound once (see InstrKind)
    for cycle in schedule.cycles:
        for op in cycle.ops:
            kind = op.kind
            if kind.moves:
                q = op.qubits[0]
                i = 2 * q
                x, y = xy[i], xy[i + 1]
                dx, dy = kind.delta
                to_x, to_y = x + dx, y + dy
                if not (0 <= to_x < n and 0 <= to_y < n):
                    raise CrossbarError(f"{kind.value} moves qubit {q} off-grid to {(to_x, to_y)}")
                to = to_y * n + to_x
                if sites[to] >= 0:
                    raise CrossbarError(f"{kind.value} destination {(to_x, to_y)} occupied")
                at = y * n + x
                single[at] += pulses[x & 1] - arrived[q]
                arrived[q] = pulses[to_x & 1]
                sites[at], sites[to] = -1, q
                xy[i], xy[i + 1] = to_x, to_y
                shuttle[to] += 1
            elif kind is sqswap_kind:
                a, b = op.qubits
                x, y, bx, by = xy[2 * a], xy[2 * a + 1], xy[2 * b], xy[2 * b + 1]
                if x != bx or abs(y - by) != 1:
                    raise CrossbarError(
                        f"sqswap({a},{b}) needs vertically adjacent sites, got {(x, y)}, {(bx, by)}"
                    )
                sqswap[min(y, by) * n + x] += 1
            else:  # semi-global pulse
                pulses[op.parity] += 1
    for q, (x, y) in enumerate(zip(xy[0::2], xy[1::2])):
        single[y * n + x] += pulses[x & 1] - arrived[q]
    return single, shuttle, sqswap


def esp(schedule: Schedule, fmap: FidelityMap) -> float:
    """Product over the schedule's instructions of the applicable
    fidelities, taken per site as f ** k from _factor_counts' tallies, in
    class order single_qubit, shuttle, sqswap and row-major site order.
    Only the order of multiplication differs from the instruction order,
    so the result differs from an in-order product in its last digits."""
    if fmap.grid_n != schedule.grid_n:
        raise CompileError("fidelity map does not cover this schedule's grid")
    total = 1.0
    for cls, counts in zip(FIDELITY_CLASSES, _factor_counts(schedule)):
        for f, k in zip(fmap.values[cls].ravel().tolist(), counts):
            if k:
                total *= f**k
    return total


def overhead_report(
    decomposed: Circuit,
    schedule: Schedule,
    fmap: FidelityMap,
    compile_time_ms: float = 0.0,
) -> MetricsReport:
    """Gate overhead is extra instructions over the decomposed count (a
    semi-global pulse counts as one instruction regardless of spectators);
    depth overhead compares cycle count against the dependency-only depth.
    An empty circuit compiles to an empty schedule: 0 % of both."""
    n_dec = len(decomposed.gates)
    n_final = schedule.n_instructions
    d_dep = dependency_depth(decomposed)
    d_final = schedule.depth
    return MetricsReport(
        name=schedule.name,
        n_qubits=decomposed.n_qubits,
        n_decomposed=n_dec,
        n_final=n_final,
        gate_overhead_pct=100.0 * (n_final - n_dec) / n_dec if n_dec else 0.0,
        d_dependency=d_dep,
        d_final=d_final,
        depth_overhead_pct=100.0 * (d_final - d_dep) / d_dep if d_dep else 0.0,
        esp=esp(schedule, fmap),
        compile_time_ms=compile_time_ms,
        counts=counts_by_type(decomposed),
    )

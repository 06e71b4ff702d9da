"""Gate/depth overhead and estimated success probability.

ESP multiplies one fidelity factor per executed instruction, drawn from a
per-type per-site map: every move, plain or phase shuttle, reads the
shuttle fidelity at its destination, the origin stepped by its kind's
delta; sqswap reads its class at the lower of its two sites; and a
semi-global pulse (sg_rot, the compensating pulse of negated angle
included) charges one single-qubit factor for every qubit currently in the
addressed parity, spectators included.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .circuits import Circuit
from .config import ArchConfig, FIDELITY_CLASSES
from .crossbar import Grid, apply_op, sqswap_sites
from .errors import CompileError
from .instructions import InstrKind, Schedule
from .ir import CountsByType, counts_by_type, dependency_depth

_CLAMP_LO = 1e-12


@dataclass(frozen=True)
class FidelityMap:
    """One (N, N) fidelity table per class; esp reads each as nested lists."""

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


def esp(schedule: Schedule, fmap: FidelityMap) -> float:
    """Product over cycles and instructions of the applicable fidelity,
    read from fmap's tables converted to nested lists indexed [y][x]."""
    if fmap.grid_n != schedule.grid_n:
        raise CompileError("fidelity map does not cover this schedule's grid")
    single, shuttle, sqswap = (fmap.values[c].tolist() for c in FIDELITY_CLASSES)
    grid = Grid(schedule.grid_n, schedule.placement)
    total = 1.0
    sqswap_kind = InstrKind.SQSWAP  # bound once (see InstrKind)
    for cycle in schedule.cycles:
        for op in cycle.ops:
            apply_op(grid, op)  # only a move changes the grid, and its factor is read at its destination
            if op.kind.moves:
                x, y = grid.site_of(op.qubits[0])
                total *= shuttle[y][x]
            elif op.kind is sqswap_kind:
                x, y = min(sqswap_sites(grid, *op.qubits), key=lambda s: s[1])
                total *= sqswap[y][x]
            else:  # semi-global pulse: every qubit in the parity contributes, in qubit order
                parity = op.parity
                xy = iter(grid.coords)
                for x, y in zip(xy, xy):
                    if x % 2 == parity:
                        total *= single[y][x]
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

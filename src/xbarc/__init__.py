"""Compiler toolchain for shared-control spin-qubit crossbar arrays.

Pipeline: parse_qasm -> decompose -> initial_placement ->
schedule_integrated -> verify / metrics. See the CLI (`xbarc`) for the
end-to-end flow.
"""
from .benchgen import BenchSpec, gen_bernstein_vazirani, gen_random_uniform
from .circuits import Circuit, Gate, GateKind
from .config import ArchConfig, load_config
from .crossbar import (
    ConflictKind,
    ConflictReport,
    Grid,
    SignalRequirements,
    apply_op,
    check_parallel_set,
    shuttle_requirements,
)
from .instructions import Cycle, CycleType, Instruction, InstrKind, Schedule, schedule_from_doc
from .ir import QIG, CountsByType, counts_by_type, decompose, dependency_depth, interaction_graph
from .mapper import expand_semi_global, initial_placement, route_two_qubit, z_route
from .metrics import FidelityMap, MetricsReport, build_fidelity_map, esp, overhead_report
from .qasm import emit_output, parse_qasm
from .scheduler import schedule_integrated
from .verifier import VerifyReport, replay_verify, statevector_equiv, verify

__all__ = [
    "ArchConfig",
    "BenchSpec",
    "Circuit",
    "ConflictKind",
    "ConflictReport",
    "CountsByType",
    "Cycle",
    "CycleType",
    "FidelityMap",
    "Gate",
    "GateKind",
    "Grid",
    "Instruction",
    "InstrKind",
    "MetricsReport",
    "QIG",
    "Schedule",
    "SignalRequirements",
    "VerifyReport",
    "apply_op",
    "build_fidelity_map",
    "check_parallel_set",
    "counts_by_type",
    "decompose",
    "dependency_depth",
    "emit_output",
    "esp",
    "expand_semi_global",
    "gen_bernstein_vazirani",
    "gen_random_uniform",
    "initial_placement",
    "interaction_graph",
    "load_config",
    "overhead_report",
    "parse_qasm",
    "replay_verify",
    "route_two_qubit",
    "schedule_from_doc",
    "schedule_integrated",
    "shuttle_requirements",
    "statevector_equiv",
    "verify",
    "z_route",
]

__version__ = "0.1.0"

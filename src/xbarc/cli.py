"""Command-line entry point.

Subcommands: compile, verify, stats, benchgen, sweep. Exit codes:
0 success, 1 usage error, 2 verification failure (replay failed or
equivalence fidelity below 1 - 1e-9), 3 internal defensive error, 141
standard output closed by its reader (128 + SIGPIPE). The SPINQ_SEED
environment variable overrides the config seed.

`main` runs each command with Python's cyclic garbage collector paused
(`collector_paused`). This is safe because a command builds no reference
cycles of its own: reference counting frees everything it makes, and the only
cyclic garbage left is a few of `json.dumps(indent=...)`'s encoder closures,
the same number at any circuit size. Without the pause, the collector's full
passes over a document's many containers free nothing and cost about a tenth
of a 200-qubit verify. The pause stops where the command does: `main` restores
the caller's setting on every exit, and the library functions leave the
collector to their caller.
"""
from __future__ import annotations

import argparse
import csv
import functools
import gc
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .benchgen import BenchSpec, bench_name, gen_bernstein_vazirani, gen_random_uniform
from .circuits import Circuit, is_finite_real
from .config import ArchConfig, check_seed, load_config
from .errors import CompileError, XbarcError
from .instructions import MAX_QUBITS, schedule_from_doc, schedule_to_doc
from .ir import counts_by_type, decompose, interaction_graph
from .mapper import initial_placement
from .metrics import CSV_COLUMNS, build_fidelity_map, csv_row, overhead_report
from .qasm import circuit_to_qasm, emit_output, parse_qasm
from .scheduler import timed_schedule
from .verifier import verify


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector off, then turn it
    back on if it was on before."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _read_doc(path: str) -> dict:
    """The parsed JSON of a schedule document."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise XbarcError(f"{path} nests JSON deeper than the decoder allows") from None


def _load_arch(path: str | None) -> ArchConfig:
    config = load_config(Path(path).read_text()) if path else load_config("{}")
    env_seed = os.environ.get("SPINQ_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            seed = env_seed
        config = replace(config, seed=check_seed("SPINQ_SEED", seed))
    return config


def _compile_circuit(circuit: Circuit, config: ArchConfig):
    """(schedule, metrics) of a circuit compiled on the smallest grid that
    holds it; the callers verify, since `compile --no-verify` does not."""
    dec = decompose(circuit, config)
    grid = initial_placement(dec.n_qubits)
    schedule, ms = timed_schedule(dec, grid, name=circuit.name)
    metrics = overhead_report(dec, schedule, build_fidelity_map(grid.n, config), compile_time_ms=ms)
    return schedule, metrics


def cmd_compile(args) -> int:
    """Write the schedule document (schedule_to_doc plus the metrics) as
    compact JSON (`python -m json.tool` indents it), and the QASM text for
    --emit-qasm."""
    config = _load_arch(args.config)
    circuit = parse_qasm(Path(args.input).read_text(), name=Path(args.input).stem)
    schedule, metrics = _compile_circuit(circuit, config)
    report = None if args.no_verify else verify(schedule)
    failed = report is not None and not report.ok
    if failed:
        print("verification FAILED:", json.dumps(report.to_json_dict()), file=sys.stderr)

    doc = schedule_to_doc(schedule) | {"metrics": metrics.to_json_dict()}
    Path(args.output).write_text(json.dumps(doc, separators=(",", ":")))
    if args.emit_qasm:
        Path(args.emit_qasm).write_text(emit_output(schedule))
    print(
        f"{schedule.name}: {metrics.n_decomposed} -> {metrics.n_final} instructions "
        f"({metrics.gate_overhead_pct:.1f}% gate overhead), depth {metrics.d_dependency} -> "
        f"{metrics.d_final} ({metrics.depth_overhead_pct:.1f}%), esp {metrics.esp:.4f}, "
        f"{metrics.compile_time_ms:.1f} ms"
    )
    return 2 if failed else 0


def cmd_verify(args) -> int:
    doc = _read_doc(args.input)
    schedule = schedule_from_doc(doc)
    report = verify(schedule)
    print(json.dumps(report.to_json_dict(), indent=1))
    return 0 if report.ok else 2


def cmd_stats(args) -> int:
    doc = _read_doc(args.input)
    schedule = schedule_from_doc(doc)
    if args.qig and schedule.circuit is None:
        raise XbarcError("--qig needs the document's embedded circuit, and this document has none")
    m = doc.get("metrics")
    if m is not None:
        for key in ("gate_overhead_pct", "depth_overhead_pct", "esp"):
            value = m.get(key) if isinstance(m, dict) else None
            if not is_finite_real(value):
                raise XbarcError(f"document metrics lack a finite number under key {key!r}")
    print(f"name: {schedule.name}")
    print(f"qubits: {schedule.n_qubits} on a {schedule.grid_n}x{schedule.grid_n} grid")
    print(f"cycles: {schedule.depth}, instructions: {schedule.n_instructions}")
    if m is not None:
        print(f"gate overhead: {m['gate_overhead_pct']:.2f}%  depth overhead: "
              f"{m['depth_overhead_pct']:.2f}%  esp: {m['esp']:.6f}")
    if schedule.circuit is not None:
        counts = counts_by_type(schedule.circuit)
        singles = counts.n_xy + counts.n_z
        print(f"decomposed counts: xy={counts.n_xy} z={counts.n_z} twoq={counts.n_twoq}")
        # both conventions, since foreign circuits may use either; with no
        # single-qubit gates the ratio is inf%, or 0% when there are no gates
        share = 100.0 * counts.n_twoq / max(counts.n_total, 1)
        ratio = 100.0 * counts.n_twoq / singles if singles else (float("inf") if counts.n_twoq else 0.0)
        print(f"two-qubit percentage: {share:.2f}% of total, {ratio:.2f}% of single-qubit count")
        qig = interaction_graph(schedule.circuit)
        print(f"qig: {len(qig.edges)} edges, total weight {qig.total_weight}")
        print("qig edges:", json.dumps(qig.to_edge_list()))
        if args.qig:
            Path(args.qig).write_text(qig.to_dot())
            print(f"qig dot written to {args.qig}")
    return 0


def cmd_benchgen(args) -> int:
    if args.bv is not None:
        if args.qubits is not None or args.gates is not None:
            raise XbarcError("--bv takes neither --qubits nor --gates")
        if args.bv < 1:
            raise ValueError(f"--bv must be at least 1, got {args.bv}")
        if args.bv > MAX_QUBITS:
            raise ValueError(f"--bv must be at most 2**20 = {MAX_QUBITS} qubits, got {args.bv}")
        secret = args.secret if args.secret is not None else "1" * (args.bv - 1)
        circuit = gen_bernstein_vazirani(args.bv, secret)
    else:
        if args.secret is not None:
            raise XbarcError("--secret needs --bv")
        if args.qubits is None or args.gates is None:
            raise XbarcError("benchgen needs --qubits/--gates (or --bv)")
        spec = BenchSpec(args.qubits, args.gates, args.twoq, args.seed)
        circuit = gen_random_uniform(spec)
    Path(args.output).write_text(circuit_to_qasm(circuit))
    print(f"{circuit.name}: {len(circuit.gates)} gates on {circuit.n_qubits} qubits -> {args.output}")
    return 0


@dataclass(frozen=True)
class SweepSpec:
    qubits: tuple[int, int, int]  # start, stop (inclusive), step
    gates: tuple[int, int, int]
    twoq: tuple[int, int, int]
    seeds: int
    csv_path: str

    def __post_init__(self):
        # SeedSequence takes only non-negative entropy; float(p) and g * p
        # overflow past float range; an empty range would write a CSV of
        # no rows
        for option, (start, stop, _) in (("--qubits", self.qubits), ("--gates", self.gates), ("--twoq", self.twoq)):
            if not all(is_finite_real(v) and v >= 0 for v in (start, stop)):
                raise XbarcError(
                    f"{option} bounds must be non-negative and finite as floats, got {(start, stop)}"
                )
            if start > stop:
                raise XbarcError(f"{option} range {start}:{stop} is empty: its start exceeds its stop")
        if self.seeds < 1:
            raise XbarcError(f"--seeds must be at least 1, got {self.seeds}")

    def points(self):
        for q in range(self.qubits[0], self.qubits[1] + 1, self.qubits[2]):
            for g in range(self.gates[0], self.gates[1] + 1, self.gates[2]):
                for p in range(self.twoq[0], self.twoq[1] + 1, self.twoq[2]):
                    for rep in range(self.seeds):
                        yield q, g, p, rep


def parse_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) == 1:
        a = int(parts[0])
        return (a, a, 1)
    if len(parts) == 2:
        return (int(parts[0]), int(parts[1]), 1)
    if len(parts) == 3:
        a, b, s = (int(p) for p in parts)
        if s <= 0:
            raise ValueError("range step must be positive")
        return (a, b, s)
    raise ValueError(f"bad range {text!r}, expected start:stop[:step]")


def run_sweep(spec: SweepSpec, config: ArchConfig) -> None:
    """Generate/compile/verify every grid point and append one CSV row each.

    Rows are deterministic apart from the timing column; per-point failures
    land in the error column and the sweep continues.
    """
    with open(spec.csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for q, g, p, rep in spec.points():
            point_seed = int(
                np.random.SeedSequence([config.seed, q, g, p, rep]).generate_state(1)[0]
            )
            try:  # BenchSpec raises ValueError on an infeasible point
                circuit = gen_random_uniform(BenchSpec(q, g, float(p), point_seed))
                schedule, metrics = _compile_circuit(circuit, config)
                report = verify(schedule)
                if not report.ok:
                    raise CompileError(
                        f"verification failed: {len(report.violations)} violations, "
                        f"equivalence fidelity {report.equivalence_fidelity}"
                    )
                writer.writerow(csv_row(metrics))
            except (XbarcError, ValueError) as e:
                row = [bench_name(q, g, float(p), point_seed), q] + [""] * (len(CSV_COLUMNS) - 3)
                writer.writerow(row + [str(e)])


def cmd_sweep(args) -> int:
    config = _load_arch(args.config)
    spec = SweepSpec(
        qubits=parse_range(args.qubits),
        gates=parse_range(args.gates),
        twoq=parse_range(args.twoq),
        seeds=args.seeds,
        csv_path=args.csv,
    )
    run_sweep(spec, config)
    n_rows = sum(1 for _ in spec.points())
    print(f"sweep complete: {n_rows} rows -> {args.csv}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The xbarc parser, built on first use and shared by every later call."""
    # --help shows the docstring's first two paragraphs, not the notes on the collector
    parser = argparse.ArgumentParser(prog="xbarc", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a QASM circuit onto the crossbar")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-c", "--config", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--emit-qasm", default=None)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="replay-verify a compiled schedule document")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="report circuit/schedule statistics and the QIG")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--qig", default=None, help="write the interaction graph as DOT")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("benchgen", help="generate benchmark circuits")
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--gates", type=int, default=None)
    p.add_argument("--twoq", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--bv", type=int, default=None, help="Bernstein-Vazirani size")
    p.add_argument("--secret", default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_benchgen)

    p = sub.add_parser("sweep", help="compile a benchmark grid and emit a CSV")
    p.add_argument("--qubits", required=True, help="start:stop[:step], stop inclusive")
    p.add_argument("--gates", required=True)
    p.add_argument("--twoq", required=True)
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--csv", required=True)
    p.add_argument("-c", "--config", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        with collector_paused():
            status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader of standard output has gone: point stdout at devnull so
        # the interpreter's last flush stays silent, and exit as a shell
        # reports a writer stopped by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CompileError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (XbarcError, OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

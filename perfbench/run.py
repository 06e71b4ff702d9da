"""End-to-end benchmark of `xbarc compile` and `xbarc verify`.

    python3 perfbench/run.py --workload randu-q12 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. One process and one thread run a closed
loop with one client: each circuit is compiled only after the previous one
is done. For every circuit the workload's QASM is generated from the seed
before timing; the timed part is exactly what a user runs,
`xbarc.cli.main(["compile", ...])` and then `xbarc.cli.main(["verify", ...])`
on the document it wrote. Every output is checked. A fixed probe task that
does not touch xbarc is timed between circuits, and the end-to-end times are
reported as multiples of the probe time around the same circuit, so that the
host's drifting CPU throughput cancels out. The last line of stdout is one
JSON object: the end-to-end metrics with `--trace 0`, the per-layer metrics
of a separately traced run with `--trace 1`. Per-circuit records, the
golden-hash comparison and the trace spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

# one thread: xbarc's statevector gates are too small for BLAS threads to pay
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

FIDELITY_FLOOR = 1.0 - 1e-9
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import xbarc\n"
    "xbarc.load_config('{}')\n"
    "print(time.perf_counter() - t0)\n"
)

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "compile_rel.p50": "probe",
    "gates_per_probe": "1/probe",
    "verify_rel.p50": "probe",
    "gate_oh_pct": "%",
    "depth_oh_pct": "%",
    "esp.geomean": "prob",
    "doc_mb": "MB",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "crossbar.check_s": "s/circuit",
    "crossbar.check_calls": "count/circuit",
    "crossbar.conflict_frac": "ratio",
    "crossbar.apply_s": "s/circuit",
    "crossbar.apply_calls": "count/circuit",
    "scheduler.schedule_s": "s/circuit",
    "scheduler.self_s": "s/circuit",
    "scheduler.us_per_instr": "us",
    "scheduler.split_calls": "count/circuit",
    "scheduler.n_cycles": "count/circuit",
    "scheduler.ops_per_cycle": "ratio",
    "mapper.place_s": "s/circuit",
    "mapper.route_s": "s/circuit",
    "mapper.route_calls": "count/circuit",
    "verifier.replay_s": "s/circuit",
    "verifier.equiv_s": "s/circuit",
    "sim.circuit_s": "s/circuit",
    "sim.schedule_s": "s/circuit",
    "sim.apply_calls": "count/circuit",
    "qasm.parse_s": "s/circuit",
    "qasm.emit_s": "s/circuit",
    "ir.decompose_s": "s/circuit",
    "metrics.fmap_s": "s/circuit",
    "metrics.esp_s": "s/circuit",
    "instructions.from_doc_s": "s/circuit",
    "instructions.positions_frac": "ratio",
    "cli.self_s": "s/circuit",
    "trace.compile_s": "s/circuit",
    "trace.verify_s": "s/circuit",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "wall.compile_s.p50": "s",
    "wall.compile_s.p90": "s",
    "wall.verify_s.p50": "s",
    "wall.probe_s": "s",
}


@dataclass
class CircuitResult:
    """One compile + verify of one circuit, with its checks."""

    name: str
    n_qubits: int
    batch: int
    traced: bool = False
    compile_rc: int | None = None
    verify_rc: int | None = None
    compile_s: float = 0.0
    verify_s: float = 0.0
    # probe seconds before compile, between compile and verify, after verify
    probe_s: list[float] = field(default_factory=list)
    error: str | None = None  # compile produced no document, or a check failed
    wrong: bool = False  # a document was produced and failed a check
    doc_bytes: int = 0
    positions_bytes: int = 0
    n_decomposed: int = 0
    n_instructions: int = 0
    n_cycles: int = 0
    gate_oh_pct: float = 0.0
    depth_oh_pct: float = 0.0
    esp: float = 0.0
    cycles_sha256: str = ""

    @property
    def failed(self) -> bool:
        return self.error is not None

    @property
    def compile_rel(self) -> float:
        return self.compile_s / statistics.fmean(self.probe_s[:2])

    @property
    def verify_rel(self) -> float:
        return self.verify_s / statistics.fmean(self.probe_s[1:])


def _call_cli(argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, wall seconds, stdout, stderr) of one xbarc.cli.main call.

    A stray exception is an exit code of its own (-1), so it is counted as
    a failure and never ends the run.
    """
    from xbarc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # noqa: BLE001 - boundary: record and keep running
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return rc, wall, out.getvalue(), err.getvalue()


def _verify_passes(report: dict, n_qubits: int, equiv_cap: int) -> str | None:
    """None when a verify report passes; otherwise why it does not."""
    if not report.get("replay_ok"):
        return "replay failed"
    fid = report.get("equivalence_fidelity")
    if n_qubits <= equiv_cap and not isinstance(fid, float):
        return f"no equivalence fidelity within the cap: {fid!r}"
    if isinstance(fid, float) and not fid >= FIDELITY_FLOOR:
        return f"equivalence fidelity {fid!r} below {FIDELITY_FLOOR!r}"
    return None


def run_circuit(
    workdir: Path, name: str, n_qubits: int, qasm: str, batch: int, tracer=None, probe=None
) -> CircuitResult:
    """Compile and verify one circuit through the CLI, then check the outputs.

    `probe`, if given, is timed between the compile and the verify.
    """
    from xbarc.verifier import EQUIV_CAP

    res = CircuitResult(name, n_qubits, batch, traced=tracer is not None)
    src = workdir / f"{name}.qasm"
    doc_path = workdir / f"{name}.json"
    src.write_text(qasm)
    doc_path.unlink(missing_ok=True)
    span = tracer.span if tracer is not None else (lambda _name: contextlib.nullcontext())
    if tracer is not None:
        tracer.circuit = name
    try:
        with span("cli.compile"):
            res.compile_rc, res.compile_s, _, err = _call_cli(["compile", "-i", str(src), "-o", str(doc_path)])
        # exit 2 still writes the document, with a failed verdict
        if res.compile_rc not in (0, 2) or not doc_path.is_file():
            res.error = f"compile exit {res.compile_rc}: {err.strip()[-500:]}"
            return res
        if probe is not None:
            res.probe_s.append(probe())
        with span("cli.verify"):
            res.verify_rc, res.verify_s, out, err = _call_cli(["verify", "-i", str(doc_path)])

        text = doc_path.read_text()
        doc = json.loads(text)
        res.doc_bytes = len(text.encode())
        if tracer is not None:
            res.positions_bytes = res.doc_bytes - len(
                json.dumps({k: v for k, v in doc.items() if k != "positions"}, indent=1).encode()
            )
        m = doc["metrics"]
        res.n_decomposed = m["n_decomposed"]
        res.n_instructions = m["n_final"]
        res.n_cycles = m["d_final"]
        res.gate_oh_pct = m["gate_overhead_pct"]
        res.depth_oh_pct = m["depth_overhead_pct"]
        res.esp = m["esp"]
        canonical = json.dumps(doc["cycles"], sort_keys=True, separators=(",", ":"))
        res.cycles_sha256 = hashlib.sha256(canonical.encode()).hexdigest()

        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            report = {}
        verify_problem = (
            _verify_passes(report, n_qubits, EQUIV_CAP)
            if res.verify_rc in (0, 2)
            else f"verify exit {res.verify_rc}: {err.strip()[-500:]}"
        )
        if res.compile_rc != 0:
            res.error = "compile reported a failed verification"
        elif verify_problem is not None:
            res.error = f"verify disagrees with compile: {verify_problem}"
        res.wrong = res.failed
        return res
    finally:
        src.unlink(missing_ok=True)
        doc_path.unlink(missing_ok=True)


def probe_s() -> float:
    """Seconds of a fixed task that does not touch xbarc.

    Its mix follows what a compile spends time on: a pure-Python loop, JSON
    serialising and parsing, and small tensordot gate applications on a
    12-qubit statevector. On a shared host the CPU throughput drifts by
    20-35 % over tens of seconds, for the probe and a compile alike, so a
    compile's time divided by the probe's time around it stays put while a
    change to xbarc still moves it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i % 7
    rows = [{"op": "shuttle", "q": [i, i + 1], "pos": [[j, j + 1] for j in range(20)]} for i in range(1500)]
    json.loads(json.dumps(rows, indent=1))
    state = np.zeros((2,) * 12, dtype=complex)
    state[(0,) * 12] = 1.0
    gate = np.eye(4, dtype=complex).reshape(2, 2, 2, 2)
    for k in range(1500):
        a = k % 11
        state = np.moveaxis(np.tensordot(gate, state, axes=[[2, 3], [a, a + 1]]), [0, 1], [a, a + 1])
    return time.perf_counter() - t0


def setup_sample() -> float:
    """Seconds of `import xbarc` plus `load_config` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_loop(workload, seed: int, seconds: float, trace: bool, workdir: Path):
    """Closed loop over whole batches until the time budget is spent.

    The probe runs before the first circuit, between each compile and its
    verify, and after every circuit, so each compile and each verify has a
    probe on either side. Untraced runs also take one set-up sample before
    each batch, and at least SETUP_REPEATS in all, so set-up time is sampled
    across the whole run rather than in one burst. With tracing, every
    circuit runs untraced and then traced, so the overhead of tracing is
    measured on the same input. Returns the circuit results, the tracer and
    the set-up samples.
    """
    from tracing import Tracer, traced

    tracer = Tracer() if trace else None
    min_batches = 1 if trace else workload.quality_batches
    results: list[CircuitResult] = []
    probes = [probe_s()]  # one before the first circuit and one after each
    setup: list[float] = []
    deadline = time.perf_counter() + seconds
    last_wall = 0.0
    index = 0
    while index < min_batches or time.perf_counter() + last_wall <= deadline:
        batch = workload.qasm_batch(seed, index)
        if not trace:
            setup.append(setup_sample())
        t0 = time.perf_counter()
        for name, n_qubits, qasm in batch:
            results.append(run_circuit(workdir, name, n_qubits, qasm, index, probe=probe_s))
            probes.append(probe_s())
            if tracer is not None:
                with traced(tracer):
                    results.append(run_circuit(workdir, name, n_qubits, qasm, index, tracer, probe_s))
                probes.append(probe_s())
        last_wall = time.perf_counter() - t0
        index += 1
    while not trace and len(setup) < SETUP_REPEATS:
        setup.append(setup_sample())
    for r, before, after in zip(results, probes, probes[1:]):
        r.probe_s = [before, *r.probe_s, after]
    return results, tracer, setup


def end_to_end_metrics(results: list[CircuitResult], quality_batches: int, setup_s: float) -> dict:
    ok = [r for r in results if not r.failed]
    quality = [r for r in ok if r.batch < quality_batches]
    return {
        "setup_s": setup_s,
        "compile_rel.p50": statistics.median(r.compile_rel for r in ok),
        "gates_per_probe": statistics.median(r.n_decomposed / r.compile_rel for r in ok),
        "verify_rel.p50": statistics.median(r.verify_rel for r in ok),
        "gate_oh_pct": statistics.fmean(r.gate_oh_pct for r in quality),
        "depth_oh_pct": statistics.fmean(r.depth_oh_pct for r in quality),
        "esp.geomean": math.exp(statistics.fmean(math.log(r.esp) for r in quality)),
        "doc_mb": statistics.fmean(r.doc_bytes for r in quality) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / len(results),
    }


def per_layer_metrics(results: list[CircuitResult], tracer) -> dict:
    traced_ok = [r for r in results if r.traced and not r.failed]
    untraced_ok = [r for r in results if not r.traced and not r.failed]
    compile_s = [r.compile_s for r in untraced_ok]
    n = max(len(traced_ok), 1)
    spans = tracer.spans

    def total(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    self_s = tracer.self_times()
    check, apply, sim_apply = tracer.leaf("crossbar.check"), tracer.leaf("crossbar.apply"), tracer.leaf("sim.apply")
    n_instr = sum(r.n_instructions for r in traced_ok)
    n_cycles = sum(r.n_cycles for r in traced_ok)
    roots = total("cli.compile") + total("cli.verify")
    cli_self = self_s.get("cli.compile", 0.0) + self_s.get("cli.verify", 0.0)
    # same circuit, untraced run first, then traced
    pairs = [
        (results[i], results[i + 1])
        for i in range(len(results) - 1)
        if results[i + 1].traced and not results[i].failed and not results[i + 1].failed
    ]
    overhead = [
        (t.compile_s + t.verify_s) / (u.compile_s + u.verify_s) - 1.0 for u, t in pairs
    ]
    return {
        "crossbar.check_s": check.seconds / n,
        "crossbar.check_calls": check.calls / n,
        "crossbar.conflict_frac": check.not_ok / check.calls if check.calls else 0.0,
        "crossbar.apply_s": apply.seconds / n,
        "crossbar.apply_calls": apply.calls / n,
        "scheduler.schedule_s": total("scheduler.schedule") / n,
        "scheduler.self_s": (self_s.get("scheduler.schedule", 0.0) + self_s.get("scheduler.split", 0.0)) / n,
        "scheduler.us_per_instr": 1e6 * total("scheduler.schedule") / n_instr if n_instr else 0.0,
        "scheduler.split_calls": count("scheduler.split") / n,
        "scheduler.n_cycles": n_cycles / n,
        "scheduler.ops_per_cycle": n_instr / n_cycles if n_cycles else 0.0,
        "mapper.place_s": total("mapper.place") / n,
        "mapper.route_s": total("mapper.route") / n,
        "mapper.route_calls": count("mapper.route") / n,
        "verifier.replay_s": total("verifier.replay") / n,
        "verifier.equiv_s": total("verifier.equiv") / n,
        "sim.circuit_s": total("sim.circuit") / n,
        "sim.schedule_s": total("sim.schedule") / n,
        "sim.apply_calls": sim_apply.calls / n,
        "qasm.parse_s": total("qasm.parse") / n,
        "qasm.emit_s": total("qasm.emit") / n,
        "ir.decompose_s": total("ir.decompose") / n,
        "metrics.fmap_s": total("metrics.fmap") / n,
        "metrics.esp_s": total("metrics.esp") / n,
        "instructions.from_doc_s": total("instructions.from_doc") / n,
        "instructions.positions_frac": (
            sum(r.positions_bytes for r in traced_ok) / sum(r.doc_bytes for r in traced_ok)
            if traced_ok else 0.0
        ),
        "cli.self_s": cli_self / n,
        "trace.compile_s": total("cli.compile") / n,
        "trace.verify_s": total("cli.verify") / n,
        "trace.unattributed_frac": cli_self / roots if roots else 0.0,
        "trace.overhead_frac": statistics.median(overhead) if overhead else 0.0,
        "wall.compile_s.p50": statistics.median(compile_s),
        # linear interpolation between closest ranks, as numpy's default
        "wall.compile_s.p90": (
            statistics.quantiles(compile_s, n=10, method="inclusive")[-1] if len(compile_s) > 1 else compile_s[0]
        ),
        "wall.verify_s.p50": statistics.median(r.verify_s for r in untraced_ok),
        "wall.probe_s": statistics.median(t for r in untraced_ok for t in r.probe_s),
    }


def golden_check(workload: str, seed: int, results, quality_batches: int, metrics: dict, bless: bool) -> dict:
    """Compare the hash of the quality batches' cycles with perfbench/golden.json.

    A different hash is a schedule change, reported on stderr, not a failure.
    """
    digest = hashlib.sha256()
    for r in results:
        if r.batch < quality_batches:
            digest.update(f"{r.name}:{r.cycles_sha256}\n".encode())
    entry = {
        "cycles_sha256": digest.hexdigest(),
        **{k: metrics[k] for k in ("gate_oh_pct", "depth_oh_pct", "esp.geomean", "doc_mb")},
    }
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    blessed = golden.get(workload, {}).get(str(seed))
    changed = blessed is not None and blessed["cycles_sha256"] != entry["cycles_sha256"]
    if changed:
        print(
            f"schedule change: {workload} seed {seed} cycles hash {entry['cycles_sha256']} "
            f"!= golden {blessed['cycles_sha256']} (golden quality {blessed})",
            file=sys.stderr,
        )
    if bless:
        golden.setdefault(workload, {})[str(seed)] = entry
        golden[workload] = dict(sorted(golden[workload].items(), key=lambda kv: int(kv[0])))
        GOLDEN.write_text(json.dumps(dict(sorted(golden.items())), indent=1) + "\n")
    return {"entry": entry, "golden": blessed, "schedule_changed": changed}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true", help="record this seed's cycle hash as golden")
    return parser


def main(argv=None, workloads=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "xbarc" / "__init__.py").is_file():
        print(f"error: no xbarc source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    workloads = workloads if workloads is not None else WORKLOADS
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        results, tracer, setup = run_loop(workload, args.seed, args.seconds, bool(args.trace), Path(tmp))

    for r in results:
        if r.failed:
            print(f"{r.name}: {r.error}", file=sys.stderr)
    if not any(not r.failed and r.batch < workload.quality_batches for r in results):
        print("error: no circuit of the first batches compiled; nothing to report", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        metrics = per_layer_metrics(results, tracer)
        units = PER_LAYER
        record["self_s_by_root"] = {
            root: tracer.self_times(root) for root in ("cli.compile", "cli.verify")
        }
        record["trace"] = tracer.to_json()
    else:
        metrics = end_to_end_metrics(results, workload.quality_batches, statistics.median(setup))
        units = END_TO_END
        record["golden"] = golden_check(
            args.workload, args.seed, results, workload.quality_batches, metrics, args.bless
        )
    failed = sum(r.failed for r in results)
    summary = {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record["summary"] = summary
    record["circuits"] = [asdict(r) for r in results]
    out_file = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

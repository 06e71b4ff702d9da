"""Time each phase of compile and verify on random-uniform circuits.

    python scripts/phase_times.py [--seed S] QUBITSxGATES [QUBITSxGATES ...]

For each size, e.g. `12x1000`, it generates one circuit with 50 % two-qubit
gates (gen_random_uniform at the seed) and times the library calls that
`xbarc compile` and `xbarc verify` make, in ms:

- parse: parse_qasm of the circuit's QASM text;
- decompose: decompose to the native gate set;
- schedule: initial_placement plus schedule_integrated;
- metrics: overhead_report, ESP included;
- replay: replay_verify;
- equiv: statevector_equiv ("skipped" above its qubit cap);
- write: schedule_to_doc plus compact json.dumps;
- load: json.loads plus schedule_from_doc.

Each call runs inside the same cyclic-collector pause as an xbarc command
(`cli.collector_paused`). After one untimed call of every phase on every
size, it times ROUNDS rounds; a round times every phase of every size once,
the sizes one after another, so the sizes' figures come from the same moments
of a host whose speed drifts. Each cell is the median over the rounds.

It prints one row per size with the emitted instruction count, the size of
the compact schedule_to_doc JSON in KB (1000 bytes), and two µs per
instruction figures: schedule alone, then schedule, replay, equiv, metrics and
write together. These are the columns of ROADMAP.md's Baseline table.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from xbarc import BenchSpec, build_fidelity_map, gen_random_uniform, load_config  # noqa: E402
from xbarc.cli import collector_paused  # noqa: E402
from xbarc.instructions import schedule_from_doc, schedule_to_doc  # noqa: E402
from xbarc.ir import decompose  # noqa: E402
from xbarc.mapper import initial_placement  # noqa: E402
from xbarc.metrics import overhead_report  # noqa: E402
from xbarc.qasm import circuit_to_qasm, parse_qasm  # noqa: E402
from xbarc.scheduler import schedule_integrated  # noqa: E402
from xbarc.verifier import EQUIV_CAP, replay_verify, statevector_equiv  # noqa: E402

PHASES = ("parse", "decompose", "schedule", "metrics", "replay", "equiv", "write", "load")
ROUNDS = 5


def _timed_ms(fn) -> float:
    """ms of one call of fn, with the cyclic collector paused as in xbarc."""
    with collector_paused():
        t0 = time.perf_counter()
        fn()
        return 1000.0 * (time.perf_counter() - t0)


def _phase_calls(n_qubits: int, n_gates: int, seed: int):
    """The calls to time per phase (None for a skipped equiv), the emitted
    instruction count and the bytes of the compact schedule_to_doc JSON."""
    config = load_config("{}")
    text = circuit_to_qasm(gen_random_uniform(BenchSpec(n_qubits, n_gates, 50.0, seed)))
    circuit = parse_qasm(text)
    dec = decompose(circuit, config)
    grid = initial_placement(dec.n_qubits)
    schedule = schedule_integrated(dec, grid)
    fmap = build_fidelity_map(grid.n, config)
    doc_text = json.dumps(schedule_to_doc(schedule), separators=(",", ":"))
    calls = {
        "parse": lambda: parse_qasm(text),
        "decompose": lambda: decompose(circuit, config),
        "schedule": lambda: schedule_integrated(dec, initial_placement(dec.n_qubits)),
        "metrics": lambda: overhead_report(dec, schedule, fmap),
        "replay": lambda: replay_verify(schedule),
        "equiv": (lambda: statevector_equiv(dec, schedule)) if dec.n_qubits <= EQUIV_CAP else None,
        "write": lambda: json.dumps(schedule_to_doc(schedule), separators=(",", ":")),
        "load": lambda: schedule_from_doc(json.loads(doc_text)),
    }
    return calls, schedule.n_instructions, len(doc_text.encode())


def phase_table(sizes, seed: int = 0) -> list[tuple[dict[str, float | None], int, int]]:
    """phase_times for each (qubits, gates) size, the sizes timed in turn
    within each of ROUNDS rounds."""
    cases = [_phase_calls(n_qubits, n_gates, seed) for n_qubits, n_gates in sizes]
    for calls, _, _ in cases:  # warm-up
        for fn in calls.values():
            if fn is not None:
                fn()
    samples = [{p: [] for p in PHASES} for _ in cases]
    for _ in range(ROUNDS):
        for (calls, _, _), sample in zip(cases, samples):
            for phase, fn in calls.items():
                if fn is not None:
                    sample[phase].append(_timed_ms(fn))
    return [
        ({p: statistics.median(ms) if ms else None for p, ms in sample.items()}, n_instr, doc_bytes)
        for (_, n_instr, doc_bytes), sample in zip(cases, samples)
    ]


def phase_times(n_qubits: int, n_gates: int, seed: int = 0) -> tuple[dict[str, float | None], int, int]:
    """ms per phase, the median of ROUNDS timed calls after one untimed call
    (None for a skipped equiv), the emitted instruction count and the bytes
    of the compact schedule_to_doc JSON."""
    return phase_table([(n_qubits, n_gates)], seed)[0]


def _size(text: str) -> tuple[int, int]:
    try:
        qubits, gates = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected QUBITSxGATES, e.g. 12x1000, got {text!r}") from None
    return qubits, gates


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sizes", nargs="+", type=_size, metavar="QUBITSxGATES")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print("| workload | " + " | ".join(PHASES) + " | instrs | doc KB | µs/instr |")
    print("|---" * (len(PHASES) + 4) + "|")
    for (n_qubits, n_gates), (ms, n_instr, doc_bytes) in zip(args.sizes, phase_table(args.sizes, args.seed)):
        cells = ["skipped" if ms[p] is None else f"{ms[p]:.1f}" for p in PHASES]
        end_to_end = sum(ms[p] or 0.0 for p in ("schedule", "replay", "equiv", "metrics", "write"))
        per_instr = 1000.0 / max(n_instr, 1)
        print(f"| {n_qubits} q, {n_gates} g | " + " | ".join(cells)
              + f" | {n_instr} | {doc_bytes / 1000:.1f} | {ms['schedule'] * per_instr:.1f} / {end_to_end * per_instr:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

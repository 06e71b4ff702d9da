"""Seeded circuit corpora for the benchmark's workloads.

A workload yields batches of circuits. The run loop compiles whole batches
and stops at the first batch boundary past its time budget, so a run never
ends on a partial batch that would skew the size mix. The quality metrics
and the golden cycle hash cover the first `quality_batches` batches only,
which every run completes, so they depend on the seed alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from xbarc.benchgen import BenchSpec, gen_bernstein_vazirani, gen_random_uniform
from xbarc.circuits import Circuit
from xbarc.qasm import circuit_to_qasm


def child_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def randu_batch(n_qubits: int, n_gates: int):
    def batch(seed: int, index: int) -> list[Circuit]:
        spec = BenchSpec(n_qubits, n_gates, 50.0, child_seed(seed, index))
        return [gen_random_uniform(spec)]

    return batch


def bv_batch(sizes):
    """One Bernstein-Vazirani circuit per size, secrets drawn from the seed.

    No workload uses it today (README.md, "Dropped: bv-sweep"); the tests
    use it for the 1-qubit failure case.
    """

    def batch(seed: int, index: int) -> list[Circuit]:
        rng = np.random.default_rng([seed, index])
        return [
            gen_bernstein_vazirani(n, "".join(str(b) for b in rng.integers(0, 2, size=n - 1)))
            for n in sizes
        ]

    return batch


@dataclass(frozen=True)
class Workload:
    name: str
    batch: Callable[[int, int], list[Circuit]]
    quality_batches: int

    def qasm_batch(self, seed: int, index: int) -> list[tuple[str, int, str]]:
        """(circuit name, qubit count, QASM text) for every circuit of a batch."""
        return [(c.name, c.n_qubits, circuit_to_qasm(c)) for c in self.batch(seed, index)]


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("randu-q12", randu_batch(12, 1000), quality_batches=4),
        Workload("randu-q200", randu_batch(200, 300), quality_batches=5),
    )
}

"""Benchmark circuit generators: random uniform mixes and Bernstein-Vazirani.

`twoq_pct` is the ratio of two-qubit to single-qubit gate count times 100,
so a 50% setting yields equal thirds of X/Y, Z and two-qubit gates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, GateKind, is_finite_real

INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class BenchSpec:
    n_qubits: int
    n_gates: int
    twoq_pct: float
    seed: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        if self.n_qubits > INT64_MAX:  # the generator draws qubit ids as int64
            raise ValueError(f"n_qubits must be at most 2**63 - 1, got {self.n_qubits}")
        if self.n_gates < 1:
            raise ValueError("n_gates must be positive")
        if not is_finite_real(self.n_gates):  # n_gates * twoq_pct would overflow
            raise ValueError("n_gates must be finite as a float")
        if not is_finite_real(self.n_gates * self.twoq_pct):  # NaN, inf, or too large
            raise ValueError(f"twoq_pct times n_gates must be finite, got twoq_pct {self.twoq_pct!r}")
        if self.twoq_pct < 0:
            raise ValueError("twoq_pct must be nonnegative")
        if self.twoq_pct > 0 and self.n_qubits < 2:
            raise ValueError("two-qubit gates need at least 2 qubits")

    @property
    def name(self) -> str:
        return bench_name(self.n_qubits, self.n_gates, self.twoq_pct, self.seed)


def bench_name(n_qubits: int, n_gates: int, twoq_pct: float, seed: int) -> str:
    """Name of the random-uniform circuit of these parameters, feasible or not."""
    return f"randu_q{n_qubits}_g{n_gates}_p{twoq_pct:g}_s{seed}"


def planned_counts(spec: BenchSpec) -> tuple[int, int, int]:
    """(n_xy, n_z, n_twoq) for a spec; n_twoq = round(G * p / (100 + p)),
    half-up, and an odd single-qubit remainder goes to the XY class."""
    p = spec.twoq_pct
    n_twoq = int(math.floor(spec.n_gates * p / (100.0 + p) + 0.5))
    n_single = spec.n_gates - n_twoq
    n_xy = (n_single + 1) // 2
    n_z = n_single // 2
    return n_xy, n_z, n_twoq


def gen_random_uniform(spec: BenchSpec) -> Circuit:
    """Seeded uniform circuit: deterministic bytes for a given spec."""
    n_xy, n_z, n_twoq = planned_counts(spec)
    rng = np.random.default_rng(spec.seed)
    kinds = ["xy"] * n_xy + ["z"] * n_z + ["twoq"] * n_twoq
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "twoq":
            a, b = rng.choice(spec.n_qubits, size=2, replace=False)
            gates.append(Gate(GateKind.SQSWAP, (int(a), int(b))))
        else:
            q = int(rng.integers(spec.n_qubits))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            if kind == "z":
                gates.append(Gate(GateKind.RZ, (q,), angle))
            else:
                axis = GateKind.RX if rng.integers(2) == 0 else GateKind.RY
                gates.append(Gate(axis, (q,), angle))
    return Circuit(spec.name, spec.n_qubits, tuple(gates))


def gen_bernstein_vazirani(n_qubits: int, secret: str) -> Circuit:
    """Textbook construction with the ancilla on the last qubit: X on the
    ancilla, H everywhere, one CNOT(data_i -> ancilla) per set secret bit,
    closing H layer on the data qubits."""
    if len(secret) != n_qubits - 1:
        raise ValueError(f"secret length {len(secret)} != n_qubits - 1 = {n_qubits - 1}")
    if any(c not in "01" for c in secret):
        raise ValueError(f"secret must be a bitstring, got {secret!r}")
    anc = n_qubits - 1
    gates = [Gate(GateKind.X, (anc,))]
    gates += [Gate(GateKind.H, (q,)) for q in range(n_qubits)]
    for i, bit in enumerate(secret):
        if bit == "1":
            gates.append(Gate(GateKind.CNOT, (i, anc)))
    gates += [Gate(GateKind.H, (q,)) for q in range(n_qubits - 1)]
    return Circuit(f"bv_q{n_qubits}_w{secret.count('1')}", n_qubits, tuple(gates))

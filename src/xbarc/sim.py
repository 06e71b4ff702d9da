"""Dense statevector simulation for small-scale equivalence checks.

Little-endian convention: basis index bit q holds qubit q, so the state
vector has length 2**n and qubit q maps to tensor axis n-1-q. A state may
carry a trailing batch axis, shape (2**n, k): every gate acts on each of
the k columns, so several probe states go through one simulation pass.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate, GateKind

SQRT2 = math.sqrt(2.0)


def rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]], dtype=complex)


SQSWAP_MATRIX = np.array(
    [
        [1, 0, 0, 0],
        [0, (1 + 1j) / 2, (1 - 1j) / 2, 0],
        [0, (1 - 1j) / 2, (1 + 1j) / 2, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)

_FIXED = {
    GateKind.H: np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2,
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.diag([1, -1]).astype(complex),
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
    GateKind.T: np.diag([1, np.exp(1j * np.pi / 4)]),
    GateKind.TDG: np.diag([1, np.exp(-1j * np.pi / 4)]),
    GateKind.SQSWAP: SQSWAP_MATRIX,
    GateKind.CNOT: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
}
_ROTATIONS = {GateKind.RX: rx_matrix, GateKind.RY: ry_matrix, GateKind.RZ: rz_matrix}


def gate_matrix(g: Gate) -> np.ndarray:
    if g.kind in _ROTATIONS:
        return _ROTATIONS[g.kind](g.angle)
    if g.kind in _FIXED:
        return _FIXED[g.kind]
    raise ValueError(f"no matrix for {g.kind.value}")


def zero_state(n: int) -> np.ndarray:
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    return state


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    state = np.array([1.0], dtype=complex)
    for _ in range(n):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        amp = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        # qubit k is bit k of the index: new qubit becomes the high bit
        state = np.kron(amp, state)
    return state


def apply_unitary(state: np.ndarray, n: int, qubits, u: np.ndarray) -> np.ndarray:
    """Apply the 2**k x 2**k matrix u to k qubits, qubits[0] the high bit of
    its basis; `state` has shape (2**n,) or (2**n, batch)."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]
    t = state.reshape([2] * n + [-1])
    t = np.tensordot(u.reshape([2] * (2 * k)), t, axes=[list(range(k, 2 * k)), axes])
    t = np.moveaxis(t, list(range(k)), axes)
    return np.ascontiguousarray(t).reshape(state.shape)


def apply_1q(state: np.ndarray, n: int, q: int, u: np.ndarray) -> np.ndarray:
    return apply_unitary(state, n, (q,), u)


def apply_2q(state: np.ndarray, n: int, q1: int, q2: int, u4: np.ndarray) -> np.ndarray:
    """u4 acts on |q1 q2> with q1 the high bit of the 4x4 basis."""
    return apply_unitary(state, n, (q1, q2), u4)


def apply_gate(state: np.ndarray, n: int, g: Gate) -> np.ndarray:
    return apply_unitary(state, n, g.qubits, gate_matrix(g))


def simulate_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    for g in circuit.gates:
        state = apply_gate(state, circuit.n_qubits, g)
    return state

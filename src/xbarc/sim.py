"""Dense statevector simulation for small-scale equivalence checks.

Little-endian convention: basis index bit q holds qubit q, so the state
vector has length 2**n and qubit q maps to tensor axis n-1-q. A state may
carry a trailing batch axis, shape (2**n, k): every gate acts on each of
the k columns, so several probe states go through one simulation pass.

Both equivalence simulators (simulate_circuit here and
verifier.simulate_schedule) feed a RotationFold: each qubit's single-qubit
rotations are folded into one pending 2x2 until that qubit's next two-qubit
gate, which applies them in the same kernel call, so the full state is
touched once per two-qubit gate plus once per qubit at the end. A pending
2x2 is a pair of rows of Python numbers, ((a, b), (c, d)), and a
rotation folds into it in plain complex arithmetic: a numpy call per 2x2
product would cost more than the product. The simulators build the rx, ry
and rz factors the same way from math.cos and math.sin (rx_2x2, ry_2x2,
rz_2x2) and tell the native gate kinds apart by identity, so no GateKind is
hashed per gate. The fold converts a pending 2x2 to an array only when the
kernel applies it.

RotationFold.apply is the one gate kernel. It works in place: the fold
copies the caller's state once into its own buffer and keeps two scratch
buffers of the same size, so a gate allocates no state-sized array (a
12-qubit, 4-probe state is 256 KB). apply_unitary and its apply_1q,
apply_2q and apply_gate wrappers run the same kernel on a fresh copy; the
tests use them as the gate-by-gate reference.
"""
from __future__ import annotations

import math

import numpy as np

from .circuits import Circuit, Gate, GateKind

SQRT2 = math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)


# The rotations as nested pairs of Python numbers, which RotationFold.rotate
# folds without numpy, and the same values as arrays


def rx_2x2(theta: float):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c, -1j * s), (-1j * s, c)


def ry_2x2(theta: float):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (c, -s), (s, c)


def rz_2x2(theta: float):
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (complex(c, -s), 0j), (0j, complex(c, s))


def rx_matrix(theta: float) -> np.ndarray:
    return np.array(rx_2x2(theta), dtype=complex)


def ry_matrix(theta: float) -> np.ndarray:
    return np.array(ry_2x2(theta), dtype=complex)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array(rz_2x2(theta), dtype=complex)


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
# simulate_circuit's kinds, bound once (see GateKind)
_RX, _RY, _RZ, _SQSWAP = GateKind.RX, GateKind.RY, GateKind.RZ, GateKind.SQSWAP


def gate_matrix(g: Gate) -> np.ndarray:
    if g.kind in _ROTATIONS:
        return _ROTATIONS[g.kind](g.angle)
    return _FIXED[g.kind]


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
    its basis; `state` has shape (2**n,) or (2**n, batch). A new array:
    RotationFold.apply on a copy of `state`."""
    fold = RotationFold(state, n)
    fold.apply(qubits, u)
    return fold.state


def apply_1q(state: np.ndarray, n: int, q: int, u: np.ndarray) -> np.ndarray:
    return apply_unitary(state, n, (q,), u)


def apply_2q(state: np.ndarray, n: int, q1: int, q2: int, u4: np.ndarray) -> np.ndarray:
    """u4 acts on |q1 q2> with q1 the high bit of the 4x4 basis."""
    return apply_unitary(state, n, (q1, q2), u4)


# not called by the simulators; kept because perfbench/tracing.py binds this name
def apply_gate(state: np.ndarray, n: int, g: Gate) -> np.ndarray:
    return apply_unitary(state, n, g.qubits, gate_matrix(g))


class RotationFold:
    """A state plus one pending 2x2 per qubit: the product of the rotations
    the qubit received since its last two-qubit gate, not yet applied.

    The final state equals applying every gate in order, up to float
    rounding, because gates on disjoint qubits commute.

    The fold owns its state: the constructor copies the caller's array into
    a C-contiguous complex buffer, `state`, which every gate updates in
    place, so the caller's array is never written and `state` stays the same
    object. Two scratch buffers of the same size hold a gate's operands and
    product; no gate allocates a state-sized array.
    """

    def __init__(self, state: np.ndarray, n: int):
        self.state = np.array(state, dtype=complex, order="C")
        self.n = n
        # per qubit, ((a, b), (c, d)) of Python numbers, or None: identity
        self.pending: list[tuple | None] = [None] * n
        self._batch = self.state.size >> n  # columns per basis index
        self._operands = np.empty(self.state.size, dtype=complex)
        self._product = np.empty(self.state.size, dtype=complex)
        self._views: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}  # apply's, per qubit tuple

    def apply(self, qubits, u: np.ndarray) -> None:
        """The gate kernel: apply the 2**k x 2**k matrix u to the k = 1 or 2
        `qubits`, a tuple, in place, qubits[0] the high bit of its basis.

        The state is viewed with each target qubit's bit as its own axis
        (qubit q is the bit of stride 2**q * batch), the target axes moved
        to the front; np.copyto gathers that view into the operand buffer as
        a (2**k, rest) matrix, np.matmul multiplies it into the product
        buffer, and np.copyto scatters the product back through the view.
        The views depend only on `qubits`, so each tuple's are built once
        (_gate_views) and kept.
        """
        views = self._views.get(qubits)
        if views is None:
            views = self._views[qubits] = self._gate_views(qubits)
        view, operands, operand_rows, product_rows, product = views
        np.copyto(operands, view)
        np.matmul(u, operand_rows, out=product_rows)
        np.copyto(view, product)

    def _gate_views(self, qubits) -> tuple[np.ndarray, ...]:
        """apply's views for one qubit tuple: the state's, the operand
        buffer's in the same shape and as (2**k, rest) rows, and the product
        buffer's as rows and in the state view's shape."""
        if len(qubits) == 1:
            (q,) = qubits
            view = self.state.reshape(-1, 2, self._batch << q).transpose(1, 0, 2)
        else:
            a, b = qubits
            lo, hi = min(a, b), max(a, b)
            view = self.state.reshape(-1, 2, 1 << (hi - lo - 1), 2, self._batch << lo)
            view = view.transpose((1, 3, 0, 2, 4) if a == hi else (3, 1, 0, 2, 4))
        rows = 1 << len(qubits)
        operands = self._operands.reshape(view.shape)
        product_rows = self._product.reshape(rows, -1)
        return view, operands, operands.reshape(rows, -1), product_rows, product_rows.reshape(view.shape)

    def rotate(self, q: int, u) -> None:
        """Fold the 2x2 u, nested pairs or an array, into q's pending
        rotation: u @ pending, in Python complex arithmetic."""
        (a, b), (c, d) = u
        p = self.pending[q]
        if p is None:
            self.pending[q] = (a, b), (c, d)
        else:
            (e, f), (g, h) = p
            self.pending[q] = (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)

    def interact(self, a: int, b: int, u4: np.ndarray) -> None:
        """Apply u4 (a the high bit, as in apply_2q) after both operands'
        pending rotations, in one kernel call. The Kronecker product of the
        two pending 2x2s is a broadcast product: entry [2i+k, 2j+l] is
        ua[i, j] * ub[k, l]."""
        ua, ub = self.pending[a], self.pending[b]
        if ua is not None or ub is not None:
            ua = _I2 if ua is None else np.array(ua, dtype=complex)
            ub = _I2 if ub is None else np.array(ub, dtype=complex)
            u4 = u4 @ (ua[:, None, :, None] * ub[None, :, None, :]).reshape(4, 4)
            self.pending[a] = self.pending[b] = None
        self.apply((a, b), u4)

    def result(self) -> np.ndarray:
        """The final state: every pending rotation applied, in ascending
        qubit order, and cleared, so a second call returns the same state."""
        for q, u in enumerate(self.pending):
            if u is not None:
                self.apply((q,), np.array(u, dtype=complex))
                self.pending[q] = None
        return self.state


def simulate_circuit(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """The circuit's gates in order on `state`, through a RotationFold. The
    native kinds are told apart by identity, so no GateKind is hashed."""
    fold = RotationFold(state, circuit.n_qubits)
    for g in circuit.gates:
        kind, qubits = g.kind, g.qubits
        if kind is _RZ:
            fold.rotate(qubits[0], rz_2x2(g.angle))
        elif kind is _RX:
            fold.rotate(qubits[0], rx_2x2(g.angle))
        elif kind is _RY:
            fold.rotate(qubits[0], ry_2x2(g.angle))
        elif kind is _SQSWAP:
            fold.interact(qubits[0], qubits[1], SQSWAP_MATRIX)
        elif kind.arity == 2:
            fold.interact(qubits[0], qubits[1], gate_matrix(g))
        else:
            fold.rotate(qubits[0], gate_matrix(g))
    return fold.result()

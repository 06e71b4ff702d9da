"""Decomposition correctness (matrix oracles), depth and the QIG."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarc import (
    Circuit,
    Gate,
    GateKind,
    counts_by_type,
    decompose,
    dependency_depth,
    interaction_graph,
    load_config,
)
from xbarc.circuits import NATIVE_KINDS
from xbarc.errors import DecompositionError
from xbarc.sim import gate_matrix

I2 = np.eye(2, dtype=complex)


def unitary_of(gates, n_qubits):
    """Brute-force matrix product oracle (kron-expanded, program order)."""
    dim = 2**n_qubits
    u = np.eye(dim, dtype=complex)
    for g in gates:
        m = gate_matrix(g)
        if len(g.qubits) == 1:
            q = g.qubits[0]
            full = np.array([[1.0]], dtype=complex)
            for k in range(n_qubits - 1, -1, -1):
                full = np.kron(full, m if k == q else I2)
        else:
            # build by summing basis projectors, valid for any qubit pair
            full = np.zeros((dim, dim), dtype=complex)
            q1, q2 = g.qubits
            for col in range(dim):
                b1 = (col >> q1) & 1
                b2 = (col >> q2) & 1
                src = (b1 << 1) | b2
                for out in range(4):
                    amp = m[out, src]
                    if amp == 0:
                        continue
                    o1, o2 = (out >> 1) & 1, out & 1
                    row = col & ~(1 << q1) & ~(1 << q2) | (o1 << q1) | (o2 << q2)
                    full[row, col] += amp
        u = full @ u
    return u


def equal_up_to_phase(u, v, tol=1e-10):
    dim = u.shape[0]
    tr = np.trace(v.conj().T @ u)
    if abs(tr) < 1e-12:
        return False
    phase = tr / abs(tr)
    return np.max(np.abs(u - phase * v)) < tol


@pytest.fixture(scope="module")
def config():
    return load_config("{}")


class TestDecompose:
    def test_identity_on_native(self, config):
        c = Circuit("n", 2, (Gate(GateKind.RX, (0,), 0.3), Gate(GateKind.SQSWAP, (0, 1))))
        assert decompose(c, config).gates == c.gates

    def test_cnot_six_gates_two_sqswap(self, config):
        c = Circuit("c", 2, (Gate(GateKind.CNOT, (0, 1)),))
        dec = decompose(c, config)
        assert len(dec.gates) == 6
        assert sum(g.kind is GateKind.SQSWAP for g in dec.gates) == 2
        u = unitary_of(dec.gates, 2)
        cnot = unitary_of([Gate(GateKind.CNOT, (0, 1))], 2)
        assert equal_up_to_phase(u, cnot)

    def test_cnot_reversed_operands(self, config):
        c = Circuit("c", 2, (Gate(GateKind.CNOT, (1, 0)),))
        dec = decompose(c, config)
        u = unitary_of(dec.gates, 2)
        cnot = unitary_of([Gate(GateKind.CNOT, (1, 0))], 2)
        assert equal_up_to_phase(u, cnot)

    def test_h_rule(self, config):
        c = Circuit("h", 1, (Gate(GateKind.H, (0,)),))
        dec = decompose(c, config)
        assert all(g.kind in NATIVE_KINDS for g in dec.gates)
        assert equal_up_to_phase(unitary_of(dec.gates, 1), gate_matrix(Gate(GateKind.H, (0,))))

    @pytest.mark.parametrize(
        "kind",
        [GateKind.H, GateKind.X, GateKind.Y, GateKind.Z, GateKind.S, GateKind.SDG,
         GateKind.T, GateKind.TDG],
    )
    def test_every_single_qubit_rule(self, config, kind):
        dec = decompose(Circuit("g", 1, (Gate(kind, (0,)),)), config)
        assert all(g.kind in NATIVE_KINDS for g in dec.gates)
        assert equal_up_to_phase(
            unitary_of(dec.gates, 1), gate_matrix(Gate(kind, (0,))), tol=1e-10
        )

    @pytest.mark.parametrize("kind", [GateKind.CNOT, GateKind.CZ])
    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_every_two_qubit_rule(self, config, kind, order):
        dec = decompose(Circuit("g", 2, (Gate(kind, order),)), config)
        assert all(g.kind in NATIVE_KINDS for g in dec.gates)
        assert equal_up_to_phase(
            unitary_of(dec.gates, 2), unitary_of([Gate(kind, order)], 2), tol=1e-10
        )

    def test_missing_rule(self):
        cfg = load_config("{}")
        stripped = {k: v for k, v in cfg.decompositions.items() if k is not GateKind.H}
        from xbarc.config import ArchConfig

        cfg2 = ArchConfig(cfg.means, cfg.stds, cfg.seed, stripped)
        with pytest.raises(DecompositionError):
            decompose(Circuit("h", 1, (Gate(GateKind.H, (0,)),)), cfg2)

    def test_program_order_preserved(self, config):
        c = Circuit(
            "o", 2, (Gate(GateKind.X, (0,)), Gate(GateKind.CNOT, (0, 1)), Gate(GateKind.Z, (1,)))
        )
        dec = decompose(c, config)
        # the single X expansion comes first, the Z expansion last
        assert dec.gates[0].kind is GateKind.RX
        assert dec.gates[-1].kind is GateKind.RZ


def brute_force_asap(gates, n_qubits):
    """Independent ASAP oracle: explicit DAG + longest path."""
    preds = [[] for _ in gates]
    last = {}
    for i, g in enumerate(gates):
        for q in g.qubits:
            if q in last:
                preds[i].append(last[q])
            last[q] = i
    depth = [0] * len(gates)
    for i in range(len(gates)):
        depth[i] = 1 + max((depth[p] for p in preds[i]), default=0)
    return max(depth, default=0)


class TestDependencyDepth:
    def test_disjoint(self):
        c = Circuit("d", 2, (Gate(GateKind.X, (0,)), Gate(GateKind.X, (1,))))
        assert dependency_depth(c) == 1

    def test_chain(self):
        c = Circuit("c", 1, (Gate(GateKind.X, (0,)), Gate(GateKind.Z, (0,))))
        assert dependency_depth(c) == 2

    def test_decomposed_cnot_matches_oracle(self, config):
        dec = decompose(Circuit("c", 2, (Gate(GateKind.CNOT, (0, 1)),)), config)
        assert dependency_depth(dec) == brute_force_asap(dec.gates, 2)

    def test_empty_circuit_depth_zero(self):
        assert dependency_depth(Circuit("e", 1, ())) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_oracle_on_random_circuits(self, data):
        n = data.draw(st.integers(1, 6))
        m = data.draw(st.integers(1, 30))
        gates = []
        for _ in range(m):
            if n >= 2 and data.draw(st.booleans()):
                a = data.draw(st.integers(0, n - 1))
                b = data.draw(st.integers(0, n - 1).filter(lambda x: x != a))
                gates.append(Gate(GateKind.SQSWAP, (a, b)))
            else:
                gates.append(Gate(GateKind.RX, (data.draw(st.integers(0, n - 1)),), 0.1))
        c = Circuit("r", n, tuple(gates))
        assert dependency_depth(c) == brute_force_asap(c.gates, n)
        assert dependency_depth(c) <= len(c.gates)

    def test_equals_length_when_single_qubit_shared(self):
        gates = tuple(Gate(GateKind.RZ, (0,), 0.1) for _ in range(7))
        assert dependency_depth(Circuit("s", 1, gates)) == 7


class TestInteractionGraph:
    def test_edgeless(self):
        c = Circuit("e", 3, (Gate(GateKind.RX, (0,), 1.0),))
        assert interaction_graph(c).edges == ()

    def test_direct_count(self):
        c = Circuit(
            "w",
            3,
            (
                Gate(GateKind.SQSWAP, (0, 1)),
                Gate(GateKind.SQSWAP, (1, 0)),
                Gate(GateKind.SQSWAP, (1, 2)),
            ),
        )
        qig = interaction_graph(c)
        assert qig.edges == ((0, 1, 2), (1, 2, 1))
        assert qig.total_weight == 3

    def test_weight_total_equals_twoq_count(self):
        from xbarc import BenchSpec, gen_random_uniform

        c = gen_random_uniform(BenchSpec(6, 60, 50.0, 11))
        qig = interaction_graph(c)
        assert qig.total_weight == counts_by_type(c).n_twoq

    def test_dot_export(self):
        c = Circuit("d", 2, (Gate(GateKind.SQSWAP, (0, 1)),))
        dot = interaction_graph(c).to_dot()
        assert "graph qig {" in dot and "0 -- 1" in dot
        assert interaction_graph(c).to_edge_list() == [{"a": 0, "b": 1, "w": 1}]


def test_counts_by_type_invariant():
    c = Circuit(
        "t",
        2,
        (
            Gate(GateKind.RX, (0,), 0.1),
            Gate(GateKind.RY, (1,), 0.2),
            Gate(GateKind.RZ, (0,), 0.3),
            Gate(GateKind.SQSWAP, (0, 1)),
        ),
    )
    counts = counts_by_type(c)
    assert (counts.n_xy, counts.n_z, counts.n_twoq) == (2, 1, 1)
    assert counts.n_total == len(c.gates)

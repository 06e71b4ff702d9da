"""Fidelity map, ESP and overhead accounting."""
import dataclasses
import json
import math

import numpy as np
import pytest

from xbarc import (
    BenchSpec,
    Circuit,
    Gate,
    GateKind,
    build_fidelity_map,
    esp,
    gen_random_uniform,
    load_config,
    overhead_report,
)
from xbarc.config import ArchConfig
from xbarc.crossbar import Grid, apply_op
from xbarc.instructions import Cycle, CycleType, Instruction, InstrKind, Schedule, grid_side

from conftest import compile_native, moves_digest


def zero_std_config(seed=1):
    base = load_config("{}")
    return ArchConfig(
        means=base.means,
        stds={c: 0.0 for c in base.stds},
        seed=seed,
        decompositions=base.decompositions,
    )


class TestFidelityMap:
    def test_zero_std_equals_means(self):
        fmap = build_fidelity_map(grid_side(8), zero_std_config())
        assert np.all(fmap.values["single_qubit"] == 0.9999)
        assert np.all(fmap.values["shuttle"] == 0.9999)
        assert np.all(fmap.values["sqswap"] == 0.9998)

    def test_same_seed_identical(self):
        cfg = load_config('{"seed": 42}')
        a = build_fidelity_map(grid_side(10), cfg)
        b = build_fidelity_map(grid_side(10), cfg)
        assert all(np.array_equal(a.values[c], b.values[c]) for c in a.values)

    def test_sample_means_near_published(self):
        cfg = load_config('{"seed": 3}')
        n = grid_side(200)  # 20x20: 400 sites
        fmap = build_fidelity_map(n, cfg)
        n_sites = n**2
        for cls, mean in (("single_qubit", 0.9999), ("shuttle", 0.9999), ("sqswap", 0.9998)):
            tol = 3 * cfg.stds[cls] / math.sqrt(n_sites)
            assert abs(float(np.mean(fmap.values[cls])) - mean) < tol

    def test_values_clamped(self):
        cfg = ArchConfig(
            means={"single_qubit": 0.5, "shuttle": 0.5, "sqswap": 0.5},
            stds={"single_qubit": 10.0, "shuttle": 10.0, "sqswap": 10.0},
            seed=5,
            decompositions=load_config("{}").decompositions,
        )
        fmap = build_fidelity_map(grid_side(20), cfg)
        for arr in fmap.values.values():
            assert np.all(arr > 0) and np.all(arr <= 1.0)


def diagonal_twoq_schedule():
    c = Circuit("sq", 3, (Gate(GateKind.SQSWAP, (0, 2)),))
    return compile_native(c)


class TestEsp:
    def test_empty_schedule_is_one(self):
        s = Schedule("e", 2, ((0, 0), (1, 1)), (), moves_digest(((0, 0), (1, 1)), []))
        fmap = build_fidelity_map(grid_side(2), zero_std_config())
        assert esp(s, fmap) == 1.0

    def test_closed_form_two_shuttles_one_sqswap(self):
        dec, s = diagonal_twoq_schedule()
        assert s.n_instructions == 3
        fmap = build_fidelity_map(grid_side(3), zero_std_config())
        assert abs(esp(s, fmap) - 0.9999**2 * 0.9998) < 1e-12

    def test_appending_never_increases(self):
        dec, s = diagonal_twoq_schedule()
        fmap = build_fidelity_map(grid_side(3), zero_std_config())
        base = esp(s, fmap)
        extra = Cycle((Instruction(InstrKind.ZSH_R, (0,), angle=0.1),))
        grown = dataclasses.replace(s, cycles=s.cycles + (extra,))
        assert esp(grown, fmap) <= base

    def test_spectators_counted(self):
        # one lone X among same-parity company: pulses charge every member
        c = Circuit("x", 3, (Gate(GateKind.RX, (0,), 0.7),))
        dec, s = compile_native(c)
        fmap = build_fidelity_map(grid_side(3), zero_std_config())
        # sg_rot: 2 members, shuttle, inverse (-angle) sg_rot: 1 remaining member, shuttle
        expect = 0.9999**2 * 0.9999 * 0.9999**1 * 0.9999
        assert abs(esp(s, fmap) - expect) < 1e-12

    def test_zero_std_depends_only_on_counts(self):
        c = gen_random_uniform(BenchSpec(5, 20, 50.0, 2))
        dec, s = compile_native(c)
        fmap = build_fidelity_map(grid_side(5), zero_std_config())
        n_shuttle = n_sq = n_single = 0
        from xbarc.crossbar import Grid, apply_op

        grid = Grid(s.grid_n, s.placement)
        for cy in s.cycles:
            for op in cy.ops:
                if op.kind.moves:
                    n_shuttle += 1
                elif op.kind is InstrKind.SQSWAP:
                    n_sq += 1
                else:
                    n_single += len(grid.parity_members(op.parity))
                apply_op(grid, op)
        assert abs(esp(s, fmap) - 0.9999**n_shuttle * 0.9998**n_sq * 0.9999**n_single) < 1e-9

    def test_reorder_invariance_with_fixed_populations(self):
        # two independent Z blocks commute in the schedule without touching
        # parity populations; ESP must not change
        c = Circuit("zz", 5, (Gate(GateKind.RZ, (0,), 0.5), Gate(GateKind.RZ, (3,), 0.5)))
        dec, s = compile_native(c)
        assert [cy.type for cy in s.cycles] == [
            CycleType.Z,
            CycleType.SHUTTLE,
            CycleType.Z,
            CycleType.SHUTTLE,
        ]
        swapped = dataclasses.replace(
            s, cycles=(s.cycles[2], s.cycles[3], s.cycles[0], s.cycles[1])
        )
        cfg = load_config('{"seed": 8}')
        fmap = build_fidelity_map(grid_side(5), cfg)
        assert abs(esp(s, fmap) - esp(swapped, fmap)) < 1e-15


def reference_esp(s, fmap):
    """esp() written out with one numpy scalar read per factor, in the
    same walk and factor order."""
    grid = Grid(s.grid_n, s.placement)
    total = 1.0
    for cycle in s.cycles:
        for op in cycle.ops:
            if op.kind.moves:
                (x, y), (dx, dy) = grid.site_of(op.qubits[0]), op.kind.delta
                total *= float(fmap.values["shuttle"][y + dy, x + dx])
            elif op.kind is InstrKind.SQSWAP:
                x, y = min((grid.site_of(q) for q in op.qubits), key=lambda site: site[1])
                total *= float(fmap.values["sqswap"][y, x])
            else:
                for q in grid.parity_members(op.parity):
                    x, y = grid.site_of(q)
                    total *= float(fmap.values["single_qubit"][y, x])
            apply_op(grid, op)
    return total


@pytest.mark.parametrize(("n_qubits", "n_gates"), [(5, 40), (12, 120), (40, 80)])
def test_esp_equals_reference_walk(n_qubits, n_gates):
    stds = {"single_qubit": 0.001, "shuttle": 0.002, "sqswap": 0.003}
    cfg = load_config(json.dumps({"seed": 21, "fidelities": {c: {"std": v} for c, v in stds.items()}}))
    for seed in range(2):
        dec, s = compile_native(gen_random_uniform(BenchSpec(n_qubits, n_gates, 50.0, seed)), cfg)
        fmap = build_fidelity_map(grid_side(n_qubits), cfg)
        assert len({float(v) for v in fmap.values["shuttle"].flat}) > 1
        assert esp(s, fmap) == reference_esp(s, fmap)


class TestOverheadReport:
    def test_single_z_hundred_percent(self):
        c = Circuit("z", 2, (Gate(GateKind.RZ, (0,), 0.5),))
        dec, s = compile_native(c)
        fmap = build_fidelity_map(grid_side(2), zero_std_config())
        rep = overhead_report(dec, s, fmap)
        assert (rep.n_decomposed, rep.n_final) == (1, 2)
        assert rep.gate_overhead_pct == 100.0
        assert (rep.d_dependency, rep.d_final) == (1, 2)
        assert rep.depth_overhead_pct == 100.0

    def test_lone_x_three_hundred_percent(self):
        c = Circuit("x", 3, (Gate(GateKind.RX, (0,), 0.5),))
        dec, s = compile_native(c)
        fmap = build_fidelity_map(grid_side(3), zero_std_config())
        rep = overhead_report(dec, s, fmap)
        assert rep.gate_overhead_pct == 300.0
        assert rep.depth_overhead_pct == 300.0

    def test_overhead_formula(self):
        assert 100.0 * (24 - 10) / 10 == 140.0

    def test_k_isolated_z_gates_exactly_100(self):
        gates = tuple(Gate(GateKind.RZ, (q,), 0.3) for q in range(4))
        dec, s = compile_native(Circuit("zs", 4, gates))
        fmap = build_fidelity_map(grid_side(4), zero_std_config())
        assert overhead_report(dec, s, fmap).gate_overhead_pct == 100.0

    def test_k_diagonal_twoq_exactly_200(self):
        gates = tuple(Gate(GateKind.SQSWAP, (0, 2)) for _ in range(3))
        dec, s = compile_native(Circuit("sqs", 3, gates))
        fmap = build_fidelity_map(grid_side(3), zero_std_config())
        assert overhead_report(dec, s, fmap).gate_overhead_pct == 200.0

    def test_empty_circuit_zero_overhead(self):
        c = Circuit("e", 2, ())
        dec, s = compile_native(c)
        fmap = build_fidelity_map(grid_side(2), zero_std_config())
        r = overhead_report(dec, s, fmap)
        assert (r.n_final, r.d_final, r.d_dependency) == (0, 0, 0)
        assert r.gate_overhead_pct == 0.0 and r.depth_overhead_pct == 0.0 and r.esp == 1.0

    def test_overheads_nonnegative_on_random_circuits(self):
        fmap_cache = {}
        for seed in range(3):
            c = gen_random_uniform(BenchSpec(6, 30, 50.0, seed))
            dec, s = compile_native(c)
            fm = fmap_cache.setdefault(s.grid_n, build_fidelity_map(grid_side(6), zero_std_config()))
            rep = overhead_report(dec, s, fm)
            assert rep.gate_overhead_pct >= 0
            assert rep.depth_overhead_pct >= 0
            assert 0 < rep.esp <= 1

    def test_json_dict_keys_in_document_order(self):
        dec, s = compile_native(Circuit("x", 3, (Gate(GateKind.RX, (0,), 0.5),)))
        rep = overhead_report(dec, s, build_fidelity_map(grid_side(3), zero_std_config()), 1.5)
        d = rep.to_json_dict()
        assert list(d) == [
            "name", "n_qubits", "n_decomposed", "n_final", "gate_overhead_pct", "d_dependency",
            "d_final", "depth_overhead_pct", "esp", "compile_time_ms", "counts",
        ]
        assert list(d["counts"].items()) == [("n_xy", 1), ("n_z", 0), ("n_twoq", 0), ("n_total", 1)]
        assert (d["name"], d["n_qubits"], d["compile_time_ms"]) == ("x", 3, 1.5)
        # the document keeps the sweep CSV's resolution; the report stays exact
        rep = dataclasses.replace(rep, compile_time_ms=1.23456789)
        assert rep.to_json_dict()["compile_time_ms"] == 1.235
        assert rep.compile_time_ms == 1.23456789

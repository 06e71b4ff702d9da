"""Fidelity map, ESP and overhead accounting."""
import dataclasses
import json
import math
import sys

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
from xbarc.config import FIDELITY_CLASSES, ArchConfig
from xbarc.crossbar import Grid, apply_op
from xbarc.errors import CompileError, CrossbarError
from xbarc.instructions import Cycle, CycleType, Instruction, InstrKind, Schedule, grid_side
from xbarc.metrics import FidelityMap, _factor_counts

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


def hand_schedule(*ops, n=2, placement=((0, 0), (1, 1))):
    """A Schedule of one-instruction cycles built by hand, so that no
    scheduler has checked its moves; an op given as (kind, qubits) is that
    Instruction."""
    ops = [op if isinstance(op, Instruction) else Instruction(*op) for op in ops]
    return Schedule("hand", n, placement, tuple(Cycle((op,)) for op in ops), "0" * 64)


class TestEspChecks:
    """esp re-checks each move and sqswap of the schedule it walks, on the
    2x2 grid with qubit 0 at (0, 0) and qubit 1 at (1, 1) unless a case
    says otherwise."""

    @pytest.mark.parametrize(
        "ops",
        [
            [(InstrKind.SH_L, (0,))],  # x = -1
            [(InstrKind.SH_D, (0,))],  # y = -1
            [(InstrKind.ZSH_L, (0,))],
            [(InstrKind.SH_U, (1,))],  # y = n
            [(InstrKind.SH_R, (1,))],  # (2, 1): past the end of a y * n + x table
            [(InstrKind.SH_D, (1,)), (InstrKind.ZSH_R, (1,))],  # (2, 0): y * n + x would name (0, 1)
        ],
        ids=["left", "down", "zsh-left", "up", "right-row-1", "right-row-0"],
    )
    def test_move_off_the_grid_raises(self, ops):
        s = hand_schedule(*ops)
        with pytest.raises(CrossbarError, match="off-grid"):
            esp(s, build_fidelity_map(s.grid_n, zero_std_config()))

    @pytest.mark.parametrize(
        "ops",
        [
            [(InstrKind.SH_U, (0,)), (InstrKind.SH_R, (0,))],
            [(InstrKind.SH_R, (0,)), (InstrKind.SH_U, (0,))],
            [(InstrKind.SH_U, (0,)), (InstrKind.SH_L, (1,))],
        ],
        ids=["horizontal", "vertical", "onto-a-site-a-qubit-moved-to"],
    )
    def test_move_onto_an_occupied_site_raises(self, ops):
        s = hand_schedule(*ops)
        with pytest.raises(CrossbarError, match="occupied"):
            esp(s, build_fidelity_map(s.grid_n, zero_std_config()))

    @pytest.mark.parametrize(
        "ops",
        [
            [(InstrKind.SQSWAP, (0, 1))],  # diagonal neighbours
            [(InstrKind.SQSWAP, (1, 1))],  # one qubit twice
            # adjacent after the first move, diagonal again after the third
            [(InstrKind.SH_R, (0,)), (InstrKind.SQSWAP, (1, 0)), (InstrKind.SH_L, (0,)), (InstrKind.SQSWAP, (0, 1))],
        ],
        ids=["diagonal", "same-qubit", "after-moves"],
    )
    def test_sqswap_of_non_adjacent_qubits_raises(self, ops):
        s = hand_schedule(*ops)
        with pytest.raises(CrossbarError, match="vertically adjacent"):
            esp(s, build_fidelity_map(s.grid_n, zero_std_config()))

    def test_sqswap_two_rows_apart_raises(self):
        s = hand_schedule((InstrKind.SQSWAP, (0, 1)), n=3, placement=((0, 0), (0, 2)))
        with pytest.raises(CrossbarError, match="vertically adjacent"):
            esp(s, build_fidelity_map(3, zero_std_config()))

    @pytest.mark.parametrize("map_n", [1, 3])
    def test_fidelity_map_of_the_wrong_size_raises(self, map_n):
        s = hand_schedule((InstrKind.SH_U, (0,)))
        with pytest.raises(CompileError, match="does not cover"):
            esp(s, build_fidelity_map(map_n, zero_std_config()))

    def test_hand_schedule_tallies_each_factor_where_it_lands(self):
        # compiled schedules bring every qubit back, so their moves' origins
        # and destinations balance per site; this one does not
        s = hand_schedule(
            Instruction(InstrKind.SG_ROT, (), 0.5, "x", 0),  # q0 in column 0
            (InstrKind.SH_D, (1,)),  # q1 to (1, 0)
            (InstrKind.SH_U, (0,)),  # q0 to (0, 1)
            (InstrKind.ZSH_R, (0,)),  # q0 to (1, 1), which q1 left
            Instruction(InstrKind.SG_ROT, (), 0.5, "y", 1),  # both qubits in column 1
            (InstrKind.SQSWAP, (0, 1)),  # at (1, 0), the lower site
        )
        # sites in the order (0, 0), (1, 0), (0, 1), (1, 1)
        expect = ([1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 0, 0])
        assert _factor_counts(s) == expect == reference_tally(s)
        assert math.isclose(esp(s, build_fidelity_map(2, zero_std_config())), 0.9999**6 * 0.9998, rel_tol=1e-12)


def reference_factors(s):
    """(class, x, y) of every factor esp charges, in schedule order: the
    walk esp made before it tallied, one parity scan per pulse and apply_op
    per instruction."""
    grid = Grid(s.grid_n, s.placement)
    for cycle in s.cycles:
        for op in cycle.ops:
            if op.kind.moves:
                (x, y), (dx, dy) = grid.site_of(op.qubits[0]), op.kind.delta
                yield "shuttle", x + dx, y + dy
            elif op.kind is InstrKind.SQSWAP:
                x, y = min((grid.site_of(q) for q in op.qubits), key=lambda site: site[1])
                yield "sqswap", x, y
            else:
                for q in grid.parity_members(op.parity):
                    yield ("single_qubit", *grid.site_of(q))
            apply_op(grid, op)


def reference_esp(s, fmap):
    """ESP multiplied in schedule order, one numpy scalar read per factor."""
    total = 1.0
    for cls, x, y in reference_factors(s):
        total *= float(fmap.values[cls][y, x])
    return total


def reference_tally(s):
    """reference_factors counted per class and site, flat lists indexed y * N + x."""
    n = s.grid_n
    counts = {cls: [0] * (n * n) for cls in FIDELITY_CLASSES}
    for cls, x, y in reference_factors(s):
        counts[cls][y * n + x] += 1
    return tuple(counts[cls] for cls in FIDELITY_CLASSES)


REFERENCE_CASES = [(5, 40), (12, 120), (40, 80)]


def reference_schedules(n_qubits, n_gates, cfg):
    for seed in range(2):
        yield compile_native(gen_random_uniform(BenchSpec(n_qubits, n_gates, 50.0, seed)), cfg)[1]


@pytest.mark.parametrize(("n_qubits", "n_gates"), REFERENCE_CASES)
def test_esp_equals_reference_walk(n_qubits, n_gates):
    """The tallies equal the reference's exactly; ESP, a reassociated
    product of the same factors, agrees to a relative 1e-12."""
    stds = {"single_qubit": 0.001, "shuttle": 0.002, "sqswap": 0.003}
    cfg = load_config(json.dumps({"seed": 21, "fidelities": {c: {"std": v} for c, v in stds.items()}}))
    fmap = build_fidelity_map(grid_side(n_qubits), cfg)
    assert len({float(v) for v in fmap.values["shuttle"].flat}) > 1
    for s in reference_schedules(n_qubits, n_gates, cfg):
        tally = _factor_counts(s)
        assert tally == reference_tally(s)
        assert all(sum(counts) for counts in tally)  # every class is charged somewhere
        assert math.isclose(esp(s, fmap), reference_esp(s, fmap), rel_tol=1e-12)


@pytest.mark.parametrize(("n_qubits", "n_gates"), REFERENCE_CASES)
def test_esp_is_exact_on_powers_of_two(n_qubits, n_gates):
    """With every fidelity 1, 0.5 or 0.25 each product is exact until it
    underflows, so there esp equals the in-order product bit for bit."""
    n = grid_side(n_qubits)
    rng = np.random.default_rng([n_qubits, n_gates])
    values = {cls: rng.choice([1.0, 0.5, 0.25], size=(n, n), p=[0.9, 0.07, 0.03]) for cls in FIDELITY_CLASSES}
    fmap = FidelityMap(n, values)
    for s in reference_schedules(n_qubits, n_gates, None):
        expect = reference_esp(s, fmap)
        assert sys.float_info.min <= expect < 1.0  # no underflow, and some factor below 1
        assert esp(s, fmap) == expect


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

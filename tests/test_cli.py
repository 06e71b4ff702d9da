"""CLI subcommands, exit codes, sweep CSV."""
import copy
import csv
import gc
import json
import os
import random
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import xbarc
from xbarc import BenchSpec, gen_random_uniform, load_config
from xbarc import cli
from xbarc.cli import _compile_circuit, main, parse_range
from xbarc.crossbar import Grid, apply_cycle
from xbarc.circuits import GateKind
from xbarc.errors import CompileError, XbarcError
from xbarc.instructions import FIELDS, InstrKind, schedule_from_doc, schedule_to_doc
from xbarc.metrics import CSV_COLUMNS
from xbarc.qasm import MeasurementDropped, circuit_to_qasm, emit_output, parse_qasm
from xbarc.verifier import VerifyReport


@pytest.fixture()
def bell_qasm(tmp_path):
    path = tmp_path / "bell.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
    return path


def test_compile_verify_stats_flow(tmp_path, bell_qasm, capsys):
    out = tmp_path / "out.json"
    qasm_out = tmp_path / "out.qasm"
    rc = main(
        ["compile", "-i", str(bell_qasm), "-o", str(out), "--emit-qasm", str(qasm_out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["name"] == "bell"
    assert doc["metrics"]["n_decomposed"] == 8  # h -> 2, cx -> 6
    assert len(doc["cycles"]) == doc["metrics"]["d_final"]
    text = qasm_out.read_text()
    assert "// cycle 0 [" in text and "sqswap" in text

    assert main(["verify", "-i", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", "-i", str(out), "--qig", str(tmp_path / "qig.dot")]) == 0
    printed = capsys.readouterr().out
    assert "two-qubit percentage" in printed
    assert "of total" in printed and "of single-qubit count" in printed
    assert (tmp_path / "qig.dot").read_text().startswith("graph qig {")


def test_document_is_compact_and_independent_of_emit_qasm(tmp_path, monkeypatch):
    monkeypatch.delenv("SPINQ_SEED", raising=False)
    src = tmp_path / "r5.qasm"
    src.write_text(circuit_to_qasm(gen_random_uniform(BenchSpec(5, 30, 50.0, 4))))
    plain, with_qasm, qasm_out = tmp_path / "plain.json", tmp_path / "with.json", tmp_path / "out.qasm"
    assert main(["compile", "-i", str(src), "-o", str(plain)]) == 0
    assert main(["compile", "-i", str(src), "-o", str(with_qasm), "--emit-qasm", str(qasm_out)]) == 0

    texts = [plain.read_text(), with_qasm.read_text()]
    assert not any("\n" in text for text in texts)
    docs = [json.loads(text) for text in texts]
    for doc in docs:
        assert doc["metrics"].pop("compile_time_ms") >= 0
    assert docs[0] == docs[1]

    schedule, metrics = _compile_circuit(parse_qasm(src.read_text(), name="r5"), load_config("{}"))
    expected = schedule_to_doc(schedule) | {"metrics": metrics.to_json_dict()}
    del expected["metrics"]["compile_time_ms"]
    assert docs[0] == expected
    assert qasm_out.read_text() == emit_output(schedule)


@pytest.fixture()
def bell_doc(tmp_path, bell_qasm):
    """(path, parsed document) of the compiled Bell circuit."""
    out = tmp_path / "out.json"
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out)]) == 0
    return out, json.loads(out.read_text())


def test_verify_detects_corruption(tmp_path, bell_doc):
    _, doc = bell_doc
    doc["moves_sha256"] = "0" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "-i", str(bad)]) == 2


def test_verify_detects_legal_mid_trajectory_change(tmp_path, capsys):
    # mirroring one phase shuttle and its return keeps every cycle legal and leaves the
    # final occupancy and the fidelity unchanged; only the trajectory differs
    src = tmp_path / "zz.qasm"
    src.write_text("qreg q[3]; rz(0.7) q[2]; rz(0.3) q[0];\n")
    out = tmp_path / "zz.json"
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    (zsh,), (ret,) = doc["cycles"][0], doc["cycles"][1]
    assert (zsh[0], ret[0]) == ("zsh_l", "sh_r")
    zsh[0], ret[0] = "zsh_r", "sh_l"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-i", str(out)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [] and report["trajectory_match"] is False
    assert report["equivalence_fidelity"] > 1 - 1e-9


def test_verify_accepts_an_exchange_cycle_with_its_rows_reversed(tmp_path, capsys):
    # the digest logs a cycle's site changes in ascending qubit order, so
    # listing an exchange cycle's two shuttles the other way round changes
    # nothing that replay or equivalence checks
    src, out = tmp_path / "r12.qasm", tmp_path / "r12.json"
    src.write_text(circuit_to_qasm(gen_random_uniform(BenchSpec(12, 100, 50.0, 0))))
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    cycle = next(c for c in doc["cycles"] if len(c) == 2 and c[0][0].startswith("sh_") and c[0][1] < c[1][1])
    cycle.reverse()
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-i", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["violations"] == [] and report["trajectory_match"] is True
    assert report["equivalence_fidelity"] > 1 - 1e-9


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_a_sqswap_repeated_inside_its_cycle_is_a_user_error(tmp_path, capsys, command):
    """The crossbar fires each sqswap of a cycle once, so a cycle that names
    a pair twice cannot be loaded. On 20 qubits, above the equivalence cap,
    replay alone judges a document, and a repeated sqswap row changes no
    site, so only the loader can refuse it."""
    src, out = tmp_path / "r20.qasm", tmp_path / "r20.json"
    src.write_text(circuit_to_qasm(gen_random_uniform(BenchSpec(20, 100, 50.0, 0))))
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    i, cycle = next((i, c) for i, c in enumerate(doc["cycles"]) if c[0][0] == "sqswap")
    cycle.append(list(cycle[0]))
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "-i", str(out)]) == 1
    assert f"cycle {i}: qubit {cycle[0][1]} is named by two instructions of one cycle" in capsys.readouterr().err


def test_verify_fails_on_wrong_angle(bell_doc, capsys):
    path, doc = bell_doc
    zsh = next(row for c in doc["cycles"] for row in c if row[0].startswith("zsh"))
    zsh[2] += 1.0  # ["zsh_l", q, angle, src...]
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-i", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["replay_ok"] is True and report["ok"] is False
    assert report["equivalence_fidelity"] < 1 - 1e-9


def test_verify_reports_illegal_move_without_equivalence(bell_doc, capsys):
    path, doc = bell_doc
    cycle, row = next(
        (i, row) for i, c in enumerate(doc["cycles"]) for row in c if row[0] == "sh_r"
    )
    row[0] = "sh_l"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-i", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["replay_ok"] is False and report["ok"] is False
    assert cycle in [v["cycle"] for v in report["violations"]]
    assert report["equivalence_fidelity"] is None


def test_failed_verification_at_compile_still_writes_the_document(tmp_path, bell_qasm, capsys, monkeypatch):
    failing = VerifyReport(trajectory_match=False)
    monkeypatch.setattr(cli, "verify", lambda schedule: failing)
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out)]) == 2
    assert "verification FAILED: " + json.dumps(failing.to_json_dict()) in capsys.readouterr().err
    assert json.loads(out.read_text())["name"] == "bell"


def _drop(key):
    def edit(doc):
        del doc[key]

    return edit


def _first_row(doc, kind):
    return next(row for c in doc["cycles"] for row in c if row[0] == kind)


def _set_slot(kind, slot, value):
    """Set slot `slot` of the first instruction row of `kind`; slot 0 is
    the kind."""

    def edit(doc):
        _first_row(doc, kind)[slot] = value

    return edit


def _insert_slots(kind, slot, *values):
    """Insert `values` at slot `slot` of the first instruction row of
    `kind`, making the row longer than its layout."""

    def edit(doc):
        _first_row(doc, kind)[slot:slot] = values

    return edit


def _set_circuit_gate(slot, value):
    """Set slot `slot` of the first embedded circuit gate that has an angle,
    ["rz", q, angle]."""

    def edit(doc):
        next(g for g in doc["circuit"]["gates"] if g[0] != "sqswap")[slot] = value

    return edit


def _set_first(path, value):
    """Replace the item at `path` (keys and indices from the document root)."""

    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


def _append_op(cycle, op):
    def edit(doc):
        doc["cycles"][cycle].append(op)

    return edit


def _as_object(row):
    """The object the format before positional rows wrote for an
    instruction row: kind, each field under its key ("q" for the qubits, as
    a list), then src unless it is empty."""
    d, slot = {"kind": row[0]}, 1
    for f in FIELDS[InstrKind(row[0])]:
        if f.attr == "qubits":
            d["q"] = row[slot:slot + len(f.slots)]
        else:
            d[f.attr] = row[slot]
        slot += len(f.slots)
    if row[slot:]:
        d["src"] = row[slot:]
    return d


def _gate_as_object(row):
    kind = GateKind(row[0])
    d = {"kind": row[0], "q": row[1:1 + kind.arity]}
    if kind.rotation:
        d["angle"] = row[-1]
    return d


def _object_rows(cycles=True, gates=True):
    """Rewrite the instructions, the circuit gates or both as the objects
    the format before positional rows wrote."""

    def edit(doc):
        if cycles:
            doc["cycles"] = [[_as_object(row) for row in c] for c in doc["cycles"]]
        if gates:
            doc["circuit"]["gates"] = [_gate_as_object(row) for row in doc["circuit"]["gates"]]

    return edit


def _old_format(positions):
    """Rewrite the document as an earlier format wrote it: with n, each
    instruction and gate as an object and each cycle as {"type", "ops"},
    and in the positions era the occupancy after every cycle in place of
    trajectory_sha256."""

    def edit(doc):
        schedule = schedule_from_doc(doc)
        _object_rows()(doc)
        old = {"name": doc["name"], "n": schedule.n_qubits, "grid": doc["grid"], "placement": doc["placement"]}
        old["cycles"] = [{"type": c.type.value, "ops": ops} for c, ops in zip(schedule.cycles, doc["cycles"])]
        if positions:
            grid, old["positions"] = Grid(schedule.grid_n, schedule.placement), []
            for cycle in schedule.cycles:
                apply_cycle(grid, cycle)
                old["positions"].append([list(grid.site_of(q)) for q in range(schedule.n_qubits)])
        else:
            old["trajectory_sha256"] = doc["moves_sha256"]
        old |= {"circuit": doc["circuit"], "metrics": doc["metrics"]}
        doc.clear()
        doc.update(old)

    return edit


def _retired_kinds(objects):
    """Rename the instructions as the format before one kind per move named
    them: a phase shuttle zsh and its return zsh_ret (an sg_rot_inv, the
    second pulse of an X/Y gate, has no counterpart in the Bell circuit).
    With `objects`, write every instruction as that format did, an object,
    with a Z move's direction under "dir"."""

    def edit(doc):
        z_srcs = set()
        for c in doc["cycles"]:
            for j, row in enumerate(c):
                kind, src = row[0], row[-1]  # every row here has one src
                op = _as_object(row) if objects else row
                if kind in ("zsh_l", "zsh_r") or (kind in ("sh_l", "sh_r") and src in z_srcs):
                    z_srcs ^= {src}
                    if objects:
                        op |= {"kind": "zsh" if kind[0] == "z" else "zsh_ret", "dir": kind[-1].upper()}
                    else:
                        op[0] = "zsh" if kind[0] == "z" else "zsh_ret"
                c[j] = op
        first = doc["cycles"][0][0], doc["cycles"][1][0]
        assert [op["kind"] if objects else op[0] for op in first] == ["zsh", "zsh_ret"]

    return edit


# every malformed document edit with the error message it must give; the
# loader's differential test replays them too. Each is the row form of a
# fault the format of instruction objects had: a key a kind does not
# carry is a row one slot too long, a missing kind an empty row.
_SH_R_ROW, _SQSWAP_ROW = '["sh_r", q, src...]', '["sqswap", q0, q1, src...]'
_NOT_A_SRC = "must be a source gate index (a non-negative integer), document gives"
MALFORMED_DOCUMENTS = [
    (_drop("cycles"), "lacks key 'cycles'"),
    (_drop("placement"), "lacks key 'placement'"),
    (_drop("moves_sha256"), "lacks key 'moves_sha256'"),
    (_set_slot("sqswap", 2, 7), "cycle 5 op 0: sqswap names qubit 7, outside range(2)"),
    (_old_format(positions=True), "document writes n and typed cycles; it predates this format, recompile it"),
    (lambda doc: doc.update(grid="3"), "grid must be 2 for 2 qubits, document gives '3'"),
    (_set_slot("sg_rot", 1, None), "cycle 2 op 0: sg_rot angle must be a number finite as a float, document gives None"),
    (_set_slot("zsh_r", 2, None), "cycle 0 op 0: zsh_r angle must be a number finite as a float, document gives None"),
    (_set_slot("sg_rot", 2, "z"), "sg_rot axis must be x or y, document gives 'z'"),
    (_set_slot("sg_rot", 3, 2), "sg_rot parity must be 0 or 1, document gives 2"),
    (lambda doc: doc.update(placement=[[0], [1, 1]]), "placement of qubit 0"),
    (lambda doc: doc["circuit"].update(n_qubits=3), "embedded circuit has 3 qubits"),
    (_set_slot("sqswap", 1, [0, 1]), "sqswap q0 must be a qubit index (a non-negative integer), document gives [0, 1]"),
    (_set_slot("sqswap", 3, [3]), f"sqswap slot 3 {_NOT_A_SRC} [3]; a sqswap row is {_SQSWAP_ROW}"),
    (_set_first(["cycles", 0], 5), "cycle 0 must be a list, document gives 5"),
    (_set_first(["cycles"], 5), "cycles must be a list"),
    (_set_first(["circuit", "gates"], 5), "circuit gates must be a list"),
    (_set_first(["cycles", 0], {"type": "z", "ops": []}), "cycle 0 must be a list, document gives {'type'"),
    (_set_first(["cycles", 0, 0], 5), "cycle 0 op 0 must be a list, document gives 5"),
    (_set_circuit_gate(1, [0]), "circuit gate 0 qubit must be an integer, document gives [0]"),
    (_set_first(["circuit", "n_qubits"], "2"), "circuit n_qubits must be a positive integer"),
    (_set_circuit_gate(2, "0.5"), "circuit gate 0 angle must be a finite number, document gives '0.5'"),
    (_set_slot("zsh_r", 2, 10**400), "zsh_r angle must be a number finite as a float, document gives 1000"),
    (_set_slot("zsh_r", 2, float("nan")), "zsh_r angle must be a number finite as a float, document gives nan"),
    (_set_slot("zsh_r", 2, float("inf")), "zsh_r angle must be a number finite as a float, document gives inf"),
    (lambda doc: doc.update(grid=10**19), "grid must be 2 for 2 qubits"),
    (lambda doc: doc.update(grid=9), "grid must be 2 for 2 qubits"),
    (lambda doc: doc.update(placement=[[5, 5], [1, 1]]), "qubit 0 at (5, 5) outside 2x2 grid"),
    (lambda doc: doc.update(placement=[[1, 1], [1, 1]]), "qubits 0 and 1 share site (1, 1)"),
    (_append_op(1, ["sg_rot", 0.1, "x", 0]), "cycle 1: instruction families ['shuttle', 'xy_rot'] cannot share a cycle"),
    (lambda doc: doc.update(name=5), "name must be a string, document gives 5"),
    (_set_first(["circuit", "name"], ["bell"]), "circuit name must be a string, document gives ['bell']"),
    (lambda doc: doc.update(moves_sha256=5), "moves_sha256 must be a string, document gives 5"),
    (_set_slot("sqswap", 3, 1.5), f"sqswap slot 3 {_NOT_A_SRC} 1.5; a sqswap row is {_SQSWAP_ROW}"),
    (_set_slot("sqswap", 3, -1), f"sqswap slot 3 {_NOT_A_SRC} -1; a sqswap row is {_SQSWAP_ROW}"),
    (_set_first(["circuit", "gates", 0], ["measure", 0]),
     "circuit gate 0 kind must be rx, ry, rz or sqswap, document gives 'measure'"),
    (_set_first(["circuit", "gates", 0], ["h", 0]), "circuit gate 0 kind must be rx, ry, rz or sqswap, document gives 'h'"),
    (_set_first(["circuit", "gates", 1], ["cx", 0, 1]),
     "circuit gate 1 kind must be rx, ry, rz or sqswap, document gives 'cx'"),
    (_set_first(["circuit", "gates", 0, 0], ["rx"]),
     "circuit gate 0 kind must be rx, ry, rz or sqswap, document gives ['rx']"),
    (_old_format(positions=False), "document writes n and typed cycles; it predates this format, recompile it"),
    (_set_slot("sqswap", 3, 100000000000),
     "sqswap src names gate 100000000000, outside the embedded circuit's range(8)"),
    (_insert_slots("sh_r", 2, "L"), f"sh_r slot 2 {_NOT_A_SRC} 'L'; a sh_r row is {_SH_R_ROW}"),
    (_insert_slots("sqswap", 3, 0.5), f"sqswap slot 3 {_NOT_A_SRC} 0.5; a sqswap row is {_SQSWAP_ROW}"),
    (_insert_slots("zsh_l", 3, "x", 0),
     f'zsh_l slot 3 {_NOT_A_SRC} \'x\'; a zsh_l row is ["zsh_l", q, angle, src...]'),
    (_insert_slots("zsh_l", 2, "L"), "zsh_l angle must be a number finite as a float, document gives 'L'"),
    (_retired_kinds(objects=False),
     "cycle 0 op 0: document holds the retired kind 'zsh'; it predates this format, recompile it"),
    (_set_slot("sh_l", 0, "zsh_ret"), "document holds the retired kind 'zsh_ret'; it predates this format"),
    (_set_slot("sg_rot", 0, "sg_rot_inv"),
     "document holds the retired kind 'sg_rot_inv'; it predates this format, recompile it"),
    (_set_first(["cycles", 1, 0, 0], 3), "cycle 1 op 0: 3 is not a valid InstrKind"),
    (_set_first(["cycles", 1, 0, 0], ["sh_l"]), "cycle 1 op 0: ['sh_l'] is not a valid InstrKind"),
    (_set_first(["cycles", 1, 0, 0], None), "cycle 1 op 0: None is not a valid InstrKind"),
    (_set_first(["cycles", 1, 0, 0], "SH_L"), "cycle 1 op 0: 'SH_L' is not a valid InstrKind"),
    (_set_first(["cycles", 1, 0], []), "cycle 1 op 0 is an empty row; a row starts with its kind"),
    (_set_circuit_gate(1, 5), "circuit gate 0 operand 5 out of range for 2 qubits"),
    (_set_circuit_gate(1, -1), "circuit gate 0 operand -1 out of range for 2 qubits"),
    (_set_first(["circuit", "gates", 3], ["sqswap", 1, 1]),
     "circuit gate 3: sqswap operands must be distinct: (1, 1)"),
    (lambda doc: doc["circuit"].pop("gates"), "circuit lacks key 'gates'"),
    (lambda doc: doc["circuit"].pop("n_qubits"), "circuit lacks key 'n_qubits'"),
]
MALFORMED_IDS = [
    "no-cycles", "no-placement", "no-digest", "qubit-out-of-range", "position-history",
    "grid-string", "sg-angle-null", "zsh-angle-null", "axis-z", "parity-2",
    "placement-not-pair", "circuit-qubits-mismatch", "q-number", "src-number", "ops-number",
    "cycles-number", "circuit-gates-number", "cycle-object", "op-not-object",
    "circuit-gate-q-number", "circuit-qubits-string", "circuit-angle-string", "zsh-angle-401-digits",
    "zsh-angle-nan", "zsh-angle-inf", "grid-huge", "grid-too-large", "placement-off-grid",
    "placement-shared-site", "cycle-mixed", "name-number",
    "circuit-name-list", "digest-number", "src-float", "src-negative",
    "circuit-gate-measure", "circuit-gate-h", "circuit-gate-cx", "circuit-gate-kind-list",
    "typed-cycles", "src-out-of-range", "sh-dir", "sqswap-angle", "zsh-axis-parity", "zsh-dir",
    "retired-kinds", "retired-zsh-ret", "retired-sg-rot-inv",
    "kind-number", "kind-list", "kind-null", "kind-upper-case", "no-kind",
    "circuit-gate-q-5", "circuit-gate-q-negative", "circuit-gate-sqswap-same-qubit",
    "circuit-no-gates", "circuit-no-n-qubits",
]
# documents of the format before moves_sha256, of the format before
# positional rows, which wrote each instruction and circuit gate as an
# object, and of the format before that, with the retired kinds as objects
PARENT_FORMATS = {
    "object-rows": (_object_rows(), "circuit gate 0 is an object, not a row"),
    "object-instructions": (_object_rows(gates=False), "cycle 0 op 0 is an object, not a row"),
    "object-gates": (_object_rows(cycles=False), "circuit gate 0 is an object, not a row"),
    "object-retired-kinds": (_retired_kinds(objects=True), "cycle 0 op 0 is an object, not a row"),
    # the format before moves_sha256 hashed every qubit's site after every cycle
    "trajectory-digest": (
        lambda doc: doc.update(trajectory_sha256=doc.pop("moves_sha256")),
        "document holds trajectory_sha256, a digest of every qubit's site after every cycle",
    ),
    "object-retired-sg-rot-inv": (
        _set_first(["cycles", 2, 0], {"kind": "sg_rot_inv", "angle": 0.5, "axis": "y", "parity": 1}),
        "cycle 2 op 0 is an object, not a row",
    ),
}


@pytest.mark.parametrize("edit, message", MALFORMED_DOCUMENTS, ids=MALFORMED_IDS)
@pytest.mark.parametrize("command", ["verify", "stats"])
def test_malformed_document_is_a_user_error(bell_doc, capsys, command, edit, message):
    out, doc = bell_doc
    edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "-i", str(out)]) == 1
    assert message in capsys.readouterr().err


# what a random edit puts in place of a document value: every JSON type,
# numbers in and out of every range, kind names and row shapes
_EDIT_VALUES = (None, True, False, -1, 0, 1, 2, 3, 7, 10**20, 0.5, -1.5, 1e308, "", "x", "y", "sh_l", "zsh_r",
                "sqswap", "sg_rot", [], [0], [0, 1], [[0, 0]], ["sh_r", 0, 0], {}, {"kind": "sh_l"})


def _document_paths(node, path=()):
    """The key or index path of every value in a JSON document, containers
    included, the root left out."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _document_paths(child, path + (key,))


def test_no_edit_of_a_compiled_document_ends_in_an_exception_or_exit_3(tmp_path, capsys):
    """400 seeded random edits of a small compiled document, each applied to
    a fresh copy: a value swapped for one of _EDIT_VALUES, a key or list
    item deleted, or a list item repeated. verify and stats on each exit 0,
    1 or 2, no exception escapes main, and no verify report names a cycle
    twice."""
    src, out = tmp_path / "r3.qasm", tmp_path / "r3.json"
    src.write_text(circuit_to_qasm(gen_random_uniform(BenchSpec(3, 12, 50.0, 0))))
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    original = json.loads(out.read_text())
    paths = list(_document_paths(original))
    rng = random.Random(0)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(400):
        doc = copy.deepcopy(original)
        *parents, key = rng.choice(paths)
        parent = doc
        for k in parents:
            parent = parent[k]
        edit = rng.choice(("set", "delete", "repeat") if isinstance(parent, list) else ("set", "delete"))
        if edit == "set":
            parent[key] = copy.deepcopy(rng.choice(_EDIT_VALUES))
        elif edit == "delete":
            del parent[key]
        else:
            parent.insert(key, copy.deepcopy(parent[key]))
        out.write_text(json.dumps(doc))
        for command in ("verify", "stats"):
            rc = main([command, "-i", str(out)])
            printed = capsys.readouterr()
            assert rc in codes, (command, edit, parents, key, printed.err)
            codes[rc] += 1
            if command == "verify" and rc != 1:
                # replay reports each refused cycle once
                cycles = [v["cycle"] for v in json.loads(printed.out)["violations"]]
                assert len(cycles) == len(set(cycles)), (edit, parents, key, cycles)
    assert codes[1] > 200  # most edits are faults the loader names


@pytest.mark.parametrize("edit, message", PARENT_FORMATS.values(), ids=PARENT_FORMATS)
@pytest.mark.parametrize("command", ["verify", "stats"])
def test_parent_format_document_asks_for_a_recompile(bell_doc, capsys, command, edit, message):
    out, doc = bell_doc
    edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "-i", str(out)]) == 1
    assert f"{message}; the document predates this format, recompile it" in capsys.readouterr().err


def test_stats_of_an_empty_circuit_prints_zero_percent(tmp_path, capsys):
    src, out = tmp_path / "empty.qasm", tmp_path / "empty.json"
    src.write_text("OPENQASM 2.0;\nqreg q[3];\n")
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["stats", "-i", str(out)]) == 0
    assert "two-qubit percentage: 0.00% of total, 0.00% of single-qubit count" in capsys.readouterr().out


def test_stats_of_two_qubit_gates_alone_prints_inf_percent(bell_doc, capsys):
    out, doc = bell_doc
    doc["circuit"]["gates"] = [["sqswap", 0, 1]] * len(doc["circuit"]["gates"])
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", "-i", str(out)]) == 0
    assert "two-qubit percentage: 100.00% of total, inf% of single-qubit count" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["gate_overhead_pct", "depth_overhead_pct", "esp"])
def test_stats_metrics_without_a_key_is_a_user_error(bell_doc, capsys, key):
    out, doc = bell_doc
    del doc["metrics"][key]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", "-i", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err
    # an integer past float range, which ":.6f" cannot print, and non-finite floats
    doc["metrics"][key] = "@"
    for value in ("1" + "0" * 400, "NaN", "Infinity", "-Infinity"):
        out.write_text(json.dumps(doc).replace('"@"', value))
        assert main(["stats", "-i", str(out)]) == 1, value
        assert f"finite number under key {key!r}" in capsys.readouterr().err


# a value of any size is echoed cut short: a 200,000-element grid and an op
# row nested 900 deep, written as raw text in place of the "@" marker
HUGE_VALUES = {
    "grid-huge-list": (lambda doc: doc.update(grid="@"), "[" + ", ".join(map(str, range(200_000))) + "]",
                       "grid must be 2 for 2 qubits, document gives [0, 1, 2, "),
    "op-row-nested-900": (_set_first(["cycles", 0, 0], "@"), "[" * 900 + "]" * 900,
                          "cycle 0 op 0: [[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[...]]]"),
}


@pytest.mark.parametrize("edit, raw, message", HUGE_VALUES.values(), ids=HUGE_VALUES)
@pytest.mark.parametrize("command", ["verify", "stats"])
def test_huge_document_value_is_echoed_cut_short(bell_doc, capsys, command, edit, raw, message):
    out, doc = bell_doc
    edit(doc)
    out.write_text(json.dumps(doc).replace('"@"', raw))
    capsys.readouterr()
    assert main([command, "-i", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and len(err) < 200


@pytest.mark.parametrize("command", ["verify", "stats"])
def test_document_nested_past_the_decoder_is_a_user_error(tmp_path, capsys, command):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 3000 + "]" * 3000)  # raw text: too deep for json.dumps to write
    assert main([command, "-i", str(doc)]) == 1
    assert f"{doc} nests JSON deeper than the decoder allows" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["qreg q[3];", "qreg q[2]; creg c[2]; measure q[0] -> c[0];"])
def test_empty_circuit_compiles_to_empty_schedule(tmp_path, source):
    src = tmp_path / "empty.qasm"
    src.write_text(source + "\n")
    out = tmp_path / "empty.json"
    with pytest.warns(MeasurementDropped) if "measure" in source else nullcontext():
        assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["cycles"] == []
    assert doc["metrics"]["gate_overhead_pct"] == 0.0 == doc["metrics"]["depth_overhead_pct"]
    assert main(["verify", "-i", str(out)]) == 0


def test_grid_wider_than_a_byte(tmp_path):
    # 32 769 qubits need N = 257; site coordinates no longer fit in a byte
    src = tmp_path / "wide.qasm"
    src.write_text("qreg q[32769]; x q[0];\n")
    out = tmp_path / "wide.json"
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["grid"] == 257
    assert main(["verify", "-i", str(out)]) == 0


def test_qubit_count_past_the_bound_is_a_user_error(tmp_path, capsys):
    # a few bytes of QASM asking for a layout of gigabytes
    src = tmp_path / "huge.qasm"
    src.write_text("qreg q[1048577]; x q[0];\n")
    assert main(["compile", "-i", str(src), "-o", str(tmp_path / "huge.json")]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "error: 1048577 qubits exceed the bound of 2**20 = 1048576 qubits" in err


def test_sweep_reports_a_qubit_count_past_the_bound_and_goes_on(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--qubits", "1048577", "--gates", "5", "--twoq", "0:50:50", "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == ["1048577 qubits exceed the bound of 2**20 = 1048576 qubits"] * 2


@pytest.mark.parametrize("last_site", [[0, 0], None], ids=["repeated-site", "malformed-last-site"])
def test_loader_refuses_a_placement_past_the_bound_before_reading_its_sites(last_site):
    # a loader that read every site first would name the malformed last one
    doc = {"grid": 1450, "placement": [[0, 0]] * 2**20 + [last_site], "cycles": [], "moves_sha256": ""}
    with pytest.raises(XbarcError, match=r"placement lists 1048577 sites, over the bound of 2\*\*20 = 1048576 qubits"):
        schedule_from_doc(doc)


@pytest.mark.parametrize("source", ["qreg q[1]; t q[0];", "bv1"])
def test_one_qubit_z_gate_is_a_user_error(tmp_path, capsys, source):
    # a 1x1 grid has no column for a Z shuttle; that is the input's limit, not a bug
    src = tmp_path / "one.qasm"
    if source == "bv1":
        assert main(["benchgen", "--bv", "1", "-o", str(src)]) == 0
    else:
        src.write_text(source + "\n")
    capsys.readouterr()
    assert main(["compile", "-i", str(src), "-o", str(tmp_path / "one.json")]) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert "error: qubit 0 at (0, 0) has no empty horizontal neighbour site on the 1x1 grid" in err


def test_one_qubit_x_gate_compiles(tmp_path):
    # the lone qubit is its parity's only member: one pulse, no shuttle
    src = tmp_path / "one.qasm"
    src.write_text("qreg q[1]; x q[0];\n")
    out = tmp_path / "one.json"
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    assert main(["verify", "-i", str(out)]) == 0


def test_usage_error_exit_code(tmp_path, capsys):
    assert main(["compile", "-i", "/nonexistent.qasm", "-o", str(tmp_path / "x.json")]) == 1
    assert main(["benchgen", "-o", str(tmp_path / "x.qasm")]) == 1
    assert main(["compile", "-o", str(tmp_path / "x.json")]) == 1  # no -i
    assert "the following arguments are required: -i/--input" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["verify", "stats"])
def test_a_closed_standard_output_exits_141_in_silence(bell_doc, command, unbuffered):
    # the installed script's call, in a process whose stdout is a pipe with
    # its read end closed before the command starts. Unbuffered, the first
    # print fails; buffered, the output fits the buffer and the write fails
    # when main flushes it
    out, _ = bell_doc
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(xbarc.__file__).resolve().parent.parent)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-c", "import sys; from xbarc.cli import main; sys.exit(main())", command, "-i", str(out)],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr.decode()) == (141, "")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: xbarc")


def test_benchgen_random(tmp_path):
    out = tmp_path / "bench.qasm"
    rc = main(
        ["benchgen", "--qubits", "5", "--gates", "30", "--twoq", "50", "--seed", "7", "-o", str(out)]
    )
    assert rc == 0
    text = out.read_text()
    assert text.startswith("OPENQASM 2.0;")
    assert "qreg q[5];" in text


def test_benchgen_bv(tmp_path):
    out = tmp_path / "bv.qasm"
    assert main(["benchgen", "--bv", "4", "--secret", "101", "-o", str(out)]) == 0
    assert "cx" in out.read_text()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--qubits", "2", "--gates", "2", "--secret", "11"], "--secret needs --bv"),
        (["--bv", "3", "--qubits", "3"], "--bv takes neither --qubits nor --gates"),
        (["--bv", "3", "--gates", "20"], "--bv takes neither --qubits nor --gates"),
        (["--bv", "0"], "--bv must be at least 1, got 0"),
        (["--bv", "-2"], "--bv must be at least 1, got -2"),
    ],
    ids=["secret-without-bv", "bv-with-qubits", "bv-with-gates", "bv-zero", "bv-negative"],
)
def test_benchgen_refuses_options_that_would_change_nothing(tmp_path, capsys, args, message):
    out = tmp_path / "b.qasm"
    assert main(["benchgen", *args, "-o", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_benchgen_deterministic(tmp_path):
    a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
    args = ["benchgen", "--qubits", "4", "--gates", "20", "--twoq", "25", "--seed", "3"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("twoq", ["1e308", "nan", "inf"])
def test_benchgen_rejects_an_unusable_twoq(tmp_path, capsys, twoq):
    # planned_counts rounds n_gates * twoq_pct to an int, so the product must be finite
    args = ["benchgen", "--qubits", "2", "--gates", "5", "--twoq", twoq, "-o", str(tmp_path / "b.qasm")]
    assert main(args) == 1
    assert "twoq_pct" in capsys.readouterr().err


def test_benchgen_rejects_a_gate_count_past_float_range(tmp_path, capsys):
    # n_gates * twoq_pct cannot convert such an int to a float; the gate
    # bound refuses it first
    out = tmp_path / "b.qasm"
    args = ["benchgen", "--qubits", "2", "--gates", "1" + "0" * 400, "--twoq", "0", "-o", str(out)]
    assert main(args) == 1
    assert "n_gates must be between 1 and 2**20 = 1048576, got 1" + "0" * 400 in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gates", [str(2**20 + 1), "1" + "0" * 20])
def test_benchgen_rejects_a_gate_count_past_the_bound(tmp_path, capsys, gates):
    # 10**20 fits no list index, so the generator would die in an OverflowError
    out = tmp_path / "b.qasm"
    assert main(["benchgen", "--qubits", "2", "--gates", gates, "-o", str(out)]) == 1
    assert f"error: n_gates must be between 1 and 2**20 = 1048576, got {gates}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("size", [str(2**20 + 1), "1" + "0" * 20])
def test_benchgen_rejects_a_bv_size_past_the_bound(tmp_path, capsys, size):
    # checked before the default secret of size - 1 ones is built
    out = tmp_path / "b.qasm"
    assert main(["benchgen", "--bv", size, "-o", str(out)]) == 1
    assert f"error: --bv must be at most 2**20 = 1048576 qubits, got {size}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reports_a_gate_count_past_the_bound_and_goes_on(tmp_path):
    out = tmp_path / "s.csv"
    args = ["sweep", "--qubits", "2", "--gates", "1" + "0" * 20, "--twoq", "0:50:50", "--csv", str(out)]
    assert main(args) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["error"] for r in rows] == ["n_gates must be between 1 and 2**20 = 1048576, got 1" + "0" * 20] * 2


def test_stats_qig_needs_the_embedded_circuit(bell_doc, tmp_path, capsys):
    out, doc = bell_doc
    del doc["circuit"]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    dot = tmp_path / "qig.dot"
    assert main(["stats", "-i", str(out), "--qig", str(dot)]) == 1
    printed = capsys.readouterr()
    assert printed.out == "" and not dot.exists()
    assert "error: --qig needs the document's embedded circuit, and this document has none" in printed.err
    assert main(["stats", "-i", str(out)]) == 0


@pytest.mark.parametrize("qubits", [str(2**63), "1" + "0" * 20])
def test_benchgen_rejects_a_qubit_count_past_int64(tmp_path, capsys, qubits):
    # the generator draws qubit ids as int64; numpy's own errors name no option
    out = tmp_path / "b.qasm"
    args = ["benchgen", "--qubits", qubits, "--gates", "5", "--twoq", "50", "-o", str(out)]
    assert main(args) == 1
    assert f"n_qubits must be at most 2**63 - 1, got {qubits}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, bound",
    [("--gates", "1" + "0" * 400), ("--qubits", "-1:2"), ("--gates", "-3:5"), ("--twoq", "-5:0:5"), ("--twoq", "0:-5")],
)
def test_sweep_rejects_a_negative_or_overflowing_bound(tmp_path, capsys, option, bound):
    # a negative bound would stop the whole sweep in SeedSequence, which names no option
    out = tmp_path / "s.csv"
    args = {"--qubits": "2", "--gates": "5", "--twoq": "0"}
    args[option] = bound
    argv = ["sweep", *(f"{k}={v}" for k, v in args.items()), "--csv", str(out)]
    assert main(argv) == 1
    assert f"error: {option} bounds must be non-negative and finite as floats" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, bound", [("--qubits", "3:2"), ("--twoq", "50:0")])
def test_sweep_rejects_an_empty_range(tmp_path, capsys, option, bound):
    # a range whose start exceeds its stop holds no point, so the sweep
    # would write a CSV of the header alone
    out = tmp_path / "s.csv"
    args = {"--qubits": "2", "--gates": "5", "--twoq": "0"}
    args[option] = bound
    argv = ["sweep", *(f"{k}={v}" for k, v in args.items()), "--csv", str(out)]
    assert main(argv) == 1
    assert f"error: {option} range {bound} is empty: its start exceeds its stop" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_a_twoq_bound_past_float_range(tmp_path, capsys):
    out = tmp_path / "s.csv"
    args = ["sweep", "--qubits", "2", "--gates", "5", "--twoq", "1" + "0" * 400, "--csv", str(out)]
    assert main(args) == 1
    assert "--twoq" in capsys.readouterr().err
    assert not out.exists()


def test_parse_range():
    assert parse_range("3") == (3, 3, 1)
    assert parse_range("3:9") == (3, 9, 1)
    assert parse_range("3:9:2") == (3, 9, 2)
    with pytest.raises(ValueError):
        parse_range("3:9:0")
    with pytest.raises(ValueError):
        parse_range("1:2:3:4")


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--qubits", "3:5:2",
            "--gates", "10:20:10",
            "--twoq", "0:50:50",
            "--seeds", "1",
            "--csv", str(out),
        ]
    )
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert len(rows) == 1 + 2 * 2 * 2
    by_col = dict(zip(rows[0], rows[1]))
    assert by_col["error"] == ""
    assert float(by_col["gate_oh_pct"]) >= 0
    assert by_col["name"].startswith("randu_q3_")


def test_sweep_reports_an_infeasible_point_and_goes_on(tmp_path):
    out = tmp_path / "s.csv"
    args = ["sweep", "--qubits", "1:3", "--gates", "10", "--twoq", "50", "--csv", str(out)]
    assert main(args) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n_qubits"] for r in rows] == ["1", "2", "3"]
    assert "two-qubit gates need at least 2 qubits" in rows[0]["error"]
    assert rows[0]["name"].startswith("randu_q1_g10_p50_s")
    assert [r["error"] for r in rows[1:]] == ["", ""]


def test_sweep_reports_a_one_qubit_z_gate_and_goes_on(tmp_path):
    out = tmp_path / "s.csv"
    args = ["sweep", "--qubits", "1:2", "--gates", "10", "--twoq", "0", "--csv", str(out)]
    assert main(args) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["n_qubits"] for r in rows] == ["1", "2"]
    assert "has no empty horizontal neighbour site on the 1x1 grid" in rows[0]["error"]
    assert rows[1]["error"] == ""


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_sweep_rejects_fewer_than_one_seed(tmp_path, capsys, seeds):
    out = tmp_path / "s.csv"
    args = ["sweep", "--qubits", "2", "--gates", "5", "--twoq", "0", f"--seeds={seeds}", "--csv", str(out)]
    assert main(args) == 1
    assert f"error: --seeds must be at least 1, got {seeds}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("qubits", [str(2**63), "1" + "0" * 20])
def test_sweep_reports_a_qubit_count_past_int64_and_goes_on(tmp_path, qubits):
    out = tmp_path / "s.csv"
    args = ["sweep", "--qubits", qubits, "--gates", "5", "--twoq", "0:50:50", "--csv", str(out)]
    assert main(args) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n_qubits"], r["error"]) for r in rows] == [
        (qubits, f"n_qubits must be at most 2**63 - 1, got {qubits}")
    ] * 2


def test_sweep_rows_deterministic_apart_from_timing(tmp_path):
    args = [
        "sweep", "--qubits", "4", "--gates", "15", "--twoq", "50",
        "--seeds", "2", "--csv",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0

    def strip_timing(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("compile_ms")
        return [r[:drop] + r[drop + 1:] for r in rows]

    assert strip_timing(a) == strip_timing(b)


def test_spinq_seed_env_override(tmp_path, bell_qasm, monkeypatch):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("SPINQ_SEED", "11")
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out1)]) == 0
    monkeypatch.setenv("SPINQ_SEED", "12")
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out2)]) == 0
    esp1 = json.loads(out1.read_text())["metrics"]["esp"]
    esp2 = json.loads(out2.read_text())["metrics"]["esp"]
    assert esp1 != esp2  # different fidelity-map draws

    monkeypatch.setenv("SPINQ_SEED", "oops")
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out1)]) == 1


def test_bad_config_is_a_user_error(tmp_path, bell_qasm, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"decompositions": {"x": [{"kind": "rx", "angle": NaN}]}}')
    out = tmp_path / "out.json"
    assert main(["compile", "-i", str(bell_qasm), "-c", str(cfg), "-o", str(out)]) == 1
    assert "decompositions.x" in capsys.readouterr().err
    assert not out.exists()


def test_no_verify_skips(tmp_path, bell_qasm):
    out = tmp_path / "out.json"
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out), "--no-verify"]) == 0


@pytest.fixture()
def collector_state():
    """Put back the collector's on/off setting and debug flags after a test."""
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    try:
        yield
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_command_body_runs_with_the_collector_paused(tmp_path, bell_qasm, monkeypatch, collector_state):
    seen, real_verify = [], cli.verify

    def recording_verify(schedule):
        seen.append(gc.isenabled())
        return real_verify(schedule)

    monkeypatch.setattr(cli, "verify", recording_verify)
    out = tmp_path / "out.json"
    gc.enable()
    assert main(["compile", "-i", str(bell_qasm), "-o", str(out)]) == 0
    assert main(["verify", "-i", str(out)]) == 0
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
def test_collector_setting_is_restored_on_every_exit(tmp_path, bell_qasm, monkeypatch, collector_state, enabled):
    out = tmp_path / "out.json"

    def run(argv):
        gc.enable() if enabled else gc.disable()
        rc = main(argv)
        assert gc.isenabled() is enabled
        return rc

    assert run(["compile", "-i", str(bell_qasm), "-o", str(out)]) == 0
    assert run(["verify", "-i", str(tmp_path / "missing.json")]) == 1

    def broken_verify(schedule):
        raise CompileError("replay state lost")

    monkeypatch.setattr(cli, "verify", broken_verify)
    assert run(["verify", "-i", str(out)]) == 3


def _cyclic_garbage(argv) -> int:
    """How many objects main(argv) leaves that only the cyclic collector
    could free (kept in gc.garbage under DEBUG_SAVEALL instead)."""
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_cyclic_garbage_does_not_grow_with_the_circuit(tmp_path, capsys, collector_state):
    """Commands build no reference cycles of their own, so pausing the
    collector for a command cannot let its garbage pile up: what a 1000-gate
    circuit leaves is what a 100-gate one leaves (`verify`'s indented
    json.dumps keeps a few encoder closures, the same at any size)."""
    def commands(n_gates):
        src, doc = tmp_path / f"r{n_gates}.qasm", tmp_path / f"r{n_gates}.json"
        src.write_text(circuit_to_qasm(gen_random_uniform(BenchSpec(12, n_gates, 50.0, 0))))
        return {
            "compile": ["compile", "-i", str(src), "-o", str(doc)],
            "verify": ["verify", "-i", str(doc)],
            "stats": ["stats", "-i", str(doc)],
            "sweep": ["sweep", "--qubits", "12", "--gates", str(n_gates), "--twoq", "50",
                      "--csv", str(tmp_path / f"sweep{n_gates}.csv")],
        }

    for argv in commands(100).values():  # first calls fill caches that outlive them
        assert main(argv) == 0
    small = {name: _cyclic_garbage(argv) for name, argv in commands(100).items()}
    large = {name: _cyclic_garbage(argv) for name, argv in commands(1000).items()}
    capsys.readouterr()
    assert small == large


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()

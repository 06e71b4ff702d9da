"""CLI subcommands, exit codes, sweep CSV."""
import csv
import json
import os
from contextlib import nullcontext

import pytest

from xbarc import BenchSpec, gen_random_uniform, load_config
from xbarc import cli
from xbarc.cli import _compile_circuit, main, parse_range
from xbarc.crossbar import Grid, apply_cycle
from xbarc.instructions import schedule_from_doc, schedule_to_doc
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
    doc["trajectory_sha256"] = "0" * 64
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "-i", str(bad)]) == 2


def test_verify_detects_legal_mid_trajectory_change(tmp_path, capsys):
    # mirroring one zsh/zsh_ret pair keeps every cycle legal and leaves the
    # final occupancy and the fidelity unchanged; only the trajectory differs
    src = tmp_path / "zz.qasm"
    src.write_text("qreg q[3]; rz(0.7) q[2]; rz(0.3) q[0];\n")
    out = tmp_path / "zz.json"
    assert main(["compile", "-i", str(src), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    (zsh,), (ret,) = doc["cycles"][0], doc["cycles"][1]
    assert (zsh["kind"], zsh["dir"], ret["dir"]) == ("zsh", "L", "R")
    zsh["dir"], ret["dir"] = "R", "L"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-i", str(out)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [] and report["trajectory_match"] is False
    assert report["equivalence_fidelity"] > 1 - 1e-9


def test_verify_fails_on_wrong_angle(bell_doc, capsys):
    path, doc = bell_doc
    zsh = next(op for c in doc["cycles"] for op in c if op["kind"] == "zsh")
    zsh["angle"] += 1.0
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-i", str(path)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["replay_ok"] is True and report["ok"] is False
    assert report["equivalence_fidelity"] < 1 - 1e-9


def test_verify_reports_illegal_move_without_equivalence(bell_doc, capsys):
    path, doc = bell_doc
    cycle, op = next(
        (i, op) for i, c in enumerate(doc["cycles"]) for op in c if op["kind"] == "sh_r"
    )
    op["kind"] = "sh_l"
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


def _set_op(kind, key, value):
    """Set `key` of the first instruction of `kind`."""

    def edit(doc):
        op = next(op for c in doc["cycles"] for op in c if op["kind"] == kind)
        op[key] = value

    return edit


def _set_circuit_gate(key, value):
    """Set `key` of the first embedded circuit gate that has an angle."""

    def edit(doc):
        next(g for g in doc["circuit"]["gates"] if "angle" in g)[key] = value

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


def _old_format(positions):
    """Rewrite the document as an earlier format wrote it: with n and each
    cycle as {"type", "ops"}, and in the positions era the occupancy after
    every cycle in place of trajectory_sha256."""

    def edit(doc):
        schedule = schedule_from_doc(doc)
        old = {"name": doc["name"], "n": schedule.n_qubits, "grid": doc["grid"], "placement": doc["placement"]}
        old["cycles"] = [{"type": c.type.value, "ops": ops} for c, ops in zip(schedule.cycles, doc["cycles"])]
        if positions:
            grid, old["positions"] = Grid(schedule.grid_n, schedule.placement), []
            for cycle in schedule.cycles:
                apply_cycle(grid, cycle)
                old["positions"].append([list(grid.site_of(q)) for q in range(schedule.n_qubits)])
        else:
            old["trajectory_sha256"] = doc["trajectory_sha256"]
        old |= {"circuit": doc["circuit"], "metrics": doc["metrics"]}
        doc.clear()
        doc.update(old)

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_drop("cycles"), "lacks key 'cycles'"),
        (_drop("placement"), "lacks key 'placement'"),
        (_drop("trajectory_sha256"), "lacks key 'trajectory_sha256'"),
        (_set_op("sqswap", "q", [0, 7]), "qubit 7, outside range(2)"),
        (_old_format(positions=True), "document writes n and typed cycles; it predates this format, recompile it"),
        (lambda doc: doc.update(grid="3"), "grid must be 2 for 2 qubits, document gives '3'"),
        (_set_op("sg_rot", "angle", None), "sg_rot needs a numeric angle"),
        (_set_op("zsh", "angle", None), "zsh needs a numeric angle"),
        (_set_op("sg_rot", "axis", "z"), "needs axis x or y"),
        (_set_op("sg_rot", "parity", 2), "needs parity 0 or 1"),
        (lambda doc: doc.update(placement=[[0], [1, 1]]), "placement of qubit 0"),
        (lambda doc: doc["circuit"].update(n_qubits=3), "embedded circuit has 3 qubits"),
        (_set_op("sqswap", "q", 5), "sqswap needs q as a list of 2 qubits, document gives 5"),
        (_set_op("sqswap", "src", 5), "sqswap src must be a list"),
        (_set_first(["cycles", 0], 5), "cycle 0 must be a list, document gives 5"),
        (_set_first(["cycles"], 5), "cycles must be a list"),
        (_set_first(["circuit", "gates"], 5), "circuit gates must be a list"),
        (_set_first(["cycles", 0], {"type": "z", "ops": []}), "cycle 0 must be a list, document gives {'type'"),
        (_set_first(["cycles", 0, 0], 5), "cycle 0 op must be an object"),
        (_set_circuit_gate("q", 0), "circuit gate 0 q must be a list"),
        (_set_first(["circuit", "n_qubits"], "2"), "circuit n_qubits must be a positive integer"),
        (_set_circuit_gate("angle", "0.5"), "circuit gate 0 angle must be a finite number"),
        (_set_op("zsh", "angle", 10**400), "zsh needs a numeric angle, finite as a float"),
        (_set_op("zsh", "angle", float("nan")), "zsh needs a numeric angle, finite as a float"),
        (_set_op("zsh", "angle", float("inf")), "zsh needs a numeric angle, finite as a float"),
        (lambda doc: doc.update(grid=10**19), "grid must be 2 for 2 qubits"),
        (lambda doc: doc.update(grid=9), "grid must be 2 for 2 qubits"),
        (lambda doc: doc.update(placement=[[5, 5], [1, 1]]), "qubit 0 at (5, 5) outside 2x2 grid"),
        (lambda doc: doc.update(placement=[[1, 1], [1, 1]]), "qubits 0 and 1 share site (1, 1)"),
        (_append_op(1, {"kind": "sg_rot", "angle": 0.1, "axis": "x", "parity": 0}),
         "cycle 1: instruction families ['shuttle', 'xy_rot'] cannot share a cycle"),
        (lambda doc: doc.update(name=5), "name must be a string, document gives 5"),
        (_set_first(["circuit", "name"], ["bell"]), "circuit name must be a string, document gives ['bell']"),
        (lambda doc: doc.update(trajectory_sha256=5), "trajectory_sha256 must be a string, document gives 5"),
        (_set_op("sqswap", "src", [1.5]), "sqswap src must list non-negative integers, document gives [1.5]"),
        (_set_op("sqswap", "src", [-1]), "sqswap src must list non-negative integers, document gives [-1]"),
        (_set_first(["circuit", "gates", 0], {"kind": "measure", "q": [0]}),
         "circuit gate 0 kind must be rx, ry, rz or sqswap, document gives 'measure'"),
        (_set_first(["circuit", "gates", 0], {"kind": "h", "q": [0]}),
         "circuit gate 0 kind must be rx, ry, rz or sqswap, document gives 'h'"),
        (_set_first(["circuit", "gates", 1], {"kind": "cx", "q": [0, 1]}),
         "circuit gate 1 kind must be rx, ry, rz or sqswap, document gives 'cx'"),
        (_set_first(["circuit", "gates", 0, "kind"], ["rx"]),
         "circuit gate 0 kind must be rx, ry, rz or sqswap, document gives ['rx']"),
        (_old_format(positions=False), "document writes n and typed cycles; it predates this format, recompile it"),
        (_set_op("sqswap", "src", [100000000000]),
         "sqswap src names gate 100000000000, outside the embedded circuit's range(8)"),
        (_set_op("sh_r", "dir", "L"), "sh_r carries no field 'dir'; its fields are ['kind', 'q', 'src']"),
        (_set_op("sqswap", "angle", 0.5), "sqswap carries no field 'angle'; its fields are ['kind', 'q', 'src']"),
        (lambda doc: [_set_op("zsh", key, value)(doc) for key, value in (("axis", "x"), ("parity", 0))],
         "zsh carries no field 'axis'; its fields are ['angle', 'dir', 'kind', 'q', 'src']"),
        (_set_first(["cycles", 1, 0, "kind"], 3), "cycle 1: 3 is not a valid InstrKind"),
        (_set_first(["cycles", 1, 0, "kind"], ["sh_l"]), "cycle 1: ['sh_l'] is not a valid InstrKind"),
        (_set_first(["cycles", 1, 0, "kind"], None), "cycle 1: None is not a valid InstrKind"),
        (_set_first(["cycles", 1, 0, "kind"], "SH_L"), "cycle 1: 'SH_L' is not a valid InstrKind"),
        (lambda doc: doc["cycles"][1][0].pop("kind"), "lacks key 'kind'"),
        (_set_circuit_gate("q", [5]), "operand 5 out of range for 2 qubits"),
        (_set_circuit_gate("q", [-1]), "operand -1 out of range for 2 qubits"),
    ],
    ids=[
        "no-cycles", "no-placement", "no-digest", "qubit-out-of-range", "position-history",
        "grid-string", "sg-angle-null", "zsh-angle-null", "axis-z", "parity-2",
        "placement-not-pair", "circuit-qubits-mismatch", "q-number", "src-number", "ops-number",
        "cycles-number", "circuit-gates-number", "cycle-object", "op-not-object",
        "circuit-gate-q-number", "circuit-qubits-string", "circuit-angle-string", "zsh-angle-401-digits",
        "zsh-angle-nan", "zsh-angle-inf", "grid-huge", "grid-too-large", "placement-off-grid",
        "placement-shared-site", "cycle-mixed", "name-number",
        "circuit-name-list", "digest-number", "src-float", "src-negative",
        "circuit-gate-measure", "circuit-gate-h", "circuit-gate-cx", "circuit-gate-kind-list",
        "typed-cycles", "src-out-of-range", "sh-dir", "sqswap-angle", "zsh-axis-parity",
        "kind-number", "kind-list", "kind-null", "kind-upper-case", "no-kind",
        "circuit-gate-q-5", "circuit-gate-q-negative",
    ],
)
@pytest.mark.parametrize("command", ["verify", "stats"])
def test_malformed_document_is_a_user_error(bell_doc, capsys, command, edit, message):
    out, doc = bell_doc
    edit(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main([command, "-i", str(out)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["gate_overhead_pct", "depth_overhead_pct", "esp"])
def test_stats_metrics_without_a_key_is_a_user_error(bell_doc, capsys, key):
    out, doc = bell_doc
    del doc["metrics"][key]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", "-i", str(out)]) == 1
    assert repr(key) in capsys.readouterr().err


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


def test_usage_error_exit_code(tmp_path):
    assert main(["compile", "-i", "/nonexistent.qasm", "-o", str(tmp_path / "x.json")]) == 1
    assert main(["benchgen", "-o", str(tmp_path / "x.qasm")]) == 1


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
    # n_gates * twoq_pct cannot convert such an int to a float
    out = tmp_path / "b.qasm"
    args = ["benchgen", "--qubits", "2", "--gates", "1" + "0" * 400, "--twoq", "0", "-o", str(out)]
    assert main(args) == 1
    assert "n_gates must be finite as a float" in capsys.readouterr().err
    assert not out.exists()


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

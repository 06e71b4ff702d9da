"""Tests of the benchmark itself: seeded inputs, printed metrics, failure counting."""
from __future__ import annotations

import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from tracing import SPANS, LEAVES, Tracer, traced  # noqa: E402
from workloads import WORKLOADS, Workload, bv_batch, randu_batch  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
bench = sys.modules["perfbench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(capsys, monkeypatch, tmp_path, workload: Workload, trace: int) -> dict:
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "OUT", tmp_path)
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert bench.main(argv, workloads={workload.name: workload}) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_qasm(name):
    w = WORKLOADS[name]
    first = w.qasm_batch(7, 0)
    assert first == w.qasm_batch(7, 0)
    assert first != w.qasm_batch(8, 0)
    assert first != w.qasm_batch(7, 1)


def test_workloads_match_contract():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in CONTRACT["workloads"])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_contract_metric_printed_with_unit(capsys, monkeypatch, tmp_path, trace, section):
    tiny = Workload("tiny", randu_batch(4, 30), quality_batches=1)
    out = run_bench(capsys, monkeypatch, tmp_path, tiny, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
    printed = {name: m["unit"] for name, m in out["metrics"].items()}
    assert printed == expected
    assert all(isinstance(m["value"], float) for m in out["metrics"].values())


def test_times_are_multiples_of_the_probes_around_them(monkeypatch, tmp_path):
    probes = iter([1.0, 3.0, 5.0, 7.0, 9.0])
    monkeypatch.setattr(bench, "probe_s", lambda: next(probes))
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    tiny = Workload("tiny", randu_batch(4, 30), quality_batches=2)
    results, _, setup = bench.run_loop(tiny, 0, 0.0, False, tmp_path)
    assert [r.probe_s for r in results] == [[1.0, 3.0, 5.0], [5.0, 7.0, 9.0]]
    metrics = bench.end_to_end_metrics(results, 2, statistics.median(setup))
    assert metrics["compile_rel.p50"] == pytest.approx((results[0].compile_s / 2 + results[1].compile_s / 6) / 2)
    assert metrics["verify_rel.p50"] == pytest.approx((results[0].verify_s / 4 + results[1].verify_s / 8) / 2)


def test_one_qubit_bv_failure_counted_not_dropped(capsys, monkeypatch, tmp_path):
    sweep = Workload("bv-tiny", bv_batch(sizes=(1, 2, 3)), quality_batches=1)
    out = run_bench(capsys, monkeypatch, tmp_path, sweep, 0)
    assert out["attempted"] == 3
    assert out["failed"] == 1
    assert out["correct"] is True  # no document was produced, so none was wrong
    assert out["metrics"]["ok_frac"]["value"] == pytest.approx(2 / 3)


def test_traced_rebinds_only_inside_block():
    originals = [getattr(m, attr) for m, attr, _ in SPANS + LEAVES]
    tracer = Tracer()
    with traced(tracer):
        assert all(getattr(m, attr) is not o for (m, attr, _), o in zip(SPANS + LEAVES, originals))
    assert all(getattr(m, attr) is o for (m, attr, _), o in zip(SPANS + LEAVES, originals))


def test_self_times_sum_to_root(tmp_path):
    tiny = Workload("tiny", randu_batch(4, 30), quality_batches=1)
    tracer = Tracer()
    name, n_qubits, qasm = tiny.qasm_batch(0, 0)[0]
    with traced(tracer):
        res = bench.run_circuit(tmp_path, name, n_qubits, qasm, 0, tracer)
    assert not res.failed
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.compile", "cli.verify"]
    assert sum(tracer.self_times().values()) == pytest.approx(sum(s.duration for s in roots))
    assert tracer.leaf("crossbar.check").calls > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "randu-q12", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

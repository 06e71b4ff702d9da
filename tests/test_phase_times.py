"""scripts/phase_times.py times every compile and verify phase on a small
random-uniform circuit and prints one table row per size; scripts/phase_ab.py
times those phases of two trees in alternating subprocesses."""
import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "phase_times.py"
_spec = importlib.util.spec_from_file_location("phase_times", _SCRIPT)
phase_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(phase_times)
_AB_SCRIPT = _SCRIPT.with_name("phase_ab.py")
_ab_spec = importlib.util.spec_from_file_location("phase_ab", _AB_SCRIPT)
phase_ab = importlib.util.module_from_spec(_ab_spec)
_ab_spec.loader.exec_module(phase_ab)
_TREE = _SCRIPT.parent.parent


def test_every_phase_is_timed_on_4_qubits_30_gates():
    ms, n_instr, doc_bytes = phase_times.phase_times(4, 30)
    assert list(ms) == list(phase_times.PHASES)
    assert all(t is not None and t >= 0.0 for t in ms.values())  # equiv runs within its cap
    assert n_instr > 30
    assert doc_bytes > 10 * n_instr  # at least a short row per instruction


def test_prints_one_row_per_size(capsys):
    assert phase_times.main(["4x30", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("| workload | parse | decompose | schedule |")
    assert len(lines) == 3 and lines[2].startswith("| 4 q, 30 g |")
    assert lines[2].count("|") == lines[0].count("|")
    header = [cell.strip() for cell in lines[0].split("|")]
    row = dict(zip(header, (cell.strip() for cell in lines[2].split("|"))))
    _, _, doc_bytes = phase_times.phase_times(4, 30, seed=1)
    assert row["doc KB"] == f"{doc_bytes / 1000:.1f}"


def test_rejects_a_size_without_an_x():
    with pytest.raises(SystemExit):
        phase_times.main(["12"])


def test_ab_of_a_tree_against_itself_prints_every_phase(capsys, monkeypatch):
    monkeypatch.setattr(phase_ab, "ROUNDS", 2)
    assert phase_ab.main([str(_TREE), str(_TREE), "4x30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "| workload | phase | old min ms | old IQR ms | new min ms | new/old median | new faster |"
    rows = [line.split(" | ") for line in lines[5:]]
    assert [row[1] for row in rows] == list(phase_times.PHASES)  # equiv runs within its cap
    for _, _, old_min, old_iqr, new_min, ratio, wins in rows:
        assert float(old_min) >= 0.0 and float(old_iqr) >= 0.0 and float(new_min) >= 0.0 and float(ratio) > 0.0
        assert wins.rstrip(" |") in ("0/2", "1/2", "2/2")


def test_ab_rejects_a_directory_without_the_script(tmp_path):
    with pytest.raises(SystemExit):
        phase_ab.main([str(tmp_path), str(_TREE), "4x30"])

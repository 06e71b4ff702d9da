"""Compare the phase times of two source trees, timed in alternating subprocesses.

    python scripts/phase_ab.py [--seed S] OLD_TREE NEW_TREE QUBITSxGATES [...]

OLD_TREE and NEW_TREE are checkouts of this repository (for example two
`git archive` copies). Each of ROUNDS rounds runs one fresh interpreter per
tree, the tree that goes first alternating from round to round. The interpreter loads
that tree's own `scripts/phase_times.py` (and so that tree's `src`), runs
its `phase_table` on the sizes and hands back each phase's ms, the median
of phase_table's own rounds. A host whose speed drifts over minutes moves
both trees' figures of one round alike, so the per-round ratio new/old is
steadier than either tree's figure alone.

It prints one row per size and phase: each tree's minimum ms over the
rounds, the interquartile range of the old tree's ms over the rounds (its
noise: a median gap smaller than it shows no change), the median of the
per-round new/old ratios, and in how many rounds the new tree was faster. A phase skipped at a size (equiv above its qubit
cap) prints "skipped". Both trees must have phase_times.phase_table.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROUNDS = 10

# run in each child: load the tree's phase_times.py, time the sizes, print JSON
_CHILD = """
import importlib.util, json, sys
tree, seed, sizes = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
spec = importlib.util.spec_from_file_location("phase_times", tree + "/scripts/phase_times.py")
phase_times = importlib.util.module_from_spec(spec)
spec.loader.exec_module(phase_times)
table = phase_times.phase_table([tuple(s) for s in sizes], seed)
print(json.dumps({"phases": list(phase_times.PHASES), "ms": [ms for ms, _, _ in table]}))
"""


def _size(text: str) -> tuple[int, int]:
    try:
        qubits, gates = (int(v) for v in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected QUBITSxGATES, e.g. 12x1000, got {text!r}") from None
    return qubits, gates


def _tree(text: str) -> Path:
    tree = Path(text).resolve()
    if not (tree / "scripts" / "phase_times.py").is_file():
        raise argparse.ArgumentTypeError(f"{text} holds no scripts/phase_times.py")
    return tree


def time_tree(tree: Path, sizes, seed: int) -> dict:
    """One child's phase names and, per size, ms per phase (None: skipped)."""
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tree), str(seed), json.dumps(sizes)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def _iqr(values: list[float]) -> float:
    """Interquartile range: the third quartile less the first, each
    interpolated between the values as numpy.percentile does."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def phase_ab(old: Path, new: Path, sizes, seed: int = 0) -> list[dict]:
    """Per size and phase: each tree's minimum ms, the old tree's
    interquartile range in ms, the median new/old ratio of the ROUNDS
    rounds and the rounds the new tree was faster (None for a skipped
    phase)."""
    samples = {"old": [], "new": []}
    for r in range(ROUNDS):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        for side in order:
            samples[side].append(time_tree(old if side == "old" else new, sizes, seed))
    rows = []
    for i, size in enumerate(sizes):
        for phase in samples["new"][0]["phases"]:
            pairs = [(o["ms"][i].get(phase), n["ms"][i].get(phase)) for o, n in zip(samples["old"], samples["new"])]
            if any(o is None or n is None for o, n in pairs):
                rows.append({"size": size, "phase": phase, "old_min": None, "old_iqr": None, "new_min": None,
                             "ratio": None, "wins": None})
                continue
            rows.append({
                "size": size,
                "phase": phase,
                "old_min": min(o for o, _ in pairs),
                "old_iqr": _iqr([o for o, _ in pairs]),
                "new_min": min(n for _, n in pairs),
                "ratio": statistics.median(n / o if o > 0 else float("inf") for o, n in pairs),
                "wins": sum(n < o for o, n in pairs),
            })
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=_tree, metavar="OLD_TREE")
    parser.add_argument("new", type=_tree, metavar="NEW_TREE")
    parser.add_argument("sizes", nargs="+", type=_size, metavar="QUBITSxGATES")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rows = phase_ab(args.old, args.new, args.sizes, args.seed)
    print(f"old {args.old}\nnew {args.new}\n{ROUNDS} rounds, seed {args.seed}")
    print("| workload | phase | old min ms | old IQR ms | new min ms | new/old median | new faster |")
    print("|---|---|---|---|---|---|---|")
    for row in rows:
        (n_qubits, n_gates), phase = row["size"], row["phase"]
        if row["ratio"] is None:
            cells = ["skipped"] * 5
        else:
            cells = [f"{row['old_min']:.2f}", f"{row['old_iqr']:.2f}", f"{row['new_min']:.2f}", f"{row['ratio']:.3f}",
                     f"{row['wins']}/{ROUNDS}"]
        print(f"| {n_qubits} q, {n_gates} g | {phase} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

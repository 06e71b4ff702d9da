"""Golden outputs: compiled cycles, trajectory digest and ESP on a fixed corpus.

Every circuit of CORPUS is compiled and checked against golden_schedules.json:
the sha256 of its canonical `cycles` JSON (sorted keys, compact separators,
the form perfbench hashes), its `moves_sha256`, and `repr` of its ESP
under the default architecture config. A change that alters schedules on
purpose re-blesses the file and says why:

    PYTHONPATH=src python tests/test_golden.py --bless
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest

from xbarc import build_fidelity_map, esp, gen_bernstein_vazirani, gen_random_uniform, load_config
from xbarc.benchgen import BenchSpec
from xbarc.instructions import schedule_to_doc

from conftest import compile_native

GOLDEN = Path(__file__).with_name("golden_schedules.json")

CORPUS = {
    **{
        f"randu_q{q}_s{seed}": (lambda q=q, seed=seed: gen_random_uniform(BenchSpec(q, 200, 50.0, seed)))
        for q in (2, 5, 12, 30)
        for seed in (0, 1)
    },
    **{
        f"bv_q{n}": (lambda n=n: gen_bernstein_vazirani(n, ("10" * n)[: n - 1]))
        for n in range(2, 9)
    },
}


def fingerprint(name: str) -> dict:
    config = load_config("{}")
    _, schedule = compile_native(CORPUS[name](), config)
    canonical = json.dumps(schedule_to_doc(schedule)["cycles"], sort_keys=True, separators=(",", ":"))
    fmap = build_fidelity_map(schedule.grid_n, config)
    return {
        "cycles_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "moves_sha256": schedule.moves_sha256,
        "esp": repr(esp(schedule, fmap)),
    }


def test_corpus_matches_golden_file():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_schedule_matches_golden(name):
    assert fingerprint(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--bless"]:
        sys.exit(f"usage: {sys.argv[0]} --bless")
    GOLDEN.write_text(json.dumps({name: fingerprint(name) for name in sorted(CORPUS)}, indent=1) + "\n")
    print(f"blessed {len(CORPUS)} circuits -> {GOLDEN}")

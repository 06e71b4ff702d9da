import hashlib
import struct

import numpy as np
import pytest

from xbarc import decompose, initial_placement, load_config, schedule_integrated
from xbarc.crossbar import Grid


@pytest.fixture(scope="session")
def default_config():
    return load_config("{}")


def checkerboard_sites(n):
    """Every checkerboard site ((x + y) even) of the n x n grid in
    left-to-right, bottom-to-top order: the reference for
    initial_placement and the sites of a full board."""
    return [(x, y) for y in range(n) for x in range(n) if (x + y) % 2 == 0]


def sparse_grid(n, sites):
    """Grid with qubits 0..k-1 on the given checkerboard sites."""
    return Grid(n, tuple(tuple(s) for s in sites))


def compile_native(circuit, config=None):
    config = config or load_config("{}")
    dec = decompose(circuit, config)
    return dec, schedule_integrated(dec, initial_placement(dec.n_qubits))


def rng_for(*entropy):
    return np.random.default_rng(list(entropy))


def moves_digest(placement, snapshots):
    """Reference for TrajectoryDigest.hexdigest, derived from the occupancy
    after every cycle: sha256 over little-endian uint32s, first every
    qubit's (x, y) of the placement in qubit order, then for each snapshot
    the (q, x, y) of every qubit whose site differs from the snapshot
    before it, in ascending q, and 0xFFFFFFFF."""
    words = [c for site in placement for c in site]
    before = placement
    for pos in snapshots:
        for q, (old, new) in enumerate(zip(before, pos, strict=True)):
            if old != new:
                words += (q, *new)
        words.append(0xFFFFFFFF)
        before = pos
    return hashlib.sha256(struct.pack(f"<{len(words)}I", *words)).hexdigest()

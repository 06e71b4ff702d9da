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

"""The QAOA angle search is bit-identical to its plain reference.

``tests/qaoa_oracle.py`` keeps the search as first written: a fresh phase
vector per layer, ``moveaxis`` + ``tensordot`` per qubit in the mixer, and
an uncached ``depth - 1`` recursion.  The production search memoizes each
depth level, gathers the phase separator from the distinct cut values,
shares each depth-1 grid γ's phased state, and chains its contractions.
Every decision it makes must stay the same, so angles, expected cuts and
states are compared for exact equality, never within a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import qaoa
from repro.workloads.qaoa import (
    cut_values,
    path_graph_edges,
    qaoa_maxcut,
    ring_graph_edges,
)
from tests import qaoa_oracle as oracle

#: Every QAOA shape a production path, benchmark, example or perfbench
#: workload builds (the paper suite, the experiment modules, the served
#: wave, the variational sweep).
NAMED_SHAPES = (
    [(n, 1) for n in range(4, 13)]
    + [(n, 2) for n in (4, 6, 8, 10, 12, 14)]
    + [(n, 4) for n in (8, 10, 12)]
)


def oracle_angles(num_qubits, depth, edges):
    return oracle.optimize_angles(cut_values(num_qubits, edges), num_qubits, depth)


def production_expected_cut(num_qubits, depth, edges, params):
    table = qaoa._PhaseTable(cut_values(num_qubits, edges))
    return qaoa._expected_cut(params, table, num_qubits, depth)


@pytest.mark.parametrize("num_qubits,depth", NAMED_SHAPES)
def test_named_shapes_match_the_oracle_bit_for_bit(num_qubits, depth):
    workload = qaoa_maxcut(num_qubits, depth=depth)
    edges = path_graph_edges(num_qubits)
    want, want_value = oracle_angles(num_qubits, depth, edges)
    got = np.array(workload.metadata["gammas"] + workload.metadata["betas"])
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()
    assert production_expected_cut(num_qubits, depth, edges, got) == want_value


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_levels_are_memoized_per_edge_list(depth):
    # Path and ring graphs of one width share (num_qubits, depth): each
    # level must still be searched on its own cut values.
    for edges in (path_graph_edges(6), ring_graph_edges(6)):
        workload = qaoa_maxcut(6, depth=depth, edges=edges)
        want, _ = oracle_angles(6, depth, edges)
        got = np.array(workload.metadata["gammas"] + workload.metadata["betas"])
        assert got.tobytes() == want.tobytes()


def test_depth_levels_are_searched_once(monkeypatch):
    calls = []
    search = qaoa._search_level

    def counting(table, num_qubits, depth, edges):
        calls.append(depth)
        return search(table, num_qubits, depth, edges)

    monkeypatch.setattr(qaoa, "_search_level", counting)
    monkeypatch.setattr(qaoa, "_ANGLES", {})
    edges = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2))
    qaoa_maxcut(4, depth=4, edges=edges)
    qaoa_maxcut(4, depth=2, edges=edges)
    qaoa_maxcut(4, depth=3, edges=edges)
    assert sorted(calls) == [1, 2, 3, 4]


@pytest.mark.parametrize("num_qubits", list(range(1, 15)))
def test_mixer_matches_the_tensordot_mixer(num_qubits):
    rng = np.random.default_rng(num_qubits)
    size = 1 << num_qubits
    state = rng.normal(size=size) + 1j * rng.normal(size=size)
    for beta in (0.05, 0.7, -1.3, math.pi / 3):
        got = qaoa._apply_mixer(state, beta, num_qubits)
        want = oracle.apply_mixer(state, beta, num_qubits)
        assert got.tobytes() == want.tobytes()


@st.composite
def _instances(draw):
    num_qubits = draw(st.integers(min_value=2, max_value=8))
    pairs = [(a, b) for a in range(num_qubits) for b in range(a + 1, num_qubits)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    depth = draw(st.integers(min_value=1, max_value=3))
    angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
    gammas = draw(st.lists(angle, min_size=depth, max_size=depth))
    betas = draw(st.lists(angle, min_size=depth, max_size=depth))
    return num_qubits, tuple(edges), np.array(gammas), np.array(betas)


@settings(max_examples=150, deadline=None)
@given(_instances())
def test_state_matches_the_oracle_bit_for_bit(instance):
    num_qubits, edges, gammas, betas = instance
    cuts = cut_values(num_qubits, edges)
    got = qaoa._qaoa_state(gammas, betas, qaoa._PhaseTable(cuts), num_qubits)
    want = oracle.qaoa_state(gammas, betas, cuts, num_qubits)
    assert np.array_equal(got.view(float), want.view(float))
    assert got.tobytes() == want.tobytes()

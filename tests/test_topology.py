"""Tests for device coupling topologies.

networkx is the reference here only: every builder must iterate its nodes,
edges and neighbours as a ``networkx.Graph`` built from the same edges
does, because calibration synthesis draws its random numbers in that order.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    Device,
    falcon27,
    google_sycamore,
    grid_topology,
    heavy_hex_topology,
    hummingbird65,
    ibmq_manhattan,
    ibmq_paris,
    ibmq_toronto,
    line_topology,
    ring_topology,
    synthesize_calibration,
    sycamore_grid,
    validate_topology,
)
from repro.devices import topology as topology_module
from repro.devices.topology import CouplingGraph, hop_counts
from repro.exceptions import DeviceError


def degrees(graph):
    return [len(list(graph.neighbors(q))) for q in graph.nodes]


def is_connected(graph):
    return math.inf not in hop_counts(graph, 0)


class TestGenerators:
    def test_line(self):
        graph = line_topology(5)
        assert graph.number_of_nodes() == 5
        assert len(graph.edges) == 4
        assert max(degrees(graph)) == 2

    def test_line_single_qubit(self):
        assert line_topology(1).number_of_nodes() == 1

    def test_line_invalid(self):
        with pytest.raises(DeviceError):
            line_topology(0)

    def test_ring(self):
        graph = ring_topology(6)
        assert len(graph.edges) == 6
        assert all(d == 2 for d in degrees(graph))

    def test_ring_too_small(self):
        with pytest.raises(DeviceError):
            ring_topology(2)

    def test_grid(self):
        graph = grid_topology(3, 4)
        assert graph.number_of_nodes() == 12
        assert len(graph.edges) == 3 * 3 + 2 * 4

    def test_grid_invalid(self):
        with pytest.raises(DeviceError):
            grid_topology(0, 3)

    def test_heavy_hex_connected_low_degree(self):
        graph = heavy_hex_topology(3, 9)
        assert is_connected(graph)
        assert max(degrees(graph)) <= 3

    def test_heavy_hex_invalid(self):
        with pytest.raises(DeviceError):
            heavy_hex_topology(0, 5)


class TestDeviceMaps:
    def test_falcon27_shape(self):
        graph = falcon27()
        assert graph.number_of_nodes() == 27
        assert len(graph.edges) == 28
        assert is_connected(graph)
        # Heavy-hex family: degree at most 3.
        assert max(degrees(graph)) <= 3

    def test_hummingbird65_shape(self):
        graph = hummingbird65()
        assert graph.number_of_nodes() == 65
        assert is_connected(graph)
        assert max(degrees(graph)) <= 3

    def test_sycamore_shape(self):
        graph = sycamore_grid()
        assert graph.number_of_nodes() == 53
        assert is_connected(graph)

    def test_all_device_maps_validate(self):
        for factory in (falcon27, hummingbird65, sycamore_grid):
            validate_topology(factory())


class TestValidation:
    def test_empty_graph(self):
        with pytest.raises(DeviceError):
            validate_topology(nx.Graph())

    def test_non_contiguous_nodes(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 2])
        graph.add_edge(0, 2)
        with pytest.raises(DeviceError):
            validate_topology(graph)

    def test_disconnected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(DeviceError):
            validate_topology(graph)

    def test_self_loop(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(2))
        graph.add_edge(0, 1)
        graph.add_edge(0, 0)
        with pytest.raises(DeviceError):
            validate_topology(graph)


# ---------------------------------------------------------------------------
# networkx is the reference for iteration order and distances
# ---------------------------------------------------------------------------


def nx_graph(num_qubits, edges):
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    graph.add_edges_from(edges)
    return graph


def order(graph):
    return (
        list(graph.nodes),
        list(graph.edges),
        [list(graph.neighbors(q)) for q in graph.nodes],
    )


BUILDERS = {
    "line": lambda: line_topology(7),
    "line1": lambda: line_topology(1),
    "ring": lambda: ring_topology(6),
    "grid": lambda: grid_topology(3, 4),
    "heavy_hex": lambda: heavy_hex_topology(3, 9),
    "falcon27": falcon27,
    "hummingbird65": hummingbird65,
}


class TestNetworkxOrder:
    @pytest.mark.parametrize("name", sorted(BUILDERS))
    def test_builder_iterates_like_networkx(self, name, monkeypatch):
        got = order(BUILDERS[name]())
        # The same builder, with each CouplingGraph a networkx.Graph.
        monkeypatch.setattr(topology_module, "CouplingGraph", nx_graph)
        want = BUILDERS[name]()
        assert isinstance(want, nx.Graph)
        assert got == order(want)

    def test_sycamore_iterates_like_networkx_remove_and_relabel(self, monkeypatch):
        got = order(sycamore_grid())
        monkeypatch.setattr(topology_module, "CouplingGraph", nx_graph)
        grid = grid_topology(6, 9)
        grid.remove_node(53)
        want = nx.convert_node_labels_to_integers(grid, ordering="sorted")
        assert got == order(want)

    def test_hummingbird_lists_edges_by_first_endpoint(self):
        # The input lists (0, 10) after (8, 9); networkx yields it second.
        # Pinned here too, so the order holds whatever networkx does next.
        assert hummingbird65().edges[:3] == ((0, 1), (0, 10), (1, 2))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    max_size=30,
                ),
            )
        )
    )
    def test_any_edge_list_iterates_like_networkx(self, case):
        # Repeated, reversed and self-loop edges included.
        num_qubits, edges = case
        assert order(CouplingGraph(num_qubits, edges)) == order(
            nx_graph(num_qubits, edges)
        )

    @pytest.mark.parametrize("edge", [(0, 3), (-1, 0), (2, 5)])
    def test_edge_outside_the_qubits_is_refused(self, edge):
        with pytest.raises(DeviceError):
            CouplingGraph(3, [(0, 1), edge])

    def test_hop_counts_mark_unreachable_qubits(self):
        graph = CouplingGraph(4, [(0, 1), (2, 3)])
        assert hop_counts(graph, 0) == [0, 1, math.inf, math.inf]
        assert not is_connected(graph)


LIBRARY = [ibmq_toronto, ibmq_paris, ibmq_manhattan, google_sycamore]


class TestDistances:
    @pytest.mark.parametrize("factory", LIBRARY)
    def test_library_distances_equal_networkx(self, factory):
        device = factory()
        want = np.full((device.num_qubits,) * 2, np.inf)
        reference = nx_graph(device.num_qubits, device.graph.edges)
        for source, lengths in nx.all_pairs_shortest_path_length(reference):
            for target, hops in lengths.items():
                want[source, target] = hops
        assert device.distances.tobytes() == want.tobytes()

    def test_a_networkx_graph_still_builds_a_device(self):
        coupling = falcon27()
        graph = nx_graph(27, topology_module._FALCON27_EDGES)
        devices = [
            Device(
                "falcon",
                g,
                synthesize_calibration(g, 0.027, 0.047, 0.009, 0.22, seed=3),
            )
            for g in (coupling, graph)
        ]
        ours, theirs = devices
        assert theirs.graph is graph
        assert theirs.num_qubits == 27
        assert theirs.edges == ours.edges
        assert theirs.distances.tobytes() == ours.distances.tobytes()
        assert all(
            theirs.neighbors(q) == ours.neighbors(q) for q in range(27)
        )
        for field in ("p01", "p10", "crosstalk", "gate_error_1q"):
            a = getattr(ours.calibration, field)
            b = getattr(theirs.calibration, field)
            assert a.tobytes() == b.tobytes(), field
        assert list(theirs.calibration.gate_error_2q.items()) == list(
            ours.calibration.gate_error_2q.items()
        )

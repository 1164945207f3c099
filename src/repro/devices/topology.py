"""Device coupling-graph topologies.

Provides the coupling maps of the machines the paper evaluates on:

* ``falcon27()`` — IBM 27-qubit Falcon lattice (Toronto, Paris);
* ``hummingbird65()`` — IBM 65-qubit Hummingbird lattice (Manhattan);
* ``sycamore_grid()`` — Google Sycamore-style 2D grid (Table 1 source);

plus generic generators (line, ring, grid, heavy-hex) used in tests and
ablation studies.  Every builder returns an undirected :class:`CouplingGraph`
whose nodes are contiguous integers starting at zero.  The rest of the
package reads a graph only through ``nodes``, ``edges``, ``neighbors(q)``
and ``number_of_nodes()``, so a caller's ``networkx.Graph`` works too.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.exceptions import DeviceError

__all__ = [
    "CouplingGraph",
    "hop_counts",
    "line_topology",
    "ring_topology",
    "grid_topology",
    "heavy_hex_topology",
    "falcon27",
    "hummingbird65",
    "sycamore_grid",
    "validate_topology",
]

# IBM Falcon r4 coupling map (ibmq_toronto / ibmq_paris), 27 qubits.
_FALCON27_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)

# IBM Hummingbird r2 coupling map (ibmq_manhattan), 65 qubits.
_HUMMINGBIRD65_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
    (0, 10), (4, 11), (8, 12),
    (10, 13), (11, 17), (12, 21),
    (13, 14), (14, 15), (15, 16), (16, 17), (17, 18), (18, 19), (19, 20),
    (20, 21), (21, 22), (22, 23),
    (15, 24), (19, 25), (23, 26),
    (24, 29), (25, 33), (26, 37),
    (27, 28), (28, 29), (29, 30), (30, 31), (31, 32), (32, 33), (33, 34),
    (34, 35), (35, 36), (36, 37),
    (27, 38), (31, 39), (35, 40),
    (38, 41), (39, 45), (40, 49),
    (41, 42), (42, 43), (43, 44), (44, 45), (45, 46), (46, 47), (47, 48),
    (48, 49), (49, 50), (50, 51),
    (43, 52), (47, 53), (51, 54),
    (52, 56), (53, 60), (54, 64),
    (55, 56), (56, 57), (57, 58), (58, 59), (59, 60), (60, 61), (61, 62),
    (62, 63), (63, 64),
)


class CouplingGraph:
    """An undirected coupling map on qubits ``0 .. num_qubits - 1``.

    It iterates the way a ``networkx.Graph`` built from the same nodes and
    edges does: ``nodes`` in index order, each qubit's ``neighbors`` in the
    order its edges were first given, and ``edges`` once each, from the
    endpoint that comes first, in that endpoint's neighbour order.  That is
    not the input order (``hummingbird65`` gives ``(0, 10)`` after
    ``(8, 9)``; it is listed second), and calibration synthesis draws its
    random numbers in it.
    """

    def __init__(self, num_qubits: int, edges: Iterable[Tuple[int, int]]) -> None:
        adjacency: List[Dict[int, None]] = [{} for _ in range(num_qubits)]
        for u, v in edges:
            if not (0 <= u < num_qubits and 0 <= v < num_qubits):
                raise DeviceError(
                    f"edge ({u}, {v}) is outside qubits 0..{num_qubits - 1}"
                )
            adjacency[u][v] = None
            adjacency[v][u] = None
        self._adjacency = [tuple(neighbours) for neighbours in adjacency]
        self.edges: Tuple[Tuple[int, int], ...] = tuple(
            (u, v)
            for u, neighbours in enumerate(self._adjacency)
            for v in neighbours
            if v >= u
        )

    @property
    def nodes(self) -> range:
        return range(len(self._adjacency))

    def number_of_nodes(self) -> int:
        return len(self._adjacency)

    def neighbors(self, qubit: int) -> Iterator[int]:
        return iter(self._adjacency[qubit])


def hop_counts(graph: CouplingGraph, source: int) -> List[float]:
    """Breadth-first hop count from ``source`` to every qubit.

    ``inf`` marks a qubit ``source`` cannot reach.
    """
    hops = [math.inf] * graph.number_of_nodes()
    hops[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        reached = []
        for qubit in frontier:
            for neighbour in graph.neighbors(qubit):
                if hops[neighbour] == math.inf:
                    hops[neighbour] = depth
                    reached.append(neighbour)
        frontier = reached
    return hops


def line_topology(num_qubits: int) -> CouplingGraph:
    """A 1D chain of ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise DeviceError("need at least one qubit")
    return CouplingGraph(
        num_qubits, [(i, i + 1) for i in range(num_qubits - 1)]
    )


def ring_topology(num_qubits: int) -> CouplingGraph:
    """A 1D ring of ``num_qubits`` qubits."""
    if num_qubits < 3:
        raise DeviceError("a ring needs at least three qubits")
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingGraph(num_qubits, edges)


def grid_topology(rows: int, cols: int) -> CouplingGraph:
    """A ``rows`` x ``cols`` rectangular grid (nearest-neighbour coupling)."""
    if rows < 1 or cols < 1:
        raise DeviceError("grid dimensions must be positive")
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return CouplingGraph(rows * cols, edges)


def heavy_hex_topology(rows: int, row_length: int) -> CouplingGraph:
    """A generic heavy-hex-style lattice.

    ``rows`` horizontal chains of ``row_length`` qubits are stitched with
    bridge qubits every fourth position, alternating offset between rows —
    the same degree <= 3 structure as IBM's heavy-hex devices.  Useful for
    scalability studies beyond the hard-coded device maps.
    """
    if rows < 1 or row_length < 2:
        raise DeviceError("heavy-hex needs rows >= 1 and row_length >= 2")
    edges: List[Tuple[int, int]] = []
    node = 0
    row_start: List[int] = []
    for _ in range(rows):
        row_start.append(node)
        for i in range(row_length - 1):
            edges.append((node + i, node + i + 1))
        node += row_length
    for r in range(rows - 1):
        offset = 0 if r % 2 == 0 else 2
        for col in range(offset, row_length, 4):
            bridge = node
            node += 1
            edges.append((row_start[r] + col, bridge))
            edges.append((bridge, row_start[r + 1] + col))
    return CouplingGraph(node, edges)


def falcon27() -> CouplingGraph:
    """IBM 27-qubit Falcon coupling map (Toronto / Paris)."""
    return CouplingGraph(27, _FALCON27_EDGES)


def hummingbird65() -> CouplingGraph:
    """IBM 65-qubit Hummingbird coupling map (Manhattan)."""
    return CouplingGraph(65, _HUMMINGBIRD65_EDGES)


def sycamore_grid() -> CouplingGraph:
    """A 53-qubit diagonal-grid topology standing in for Google Sycamore.

    Sycamore couples qubits diagonally on a staggered grid; we reproduce the
    qubit count and degree-<=4 connectivity with a 6x9 grid missing one
    corner, which is sufficient for the Table 1 readout-crosstalk statistics
    (topology only matters through simultaneous-measurement counts there).
    """
    grid = grid_topology(6, 9)
    return CouplingGraph(53, [edge for edge in grid.edges if 53 not in edge])


def validate_topology(graph: CouplingGraph) -> None:
    """Raise :class:`DeviceError` unless ``graph`` is a valid device map."""
    nodes = sorted(graph.nodes)
    if not nodes:
        raise DeviceError("topology has no qubits")
    if nodes != list(range(len(nodes))):
        raise DeviceError("topology nodes must be contiguous integers from 0")
    if math.inf in hop_counts(graph, 0):
        raise DeviceError("topology must be connected")
    if any(u == v for u, v in graph.edges):
        raise DeviceError("topology must not contain self-loops")

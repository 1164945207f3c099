"""The :class:`Device` abstraction: topology plus calibration.

A :class:`Device` is what the compiler and the noisy sampler run against.
It owns the coupling graph, the calibration data, and cached all-pairs
shortest-path distances (the routing heuristic's main lookup).
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.devices.calibration import Calibration, ReadoutStats
from repro.devices.topology import validate_topology
from repro.exceptions import DeviceError

__all__ = ["Device"]


class Device:
    """A quantum device: named coupling graph with calibration data."""

    def __init__(self, name: str, graph: nx.Graph, calibration: Calibration) -> None:
        validate_topology(graph)
        if calibration.num_qubits != graph.number_of_nodes():
            raise DeviceError(
                f"calibration covers {calibration.num_qubits} qubits but the "
                f"topology has {graph.number_of_nodes()}"
            )
        self.name = name
        self.graph = graph
        self.calibration = calibration
        self._distances: Optional[np.ndarray] = None
        self._edge_set: FrozenSet[Tuple[int, int]] = frozenset(
            (min(u, v), max(u, v)) for u, v in graph.edges
        )

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """Undirected coupling edges as sorted tuples."""
        return self._edge_set

    def are_coupled(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._edge_set

    def neighbors(self, qubit: int) -> List[int]:
        return sorted(self.graph.neighbors(qubit))

    @property
    def distances(self) -> np.ndarray:
        """All-pairs shortest-path distance matrix (hop counts)."""
        if self._distances is None:
            n = self.num_qubits
            dist = np.full((n, n), np.inf)
            for source, lengths in nx.all_pairs_shortest_path_length(self.graph):
                for target, hops in lengths.items():
                    dist[source, target] = hops
            self._distances = dist
        return self._distances

    def distance(self, u: int, v: int) -> int:
        return int(self.distances[u, v])

    # ------------------------------------------------------------------
    # Calibration conveniences
    # ------------------------------------------------------------------

    def readout_stats(self, num_simultaneous: int = 1) -> ReadoutStats:
        return self.calibration.readout_stats(num_simultaneous)

    def best_readout_qubits(self, count: Optional[int] = None) -> List[int]:
        return [int(q) for q in self.calibration.best_readout_qubits(count)]

    def vulnerable_qubits(self, percentile: float = 75.0) -> List[int]:
        return [int(q) for q in self.calibration.vulnerable_qubits(percentile)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.readout_stats().as_percent()
        return (
            f"Device({self.name!r}, qubits={self.num_qubits}, "
            f"readout median={stats.median:.2f}%, max={stats.maximum:.2f}%)"
        )

"""The reference SABRE router: the per-``Instruction`` walk.

This is the router the compiler ran before its array form
(:mod:`repro.compiler.sabre`), kept as the oracle the array form is
asserted equal to: the same physical schedule, final layout and SWAP
count for every routing problem of the paper suite and the served mix,
and for random circuits, layouts and seeds
(``tests/test_sabre_oracle.py``).  It walks a :class:`CircuitDAG`,
scores every candidate SWAP with numpy gathers over the distance matrix
and collects the lookahead with a ``list.pop(0)`` breadth-first walk.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDAG, DAGNode
from repro.compiler.layout import Layout
from repro.compiler.sabre import RoutedCircuit, emit_measurements
from repro.devices.device import Device
from repro.exceptions import CompilationError
from repro.utils.random import SeedLike, as_generator


_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_LOOKAHEAD_SIZE = 20
_LOOKAHEAD_WEIGHT = 0.5
_MAX_STALL_ROUNDS = 10_000


def _emit_gate(
    physical: QuantumCircuit, node: DAGNode, layout: Layout
) -> None:
    instruction = node.instruction
    if instruction.kind == "barrier":
        return
    if instruction.is_measure:
        # Measurements are deferred; handled by the caller at the end.
        return
    physical_qubits = [layout.physical(q) for q in instruction.qubits]
    physical.apply_gate(instruction.gate, *physical_qubits)


def _is_executable(node: DAGNode, layout: Layout, device: Device) -> bool:
    instruction = node.instruction
    if not instruction.is_gate:
        return True
    if len(instruction.qubits) == 1:
        return True
    if len(instruction.qubits) != 2:
        raise CompilationError(
            "route() expects circuits decomposed to 1- and 2-qubit gates"
        )
    p0 = layout.physical(instruction.qubits[0])
    p1 = layout.physical(instruction.qubits[1])
    return device.are_coupled(p0, p1)


def _endpoint_positions(
    gates: Sequence[DAGNode], layout: Layout
) -> Tuple[np.ndarray, np.ndarray]:
    """Current physical positions of every gate's two endpoints."""
    p0 = np.fromiter(
        (layout.physical(n.instruction.qubits[0]) for n in gates),
        dtype=np.int64,
        count=len(gates),
    )
    p1 = np.fromiter(
        (layout.physical(n.instruction.qubits[1]) for n in gates),
        dtype=np.int64,
        count=len(gates),
    )
    return p0, p1


def _swapped_distances(
    swaps_a: np.ndarray,
    swaps_b: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
    distances: np.ndarray,
) -> np.ndarray:
    """Total front distance after each candidate SWAP, batched.

    Row ``s`` of the result is the summed distance of every gate
    ``(p0[g], p1[g])`` after exchanging physical qubits ``swaps_a[s]``
    and ``swaps_b[s]`` — the whole candidate set is scored against the
    precomputed distance matrix in one gather instead of trial layouts.
    """
    a = swaps_a[:, None]
    b = swaps_b[:, None]

    def exchange(p: np.ndarray) -> np.ndarray:
        p = p[None, :]
        return np.where(p == a, b, np.where(p == b, a, p))

    return distances[exchange(p0), exchange(p1)].sum(axis=1)


def _collect_lookahead(front: Sequence[DAGNode], limit: int) -> List[DAGNode]:
    """Breadth-first set of upcoming two-qubit gates behind the front."""
    seen: Set[int] = {n.index for n in front}
    queue: List[DAGNode] = list(front)
    lookahead: List[DAGNode] = []
    while queue and len(lookahead) < limit:
        node = queue.pop(0)
        for successor in node.successors:
            if successor.index in seen:
                continue
            seen.add(successor.index)
            queue.append(successor)
            if successor.instruction.is_two_qubit_gate:
                lookahead.append(successor)
    return lookahead


def route(
    circuit: QuantumCircuit,
    device: Device,
    initial_layout: Layout,
    seed: SeedLike = None,
) -> RoutedCircuit:
    """Route ``circuit`` onto ``device`` starting from ``initial_layout``.

    Returns the physical circuit (SWAPs inserted, measurements re-targeted
    to final positions), plus the initial/final layouts and SWAP count.
    """
    rng = as_generator(seed)
    if set(initial_layout.logical_qubits) != set(range(circuit.num_qubits)):
        raise CompilationError("initial layout must cover every program qubit")
    for physical in initial_layout.physical_qubits:
        if physical >= device.num_qubits:
            raise CompilationError(f"layout uses nonexistent qubit {physical}")

    dag = CircuitDAG(circuit)
    layout = initial_layout.copy()
    physical = QuantumCircuit(
        device.num_qubits, circuit.num_clbits, f"{circuit.name}@{device.name}"
    )
    distances = device.distances
    decay = np.ones(device.num_qubits)
    num_swaps = 0
    rounds_without_progress = 0
    swaps_since_reset = 0

    front: List[DAGNode] = dag.initial_front()

    def advance(node: DAGNode) -> None:
        front.remove(node)
        for successor in node.successors:
            successor.num_predecessors -= 1
            if successor.num_predecessors == 0:
                front.append(successor)

    while front:
        executable = [n for n in front if _is_executable(n, layout, device)]
        if executable:
            for node in executable:
                _emit_gate(physical, node, layout)
                advance(node)
            decay[:] = 1.0
            swaps_since_reset = 0
            rounds_without_progress = 0
            continue

        rounds_without_progress += 1
        if rounds_without_progress > _MAX_STALL_ROUNDS:  # pragma: no cover
            raise CompilationError("router stalled; device may be disconnected")

        blocked = [n for n in front if n.instruction.is_two_qubit_gate]
        lookahead = _collect_lookahead(front, _LOOKAHEAD_SIZE)

        candidate_swaps: Set[Tuple[int, int]] = set()
        for node in blocked:
            for logical in node.instruction.qubits:
                p = layout.physical(logical)
                for neighbour in device.graph.neighbors(p):
                    candidate_swaps.add((min(p, neighbour), max(p, neighbour)))

        if not candidate_swaps:  # pragma: no cover - defensive
            raise CompilationError("no candidate SWAPs for a blocked front layer")

        # Batch-score every candidate SWAP against the precomputed distance
        # matrix: one gather per term instead of a trial layout per swap.
        ordered_swaps = sorted(candidate_swaps)
        swaps_a = np.fromiter(
            (s[0] for s in ordered_swaps), dtype=np.int64, count=len(ordered_swaps)
        )
        swaps_b = np.fromiter(
            (s[1] for s in ordered_swaps), dtype=np.int64, count=len(ordered_swaps)
        )
        front_p0, front_p1 = _endpoint_positions(blocked, layout)
        scores = _swapped_distances(
            swaps_a, swaps_b, front_p0, front_p1, distances
        ) / max(len(blocked), 1)
        if lookahead:
            look_p0, look_p1 = _endpoint_positions(lookahead, layout)
            scores += (
                _LOOKAHEAD_WEIGHT
                * _swapped_distances(swaps_a, swaps_b, look_p0, look_p1, distances)
                / len(lookahead)
            )
        scores *= np.maximum(decay[swaps_a], decay[swaps_b])
        # Small random jitter breaks ties differently per seed, giving the
        # transpiler's restarts genuine diversity.  (The pipeline derives
        # this seed from the routing fingerprint, making routing a pure
        # function of its content key.)
        scores += 1e-9 * rng.random(len(ordered_swaps))
        best_swap = ordered_swaps[int(np.argmin(scores))]

        physical.swap(*best_swap)
        layout.apply_swap(*best_swap)
        decay[best_swap[0]] += _DECAY_INCREMENT
        decay[best_swap[1]] += _DECAY_INCREMENT
        num_swaps += 1
        swaps_since_reset += 1
        if swaps_since_reset >= _DECAY_RESET_INTERVAL:
            decay[:] = 1.0
            swaps_since_reset = 0

    # Emit measurements on final physical positions, preserving clbits.
    emit_measurements(physical, circuit, layout)

    return RoutedCircuit(
        physical=physical,
        initial_layout=initial_layout.copy(),
        final_layout=layout,
        num_swaps=num_swaps,
    )

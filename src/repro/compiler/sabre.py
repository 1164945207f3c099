"""SABRE-style SWAP routing over an array form of the circuit.

Implements the SWAP-based heuristic router of Li, Ding and Xie (ASPLOS
2019), the algorithm behind the paper's baseline compiler.  Given an
initial layout, the router walks the circuit's dependency DAG: gates whose
operands are adjacent on the device execute immediately; otherwise the
router scores every SWAP on an edge touching a blocked gate's qubits and
applies the one that most reduces the distance of the front layer, with a
look-ahead term over upcoming gates and a decay factor that discourages
ping-ponging the same qubits.

The router never reads an :class:`~repro.circuits.circuit.Instruction`.
It walks a :class:`RoutingBody` — per node its kind and logical qubits,
the successor lists and the predecessor counts — which the compiler
pipeline builds once per body fingerprint and keeps in its stage store.
Its state is plain Python: an integer layout, a deque for the breadth-first
lookahead, per-qubit neighbour lists, and float candidate scores.  A
candidate's front and lookahead distances are the current sums plus the
change on the gates the SWAP touches; hop counts are integers, so those
sums are exact in any order, and every score equals, bit for bit, the
batched numpy score of the reference router kept in
``tests/sabre_oracle.py`` — same candidate order, same ``rng.random(n)``
tie-break draws, same choices.

The result is a :class:`RoutedSchedule`: which node runs on which
physical qubits, with the inserted SWAPs, and no gate object — so it
holds no rotation angle, and every program with the same body structure
can materialise it with its own gates.  :func:`route` is the
circuit-in/circuit-out form.  Measurements are emitted at the very end on
each logical qubit's *final* physical position — the quantity that
determines readout fidelity and the thing JigSaw's CPM recompilation
optimises.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.gates import Gate
from repro.compiler.layout import Layout
from repro.devices.device import Device
from repro.exceptions import CompilationError
from repro.utils.random import SeedLike, as_generator

__all__ = [
    "route",
    "route_schedule",
    "materialise",
    "RoutedCircuit",
    "RoutedSchedule",
    "RoutingBody",
    "SWAP",
    "emit_measurements",
]

_DECAY_INCREMENT = 0.001
_DECAY_RESET_INTERVAL = 5
_LOOKAHEAD_SIZE = 20
_LOOKAHEAD_WEIGHT = 0.5
_MAX_STALL_ROUNDS = 10_000

#: Schedule entry of an inserted SWAP (every other entry is a node index).
SWAP = -1

# Node kinds: free nodes (barriers, measurements) execute at once and emit
# nothing; one-qubit gates execute at once; two-qubit gates wait for
# adjacent operands.
_FREE, _ONE, _TWO = 0, 1, 2


@dataclass(frozen=True)
class RoutingBody:
    """The array form of a circuit, as the router reads it.

    One node per instruction, in circuit order, with the per-qubit
    dependency edges of :class:`~repro.circuits.dag.CircuitDAG`: a node
    depends on the last earlier node on each of its qubits.  Holds
    structure only (no gate objects, no angles), so every circuit with
    the same :func:`~repro.runtime.fingerprint.body_fingerprint` has the
    same array form.  ``swap_gates`` are the nodes that are the program's
    own ``swap`` gates (they cost three CNOTs), and ``interactions`` is
    placement's histogram of undirected two-qubit interactions, in
    first-use order.
    """

    num_qubits: int
    kinds: Tuple[int, ...]
    qubits: Tuple[Tuple[int, ...], ...]
    successors: Tuple[Tuple[int, ...], ...]
    num_predecessors: Tuple[int, ...]
    swap_gates: FrozenSet[int]
    interactions: Dict[Tuple[int, int], int]

    @classmethod
    def from_circuit(cls, circuit: QuantumCircuit) -> "RoutingBody":
        kinds: List[int] = []
        qubits: List[Tuple[int, ...]] = []
        successors: List[List[int]] = []
        num_predecessors: List[int] = []
        swap_gates: List[int] = []
        interactions: Dict[Tuple[int, int], int] = {}
        last_on_qubit: Dict[int, int] = {}
        for index, ins in enumerate(circuit.instructions):
            if ins.kind != "gate":
                kind = _FREE
            elif len(ins.qubits) == 1:
                kind = _ONE
            elif len(ins.qubits) == 2:
                kind = _TWO
                q0, q1 = ins.qubits
                pair = (min(q0, q1), max(q0, q1))
                interactions[pair] = interactions.get(pair, 0) + 1
                if ins.gate.name == "swap":
                    swap_gates.append(index)
            else:
                raise CompilationError(
                    "route() expects circuits decomposed to 1- and 2-qubit gates"
                )
            kinds.append(kind)
            qubits.append(ins.qubits)
            successors.append([])
            preds = 0
            for q in ins.qubits:
                prev = last_on_qubit.get(q)
                if prev is not None and (
                    not successors[prev] or successors[prev][-1] != index
                ):
                    successors[prev].append(index)
                    preds += 1
                last_on_qubit[q] = index
            num_predecessors.append(preds)
        return cls(
            num_qubits=circuit.num_qubits,
            kinds=tuple(kinds),
            qubits=tuple(qubits),
            successors=tuple(tuple(s) for s in successors),
            num_predecessors=tuple(num_predecessors),
            swap_gates=frozenset(swap_gates),
            interactions=interactions,
        )


@dataclass(frozen=True)
class RoutedSchedule:
    """What the router decided, free of gate objects.

    ``ops[i]`` is the index of the node executed at step ``i`` (one- and
    two-qubit gates only; barriers and measurements emit nothing), or
    :data:`SWAP` for an inserted SWAP; ``qubits[i]`` are its physical
    qubits.
    """

    ops: Tuple[int, ...]
    qubits: Tuple[Tuple[int, ...], ...]
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int


@dataclass
class RoutedCircuit:
    """Output of the router."""

    physical: QuantumCircuit
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int


def emit_measurements(
    physical: QuantumCircuit, circuit: QuantumCircuit, layout: Layout
) -> None:
    """Append ``circuit``'s measurements on each logical qubit's position
    under ``layout``, preserving clbits — the single implementation shared
    by the router's tail and the pipeline's MeasureRetarget stage."""
    for ins in circuit.measurements:
        physical.measure(layout.physical(ins.qubits[0]), ins.clbits[0])


def _moved(
    at: Dict[int, List[Tuple[int, int]]],
    a: int,
    b: int,
    dist: List[List[float]],
) -> float:
    """Change in summed distance of the gates in ``at`` when physical
    qubits ``a`` and ``b`` exchange occupants.  Only gates on ``a`` or
    ``b`` move; a gate on both keeps its distance."""
    delta = 0.0
    for x, y in at.get(a, ()):
        nx = b if x == a else a if x == b else x
        ny = b if y == a else a if y == b else y
        delta += dist[nx][ny] - dist[x][y]
    for x, y in at.get(b, ()):
        if x == a or y == a:
            continue
        nx = a if x == b else x
        ny = a if y == b else y
        delta += dist[nx][ny] - dist[x][y]
    return delta


def _positions(
    gates: Sequence[int],
    qubits: Sequence[Tuple[int, ...]],
    l2p: List[int],
    dist: List[List[float]],
) -> Tuple[Dict[int, List[Tuple[int, int]]], float]:
    """Physical endpoints of two-qubit ``gates`` by physical qubit, and
    their summed distance."""
    at: Dict[int, List[Tuple[int, int]]] = {}
    total = 0.0
    for node in gates:
        q0, q1 = qubits[node]
        pair = (l2p[q0], l2p[q1])
        total += dist[pair[0]][pair[1]]
        at.setdefault(pair[0], []).append(pair)
        at.setdefault(pair[1], []).append(pair)
    return at, total


def route_schedule(
    body: RoutingBody,
    device: Device,
    initial_layout: Layout,
    seed: SeedLike = None,
) -> RoutedSchedule:
    """Route ``body`` onto ``device`` starting from ``initial_layout``."""
    rng = as_generator(seed)
    mapping = initial_layout.as_dict()
    if set(mapping) != set(range(body.num_qubits)):
        raise CompilationError("initial layout must cover every program qubit")
    num_physical = device.num_qubits
    for physical in mapping.values():
        if physical >= num_physical:
            raise CompilationError(f"layout uses nonexistent qubit {physical}")

    kinds = body.kinds
    qubits = body.qubits
    successors = body.successors
    remaining = list(body.num_predecessors)
    l2p = [mapping[q] for q in range(body.num_qubits)]
    p2l = [-1] * num_physical
    for logical, physical in enumerate(l2p):
        p2l[physical] = logical
    dist = device.distances.tolist()
    neighbours: List[List[int]] = [[] for _ in range(num_physical)]
    for u, v in device.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    adjacent = [set(n) for n in neighbours]

    ops: List[int] = []
    placed: List[Tuple[int, ...]] = []
    decay = [1.0] * num_physical
    num_swaps = 0
    rounds_without_progress = 0
    swaps_since_reset = 0
    front = [node for node, count in enumerate(remaining) if count == 0]

    while front:
        blocked: List[int] = []
        ready: List[int] = []
        for node in front:
            kind = kinds[node]
            if kind == _TWO:
                q0, q1 = qubits[node]
                p0, p1 = l2p[q0], l2p[q1]
                if p1 not in adjacent[p0]:
                    blocked.append(node)
                    continue
                ops.append(node)
                placed.append((p0, p1))
            elif kind == _ONE:
                ops.append(node)
                placed.append((l2p[qubits[node][0]],))
            ready.append(node)
        if ready:
            # The front keeps its order: what stays, then what became
            # ready, in the order it did.
            for node in ready:
                for successor in successors[node]:
                    remaining[successor] -= 1
                    if remaining[successor] == 0:
                        blocked.append(successor)
            front = blocked
            decay = [1.0] * num_physical
            swaps_since_reset = 0
            rounds_without_progress = 0
            continue

        rounds_without_progress += 1
        if rounds_without_progress > _MAX_STALL_ROUNDS:  # pragma: no cover
            raise CompilationError("router stalled; device may be disconnected")

        # Every front node is a blocked two-qubit gate.  The lookahead is
        # the first two-qubit gates behind the front, breadth first.
        seen = set(front)
        queue = deque(front)
        lookahead: List[int] = []
        while queue and len(lookahead) < _LOOKAHEAD_SIZE:
            for successor in successors[queue.popleft()]:
                if successor in seen:
                    continue
                seen.add(successor)
                queue.append(successor)
                if kinds[successor] == _TWO:
                    lookahead.append(successor)

        front_at, front_sum = _positions(front, qubits, l2p, dist)
        look_at, look_sum = _positions(lookahead, qubits, l2p, dist)
        candidates = sorted(
            {
                (p, n) if p < n else (n, p)
                for p in front_at
                for n in neighbours[p]
            }
        )
        num_front = len(front)
        num_look = len(lookahead)
        jitter = rng.random(len(candidates)).tolist()
        best_index = 0
        best_score = 0.0
        for index, (a, b) in enumerate(candidates):
            score = (front_sum + _moved(front_at, a, b, dist)) / num_front
            if num_look:
                score += (
                    _LOOKAHEAD_WEIGHT
                    * (look_sum + _moved(look_at, a, b, dist))
                    / num_look
                )
            score *= max(decay[a], decay[b])
            # Small random jitter breaks ties differently per seed, giving
            # the transpiler's restarts genuine diversity.  (The pipeline
            # derives this seed from the routing fingerprint, making
            # routing a pure function of its content key.)
            score += 1e-9 * jitter[index]
            if index == 0 or score < best_score:
                best_index, best_score = index, score
        a, b = candidates[best_index]

        ops.append(SWAP)
        placed.append((a, b))
        occupant_a, occupant_b = p2l[a], p2l[b]
        p2l[a], p2l[b] = occupant_b, occupant_a
        if occupant_a >= 0:
            l2p[occupant_a] = b
        if occupant_b >= 0:
            l2p[occupant_b] = a
        decay[a] += _DECAY_INCREMENT
        decay[b] += _DECAY_INCREMENT
        num_swaps += 1
        swaps_since_reset += 1
        if swaps_since_reset >= _DECAY_RESET_INTERVAL:
            decay = [1.0] * num_physical
            swaps_since_reset = 0

    return RoutedSchedule(
        ops=tuple(ops),
        qubits=tuple(placed),
        initial_layout=initial_layout.copy(),
        final_layout=Layout({q: l2p[q] for q in mapping}),
        num_swaps=num_swaps,
    )


def materialise(
    schedule: RoutedSchedule, instructions: Sequence[Instruction]
) -> Tuple[Instruction, ...]:
    """The physical gates of ``schedule`` with the gates of ``instructions``.

    ``instructions`` is the routed circuit's instruction list, or that of
    any circuit with the same structure: node ``i`` of the schedule runs
    ``instructions[i]``'s gate — with *its* angles — on the scheduled
    physical qubits.  The router guarantees the qubits are distinct and as
    many as the gate takes, so the copies skip re-validation.
    """
    swap = Gate("swap")
    return tuple(
        Instruction.unchecked_gate(
            swap if op == SWAP else instructions[op].gate, qubits
        )
        for op, qubits in zip(schedule.ops, schedule.qubits)
    )


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
    schedule = route_schedule(
        RoutingBody.from_circuit(circuit), device, initial_layout, seed
    )
    physical = QuantumCircuit(
        device.num_qubits, circuit.num_clbits, f"{circuit.name}@{device.name}"
    )
    for ins in materialise(schedule, circuit.instructions):
        physical.append(ins)
    emit_measurements(physical, circuit, schedule.final_layout)
    return RoutedCircuit(
        physical=physical,
        initial_layout=schedule.initial_layout,
        final_layout=schedule.final_layout,
        num_swaps=schedule.num_swaps,
    )

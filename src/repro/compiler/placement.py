"""Noise-aware initial placement.

Chooses which physical qubits host the program, balancing three pressures:

* two-qubit interactions should sit on (or near) low-error coupler edges;
* measured logical qubits should sit on low-readout-error physical qubits
  (weighted by ``readout_weight`` — CPM recompilation raises this);
* qubits in ``avoid_qubits`` are penalised (EDM diversity, and the paper's
  "avoid vulnerable qubit" rule for CPMs).

Placement generates several candidate layouts (grown from good-readout
seeds and random seeds); the compiler pipeline routes each and keeps the
one with the best EPS, mirroring how Noise-Aware SABRE evaluates
candidates.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.layout import Layout
from repro.compiler.sabre import RoutingBody
from repro.devices.device import Device
from repro.exceptions import CompilationError
from repro.utils.random import SeedLike, as_generator

__all__ = [
    "candidate_layouts",
    "grow_region",
    "embed_in_region",
    "pool_layouts",
    "edge_error_means",
    "qubit_badness",
]

_AVOID_PENALTY = 0.25

#: A two-qubit interaction histogram: sorted qubit pair -> gate count.
Interactions = Mapping[Tuple[int, int], int]


def edge_error_means(device: Device) -> np.ndarray:
    """Mean two-qubit gate error over each qubit's couplers."""
    cal = device.calibration
    return np.array(
        [
            float(
                np.mean(
                    [cal.two_qubit_error(q, nbr) for nbr in device.neighbors(q)]
                )
            )
            for q in range(device.num_qubits)
        ]
    )


def qubit_badness(
    device: Device,
    readout_weight: float,
    avoid_qubits: Iterable[int] = (),
    edge_means: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-physical-qubit badness score used when growing regions.

    ``readout_weight * readout error + mean coupler error + avoid
    penalty``, per qubit.  ``edge_means`` is :func:`edge_error_means` of
    the device when the caller keeps it (the compiler pipeline does, once
    per device in its stage store).
    """
    if edge_means is None:
        edge_means = edge_error_means(device)
    penalty = np.zeros(device.num_qubits)
    penalty[sorted({int(q) for q in avoid_qubits})] = _AVOID_PENALTY
    return readout_weight * device.calibration.readout_error + edge_means + penalty


def grow_region(
    device: Device,
    size: int,
    seed_qubit: int,
    badness: np.ndarray,
) -> Optional[List[int]]:
    """Grow a connected region of ``size`` qubits from ``seed_qubit``.

    Greedy frontier expansion by ascending badness.  Returns ``None`` when
    the component around the seed is too small.
    """
    region = [seed_qubit]
    chosen: Set[int] = {seed_qubit}
    while len(region) < size:
        frontier = sorted(
            {
                nbr
                for q in region
                for nbr in device.graph.neighbors(q)
                if nbr not in chosen
            },
            key=lambda q: (badness[q], q),
        )
        if not frontier:
            return None
        best = frontier[0]
        region.append(int(best))
        chosen.add(int(best))
    return region


def embed_in_region(
    circuit: QuantumCircuit,
    device: Device,
    region: Sequence[int],
    readout_weight: float,
    avoid_qubits: FrozenSet[int],
    measured_qubits: Optional[Iterable[int]] = None,
    interactions: Optional[Interactions] = None,
) -> Layout:
    """Map logical qubits onto a region, interaction-heavy qubits first.

    ``measured_qubits`` overrides which logical qubits attract the readout
    term; by default the circuit's own measurements are used.  The CPM
    layout pool passes *every* qubit, producing measured-set-agnostic
    layouts that any subset can retarget onto.  ``interactions`` is the
    circuit's two-qubit interaction histogram (first-use order) when the
    caller already has it.
    """
    n = circuit.num_qubits
    if len(region) < n:
        raise CompilationError("region smaller than the program")
    if interactions is None:
        interactions = RoutingBody.from_circuit(circuit).interactions
    degree: Dict[int, int] = {q: 0 for q in range(n)}
    partners: Dict[int, List[Tuple[int, int]]] = {q: [] for q in range(n)}
    for (a, b), count in interactions.items():
        degree[a] += count
        degree[b] += count
        partners[a].append((b, count))
        partners[b].append((a, count))
    measured = (
        set(circuit.measured_qubits)
        if measured_qubits is None
        else set(measured_qubits)
    )
    readout = device.calibration.readout_error
    distances = device.distances

    order = sorted(range(n), key=lambda q: (-degree[q], q))
    free: List[int] = list(region)
    placed: Dict[int, int] = {}

    for logical in order:
        best_node = None
        best_cost = None
        for node in free:
            cost = 0.0
            for partner, count in partners[logical]:
                if partner in placed:
                    cost += count * float(distances[node, placed[partner]])
            if logical in measured:
                cost += readout_weight * 10.0 * float(readout[node])
            if node in avoid_qubits:
                cost += _AVOID_PENALTY * 10.0
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_node = node
        placed[logical] = best_node
        free.remove(best_node)
    return Layout(placed)


def candidate_layouts(
    circuit: QuantumCircuit,
    device: Device,
    num_candidates: int = 6,
    readout_weight: float = 1.0,
    avoid_qubits: Sequence[int] = (),
    seed: SeedLike = None,
    interactions: Optional[Interactions] = None,
    badness: Optional[np.ndarray] = None,
) -> List[Layout]:
    """Generate up to ``num_candidates`` initial layouts for routing.

    Half the candidates grow from the device's best-readout qubits, half
    from random seeds, so the router sees both exploitation and exploration.
    A device has as many distinct seed qubits as qubits, so at most that
    many candidates are drawn.  ``interactions`` and ``badness`` (the
    circuit's interaction histogram and :func:`qubit_badness` at this
    weight and avoid set) may be passed in when the caller has them.
    """
    n = circuit.num_qubits
    if n > device.num_qubits:
        raise CompilationError(
            f"{n}-qubit program does not fit on {device.num_qubits}-qubit device"
        )
    rng = as_generator(seed)
    avoid = frozenset(int(q) for q in avoid_qubits)
    if badness is None:
        badness = qubit_badness(device, readout_weight, avoid)

    seeds: List[int] = []
    ranked = [int(q) for q in np.argsort(badness, kind="stable")]
    seeds.extend(ranked[: max(1, num_candidates // 2)])
    while len(seeds) < min(num_candidates, device.num_qubits):
        candidate = int(rng.integers(device.num_qubits))
        if candidate not in seeds:
            seeds.append(candidate)

    layouts: List[Layout] = []
    seen: Set[Tuple[Tuple[int, int], ...]] = set()
    for seed_qubit in seeds:
        region = grow_region(device, n, seed_qubit, badness)
        if region is None:
            continue
        layout = embed_in_region(
            circuit, device, region, readout_weight, avoid,
            interactions=interactions,
        )
        key = tuple(sorted(layout.as_dict().items()))
        if key not in seen:
            seen.add(key)
            layouts.append(layout)
    if not layouts:
        raise CompilationError("placement failed to find any connected region")
    return layouts


def pool_layouts(
    body: QuantumCircuit,
    device: Device,
    pool_size: int,
    readout_weight: float = 1.0,
    avoid_qubits: Sequence[int] = (),
    interactions: Optional[Interactions] = None,
    badness: Optional[np.ndarray] = None,
) -> List[Layout]:
    """Deterministic, measured-set-agnostic layout pool for CPM retargeting.

    Candidates grow from the ``pool_size`` best seed qubits by the
    readout-emphasised badness ranking — no random exploration — and every
    logical qubit attracts the readout term, so the pool is a pure function
    of (body, device, weight, avoid set).  The pipeline routes each pool
    layout **once per plan** and every CPM merely retargets its measured
    subset onto the routed bodies, picking the layout whose resting
    positions favour its subset (route-once/retarget-many).

    May return fewer than ``pool_size`` layouts (duplicate embeddings,
    fragmented devices) and, unlike :func:`candidate_layouts`, an empty
    list — the CPM compiler then falls back to the global mapping alone.
    ``interactions`` and ``badness`` are as for :func:`candidate_layouts`.
    """
    if pool_size < 1:
        raise CompilationError("pool_size must be >= 1")
    n = body.num_qubits
    if n > device.num_qubits:
        raise CompilationError(
            f"{n}-qubit program does not fit on {device.num_qubits}-qubit device"
        )
    avoid = frozenset(int(q) for q in avoid_qubits)
    if badness is None:
        badness = qubit_badness(device, readout_weight, avoid)
    ranked = [int(q) for q in np.argsort(badness, kind="stable")]

    layouts: List[Layout] = []
    seen: Set[Tuple[Tuple[int, int], ...]] = set()
    for seed_qubit in ranked:
        region = grow_region(device, n, seed_qubit, badness)
        if region is None:
            continue
        layout = embed_in_region(
            body, device, region, readout_weight, avoid,
            measured_qubits=range(n), interactions=interactions,
        )
        key = tuple(sorted(layout.as_dict().items()))
        if key not in seen:
            seen.add(key)
            layouts.append(layout)
        if len(layouts) >= pool_size:
            break
    return layouts


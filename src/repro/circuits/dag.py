"""Dependency-DAG view of a circuit: instructions as nodes, per-qubit
data dependencies as edges.

SABRE [Li, Ding, Xie 2018] processes a circuit as such a DAG, repeatedly
executing the *front layer* (nodes with no unresolved predecessors) and
inserting SWAPs when a two-qubit gate's operands are not adjacent on the
device.  The compiler's router walks the same dependencies in array form
(:class:`~repro.compiler.sabre.RoutingBody`); this object view gives the
circuit drawing its layers and the reference router in the test suite
its nodes.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.circuits.circuit import Instruction, QuantumCircuit

__all__ = ["CircuitDAG", "DAGNode"]


class DAGNode:
    """A single instruction node inside a :class:`CircuitDAG`."""

    __slots__ = ("index", "instruction", "successors", "num_predecessors")

    def __init__(self, index: int, instruction: Instruction) -> None:
        self.index = index
        self.instruction = instruction
        self.successors: List["DAGNode"] = []
        #: count of unresolved predecessors; maintained by the traversal.
        self.num_predecessors = 0

    @property
    def qubits(self) -> Tuple[int, ...]:
        return self.instruction.qubits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = (
            self.instruction.gate.name
            if self.instruction.is_gate
            else self.instruction.kind
        )
        return f"DAGNode({self.index}, {name}, q={self.qubits})"


class CircuitDAG:
    """Per-qubit dependency DAG of a circuit.

    Barriers are treated as synchronisation points: they depend on every
    earlier instruction on their qubits and gate every later one, but are
    never returned in the front layer (they execute for free).
    """

    def __init__(self, circuit: QuantumCircuit) -> None:
        self.circuit = circuit
        self.nodes: List[DAGNode] = [
            DAGNode(i, ins) for i, ins in enumerate(circuit.instructions)
        ]
        last_on_qubit: Dict[int, DAGNode] = {}
        for node in self.nodes:
            preds: Set[int] = set()
            for q in node.qubits:
                prev = last_on_qubit.get(q)
                if prev is not None and prev.index not in preds:
                    prev.successors.append(node)
                    node.num_predecessors += 1
                    preds.add(prev.index)
                last_on_qubit[q] = node

    def __len__(self) -> int:
        return len(self.nodes)

    def initial_front(self) -> List[DAGNode]:
        """Nodes with no predecessors (the starting front layer)."""
        return [n for n in self.nodes if n.num_predecessors == 0]

    def topological(self) -> Iterator[DAGNode]:
        """Yield nodes in a topological order (Kahn's algorithm)."""
        in_degree = {n.index: n.num_predecessors for n in self.nodes}
        ready = [n for n in self.nodes if in_degree[n.index] == 0]
        # Keep instruction order stable for deterministic output.
        ready.sort(key=lambda n: n.index)
        emitted = 0
        while ready:
            node = ready.pop(0)
            emitted += 1
            yield node
            newly_ready = []
            for succ in node.successors:
                in_degree[succ.index] -= 1
                if in_degree[succ.index] == 0:
                    newly_ready.append(succ)
            newly_ready.sort(key=lambda n: n.index)
            # Merge while preserving index order.
            ready = sorted(ready + newly_ready, key=lambda n: n.index)
        if emitted != len(self.nodes):  # pragma: no cover - defensive
            raise RuntimeError("cycle detected in circuit DAG")

    def layers(self) -> List[List[DAGNode]]:
        """Partition nodes into ASAP layers (barriers occupy their own slot)."""
        level: Dict[int, int] = {}
        result: List[List[DAGNode]] = []
        for node in self.topological():
            start = max((level.get(q, 0) for q in node.qubits), default=0)
            for q in node.qubits:
                level[q] = start + 1
            while len(result) <= start:
                result.append([])
            result[start].append(node)
        return result

"""QAOA MaxCut benchmarks (paper Table 2: QAOA-n at p = 1, 2, 4).

The paper's QAOA benchmarks have (n-1) two-qubit gates per layer, i.e. the
MaxCut instance is a *path* graph.  We keep that default but accept any
edge list.  Angles are optimised classically at construction time with a
fast diagonal-phase simulator (the phase separator of MaxCut QAOA is
diagonal, so one expectation evaluation is a few vector operations), which
makes the workloads deterministic and reasonably close to optimal — good
enough that the ideal distribution concentrates on the true MaxCut
solutions, which become the PST-correct outcomes.

The search is a 24 x 12 (gamma, beta) grid at depth 1, and at depth p an
interpolation of the depth-(p-1) schedule; each is then refined by
coordinate descent.  It is paid once per process and shape:

* every depth level is memoized per ``(num_qubits, depth, edges)``, so
  QAOA-10 p4 reuses QAOA-10 p2's levels instead of searching them again;
* the phase separator is gathered from the distinct cut values (at most
  E + 1 of them), and a depth-1 grid gamma's phased state serves all of
  its betas;
* the mixer is one 2x2 ``np.dot`` per qubit on a chained layout (see
  :func:`_apply_mixer`).

None of this changes a bit: every product, exponential and comparison is
the one the plain search makes, so the angles, and with them every circuit
and output downstream, are unchanged.  ``tests/qaoa_oracle.py`` keeps the
plain search (``moveaxis`` + ``tensordot``, an uncached recursion), and
``tests/test_qaoa_search.py`` holds this one to it bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.exceptions import WorkloadError
from repro.sim.kernels import default_max_qubits
from repro.workloads.workload import Workload

__all__ = ["qaoa_maxcut", "path_graph_edges", "ring_graph_edges", "cut_values"]


def path_graph_edges(num_qubits: int) -> Tuple[Tuple[int, int], ...]:
    """Edges of the path graph 0-1-...-(n-1): the Table 2 instance shape."""
    return tuple((i, i + 1) for i in range(num_qubits - 1))


def ring_graph_edges(num_qubits: int) -> Tuple[Tuple[int, int], ...]:
    """Edges of the n-cycle (used in sensitivity studies)."""
    return tuple(
        (i, (i + 1) % num_qubits) for i in range(num_qubits)
    )


def cut_values(num_qubits: int, edges: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Vector of cut sizes for every basis state (index bit q = qubit q)."""
    size = 1 << num_qubits
    indices = np.arange(size, dtype=np.int64)
    total = np.zeros(size, dtype=np.float64)
    for a, b in edges:
        bit_a = (indices >> a) & 1
        bit_b = (indices >> b) & 1
        total += (bit_a ^ bit_b).astype(np.float64)
    return total


# ---------------------------------------------------------------------------
# Fast expectation evaluation for angle optimisation
# ---------------------------------------------------------------------------


def _apply_mixer(state: np.ndarray, beta: float, num_qubits: int) -> np.ndarray:
    """Apply RX(2*beta) on every qubit: one 2x2 ``np.dot`` per qubit.

    Qubit axis ``k`` of the ``(2,) * n`` tensor (axis 0 is the most
    significant index bit) is contracted as ``mixer @ operand``, where
    ``operand`` is the C-contiguous ``(2, 2**(n-1))`` matrix whose row is
    axis ``k`` and whose columns run over the other axes in their original
    order: the operand ``np.tensordot`` builds after a ``moveaxis``, so
    every product is the same zgemm on the same bits.  Each product keeps
    its contracted axis in front, which puts the next operand one 4-D
    transpose (one copy) away; a final transpose restores the axis order.
    The copies and products reuse two buffers, so a call allocates three
    state-sized arrays, not 2n: each fresh large array is fresh pages.
    """
    cos = math.cos(beta)
    sin = math.sin(beta)
    mixer = np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)
    tensor = np.empty((2, state.size >> 1), dtype=complex)
    operand = np.empty_like(tensor)
    np.dot(mixer, state.reshape(2, -1), out=tensor)
    for axis in range(1, num_qubits):
        # Rows: axis - 1.  Columns: axes 0..axis-2, then axis, axis+1, ...
        shape = (2, 1 << (axis - 1), 2, -1)
        np.copyto(
            operand.reshape(shape), tensor.reshape(shape).transpose(2, 1, 0, 3)
        )
        np.dot(mixer, operand, out=tensor)
    return tensor.T.reshape(-1)


class _PhaseTable:
    """The diagonal phase separator ``exp(i * gamma * cut)``, gathered.

    A MaxCut instance with E edges has at most E + 1 distinct cut values,
    so each phase vector is the complex exponential of those few values
    gathered out to every basis state: the same bits as exponentiating the
    full cut vector, for a fraction of the work.
    """

    def __init__(self, cuts: np.ndarray) -> None:
        self.cuts = cuts
        self.values, self.index = np.unique(cuts, return_inverse=True)

    def phase(self, gamma: float) -> np.ndarray:
        return np.exp(1j * gamma * self.values)[self.index]


def _uniform_state(num_qubits: int) -> np.ndarray:
    size = 1 << num_qubits
    return np.full(size, 1.0 / math.sqrt(size), dtype=complex)


def _qaoa_state(
    gammas: Sequence[float],
    betas: Sequence[float],
    table: _PhaseTable,
    num_qubits: int,
) -> np.ndarray:
    """Final QAOA statevector using the diagonal phase separator."""
    state = _uniform_state(num_qubits)
    for gamma, beta in zip(gammas, betas):
        state = state * table.phase(gamma)
        state = _apply_mixer(state, beta, num_qubits)
    return state


def _cut_expectation(state: np.ndarray, cuts: np.ndarray) -> float:
    probabilities = np.abs(state) ** 2
    return float(probabilities @ cuts)


def _expected_cut(
    params: np.ndarray, table: _PhaseTable, num_qubits: int, depth: int
) -> float:
    state = _qaoa_state(params[:depth], params[depth:], table, num_qubits)
    return _cut_expectation(state, table.cuts)


#: Optimised ``(gammas, betas)`` per ``(num_qubits, depth, edges)``.  Every
#: depth level is searched once per process: a depth-p search starts from
#: the memoized depth-(p-1) schedule, which QAOA-n at p = 2 and 4 share.
_ANGLES: Dict[
    Tuple[int, int, Tuple[Tuple[int, int], ...]],
    Tuple[Tuple[float, ...], Tuple[float, ...]],
] = {}


def _memoized_angles(
    cuts: np.ndarray,
    num_qubits: int,
    depth: int,
    edges: Tuple[Tuple[int, int], ...],
) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """:func:`_search_level`, once per key; ``cuts`` are ``edges``' cut values."""
    key = (num_qubits, depth, edges)
    angles = _ANGLES.get(key)
    if angles is None:
        params = _search_level(_PhaseTable(cuts), num_qubits, depth, edges)
        angles = (tuple(params[:depth]), tuple(params[depth:]))
        _ANGLES[key] = angles
    return angles


def _search_level(
    table: _PhaseTable,
    num_qubits: int,
    depth: int,
    edges: Tuple[Tuple[int, int], ...],
) -> np.ndarray:
    """Deterministic grid + coordinate-descent search of one depth level."""
    if depth == 1:
        # Each grid gamma's phased state is shared by its 12 betas.
        best_params, best_value = None, -1.0
        uniform = _uniform_state(num_qubits)
        betas = np.linspace(0.05, math.pi / 2 - 0.05, 12)
        for gamma in np.linspace(0.05, math.pi - 0.05, 24):
            phased = uniform * table.phase(gamma)
            for beta in betas:
                state = _apply_mixer(phased, beta, num_qubits)
                value = _cut_expectation(state, table.cuts)
                if value > best_value:
                    best_value = value
                    best_params = np.array([gamma, beta])
    else:
        # INTERP-style initialisation: linearly stretch the (p-1) schedule.
        prev_gammas, prev_betas = _memoized_angles(
            table.cuts, num_qubits, depth - 1, edges
        )
        positions_old = np.linspace(0, 1, depth - 1) if depth > 2 else np.array([0.5])
        positions_new = np.linspace(0, 1, depth)
        best_params = np.concatenate(
            [
                np.interp(positions_new, positions_old, prev_gammas),
                np.interp(positions_new, positions_old, prev_betas),
            ]
        )
        best_value = _expected_cut(best_params, table, num_qubits, depth)

    # Coordinate descent with shrinking step sizes.
    step = 0.3
    for _ in range(4):
        improved = False
        for index in range(2 * depth):
            for direction in (+1.0, -1.0):
                candidate = best_params.copy()
                candidate[index] += direction * step
                value = _expected_cut(candidate, table, num_qubits, depth)
                if value > best_value + 1e-9:
                    best_value = value
                    best_params = candidate
                    improved = True
        if not improved:
            step /= 2.0
    return best_params


# ---------------------------------------------------------------------------
# Workload construction
# ---------------------------------------------------------------------------


def qaoa_maxcut(
    num_qubits: int,
    depth: int = 1,
    edges: Sequence[Tuple[int, int]] = None,
) -> Workload:
    """QAOA MaxCut workload (``QAOA-n (p=depth)`` in the paper).

    Correct outcomes are the bitstrings achieving the true maximum cut,
    found by brute force; the workload metadata carries the graph, the
    optimised angles, and the max cut value for the ARG metric.
    """
    if num_qubits < 2:
        raise WorkloadError("QAOA needs at least two qubits")
    if depth < 1:
        raise WorkloadError("QAOA depth must be >= 1")
    # The simulators' shared cap (default 24, REPRO_MAX_QUBITS): the
    # workload is gated where the statevector would be, not at a stale
    # hard-coded bound of its own.
    cap = default_max_qubits()
    if num_qubits > cap:
        raise WorkloadError(
            f"QAOA workloads are limited to {cap} qubits "
            "(the simulator cap; raise via REPRO_MAX_QUBITS)"
        )
    if edges is None:
        edges = path_graph_edges(num_qubits)
    edges = tuple((min(a, b), max(a, b)) for a, b in edges)
    for a, b in edges:
        if not (0 <= a < num_qubits and 0 <= b < num_qubits) or a == b:
            raise WorkloadError(f"invalid edge ({a}, {b})")

    cuts = cut_values(num_qubits, edges)
    gammas, betas = _memoized_angles(cuts, num_qubits, depth, edges)
    # The program is built symbolically (gamma_l / beta_l per layer) and
    # bound at the optimised angles: existing callers see the identical
    # numeric circuit, while variational sweeps rebind the template.
    gamma_params = tuple(Parameter(f"gamma_{l}") for l in range(depth))
    beta_params = tuple(Parameter(f"beta_{l}") for l in range(depth))
    qc = QuantumCircuit(num_qubits, name=f"QAOA-{num_qubits} p{depth}")
    for q in range(num_qubits):
        qc.h(q)
    for gamma, beta in zip(gamma_params, beta_params):
        for a, b in edges:
            # rzz(theta) = diag(e^{-i theta/2}, e^{+i theta/2}, ...), so
            # each cut edge gains e^{+i gamma/2} and each uncut edge
            # e^{-i gamma/2}; the layer realises e^{i*gamma*cut} up to a
            # global phase — matching the optimiser's phase separator.
            qc.rzz(gamma, a, b)
        for q in range(num_qubits):
            qc.rx(2.0 * beta, q)
    qc.measure_all()
    defaults = {
        **{p.name: g for p, g in zip(gamma_params, gammas)},
        **{p.name: b for p, b in zip(beta_params, betas)},
    }
    bound = qc.bind(defaults)

    max_cut = float(cuts.max())
    winners = np.flatnonzero(cuts >= max_cut - 1e-9)
    correct = tuple(
        sorted(format(int(idx), f"0{num_qubits}b") for idx in winners)
    )
    return Workload(
        name=f"QAOA-{num_qubits} p{depth}",
        circuit=bound,
        correct_outcomes=correct,
        metadata={
            "edges": edges,
            "gammas": gammas,
            "betas": betas,
            "max_cut": max_cut,
            "depth": depth,
        },
        template_circuit=qc,
        default_parameters=defaults,
    )

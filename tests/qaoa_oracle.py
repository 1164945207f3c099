"""Reference QAOA angle search: the oracle of :mod:`repro.workloads.qaoa`.

The production search memoizes every depth level, gathers the phase
separator from the distinct cut values, shares each depth-1 grid γ's
phased state across its β, and runs the mixer as one chained contraction
per qubit.  This module keeps the plain search those replaced: a fresh
phase vector per layer, the mixer as ``moveaxis`` + ``tensordot`` +
``moveaxis`` per qubit, and an uncached ``depth - 1`` recursion.  The
differential tests assert the production angles, expected cuts and
states equal these bit for bit.  Nothing in ``src/`` can select it.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np


def apply_mixer(state: np.ndarray, beta: float, num_qubits: int) -> np.ndarray:
    """Apply RX(2*beta) on every qubit via per-axis 2x2 contractions."""
    cos = math.cos(beta)
    sin = math.sin(beta)
    mixer = np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)
    tensor = state.reshape((2,) * num_qubits)
    for axis in range(num_qubits):
        tensor = np.moveaxis(tensor, axis, 0)
        tensor = np.tensordot(mixer, tensor, axes=([1], [0]))
        tensor = np.moveaxis(tensor, 0, axis)
    return tensor.reshape(-1)


def qaoa_state(
    gammas: Sequence[float],
    betas: Sequence[float],
    cuts: np.ndarray,
    num_qubits: int,
) -> np.ndarray:
    """Final QAOA statevector using the diagonal phase separator."""
    size = 1 << num_qubits
    state = np.full(size, 1.0 / math.sqrt(size), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state = state * np.exp(1j * gamma * cuts)
        state = apply_mixer(state, beta, num_qubits)
    return state


def expected_cut(
    params: np.ndarray, cuts: np.ndarray, num_qubits: int, depth: int
) -> float:
    gammas = params[:depth]
    betas = params[depth:]
    state = qaoa_state(gammas, betas, cuts, num_qubits)
    probabilities = np.abs(state) ** 2
    return float(probabilities @ cuts)


def optimize_angles(
    cuts: np.ndarray, num_qubits: int, depth: int
) -> Tuple[np.ndarray, float]:
    """Deterministic grid + coordinate-descent angle optimisation."""
    if depth == 1:
        best_params, best_value = None, -1.0
        for gamma in np.linspace(0.05, math.pi - 0.05, 24):
            for beta in np.linspace(0.05, math.pi / 2 - 0.05, 12):
                params = np.array([gamma, beta])
                value = expected_cut(params, cuts, num_qubits, depth)
                if value > best_value:
                    best_value = value
                    best_params = params
    else:
        # INTERP-style initialisation: linearly stretch the (p-1) schedule.
        prev_params, _ = optimize_angles(cuts, num_qubits, depth - 1)
        prev_gammas = prev_params[: depth - 1]
        prev_betas = prev_params[depth - 1:]
        positions_old = np.linspace(0, 1, depth - 1) if depth > 2 else np.array([0.5])
        positions_new = np.linspace(0, 1, depth)
        best_params = np.concatenate(
            [
                np.interp(positions_new, positions_old, prev_gammas),
                np.interp(positions_new, positions_old, prev_betas),
            ]
        )
        best_value = expected_cut(best_params, cuts, num_qubits, depth)

    # Coordinate descent with shrinking step sizes.
    step = 0.3
    for _ in range(4):
        improved = False
        for index in range(2 * depth):
            for direction in (+1.0, -1.0):
                candidate = best_params.copy()
                candidate[index] += direction * step
                value = expected_cut(candidate, cuts, num_qubits, depth)
                if value > best_value + 1e-9:
                    best_value = value
                    best_params = candidate
                    improved = True
        if not improved:
            step /= 2.0
    return best_params, best_value

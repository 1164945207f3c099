"""Matrix-Based measurement error Mitigation (IBM's MBM, paper §8).

MBM calibrates the full ``2**n x 2**n`` assignment matrix ``A`` (by
preparing each basis state and recording the observed distribution) and
post-processes program output as ``p_true ~ A^{-1} p_observed``.  Its cost
is exponential in the program size — the contrast the paper draws against
JigSaw's linear-complexity post-processing — but for the Fig. 14 QAOA
benchmarks (8-10 qubits) it is exactly computable, and it is refused
above :data:`MAX_MBM_QUBITS`.

Under our factorised readout channel the true assignment matrix is the
tensor product of per-qubit confusion matrices, which is what a noiseless
calibration would recover; :func:`calibration_matrix` builds it directly,
and :func:`sampled_calibration_matrix` builds it the way an experiment
would (finite calibration shots per basis state).

Inversion uses constrained least squares (non-negativity + renormalise),
the standard remedy for the negative quasi-probabilities a raw inverse
produces.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.pmf import PMF
from repro.exceptions import MitigationError
from repro.utils.random import SeedLike, as_generator

__all__ = [
    "calibration_matrix",
    "sampled_calibration_matrix",
    "apply_mitigation",
    "mitigate_pmf",
    "MAX_MBM_QUBITS",
]

#: Widest output MBM corrects.  The dense 2^n x 2^n float64 assignment
#: matrix is 128 MiB at 12 bits (about 2 s and 340 MB peak to solve on one
#: thread) and 2 GiB at 14; Fig. 14's widest program has 10 bits.
MAX_MBM_QUBITS = 12


def calibration_matrix(confusions: Sequence[np.ndarray]) -> np.ndarray:
    """Exact assignment matrix: tensor product of per-clbit confusions.

    ``confusions[c]`` is the 2x2 column-stochastic matrix of clbit ``c``;
    the result is ``A[observed, prepared]`` over full bitstrings with the
    IBM-order integer encoding (bit ``c`` = clbit ``c``).
    """
    num_bits = len(confusions)
    if num_bits == 0:
        raise MitigationError("need at least one confusion matrix")
    if num_bits > MAX_MBM_QUBITS:
        raise MitigationError(
            f"MBM limited to {MAX_MBM_QUBITS} qubits (got {num_bits})"
        )
    # Bit c is the *least* significant; numpy's kron makes the first factor
    # most significant, so fold from the highest clbit down.
    matrix = np.array([[1.0]])
    for clbit in reversed(range(num_bits)):
        conf = np.asarray(confusions[clbit], dtype=float)
        if conf.shape != (2, 2):
            raise MitigationError("confusion matrices must be 2x2")
        matrix = np.kron(matrix, conf)
    return matrix


def sampled_calibration_matrix(
    confusions: Sequence[np.ndarray],
    shots_per_state: int = 1024,
    seed: SeedLike = None,
) -> np.ndarray:
    """Assignment matrix estimated from finite calibration shots.

    Mimics the experimental procedure: prepare each basis state, sample
    its observed distribution under the readout channel, and collect the
    empirical columns.
    """
    if shots_per_state < 1:
        raise MitigationError("shots_per_state must be positive")
    rng = as_generator(seed)
    exact = calibration_matrix(confusions)
    dim = exact.shape[0]
    sampled = np.zeros_like(exact)
    for prepared in range(dim):
        counts = rng.multinomial(shots_per_state, exact[:, prepared])
        sampled[:, prepared] = counts / shots_per_state
    return sampled


def apply_mitigation(
    observed: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """Recover the pre-readout distribution from an observed one.

    Solves ``min ||A x - observed||`` subject to ``x >= 0`` via the raw
    inverse followed by clipping and renormalisation — the cheap variant
    IBM's tooling applies by default.
    """
    observed = np.asarray(observed, dtype=float)
    dim = assignment.shape[0]
    if assignment.shape != (dim, dim) or observed.shape != (dim,):
        raise MitigationError("shape mismatch between distribution and matrix")
    try:
        recovered = np.linalg.solve(assignment, observed)
    except np.linalg.LinAlgError:
        recovered, *_ = np.linalg.lstsq(assignment, observed, rcond=None)
    recovered = np.clip(recovered, 0.0, None)
    total = recovered.sum()
    if total <= 0.0:
        raise MitigationError("mitigation produced an empty distribution")
    return recovered / total


def mitigate_pmf(
    pmf: PMF,
    confusions: Sequence[np.ndarray],
    assignment: Optional[np.ndarray] = None,
    threshold: float = 1e-12,
) -> PMF:
    """Apply MBM to a sparse PMF, returning a new PMF.

    ``assignment`` overrides the exact tensor-product matrix (pass a
    sampled one to model calibration noise).
    """
    num_bits = pmf.num_bits
    if len(confusions) != num_bits:
        raise MitigationError(
            f"{num_bits}-bit PMF needs {num_bits} confusion matrices"
        )
    matrix = assignment if assignment is not None else calibration_matrix(confusions)
    dense = np.zeros(1 << num_bits)
    dense[pmf.codes] = pmf.probs
    recovered = apply_mitigation(dense, matrix)
    observed = np.flatnonzero(recovered > threshold).astype(np.int64)
    return PMF.from_codes(observed, recovered[observed], num_bits)

"""Composing JigSaw with matrix-based mitigation (paper Fig. 14).

The paper shows JigSaw and IBM's MBM are complementary: MBM removes the
average readout bias from the global PMF, JigSaw's reconstruction then
sharpens it with the high-fidelity subset marginals.  We apply MBM to the
global PMF *and* to each (tiny) local PMF before reconstruction, using the
confusion matrices of the physical qubits each executable actually
measures.

These functions consume :class:`~repro.core.jigsaw.JigSawResult` /
:class:`~repro.core.multilayer.JigSawMResult` objects — whether produced
by a runner's one-call ``run`` or by the runtime API's plan/execute path
(:class:`~repro.runtime.session.Session` routes its ``jigsaw_mbm``
scheme through here).  When the result carries its
:class:`~repro.runtime.plan.ExecutionPlan`, the reconstruction knobs
default to the plan's config instead of the library-wide defaults.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.compiler.pipeline import ExecutableCircuit
from repro.core.jigsaw import JigSawResult
from repro.core.multilayer import JigSawMResult, ordered_reconstruction
from repro.core.pmf import PMF, Marginal
from repro.core.reconstruction import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_TOLERANCE,
    bayesian_reconstruction,
)
from repro.mitigation.mbm import MAX_MBM_QUBITS, mitigate_pmf
from repro.noise.model import NoiseModel

__all__ = ["mitigate_executable_pmf", "jigsaw_with_mbm", "jigsawm_with_mbm"]


def mitigate_executable_pmf(
    pmf: PMF, executable: ExecutableCircuit, noise_model: NoiseModel
) -> PMF:
    """MBM-correct a PMF using the executable's measured physical qubits."""
    physical = executable.measured_physical_qubits
    confusions = noise_model.confusion_matrices(physical, len(physical))
    return mitigate_pmf(pmf, confusions)


def _corrected_marginals(
    marginals: Sequence[Marginal],
    executables: Sequence[ExecutableCircuit],
    noise_model: NoiseModel,
) -> List[Marginal]:
    """MBM-correct each marginal through its own executable's confusions."""
    return [
        Marginal(
            marginal.qubits,
            mitigate_executable_pmf(marginal.pmf, executable, noise_model),
        )
        for marginal, executable in zip(marginals, executables)
    ]


def _reconstruction_knobs(
    result, tolerance: Optional[float], max_rounds: Optional[int]
) -> Tuple[float, int]:
    """Resolve tolerance/max_rounds: explicit > plan config > defaults."""
    plan = getattr(result, "plan", None)
    config = plan.config if plan is not None else None
    if tolerance is None:
        tolerance = config.tolerance if config is not None else DEFAULT_TOLERANCE
    if max_rounds is None:
        max_rounds = config.max_rounds if config is not None else DEFAULT_MAX_ROUNDS
    return tolerance, max_rounds


def jigsaw_with_mbm(
    result: JigSawResult,
    noise_model: NoiseModel,
    tolerance: Optional[float] = None,
    max_rounds: Optional[int] = None,
) -> PMF:
    """Re-run reconstruction on MBM-corrected global and local PMFs."""
    if result.global_pmf.num_bits > MAX_MBM_QUBITS:
        raise ValueError(
            f"MBM is limited to {MAX_MBM_QUBITS}-bit outputs; "
            f"got {result.global_pmf.num_bits}"
        )
    tolerance, max_rounds = _reconstruction_knobs(result, tolerance, max_rounds)
    global_pmf = mitigate_executable_pmf(
        result.global_pmf, result.global_executable, noise_model
    )
    marginals = _corrected_marginals(
        result.marginals, result.cpm_executables, noise_model
    )
    return bayesian_reconstruction(
        global_pmf, marginals, tolerance=tolerance, max_rounds=max_rounds
    )


def jigsawm_with_mbm(
    result: JigSawMResult,
    noise_model: NoiseModel,
    tolerance: Optional[float] = None,
    max_rounds: Optional[int] = None,
) -> PMF:
    """JigSaw-M + MBM: MBM-corrected PMFs with ordered reconstruction."""
    tolerance, max_rounds = _reconstruction_knobs(result, tolerance, max_rounds)
    global_pmf = mitigate_executable_pmf(
        result.global_pmf, result.global_executable, noise_model
    )
    corrected_by_size = {
        size: _corrected_marginals(
            marginals, result.cpm_executables_by_size[size], noise_model
        )
        for size, marginals in result.marginals_by_size.items()
    }
    return ordered_reconstruction(
        global_pmf, corrected_by_size, tolerance=tolerance, max_rounds=max_rounds
    )

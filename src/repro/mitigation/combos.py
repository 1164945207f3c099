"""Composing JigSaw with matrix-based mitigation (paper Fig. 14).

The paper shows JigSaw and IBM's MBM are complementary: MBM removes the
average readout bias from the global PMF, JigSaw's reconstruction then
sharpens it with the high-fidelity subset marginals.  We apply MBM to the
global PMF *and* to each (tiny) local PMF before reconstruction, using the
confusion matrices of the physical qubits each executable actually
measures.

:func:`mbm_corrected` corrects a plan's executed batch, whatever its
layer count; the runner's own ``reconstruct`` then finishes it, so
JigSaw + MBM and JigSaw-M + MBM are one path with one counted
reconstruction (:class:`~repro.runtime.session.Session` routes its
``jigsaw_mbm`` scheme through here).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.compiler.pipeline import ExecutableCircuit
from repro.core.pmf import PMF
from repro.exceptions import MitigationError
from repro.mitigation.mbm import MAX_MBM_QUBITS, mitigate_pmf
from repro.noise.model import NoiseModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.plan import ExecutionPlan

__all__ = ["mitigate_executable_pmf", "mbm_corrected"]


def mitigate_executable_pmf(
    pmf: PMF, executable: ExecutableCircuit, noise_model: NoiseModel
) -> PMF:
    """MBM-correct a PMF using the executable's measured physical qubits."""
    physical = executable.measured_physical_qubits
    confusions = noise_model.confusion_matrices(physical, len(physical))
    return mitigate_pmf(pmf, confusions)


def mbm_corrected(
    plan: ExecutionPlan, pmfs: Sequence[PMF], noise_model: NoiseModel
) -> List[PMF]:
    """MBM-correct each PMF of a plan's executed batch (``plan.requests()``
    order: the global PMF, then every CPM's) with its own executable's
    confusion matrices."""
    if pmfs[0].num_bits > MAX_MBM_QUBITS:
        raise MitigationError(
            f"MBM is limited to {MAX_MBM_QUBITS}-bit outputs; "
            f"got {pmfs[0].num_bits}"
        )
    executables = [plan.global_executable, *plan.cpm_executables]
    return [
        mitigate_executable_pmf(pmf, executable, noise_model)
        for pmf, executable in zip(pmfs, executables)
    ]

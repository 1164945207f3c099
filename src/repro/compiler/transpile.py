"""High-level transpilation: placement + routing + EPS-based selection.

``transpile()`` mirrors the paper's baseline flow (Noise-Aware SABRE):
generate several noise-aware initial layouts, route each with SABRE, score
every routed schedule by Expected Probability of Success, and keep the
best.  The ``readout_emphasis`` knob turns the same machinery into the CPM
recompiler (§4.2.2): a high emphasis steers the measured subset onto the
strongest readout qubits.

Since the staged-pipeline refactor this module is a thin front door over
:class:`repro.compiler.pipeline.CompilerPipeline` — the stages (Placement
-> Route -> MeasureRetarget -> EpsScore -> Select) live there, along with
the route-once invariant that makes cached and uncached compilation
bit-for-bit identical.  Callers that compile many related programs (the
JigSaw planners, sessions) pass a shared ``pipeline`` so routed bodies are
reused; a bare ``transpile()`` call builds a one-shot pipeline and behaves
exactly like the historical monolithic flow.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.layout import Layout
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.devices.device import Device
from repro.utils.random import SeedLike

__all__ = ["ExecutableCircuit", "transpile"]


def transpile(
    circuit: QuantumCircuit,
    device: Device,
    seed: SeedLike = None,
    attempts: int = 4,
    readout_emphasis: float = 1.0,
    avoid_qubits: Sequence[int] = (),
    initial_layouts: Optional[Sequence[Layout]] = None,
    pipeline: Optional[CompilerPipeline] = None,
) -> ExecutableCircuit:
    """Compile ``circuit`` for ``device`` maximising (emphasised) EPS.

    Args:
        circuit: logical program; must end in measurements for execution.
        device: target device.
        seed: RNG seed controlling placement exploration (routing is a
            pure function of content; see the pipeline module).
        attempts: number of placement+routing candidates to evaluate.
        readout_emphasis: exponent on the readout term of EPS; > 1 gives
            the CPM-recompilation objective.
        avoid_qubits: physical qubits to penalise during placement (EDM
            diversity, vulnerable-qubit avoidance).
        initial_layouts: optional explicit layouts to route (bypasses
            placement; still selects by EPS).
        pipeline: a shared :class:`CompilerPipeline` whose stage cache
            reuses routed bodies across calls; ``None`` builds a one-shot
            pipeline (the legacy monolithic behaviour, bit-for-bit
            identical output).
    """
    return CompilerPipeline.for_device(device, pipeline).compile(
        circuit,
        seed=seed,
        attempts=attempts,
        readout_emphasis=readout_emphasis,
        avoid_qubits=avoid_qubits,
        initial_layouts=initial_layouts,
    )

"""Ensemble of Diverse Mappings (EDM) baseline.

Tannu & Qureshi (MICRO 2019): run independent copies of the program on
*different* groups of physical qubits so that each copy makes dissimilar
mistakes, then merge the output histograms.  The correct answer is the one
outcome all mappings agree on, so inference strength improves even though
each individual mapping is no better than the baseline.

The paper evaluates JigSaw against an EDM of four mappings with the trial
budget split evenly (§5.2, §5.4) — this module reproduces that policy.
"""

from __future__ import annotations

from typing import List, Set

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.pipeline import CompilerPipeline, ExecutableCircuit
from repro.exceptions import CompilationError
from repro.utils.random import SeedLike, as_generator, spawn

__all__ = ["ensemble_of_diverse_mappings"]


def ensemble_of_diverse_mappings(
    circuit: QuantumCircuit,
    pipeline: CompilerPipeline,
    ensemble_size: int = 4,
    attempts: int = 4,
    seed: SeedLike = None,
) -> List[ExecutableCircuit]:
    """Compile ``ensemble_size`` diverse mappings of ``circuit``.

    Every mapping compiles on ``pipeline`` (and so for its device).
    Diversity is enforced by penalising, for each successive mapping, the
    physical qubits already used by earlier mappings.  On devices too small
    for disjoint copies the penalty is soft — mappings overlap but still
    differ, as in the original EDM policy.
    """
    if ensemble_size < 1:
        raise CompilationError("ensemble_size must be >= 1")
    rng = as_generator(seed)
    child_rngs = spawn(rng, ensemble_size)

    executables: List[ExecutableCircuit] = []
    used_qubits: Set[int] = set()
    for child in child_rngs:
        executable = pipeline.compile(
            circuit,
            seed=child,
            attempts=attempts,
            avoid_qubits=sorted(used_qubits),
        )
        executables.append(executable)
        used_qubits.update(executable.final_layout.physical_qubits)
    return executables

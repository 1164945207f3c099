"""Execution plans: the compiled, inspectable middle of the pipeline.

The JigSaw pipeline factors into *plan* (choose subsets, compile the
global circuit and every CPM, split the trial budget) and *execute*
(evaluate the batch on a backend, reconstruct).  An
:class:`ExecutionPlan` is the boundary object: everything the planning
stage produced, frozen into one value that can be

* executed (``JigSaw.execute(plan)`` / ``Session.run(plan)``),
* re-budgeted without recompiling (:meth:`ExecutionPlan.with_trials`),
* cached (:class:`~repro.runtime.cache.CompilationCache` stores plans
  keyed by circuit/device/config fingerprints),
* serialized (plans pickle cleanly) and inspected
  (:meth:`ExecutionPlan.to_dict` is JSON-ready).

Plans group their CPMs into :class:`PlanLayer`s — one layer per subset
size.  Plain JigSaw always has a single layer; JigSaw-M has one per
configured size, ascending, and reconstructs largest-first (§4.4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import ReconstructionError
from repro.runtime.backend import ExecutionRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.pipeline import ExecutableCircuit

__all__ = ["PlanLayer", "ExecutionPlan"]


@dataclass(frozen=True)
class PlanLayer:
    """All CPMs of one subset size: subsets paired with executables."""

    subset_size: int
    subsets: Tuple[Tuple[int, ...], ...]
    executables: Tuple[ExecutableCircuit, ...]

    def __post_init__(self) -> None:
        if len(self.subsets) != len(self.executables):
            raise ReconstructionError(
                "a plan layer needs one executable per subset"
            )

    @property
    def num_cpms(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully compiled JigSaw run, ready for any backend.

    Attributes:
        scheme: ``"jigsaw"`` (one layer) or ``"jigsaw_m"`` (layers by size).
        circuit: the logical program the plan was built for.
        circuit_fingerprint: content hash of ``circuit`` (the cache key
            component; see :mod:`repro.runtime.fingerprint`).
        device_name: the device the executables were compiled for.
        config: the :class:`~repro.core.jigsaw.JigSawConfig` snapshot the
            plan was built under.
        total_trials / global_trials / trials_per_cpm: the trial budget
            and its split.  Remainder trials are folded into the global
            allocation, so ``global_trials + trials_per_cpm * num_cpms ==
            total_trials`` always holds.
        global_executable: the baseline compilation (global mode).
        layers: CPM layers in ascending subset size.
        compile_spawns: RNG children consumed while compiling; cache hits
            discard the same number to keep seed streams aligned.
    """

    scheme: str
    circuit: QuantumCircuit
    circuit_fingerprint: str
    device_name: str
    config: Any
    total_trials: int
    global_trials: int
    trials_per_cpm: int
    global_executable: ExecutableCircuit
    layers: Tuple[PlanLayer, ...]
    compile_spawns: int = 0

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    @property
    def num_cpms(self) -> int:
        return sum(layer.num_cpms for layer in self.layers)

    @property
    def subsets(self) -> List[Tuple[int, ...]]:
        """Every subset, flat, in layer order."""
        return [subset for layer in self.layers for subset in layer.subsets]

    @property
    def cpm_executables(self) -> List[ExecutableCircuit]:
        """Every CPM executable, flat, in layer order."""
        return [exe for layer in self.layers for exe in layer.executables]

    @property
    def allocated_trials(self) -> int:
        return self.global_trials + self.trials_per_cpm * self.num_cpms

    def requests(self) -> List[ExecutionRequest]:
        """The backend batch: the global executable first, then every CPM.

        Batch order is **seed provenance**: sampling backends spawn one
        RNG child per batch position, so a request's position here — the
        global circuit at 0, then CPMs in layer order — pins down exactly
        which stream it draws, no matter which other plans or jobs share
        its batch.  Tags
        record which plan slot each position carries.
        """
        batch = [
            ExecutionRequest(
                self.global_executable, self.global_trials, tag="global"
            )
        ]
        position = 0
        for layer in self.layers:
            for exe in layer.executables:
                batch.append(
                    ExecutionRequest(
                        exe,
                        self.trials_per_cpm,
                        tag=f"cpm[{position}]size={layer.subset_size}",
                    )
                )
                position += 1
        return batch

    # ------------------------------------------------------------------
    # Re-budgeting
    # ------------------------------------------------------------------

    def with_trials(
        self, total_trials: int, global_trials: int, trials_per_cpm: int
    ) -> "ExecutionPlan":
        """The same compiled plan under a different trial budget.

        This is what makes cache hits cheap: the executables are reused
        untouched, only the (integer) allocation changes.
        """
        if global_trials + trials_per_cpm * self.num_cpms != total_trials:
            raise ReconstructionError(
                f"trial split {global_trials} + {trials_per_cpm} * "
                f"{self.num_cpms} does not conserve {total_trials} trials"
            )
        return replace(
            self,
            total_trials=total_trials,
            global_trials=global_trials,
            trials_per_cpm=trials_per_cpm,
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready summary of the plan (no circuit payloads)."""

        def _exe(exe: ExecutableCircuit) -> Dict[str, Any]:
            return {
                "measured_physical_qubits": list(exe.measured_physical_qubits),
                "num_swaps": exe.num_swaps,
                "eps": exe.eps,
            }

        return {
            "scheme": self.scheme,
            "circuit": self.circuit.name,
            "circuit_fingerprint": self.circuit_fingerprint,
            "device": self.device_name,
            "total_trials": self.total_trials,
            "global_trials": self.global_trials,
            "trials_per_cpm": self.trials_per_cpm,
            "num_cpms": self.num_cpms,
            "global_executable": _exe(self.global_executable),
            "layers": [
                {
                    "subset_size": layer.subset_size,
                    "subsets": [list(s) for s in layer.subsets],
                    "executables": [_exe(e) for e in layer.executables],
                }
                for layer in self.layers
            ],
        }

    def describe(self) -> str:
        """One-line human summary (used by the CLI)."""
        sizes = ",".join(str(layer.subset_size) for layer in self.layers)
        return (
            f"{self.scheme} plan on {self.device_name}: {self.num_cpms} CPMs "
            f"(sizes {sizes}), {self.global_trials} global + "
            f"{self.trials_per_cpm}/CPM of {self.total_trials} trials"
        )

"""Multi-Layer JigSaw — JigSaw-M (paper §4.4).

JigSaw's gains saturate once additional same-size CPMs stop adding unique
information (§6.5).  JigSaw-M manufactures *more unique* CPMs by varying
the subset size (2..5 by default), exploiting the fidelity/correlation
trade-off: small CPMs read more reliably, large CPMs capture more
correlation.

Reconstruction is **ordered, largest size first** (§4.4.2): the global PMF
is first updated with the most-correlated marginals (limiting the loss of
global correlation), and the progressively smaller, higher-fidelity
marginals then sharpen the result.

Like :class:`~repro.core.jigsaw.JigSaw`, the runner factors into
:meth:`JigSawM.plan` (compile one plan layer per subset size) and
:meth:`JigSawM.execute` (batch-evaluate on a backend, reconstruct
largest-first); ``run``, inherited from ``JigSaw``, chains the two and
returns a :class:`JigSawMResult`.  Planning rides the staged
compiler pipeline: all layers share one measurement-free body, so the
multiplied CPM count (sizes 2..5 each contribute a full subset sweep)
costs one routing of the global layout plus one of the deterministic
pool — every CPM beyond that is retarget+EPS only (see
:mod:`repro.compiler.pipeline`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.compiler.pipeline import ExecutableCircuit
from repro.core.jigsaw import JigSaw, JigSawConfig, measured_positions_map
from repro.core.payload import PAYLOAD_VERSION
from repro.core.pmf import PMF, Marginal
from repro.core.reconstruction import bayesian_reconstruction
from repro.core.subsets import sliding_window_subsets
from repro.devices.device import Device
from repro.exceptions import ReconstructionError
from repro.runtime.backend import Backend
from repro.runtime.cache import CompilationCache
from repro.runtime.plan import ExecutionPlan
from repro.utils.random import SeedLike

__all__ = ["JigSawMConfig", "JigSawMResult", "JigSawM", "ordered_reconstruction"]


@dataclass
class JigSawMConfig(JigSawConfig):
    """JigSaw-M configuration: a range of subset sizes (default 2..5)."""

    min_subset_size: int = 2
    max_subset_size: int = 5

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.min_subset_size < 2:
            raise ReconstructionError("min_subset_size must be >= 2")
        if self.max_subset_size < self.min_subset_size:
            raise ReconstructionError("max_subset_size < min_subset_size")

    def sizes_for(self, num_outcome_bits: int) -> List[int]:
        """Subset sizes applicable to a program with that many outcome bits.

        Sizes are clipped to the program width; a size equal to the full
        width is excluded (it would duplicate the global mode).
        """
        upper = min(self.max_subset_size, num_outcome_bits - 1)
        sizes = [s for s in range(self.min_subset_size, upper + 1)]
        if not sizes:
            raise ReconstructionError(
                f"no valid subset sizes for a {num_outcome_bits}-bit program"
            )
        return sizes


@dataclass
class JigSawMResult:
    """Everything produced by one JigSaw-M execution."""

    output_pmf: PMF
    global_pmf: PMF
    marginals_by_size: Dict[int, List[Marginal]]
    global_executable: ExecutableCircuit
    cpm_executables_by_size: Dict[int, List[ExecutableCircuit]]
    global_trials: int
    trials_per_cpm: int
    #: The plan this result was executed from (when run via plan/execute).
    plan: Optional[ExecutionPlan] = None

    @property
    def num_cpms(self) -> int:
        return sum(len(v) for v in self.cpm_executables_by_size.values())

    @property
    def total_trials(self) -> int:
        return self.global_trials + self.trials_per_cpm * self.num_cpms

    @property
    def all_marginals(self) -> List[Marginal]:
        return [m for size in sorted(self.marginals_by_size) for m in self.marginals_by_size[size]]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready result payload; distributions in native array form.

        Mirrors :meth:`~repro.core.jigsaw.JigSawResult.to_dict`: every PMF
        is carried as ``{codes, probs, num_bits}``, and the payload is
        stamped with the current ``payload_version``.  Subset sizes are
        **string** keys: a payload must survive a JSON round-trip
        byte-identically (the service's on-disk result store relies on
        it), and JSON object keys are always strings.
        """
        return {
            "scheme": "jigsaw_m",
            "payload_version": PAYLOAD_VERSION,
            "output_pmf": self.output_pmf.to_payload(),
            "global_pmf": self.global_pmf.to_payload(),
            "marginals_by_size": {
                str(size): [
                    {"qubits": list(m.qubits), "pmf": m.pmf.to_payload()}
                    for m in marginals
                ]
                for size, marginals in sorted(self.marginals_by_size.items())
            },
            "global_trials": self.global_trials,
            "trials_per_cpm": self.trials_per_cpm,
            "total_trials": self.total_trials,
        }


def ordered_reconstruction(
    global_pmf: PMF,
    marginals_by_size: Dict[int, List[Marginal]],
    tolerance: float,
    max_rounds: int,
) -> PMF:
    """Hierarchical reconstruction, largest subset size first (§4.4.2)."""
    return _largest_first(
        global_pmf,
        marginals_by_size,
        lambda prior, layer: bayesian_reconstruction(
            prior, layer, tolerance=tolerance, max_rounds=max_rounds
        ),
    )


def _largest_first(
    global_pmf: PMF,
    marginals_by_size: Dict[int, List[Marginal]],
    reconstruct: Callable[[PMF, List[Marginal]], PMF],
) -> PMF:
    """Apply ``reconstruct`` layer by layer, largest subset size first."""
    if not marginals_by_size:
        raise ReconstructionError("no marginals to reconstruct from")
    current = global_pmf
    for size in sorted(marginals_by_size, reverse=True):
        layer = marginals_by_size[size]
        if not layer:
            continue
        current = reconstruct(current, layer)
    return current


class JigSawM(JigSaw):
    """JigSaw-M runner: multi-size CPMs with ordered reconstruction."""

    scheme = "jigsaw_m"

    def __init__(
        self,
        device: Device,
        config: Optional[JigSawMConfig] = None,
        seed: SeedLike = None,
        backend: Optional[Backend] = None,
        cache: Optional[CompilationCache] = None,
        cache_salt: str = "",
    ) -> None:
        super().__init__(
            device,
            config or JigSawMConfig(),
            seed=seed,
            backend=backend,
            cache=cache,
            cache_salt=cache_salt,
        )

    # ------------------------------------------------------------------

    def generate_subsets_by_size(
        self, circuit: QuantumCircuit
    ) -> Dict[int, List[Tuple[int, ...]]]:
        """Sliding-window subsets for each configured size."""
        num_bits = len(measured_positions_map(circuit))
        config: JigSawMConfig = self.config  # type: ignore[assignment]
        return {
            size: sliding_window_subsets(num_bits, size)
            for size in config.sizes_for(num_bits)
        }

    def _layer_subsets(
        self,
        circuit: QuantumCircuit,
        subsets: Optional[Sequence[Sequence[int]]],
    ) -> List[Tuple[int, List[Tuple[int, ...]]]]:
        """One plan layer per configured subset size, ascending."""
        if subsets is not None:
            raise ReconstructionError(
                "JigSawM generates its own multi-size subsets; "
                "use JigSaw for explicit subsets"
            )
        by_size = self.generate_subsets_by_size(circuit)
        return [(size, by_size[size]) for size in sorted(by_size)]

    # ------------------------------------------------------------------

    def _reconstruct(self, plan: ExecutionPlan, pmfs: List[PMF]) -> JigSawMResult:
        """Reconstruct one JigSaw-M plan largest-first from its batch PMFs.

        ``run``, ``execute`` and ``execute_many`` (multi-plan submission)
        are inherited from :class:`~repro.core.jigsaw.JigSaw`.
        """
        global_pmf = pmfs[0]
        marginals_by_size: Dict[int, List[Marginal]] = {}
        executables_by_size: Dict[int, List[ExecutableCircuit]] = {}
        cursor = 1
        for layer in plan.layers:
            marginals = []
            for subset in layer.subsets:
                marginals.append(Marginal(subset, pmfs[cursor]))
                cursor += 1
            marginals_by_size[layer.subset_size] = marginals
            executables_by_size[layer.subset_size] = list(layer.executables)
        output = _largest_first(
            global_pmf, marginals_by_size, self._bayesian_reconstruction
        )
        return JigSawMResult(
            output_pmf=output,
            global_pmf=global_pmf,
            marginals_by_size=marginals_by_size,
            global_executable=plan.global_executable,
            cpm_executables_by_size=executables_by_size,
            global_trials=plan.global_trials,
            trials_per_cpm=plan.trials_per_cpm,
            plan=plan,
        )

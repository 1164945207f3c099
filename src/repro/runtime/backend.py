"""Execution backends: batch evaluation of compiled circuits into PMFs.

A :class:`Backend` takes a **batch** of :class:`ExecutionRequest`s — the
global executable plus every CPM, each with its trial allocation — and
returns one :class:`~repro.core.pmf.PMF` per request.  Batching is what
makes the JigSaw pipeline cheap on a simulator and natural on hardware:

* every executable in a JigSaw batch shares one unitary body, so the
  local backends compute **one statevector per body** for the whole batch
  (grouped by :func:`~repro.runtime.fingerprint.unitary_body_fingerprint`)
  instead of one per circuit;
* a single entry point per batch is the seam where a remote backend would
  submit one job with many circuits instead of round-tripping per CPM.

Two local implementations are provided: :class:`LocalExactBackend`
evaluates the closed-form noisy distribution (the infinite-trials limit,
deterministic and RNG-free) and :class:`LocalSamplingBackend` samples the
allocated trials through **per-request seed streams**: each batch spawns
one child stream per request *index* off the shared
:class:`~repro.noise.sampler.NoisySampler` stream, so a request's draws
depend only on its position in the batch.  That discipline is what lets
:class:`~repro.runtime.parallel.ShardedBackend` fan a batch out across
workers and still produce bit-for-bit the PMFs of a serial run under the
same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.core.pmf import PMF
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime.fingerprint import unitary_body_fingerprint
from repro.sim.kernels import structure_key
from repro.telemetry.metrics import MetricsRegistry
from repro.sim.statevector import StatevectorSimulator
from repro.utils.random import SeedLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.transpile import ExecutableCircuit

__all__ = [
    "ExecutionRequest",
    "Backend",
    "LocalExactBackend",
    "LocalSamplingBackend",
    "local_backend",
]


def stacked_channel_counts(
    executables: Sequence[ExecutableCircuit],
) -> Tuple[int, int]:
    """Stacking counters of one exact-channel call over ``executables``.

    :meth:`NoisySampler.exact_group_distributions` contracts each measured
    width as one stack; returns ``(stacked_evals, stacked_circuits)``:
    the widths holding more than one executable, and how many
    executables those cover.
    """
    widths: Dict[int, int] = {}
    for executable in executables:
        k = len(executable.logical.measurement_map)
        widths[k] = widths.get(k, 0) + 1
    stacked = [count for count in widths.values() if count > 1]
    return len(stacked), sum(stacked)


@dataclass(frozen=True)
class ExecutionRequest:
    """One circuit execution: a compiled artifact plus its trial budget.

    ``trials == 0`` is a valid request for backends that do not sample
    (exact mode evaluates the closed-form distribution regardless of the
    allocation); sampling backends reject it at execution time.

    ``tag`` is free-form provenance (e.g. ``"global"``, ``"cpm[3]"``)
    carried into logs and shard summaries.  A request's *seed stream* is
    not part of the request: sampling backends spawn one child stream per
    batch position, so the position of a request in its batch — not its
    tag, not the worker that evaluates it — determines its draws.
    """

    executable: ExecutableCircuit
    trials: int
    tag: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise SimulationError(
                f"trials must be non-negative, got {self.trials}"
            )


@runtime_checkable
class Backend(Protocol):
    """Anything that turns a batch of execution requests into PMFs.

    Implementations must return exactly one PMF per request, in request
    order.  ``name`` identifies the engine in plan summaries and logs.
    """

    name: str

    def execute(self, requests: Sequence[ExecutionRequest]) -> List[PMF]:
        """Evaluate every request; one PMF per request, in order."""
        ...  # pragma: no cover - protocol


class _LocalBackend:
    """Shared machinery of the local simulator backends."""

    #: Whether evaluation is RNG-free (exact mode).  Deterministic
    #: backends can coalesce duplicate executables without changing any
    #: result; see :class:`~repro.runtime.parallel.ShardedBackend`.
    deterministic = False

    def __init__(
        self,
        sampler: Optional[NoisySampler] = None,
        noise_model: Optional[NoiseModel] = None,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if sampler is None:
            if noise_model is None:
                raise SimulationError(
                    "a local backend needs a sampler or a noise model"
                )
            sampler = NoisySampler(noise_model, seed=seed)
        self.sampler = sampler
        #: Work counters — the quantities batching and coalescing save;
        #: benchmarks assert on these instead of wall time:
        #: ``backend.statevector_evals``/``backend.channel_evals``, and
        #: ``backend.stacked_evals``/``backend.stacked_circuits`` for the
        #: contractions that ran stacked (batch > 1) and the circuits
        #: that rode them.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._statevector_evals = self.metrics.counter(
            "backend.statevector_evals"
        )
        self._channel_evals = self.metrics.counter("backend.channel_evals")
        self._stacked_evals = self.metrics.counter("backend.stacked_evals")
        self._stacked_circuits = self.metrics.counter(
            "backend.stacked_circuits"
        )

    # ------------------------------------------------------------------

    @classmethod
    def share_statevectors(
        cls, requests: Sequence[ExecutionRequest]
    ) -> Tuple[int, int, int]:
        """Compute the ideal statevectors of a batch, stacked where possible.

        Executables that already carry (shared) ideal probabilities are
        left untouched; the rest are grouped by unitary-body fingerprint
        (one simulation per unique body) and bodies sharing a gate
        *structure* evolve as one stacked contraction.  Returns
        ``(contractions, stacked_evals, stacked_circuits)``: the number
        of simulator calls (one per gate structure), how many of them ran
        with batch > 1, and how many unique bodies those covered.  The
        batch saving is ``len(requests) - contractions``.
        """
        pending: Dict[str, List[ExecutableCircuit]] = {}
        for request in requests:
            executable = request.executable
            if executable._ideal_probabilities is not None:
                continue
            key = unitary_body_fingerprint(executable.logical)
            pending.setdefault(key, []).append(executable)
        by_structure: Dict[tuple, List[List[ExecutableCircuit]]] = {}
        for group in pending.values():
            by_structure.setdefault(
                structure_key(group[0].logical), []
            ).append(group)
        simulator = StatevectorSimulator()
        stacked_evals = 0
        stacked_circuits = 0
        for body_groups in by_structure.values():
            rows = simulator.probabilities_stacked(
                [group[0].logical for group in body_groups]
            )
            if len(body_groups) > 1:
                stacked_evals += 1
                stacked_circuits += len(body_groups)
            for row, group in zip(rows, body_groups):
                for executable in group:
                    executable.share_ideal_probabilities(row)
        return len(by_structure), stacked_evals, stacked_circuits

    def request_streams(self, count: int) -> List[Optional[object]]:
        """One RNG stream per batch position (``None`` for RNG-free modes)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def execute(self, requests: Sequence[ExecutionRequest]) -> List[PMF]:
        requests = list(requests)
        contractions, stacked, circuits = self.share_statevectors(requests)
        self._statevector_evals.add(contractions)
        self._stacked_evals.add(stacked)
        self._stacked_circuits.add(circuits)
        streams = self.request_streams(len(requests))
        pmfs = self._evaluate_group(requests, streams)
        self._channel_evals.add(len(requests))
        return pmfs

    def _evaluate_group(
        self,
        requests: Sequence[ExecutionRequest],
        streams: Sequence[Optional[object]],
    ) -> List[PMF]:
        """Plan and evaluate one batch; one PMF per request, in order."""
        raise NotImplementedError  # pragma: no cover - abstract


class LocalExactBackend(_LocalBackend):
    """Closed-form noisy distributions (the infinite-trials limit).

    Trial counts in the requests are recorded but do not affect the
    output; the paper's experiments use this mode because fidelity
    saturates in trials (Fig. 7).  Deterministic and RNG-free.
    """

    name = "local-exact"
    deterministic = True

    def request_streams(self, count: int) -> List[Optional[object]]:
        # Exact evaluation never touches the sampler RNG; keeping the
        # spawn counter untouched preserves RNG-free exact runs.
        return [None] * count

    def _evaluate_group(
        self,
        requests: Sequence[ExecutionRequest],
        streams: Sequence[Optional[object]],
    ) -> List[PMF]:
        executables = [r.executable for r in requests]
        stacked, circuits = stacked_channel_counts(executables)
        self._stacked_evals.add(stacked)
        self._stacked_circuits.add(circuits)
        return [
            PMF.from_codes(codes, probs, num_bits)
            for codes, probs, num_bits in self.sampler.exact_group_distributions(
                executables
            )
        ]


class LocalSamplingBackend(_LocalBackend):
    """Finite-trial sampling through per-request seed streams.

    Every batch spawns one child stream per request index off the shared
    sampler stream, so a request's draws are a function of the sampler
    seed, the batch spawn counter, and its batch position only.  Results
    are reproducible from the sampler seed and — because streams never
    depend on evaluation order — identical to any sharded execution of
    the same batch (see :class:`~repro.runtime.parallel.ShardedBackend`).
    """

    name = "local-sampling"
    deterministic = False

    def request_streams(self, count: int) -> List[Optional[object]]:
        return list(self.sampler.spawn_streams(count))

    def _evaluate_group(
        self,
        requests: Sequence[ExecutionRequest],
        streams: Sequence[Optional[object]],
    ) -> List[PMF]:
        # Serial batches keep one stream (and therefore one sampling
        # group) per request.
        return [
            self.sampler.run_codes(
                request.executable, request.trials, rng=stream
            ).to_pmf()
            for request, stream in zip(requests, streams)
        ]


def local_backend(
    sampler: NoisySampler,
    exact: bool,
    metrics: Optional[MetricsRegistry] = None,
) -> Backend:
    """The default local backend for a sampler: exact or sampling."""
    if exact:
        return LocalExactBackend(sampler, metrics=metrics)
    return LocalSamplingBackend(sampler, metrics=metrics)

"""Jobs: the unit of work the mitigation service schedules.

A :class:`JobSpec` is a *serializable request* — tenant, program, device,
scheme, budget, seed — with no live objects, so specs can travel through
JSON job files, queues, and wire protocols.  The service resolves a spec
against its device/workload registries into a :class:`Job`, whose
**content fingerprint** (:func:`job_fingerprint`) keys the result store:
two specs with equal fingerprints are guaranteed to produce bit-for-bit
equal results (every input that can influence the output participates in
the hash), which is what makes memoization and cross-job deduplication
safe.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.qasm import from_qasm
from repro.exceptions import ServiceError
from repro.runtime.fingerprint import circuit_fingerprint, content_hash
from repro.runtime.session import SCHEME_NAMES
from repro.workloads.workload import Workload

__all__ = [
    "JobSpec",
    "SweepJobSpec",
    "JobStatus",
    "Job",
    "job_fingerprint",
    "resolve_spec_circuit",
    "spec_circuit",
]


def _integer(value: Any, name: str, minimum: Optional[int] = None) -> int:
    """``value`` as an ``int``; a bool, a float or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ServiceError(f"{name} must be an integer, not {value!r}")
    if minimum is not None and value < minimum:
        raise ServiceError(f"{name} must be >= {minimum}, not {value!r}")
    return int(value)


def _finite_real(value: Any, name: str) -> float:
    """``value`` as a finite ``float``; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ServiceError(f"{name} must be a real number, not {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not math.isfinite(real):
        raise ServiceError(f"{name} must be finite, not {value!r}")
    return real


def _entry_fields(payload: Any, known: set, what: str) -> Dict[str, Any]:
    """A JSON job entry's fields; a non-object or an unknown key raises."""
    if not isinstance(payload, Mapping):
        raise ServiceError(f"a {what} entry must be a JSON object, not {payload!r}")
    unknown = set(payload) - known
    if unknown:
        raise ServiceError(
            f"unknown {what} fields: {sorted(unknown, key=str)}; known: "
            f"{sorted(known)}"
        )
    return dict(payload)


class JobStatus(str, enum.Enum):
    """Lifecycle of a job inside the service.

    ``QUEUED -> RUNNING -> DONE | FAILED``; a submission the admission
    control refuses never enters the queue (the submit call raises
    :class:`~repro.exceptions.AdmissionError` instead), and a job whose
    fingerprint is already in the result store jumps straight to ``DONE``
    with ``source == "memoized"``.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """One mitigation request, as data.

    Attributes:
        tenant: fair-share accounting identity (free-form string).
        workload: suite name (``"GHZ-8"``, or anything registered via
            :func:`repro.workloads.register_workload`).  Exactly one of
            ``workload`` / ``qasm`` must be set.
        qasm: inline OpenQASM 2.0 text for ad-hoc programs.
        device: device short name (see
            :data:`repro.devices.DEVICE_FACTORIES`).
        scheme: one of :data:`~repro.runtime.session.SCHEME_NAMES`.
        total_trials: trial budget of the run (an integer >= 1).
        seed: the job's root seed (an integer >= 0) — results are
            bit-for-bit those of ``Session(device, seed=seed, ...)`` run
            solo.
        exact: closed-form noisy distributions vs sampled trials (a
            ``bool``: the JSON string ``"false"`` is refused, not truthy).
        priority: queue priority (an integer; higher drains first among
            pending).

    Every field is type-checked at construction, so a mistyped JSON entry
    raises :class:`~repro.exceptions.ServiceError` before it is queued.
    Integer fields refuse ``bool``.
    """

    tenant: str
    workload: Optional[str] = None
    qasm: Optional[str] = None
    device: str = "toronto"
    scheme: str = "jigsaw"
    total_trials: int = 32_768
    seed: int = 0
    exact: bool = True
    priority: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.tenant, str) or not self.tenant:
            raise ServiceError("a job needs a tenant (a non-empty string)")
        if not isinstance(self.device, str):
            raise ServiceError(f"device must be a string, not {self.device!r}")
        for name in ("workload", "qasm"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise ServiceError(f"{name} must be a string, not {value!r}")
        if (self.workload is None) == (self.qasm is None):
            raise ServiceError(
                "a job needs exactly one of 'workload' (a suite name) or "
                "'qasm' (inline OpenQASM text)"
            )
        if self.scheme not in SCHEME_NAMES:
            raise ServiceError(
                f"unknown scheme {self.scheme!r}; known: {SCHEME_NAMES}"
            )
        if not isinstance(self.exact, bool):
            raise ServiceError(f"exact must be true or false, not {self.exact!r}")
        for name, minimum in (("total_trials", 1), ("seed", 0), ("priority", None)):
            object.__setattr__(
                self, name, _integer(getattr(self, name), name, minimum)
            )

    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready spec (the `repro serve --jobs` file entry format)."""
        payload: Dict[str, Any] = {
            "tenant": self.tenant,
            "device": self.device,
            "scheme": self.scheme,
            "total_trials": self.total_trials,
            "seed": self.seed,
            "exact": self.exact,
            "priority": self.priority,
        }
        if self.workload is not None:
            payload["workload"] = self.workload
        if self.qasm is not None:
            payload["qasm"] = self.qasm
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        """Build a spec from a JSON job entry (unknown keys rejected).

        An entry carrying ``parameter_sets`` is a sweep request and
        resolves to :class:`SweepJobSpec` (so job files mix plain and
        sweep entries freely).
        """
        if (
            cls is JobSpec
            and isinstance(payload, Mapping)
            and "parameter_sets" in payload
        ):
            return SweepJobSpec.from_dict(payload)
        known = {
            "tenant", "workload", "qasm", "device", "scheme",
            "total_trials", "seed", "exact", "priority",
        }
        return cls(**_entry_fields(payload, known, "job-spec"))


@dataclass(frozen=True)
class SweepJobSpec(JobSpec):
    """A variational sweep request: one structure, K parameter points.

    The named workload must carry a ``template_circuit`` (its
    parameterized twin); the service compiles it once per structure and
    executes all K bound iterations as one coalesced stacked batch.
    ``parameter_sets`` rows follow the template's parameter order.
    ``total_trials`` is the *per-iteration* budget.
    """

    parameter_sets: Tuple[Tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.qasm is not None:
            raise ServiceError(
                "sweep jobs need a registered workload (inline QASM "
                "carries no parameters)"
            )
        if not isinstance(self.parameter_sets, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) for row in self.parameter_sets
        ):
            raise ServiceError("sweep parameter sets must be a list of rows")
        if not self.parameter_sets:
            raise ServiceError("a sweep job needs at least one parameter set")
        rows = tuple(
            tuple(_finite_real(v, "a sweep parameter") for v in row)
            for row in self.parameter_sets
        )
        widths = {len(row) for row in rows}
        if len(widths) != 1 or widths == {0}:
            raise ServiceError(
                "sweep parameter sets must be non-empty rows of one width"
            )
        object.__setattr__(self, "parameter_sets", rows)

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload["parameter_sets"] = [list(row) for row in self.parameter_sets]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepJobSpec":
        known = {
            "tenant", "workload", "qasm", "device", "scheme",
            "total_trials", "seed", "exact", "priority",
            "parameter_sets",
        }
        return cls(**_entry_fields(payload, known, "sweep-job"))


def job_fingerprint(spec: JobSpec, circuit: QuantumCircuit, device_key: str,
                    config_salt: str) -> str:
    """Content key of a job: everything that can influence its result.

    * the resolved **circuit content** (not the workload name — renaming
      a registered import must not defeat memoization, same rule as the
      compilation cache);
    * the **device fingerprint** (name + topology + calibration, so a
      recalibrated device never serves stale results);
    * scheme, budget, seed, and mode;
    * the service's compiler-knob salt (``config_salt``), because
      attempts/subset knobs change compiled artifacts.

    Tenant and priority are deliberately excluded: they affect *when* a
    job runs, never *what* it computes.  Sweep specs additionally fold
    in every parameter point — the sweep result is a function of the
    whole point list.
    """
    parts = [
        "job",
        spec.scheme,
        circuit_fingerprint(circuit),
        device_key,
        f"trials={spec.total_trials}",
        f"seed={spec.seed}",
        f"exact={spec.exact}",
        config_salt,
    ]
    if isinstance(spec, SweepJobSpec):
        parts.append("sweep")
        # Kept as a constant so stored sweep results keep their keys.
        parts.append("eps_rescore=None")
        parts.extend(
            ",".join(repr(v) for v in row) for row in spec.parameter_sets
        )
    return content_hash(tuple(parts))


_job_ids = itertools.count(1)
_job_ids_lock = threading.Lock()


def _next_job_id() -> str:
    with _job_ids_lock:
        return f"job-{next(_job_ids)}"


@dataclass
class Job:
    """A spec admitted into the service, with its lifecycle state.

    ``result`` is the JSON-ready payload of the finished run (the scheme
    result's ``to_dict()``, stamped with ``payload_version``); ``source``
    records how it was produced: ``"executed"`` (ran on the backend) or
    ``"memoized"`` (served from the result store).
    """

    spec: JobSpec
    workload: Optional[Workload] = field(default=None, repr=False)
    fingerprint: str = ""
    job_id: str = field(default_factory=_next_job_id)
    status: JobStatus = JobStatus.QUEUED
    result: Optional[Dict[str, Any]] = field(default=None, repr=False)
    error: Optional[str] = None
    source: Optional[str] = None
    #: Admission sequence number (FIFO tie-break within a priority).
    sequence: int = 0
    #: Execution attempts so far (the serving tier's retry accounting).
    attempts: int = 0
    #: Root telemetry span of the job's trace (set by a tracing
    #: supervisor at admission; ``None`` when tracing is off).  Live
    #: object, never serialized — compare/describe ignore it.
    trace: Optional[Any] = field(default=None, repr=False, compare=False)
    #: The in-flight ``queue_wait`` span, ended when a drain worker
    #: claims the job (cross-thread, hence stored on the job).
    queue_span: Optional[Any] = field(default=None, repr=False, compare=False)

    @property
    def done(self) -> bool:
        return self.status in (JobStatus.DONE, JobStatus.FAILED)

    def describe(self) -> Dict[str, Any]:
        """One JSON-ready status row (no result payload)."""
        return {
            "job_id": self.job_id,
            "tenant": self.spec.tenant,
            "workload": self.spec.workload or "<qasm>",
            "device": self.spec.device,
            "scheme": self.spec.scheme,
            "status": self.status.value,
            "source": self.source,
            "error": self.error,
        }


def spec_circuit(spec: JobSpec) -> QuantumCircuit:
    """Just the circuit a spec names — all :func:`job_fingerprint` needs.

    A suite name resolves through :func:`~repro.workloads.workload_by_name`,
    whose process-wide memo builds each built-in once: the first mention
    of a name pays its build (an ``Ising-n`` build includes an ideal-state
    simulation), every later one — the worker's
    :func:`resolve_spec_circuit` of the same job included — is a lookup.
    Inline QASM is parsed on every call, with no ideal-state simulation;
    that is left to :func:`resolve_spec_circuit`.
    """
    if spec.workload is not None:
        from repro.workloads.suite import workload_by_name

        return workload_by_name(spec.workload).circuit
    circuit = from_qasm(spec.qasm)
    if not circuit.num_measurements:
        circuit.measure_all()
    return circuit


def resolve_spec_circuit(spec: JobSpec) -> Workload:
    """The full workload a spec names (suite lookup or inline-QASM import).

    A suite name returns the shared, memoized workload — the object whose
    circuit :func:`spec_circuit` returned.  Inline QASM is imported afresh
    on every call, and its default correct-outcome set (the modal ideal
    outcomes) costs an ideal-state simulation each time.
    """
    if spec.workload is not None:
        from repro.workloads.suite import workload_by_name

        return workload_by_name(spec.workload)
    from repro.workloads.suite import modal_outcomes

    circuit = spec_circuit(spec)
    return Workload(
        name=f"qasm-{circuit_fingerprint(circuit)[:12]}",
        circuit=circuit,
        correct_outcomes=modal_outcomes(circuit),
        metadata={"source": "inline-qasm"},
    )

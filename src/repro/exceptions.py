"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the individual failure modes when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class CircuitError(ReproError):
    """Raised for malformed circuits or invalid circuit operations."""


class GateError(ReproError):
    """Raised when a gate is constructed or applied incorrectly."""


class SimulationError(ReproError):
    """Raised when a simulator cannot execute the requested circuit."""


class NoiseModelError(ReproError):
    """Raised for inconsistent or invalid noise-model definitions."""


class DeviceError(ReproError):
    """Raised for invalid device topologies or calibration data."""


class CompilationError(ReproError):
    """Raised when the compiler cannot map or route a circuit."""


class ReconstructionError(ReproError):
    """Raised when Bayesian reconstruction receives invalid inputs."""


class PMFError(ReproError):
    """Raised for invalid probability-mass-function operations."""


class WorkloadError(ReproError):
    """Raised when a benchmark workload is requested with bad parameters."""


class MitigationError(ReproError):
    """Raised when an error-mitigation routine receives invalid inputs."""


class ExperimentError(ReproError):
    """Raised when an experiment is configured inconsistently."""


class PayloadError(ReproError):
    """Raised for malformed or incompatible serialized result payloads."""


class ServiceError(ReproError):
    """Raised for invalid job-service requests or service misuse."""


class AdmissionError(ServiceError):
    """Raised when the job service rejects a submission (backpressure, a
    tenant exceeding its fair share of the pending queue, or a job that
    cannot be built)."""

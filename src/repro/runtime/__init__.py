"""The execution runtime: backends, plans, caching, sessions.

This package is the production seam of the reproduction: the JigSaw
pipeline factored into first-class, cacheable stages —

``plan``    compile the global circuit + CPMs into an
            :class:`~repro.runtime.plan.ExecutionPlan`;
``cache``   reuse plans across runs via
            :class:`~repro.runtime.cache.CompilationCache`;
``execute`` evaluate a plan's batch on the one execution engine,
            :class:`~repro.runtime.backend.LocalBackend`;
``session`` bind device + backend + cache in a
            :class:`~repro.runtime.session.Session`.

See ``docs/ARCHITECTURE.md`` for the full design.
"""

from repro.runtime.backend import ExecutionRequest, LocalBackend
from repro.runtime.cache import CompilationCache
from repro.runtime.fingerprint import (
    circuit_fingerprint,
    config_fingerprint,
    executable_fingerprint,
    unitary_body_fingerprint,
)
from repro.runtime.plan import ExecutionPlan, PlanLayer

# ``session`` sits above ``repro.core`` in the layer stack, while
# ``repro.core.jigsaw`` imports the backend/plan/cache leaves of this
# package (which executes this __init__).  Loading session eagerly here
# would close that cycle, so its exports resolve lazily (PEP 562).
_SESSION_EXPORTS = (
    "Session",
    "Metrics",
    "SCHEME_NAMES",
    "ParameterSweep",
    "PreparedSweep",
    "SweepResult",
)


def __getattr__(name: str):
    if name in _SESSION_EXPORTS:
        from repro.runtime import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExecutionRequest",
    "LocalBackend",
    "CompilationCache",
    "ExecutionPlan",
    "PlanLayer",
    "Session",
    "Metrics",
    "SCHEME_NAMES",
    "ParameterSweep",
    "PreparedSweep",
    "SweepResult",
    "circuit_fingerprint",
    "config_fingerprint",
    "executable_fingerprint",
    "unitary_body_fingerprint",
]

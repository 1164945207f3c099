"""repro — reproduction of JigSaw (MICRO 2021).

JigSaw boosts the fidelity of NISQ programs by running half of the trials
with all qubits measured (global mode) and half with small measured subsets
(subset mode), then Bayesian-updating the global PMF with the high-fidelity
local PMFs.  See ``docs/ARCHITECTURE.md`` for the system design — in
particular the runtime API (plan -> compile -> batch-execute ->
reconstruct) and how the legacy entry points map onto it.

Public API highlights::

    from repro import QuantumCircuit, JigSaw, JigSawMConfig
    from repro.devices import ibmq_toronto
    from repro.runtime import Session
    from repro.workloads import ghz

    device = ibmq_toronto(seed=7)
    program = ghz(4).circuit
    result = JigSaw(device, seed=11).run(program, total_trials=8192)
    print(result.output_pmf.top(3))
    multi = JigSaw(device, JigSawMConfig(), seed=11)   # JigSaw-M
    print(multi.run(program, total_trials=8192).marginals_by_size.keys())

    session = Session(device, seed=11)          # device + backend + cache
    plan = session.plan(ghz(4))                 # compile once, inspect
    print(session.run(plan).output_pmf.top(3))  # batch-execute + reconstruct
"""

from repro.circuits import Gate, Instruction, QuantumCircuit
from repro.core import (
    PMF,
    JigSaw,
    JigSawMConfig,
    Marginal,
    bayesian_reconstruction,
    bayesian_update,
)
from repro.runtime import CompilationCache, ExecutionPlan, Session
from repro.service import JobSpec
from repro.version import __version__

__all__ = [
    "Gate",
    "Instruction",
    "QuantumCircuit",
    "__version__",
    "PMF",
    "Marginal",
    "JigSaw",
    "JigSawMConfig",
    "bayesian_reconstruction",
    "bayesian_update",
    "Session",
    "ExecutionPlan",
    "CompilationCache",
    "JobSpec",
]

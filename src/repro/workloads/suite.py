"""The paper's benchmark suite (Table 2 / Figure 8 x-axis).

Besides the paper's built-in families, external OpenQASM circuits —
QASMBench-style files in particular (Li et al., "QASMBench: A Low-Level
QASM Benchmark Suite for NISQ Evaluation and Simulation", ACM TQC 2022)
— can join the suite via :func:`from_qasm_file` /
:func:`register_workload`; once registered they resolve through
:func:`workload_by_name` exactly like the built-ins, so the CLI, the
experiments, and the service layer's job specs can all reference them.
"""

from __future__ import annotations

import math
import os
import re
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.qasm import from_qasm
from repro.exceptions import WorkloadError
from repro.workloads.qaoa import qaoa_maxcut
from repro.workloads.standard import bv, ghz, graycode, ising
from repro.workloads.workload import Workload

__all__ = [
    "paper_suite",
    "workload_by_name",
    "PAPER_SUITE_NAMES",
    "from_qasm_file",
    "modal_outcomes",
    "register_workload",
    "registered_workloads",
]

#: The nine benchmarks of Figure 8, in the paper's order.
PAPER_SUITE_NAMES = (
    "BV-6",
    "QAOA-8 p1",
    "QAOA-10 p2",
    "QAOA-10 p4",
    "QAOA-12 p4",
    "QAOA-14 p2",
    "Ising-10",
    "GHZ-14",
    "Graycode-18",
)

_NAME_PATTERN = re.compile(
    r"^(?P<family>BV|GHZ|Graycode|Ising|QAOA)-(?P<size>\d+)"
    r"(?:\s+p(?P<depth>\d+))?$"
)


#: External workloads registered at runtime (QASM imports and friends),
#: resolvable through :func:`workload_by_name` alongside the built-ins.
_REGISTERED: Dict[str, Workload] = {}

#: Built-in workloads :func:`workload_by_name` keeps per process, least
#: recently used first out.  A serving tier resolves each job's name at
#: admission and again in its worker, and an ``Ising-n`` build runs a
#: statevector, so a repeated name must not rebuild.
WORKLOAD_MEMO_SIZE = 64

_BUILT: "OrderedDict[Tuple[str, int, int], Workload]" = OrderedDict()
_BUILT_LOCK = threading.Lock()


def register_workload(workload: Workload) -> Workload:
    """Register ``workload`` so :func:`workload_by_name` can resolve it.

    Registration is by display name and overwrites a previous entry of
    the same name (re-importing a tweaked QASM file picks up the new
    circuit).  Built-in family names (``GHZ-14`` etc.) cannot be
    shadowed.
    """
    if _NAME_PATTERN.match(workload.name.strip()):
        raise WorkloadError(
            f"cannot register {workload.name!r}: it shadows a built-in "
            "workload family name"
        )
    _REGISTERED[workload.name] = workload
    return workload


def registered_workloads() -> List[str]:
    """Names of the externally registered workloads, sorted."""
    return sorted(_REGISTERED)


def workload_by_name(name: str) -> Workload:
    """The benchmark of a paper name (or a registered import), shared.

    Names follow the paper's convention: ``"BV-6"``, ``"GHZ-14"``,
    ``"Graycode-18"``, ``"Ising-10"``, and ``"QAOA-12 p4"`` (depth
    defaults to 1 when the ``pK`` suffix is omitted).  Workloads
    registered via :func:`register_workload` / :func:`from_qasm_file`
    resolve by their registered name first and are never memoized, since
    a later registration may replace them.

    A built-in is built once per process and kept in a
    :data:`WORKLOAD_MEMO_SIZE`-entry LRU, so every call naming it returns
    the same :class:`Workload` object — as a registered name always did.
    Treat it as read-only: it is shared by every caller in the process.
    """
    registered = _REGISTERED.get(name.strip())
    if registered is not None:
        return registered
    match = _NAME_PATTERN.match(name.strip())
    if not match:
        raise WorkloadError(
            f"unknown workload {name!r}; expected e.g. 'GHZ-14', "
            f"'QAOA-10 p2', or a registered name "
            f"(registered: {registered_workloads() or 'none'})"
        )
    key = (
        match.group("family"),
        int(match.group("size")),
        int(match.group("depth") or 1),
    )
    with _BUILT_LOCK:
        workload = _BUILT.get(key)
        if workload is not None:
            _BUILT.move_to_end(key)
            return workload
    # Built outside the lock: a slow build never blocks other names.  Two
    # first callers may both build; the first to store wins, and both
    # builds are equal (a build is a pure function of the name).
    workload = _build(*key)
    with _BUILT_LOCK:
        workload = _BUILT.setdefault(key, workload)
        _BUILT.move_to_end(key)
        while len(_BUILT) > WORKLOAD_MEMO_SIZE:
            _BUILT.popitem(last=False)
    return workload


def _build(family: str, size: int, depth: int) -> Workload:
    if family == "BV":
        return bv(size)
    if family == "GHZ":
        return ghz(size)
    if family == "Graycode":
        return graycode(size)
    if family == "Ising":
        return ising(size)
    return qaoa_maxcut(size, depth=depth)


def from_qasm_file(
    path: str,
    name: Optional[str] = None,
    correct_outcomes: Optional[Sequence[str]] = None,
    register: bool = True,
) -> Workload:
    """Import an external OpenQASM 2.0 circuit as a suite :class:`Workload`.

    Built for QASMBench-style files (Li et al., ACM TQC 2022): the parser
    tolerates comments, ``include`` lines, blank/``barrier`` lines,
    arbitrary register names, and register-broadcast statements (see
    :mod:`repro.circuits.qasm`).  A circuit without measurements gets
    ``measure_all()`` appended — JigSaw needs outcome bits to subset.

    Args:
        path: the ``.qasm`` file.
        name: display/registry name; defaults to the file stem.
        correct_outcomes: outcomes counted as success for PST/IST.
            Defaults to the modal outcome(s) of the ideal distribution —
            the convention the paper's suite uses for its benchmarks.
        register: also :func:`register_workload` it (default), so
            ``workload_by_name(name)`` — and therefore the CLI and the
            service layer's job specs — can resolve it.
    """
    with open(path) as handle:
        circuit = from_qasm(handle.read())
    if not circuit.num_measurements:
        circuit.measure_all()
    workload = Workload(
        name=name or os.path.splitext(os.path.basename(path))[0],
        circuit=circuit,
        correct_outcomes=tuple(correct_outcomes)
        if correct_outcomes is not None
        else modal_outcomes(circuit),
        metadata={"source": "qasm", "path": os.path.abspath(path)},
    )
    if register:
        register_workload(workload)
    return workload


def modal_outcomes(circuit) -> tuple:
    """The maximum-probability ideal outcome(s) of ``circuit`` (ties kept).

    The default "correct outcomes" convention for external imports whose
    intended answer set is not declared in the file.
    """
    from repro.sim.statevector import StatevectorSimulator

    ideal = StatevectorSimulator().ideal_distribution(circuit)
    peak = max(ideal.values())
    return tuple(
        sorted(
            outcome
            for outcome, probability in ideal.items()
            if math.isclose(probability, peak, rel_tol=1e-9, abs_tol=1e-12)
        )
    )


def paper_suite() -> List[Workload]:
    """The full nine-benchmark suite of Figure 8."""
    return [workload_by_name(name) for name in PAPER_SUITE_NAMES]

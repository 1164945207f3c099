"""Stable content fingerprints for circuits, configs, and executables.

The :class:`~repro.runtime.cache.CompilationCache` keys compiled artifacts
by *content*, not by object identity or workload name: two structurally
identical programs hash to the same fingerprint even when built by
different code paths.  Fingerprints are hex SHA-256 digests, so they are
safe to use as dictionary keys, file names, or wire identifiers.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.circuits.circuit import QuantumCircuit
    from repro.compiler.layout import Layout
    from repro.compiler.pipeline import ExecutableCircuit
    from repro.devices.device import Device

__all__ = [
    "content_hash",
    "circuit_fingerprint",
    "unitary_body_fingerprint",
    "body_fingerprint",
    "structure_fingerprint",
    "config_fingerprint",
    "device_fingerprint",
    "executable_fingerprint",
    "layout_fingerprint",
    "routing_fingerprint",
]


def _hash(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


def content_hash(parts: Sequence[str]) -> str:
    """Hex SHA-256 over a part sequence — the shared key constructor.

    Public for composite content keys built outside this module (e.g. the
    service layer's job fingerprints), so every cache key in the system
    hashes the same way.
    """
    return _hash(parts)


def _instruction_token(instruction) -> str:
    # Instructions are immutable and widely shared (bind-many reuses
    # every non-parameterized instruction object across all K bound
    # copies), so the token is cached on the instance: each shared
    # instruction tokenises once per process, not once per fingerprint.
    token = instruction.__dict__.get("_token")
    if token is not None:
        return token
    from repro.circuits.parameter import param_token

    if instruction.is_gate:
        params = ",".join(param_token(p) for p in instruction.gate.params)
        token = f"g|{instruction.gate.name}|{params}|{instruction.qubits}"
    else:
        token = f"{instruction.kind}|{instruction.qubits}|{instruction.clbits}"
    object.__setattr__(instruction, "_token", token)
    return token


def _structure_token(instruction) -> str:
    """Like :func:`_instruction_token` but with angles replaced by arity.

    Bound and symbolic instances of one rotation collapse to the same
    token, so structure-keyed fingerprints are parameter-independent.
    """
    if instruction.is_gate:
        gate = instruction.gate
        return f"g|{gate.name}|<{len(gate.params)}>|{instruction.qubits}"
    return f"{instruction.kind}|{instruction.qubits}|{instruction.clbits}"


def circuit_fingerprint(circuit: "QuantumCircuit") -> str:
    """Content hash of a circuit: dimensions plus every instruction.

    The circuit *name* is deliberately excluded — renaming a program must
    not defeat the compilation cache.
    """
    parts = [f"dims|{circuit.num_qubits}|{circuit.num_clbits}"]
    parts.extend(_instruction_token(ins) for ins in circuit.instructions)
    return _hash(parts)


def unitary_body_fingerprint(circuit: "QuantumCircuit") -> str:
    """Content hash of the unitary part only (measurements excluded).

    The global circuit and all of its CPMs share one unitary body
    (paper §4.2.1), so they share this fingerprint — the backends use it
    to compute one statevector per body across a whole batch.
    """
    parts = [f"body|{circuit.num_qubits}"]
    parts.extend(
        _instruction_token(ins)
        for ins in circuit.instructions
        if ins.is_gate
    )
    return _hash(parts)


def body_fingerprint(circuit: "QuantumCircuit") -> str:
    """Content hash of the measurement-free body, as the *router* sees it.

    Unlike :func:`unitary_body_fingerprint` this keeps barriers (they
    constrain the routing DAG), and unlike :func:`circuit_fingerprint` it
    ignores measurements and the classical register width — a program and
    all of its CPMs share this fingerprint, which is what lets the
    pipeline's Route stage share routed bodies across every measured
    subset (the route-once invariant).

    Rotation *angles* are excluded (tokens carry only the parameter
    arity): placement, routing, and measurement retargeting read gate
    structure and topology, never angle values, so every binding of a
    parameterized circuit — and the symbolic template itself — shares one
    routed body.  This is the parameter-independence invariant that lets
    a K-iteration variational sweep route once.
    """
    parts = [f"routed-body|{circuit.num_qubits}"]
    parts.extend(
        _structure_token(ins)
        for ins in circuit.instructions
        if not ins.is_measure
    )
    return _hash(parts)


def structure_fingerprint(circuit: "QuantumCircuit") -> str:
    """Content hash of the full circuit shape, ignoring rotation angles.

    The whole-circuit twin of :func:`body_fingerprint`: dimensions,
    gate structure (angle-free), barriers, *and* measurements all
    participate.  Every binding of one parameterized circuit — and the
    symbolic template — shares this fingerprint, so it keys the plan
    template cache: same structure, same routed plan skeleton.
    """
    parts = [f"structure|{circuit.num_qubits}|{circuit.num_clbits}"]
    parts.extend(_structure_token(ins) for ins in circuit.instructions)
    return _hash(parts)


def config_fingerprint(config, exclude: Sequence[str] = ()) -> str:
    """Content hash of a configuration dataclass (field name/value pairs).

    The class name participates, so :class:`JigSawConfig` and
    :class:`JigSawMConfig` with coincidentally equal fields never collide.
    ``exclude`` drops named fields from the hash — cache keys use it to
    ignore knobs that cannot affect the compiled artifact (reconstruction
    tolerance, exact vs sampled, thread counts), so e.g. a tolerance
    sweep still hits the compilation cache.
    """
    if not is_dataclass(config):
        raise TypeError(f"expected a dataclass config, got {type(config)!r}")
    excluded = set(exclude)
    parts = [type(config).__name__]
    for f in fields(config):
        if f.name in excluded:
            continue
        parts.append(f"{f.name}={getattr(config, f.name)!r}")
    return _hash(parts)


def device_fingerprint(device: "Device") -> str:
    """Content hash of a device: name, topology, and full calibration.

    Two ``Device`` objects that share a name but differ in coupling or
    error rates (e.g. a noise-scaled variant in a sweep) must never share
    compiled artifacts — routing depends on the distance matrix and EPS
    on the calibration — so stage-cache keys carry this fingerprint, not
    the bare name.
    """
    cal = device.calibration
    parts = [
        "device",
        device.name,
        str(device.num_qubits),
        repr(sorted(device.edges)),
        cal.p01.tobytes().hex(),
        cal.p10.tobytes().hex(),
        cal.crosstalk.tobytes().hex(),
        cal.gate_error_1q.tobytes().hex(),
        repr(sorted(cal.gate_error_2q.items())),
    ]
    return _hash(parts)


def layout_fingerprint(layout: "Layout") -> str:
    """Content hash of a logical -> physical qubit layout."""
    parts = ["layout"]
    parts.extend(f"{logical}->{physical}" for logical, physical in layout.items())
    return _hash(parts)


def routing_fingerprint(
    device_key: str, body_fingerprint: str, layout: "Layout"
) -> str:
    """Content key of one routing problem: device + body + initial layout.

    ``device_key`` is a :func:`device_fingerprint` (callers cache it; the
    bare device *name* is not enough, see there).  This is the per-stage
    cache key of the pipeline's Route stage — and, hashed down to 64
    bits, the seed of the router's tie-break stream, so routing is a pure
    function of this fingerprint (the route-once invariant: equal keys
    always yield the identical routed body).
    """
    return _hash(["route", device_key, body_fingerprint, layout_fingerprint(layout)])


def executable_fingerprint(executable: "ExecutableCircuit") -> str:
    """Content hash of a compiled artifact (physical schedule + layouts)."""
    parts = [
        "exe",
        circuit_fingerprint(executable.physical),
        repr(sorted(executable.initial_layout.as_dict().items())),
        repr(sorted(executable.final_layout.as_dict().items())),
    ]
    return _hash(parts)

"""Minimal OpenQASM 2.0 serialisation for :class:`QuantumCircuit`.

Supports the gate set of :mod:`repro.circuits.gates` plus ``measure`` and
``barrier``.  The importer accepts the exporter's output (round-trip safe)
and the flat-circuit subset of OpenQASM 2.0 emitted by other tools —
QASMBench-style files in particular (Li et al., "QASMBench: A Low-Level
QASM Benchmark Suite for NISQ Evaluation and Simulation", 2022):

* ``//`` line comments and ``/* ... */`` block comments anywhere;
* blank lines, ``include`` lines, and statements split across lines
  (the text is parsed per ``;``-terminated statement, not per line);
* arbitrary register names, multiple ``qreg``/``creg`` declarations
  (registers concatenate into one index space in declaration order);
* register-broadcast forms: ``barrier q;``, ``measure q -> c;``, and
  single-argument gate broadcast (``h q;``).

Custom ``gate``/``opaque`` definitions and classical control (``if``,
``reset``) are outside the subset and raise a clear
:class:`~repro.exceptions.CircuitError` instead of misparsing.
"""

from __future__ import annotations

import math
import re
from typing import List

from repro.circuits.circuit import QuantumCircuit
from repro.exceptions import CircuitError

__all__ = ["to_qasm", "from_qasm"]

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

def to_qasm(circuit: QuantumCircuit) -> str:
    """Serialise ``circuit`` to an OpenQASM 2.0 string."""
    lines: List[str] = [_HEADER.rstrip("\n")]
    lines.append(f"qreg q[{circuit.num_qubits}];")
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    for ins in circuit.instructions:
        if ins.kind == "barrier":
            args = ",".join(f"q[{q}]" for q in ins.qubits)
            lines.append(f"barrier {args};")
        elif ins.kind == "measure":
            lines.append(f"measure q[{ins.qubits[0]}] -> c[{ins.clbits[0]}];")
        else:
            gate = ins.gate
            args = ",".join(f"q[{q}]" for q in ins.qubits)
            if gate.params:
                params = ",".join(_format_angle(p) for p in gate.params)
                lines.append(f"{gate.name}({params}) {args};")
            else:
                lines.append(f"{gate.name} {args};")
    return "\n".join(lines) + "\n"


def _format_angle(value: float) -> str:
    """Render an angle, using pi fractions where exact for readability."""
    for num in range(-8, 9):
        if num == 0:
            continue
        for den in (1, 2, 3, 4, 6, 8):
            if math.gcd(abs(num), den) != 1:
                continue
            if math.isclose(value, num * math.pi / den, rel_tol=0, abs_tol=1e-12):
                sign = "-" if num < 0 else ""
                mag = abs(num)
                numerator = "pi" if mag == 1 else f"{mag}*pi"
                return f"{sign}{numerator}/{den}" if den != 1 else f"{sign}{numerator}"
    if math.isclose(value, 0.0, abs_tol=1e-15):
        return "0"
    return repr(float(value))


def _parse_angle(text: str) -> float:
    """Parse an angle expression such as ``pi/2``, ``-3*pi/4`` or ``0.5``.

    A zero denominator or a non-finite value (``1e999``, ``inf``,
    ``nan``) raises :class:`~repro.exceptions.CircuitError`.
    """
    text = text.strip().replace(" ", "")
    match = re.fullmatch(r"(-?)(?:(\d+)\*)?pi(?:/(\d+))?", text)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        num = float(match.group(2)) if match.group(2) else 1.0
        den = float(match.group(3)) if match.group(3) else 1.0
        if den == 0.0:
            raise CircuitError(f"zero denominator in angle: {text!r}")
        value = sign * num * math.pi / den
    else:
        try:
            value = float(text)
        except ValueError as exc:
            raise CircuitError(f"cannot parse angle: {text!r}") from exc
    if not math.isfinite(value):
        raise CircuitError(f"angle is not finite: {text!r}")
    return value


def _split_args(arglist: str) -> List[str]:
    return [a for a in (part.strip() for part in arglist.split(",")) if a]


def _strip_comments(text: str) -> str:
    """Remove ``/* ... */`` block comments and ``//`` line comments."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


_REG_DECL = re.compile(r"^(qreg|creg)\s+([A-Za-z_]\w*)\s*\[\s*(\d+)\s*\]$")
_REG_ARG = re.compile(r"^([A-Za-z_]\w*)(?:\s*\[\s*(\d+)\s*\])?$")
_UNSUPPORTED = {
    "gate": "custom gate definitions",
    "opaque": "opaque gate declarations",
    "if": "classically-controlled statements",
    "reset": "reset statements",
}


class _Registers:
    """Named registers concatenated into one flat index space."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.offsets: dict = {}
        self.sizes: dict = {}
        self.total = 0

    def declare(self, name: str, size: int) -> None:
        if name in self.offsets:
            raise CircuitError(f"duplicate {self.kind} declaration: {name!r}")
        self.offsets[name] = self.total
        self.sizes[name] = size
        self.total += size

    def resolve(self, arg: str, statement: str) -> List[int]:
        """Flat indices for one argument: ``name[i]`` or a bare ``name``
        (broadcast: every index of the register, in order)."""
        match = _REG_ARG.fullmatch(arg.strip())
        if not match or match.group(1) not in self.offsets:
            raise CircuitError(
                f"unknown {self.kind} argument {arg!r} in: {statement!r}"
            )
        name, index = match.group(1), match.group(2)
        offset, size = self.offsets[name], self.sizes[name]
        if index is None:
            return list(range(offset, offset + size))
        if int(index) >= size:
            raise CircuitError(
                f"{self.kind} index out of range in: {statement!r}"
            )
        return [offset + int(index)]


def from_qasm(text: str) -> QuantumCircuit:
    """Parse the flat-circuit OpenQASM 2.0 subset (see the module docs)."""
    cleaned = _strip_comments(text)
    for keyword, what in _UNSUPPORTED.items():
        if re.search(rf"(^|[;\s]){keyword}[\s(]", cleaned):
            raise CircuitError(
                f"{what} are not supported by the flat-circuit QASM subset"
            )
    fragments = cleaned.split(";")
    if fragments[-1].strip():
        raise CircuitError(f"missing semicolon after: {fragments[-1].strip()!r}")
    statements = [
        " ".join(fragment.split()) for fragment in fragments[:-1]
    ]
    statements = [s for s in statements if s]

    qregs = _Registers("qubit")
    cregs = _Registers("clbit")
    body: List[str] = []
    for statement in statements:
        if statement.startswith(("OPENQASM", "include")):
            continue
        decl = _REG_DECL.fullmatch(statement)
        if decl:
            kind, name, size = decl.group(1), decl.group(2), int(decl.group(3))
            (qregs if kind == "qreg" else cregs).declare(name, size)
            continue
        body.append(statement)
    if qregs.total == 0:
        raise CircuitError("QASM text declares no qreg")

    circuit = QuantumCircuit(qregs.total, cregs.total or qregs.total)
    for statement in body:
        if statement.startswith("measure"):
            match = re.fullmatch(r"measure\s+(.+?)\s*->\s*(.+)", statement)
            if not match:
                raise CircuitError(f"bad measure statement: {statement!r}")
            qubits = qregs.resolve(match.group(1), statement)
            clbits = cregs.resolve(match.group(2), statement)
            if len(qubits) != len(clbits):
                raise CircuitError(
                    f"measure arity mismatch in: {statement!r}"
                )
            for qubit, clbit in zip(qubits, clbits):
                circuit.measure(qubit, clbit)
            continue
        if statement.startswith("barrier"):
            args = _split_args(statement[len("barrier"):])
            qubits = [
                index
                for arg in (args or list(qregs.offsets))
                for index in qregs.resolve(arg, statement)
            ]
            circuit.barrier(*qubits)
            continue
        match = re.fullmatch(r"([A-Za-z_]\w*)(?:\(([^)]*)\))?\s+(.*)", statement)
        if not match:
            raise CircuitError(f"cannot parse statement: {statement!r}")
        name, params_text, args_text = match.groups()
        params = tuple(
            _parse_angle(p) for p in _split_args(params_text or "")
        )
        from repro.circuits.gates import Gate  # local import avoids cycle

        targets = [qregs.resolve(arg, statement) for arg in _split_args(args_text)]
        if all(len(t) == 1 for t in targets):
            circuit.apply_gate(Gate(name, params), *(t[0] for t in targets))
        elif len(targets) == 1:
            # Single-argument register broadcast: ``h q;`` applies to
            # every qubit of the register, in order.
            for qubit in targets[0]:
                circuit.apply_gate(Gate(name, params), qubit)
        else:
            raise CircuitError(
                f"register broadcast over multiple arguments is not "
                f"supported: {statement!r}"
            )
    return circuit

"""Quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` objects
over ``num_qubits`` qubits and ``num_clbits`` classical bits.  The IR is
deliberately small: unitary gates, measurements, and barriers are the only
instruction kinds, which covers every circuit in the JigSaw paper (NISQ
programs have no mid-circuit control flow).

Bit-ordering convention (used consistently across the library):
    Measurement outcomes are reported as bitstrings in **IBM order** — the
    classical bit ``c`` occupies string position ``num_clbits - 1 - c``, so
    clbit 0 is the *rightmost* character.  A 3-qubit program with qubits
    (Q2, Q1, Q0) measured to clbits (2, 1, 0) therefore reads ``"Q2Q1Q0"``,
    exactly as in the paper's Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.circuits.gates import Gate
from repro.circuits.parameter import Parameter, is_symbolic
from repro.exceptions import CircuitError

__all__ = ["Instruction", "QuantumCircuit"]


@dataclass(frozen=True)
class Instruction:
    """A single circuit operation.

    Attributes:
        kind: ``"gate"``, ``"measure"`` or ``"barrier"``.
        gate: the :class:`Gate` when ``kind == "gate"``, else ``None``.
        qubits: qubit indices the instruction touches.
        clbits: classical bit indices (non-empty only for measurements).
    """

    kind: str
    gate: Optional[Gate]
    qubits: Tuple[int, ...]
    clbits: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in {"gate", "measure", "barrier"}:
            raise CircuitError(f"unknown instruction kind: {self.kind!r}")
        if self.kind == "gate":
            if self.gate is None:
                raise CircuitError("gate instruction requires a Gate")
            if len(self.qubits) != self.gate.num_qubits:
                raise CircuitError(
                    f"gate {self.gate.name!r} expects {self.gate.num_qubits} "
                    f"qubits, got {len(self.qubits)}"
                )
        if self.kind == "measure" and len(self.qubits) != len(self.clbits):
            raise CircuitError("measure requires one clbit per qubit")
        if len(set(self.qubits)) != len(self.qubits):
            raise CircuitError(f"duplicate qubits in instruction: {self.qubits}")

    def bound(
        self,
        by_name: Dict[str, float],
        memo: Optional[Dict[int, "Instruction"]] = None,
    ) -> "Instruction":
        """Bind a parameterized gate instruction without re-validation.

        The prototype instruction already passed construction-time checks
        and binding changes only the parameter values — never the gate
        name, arity, or wiring — so the copy skips ``__post_init__``.
        ``Parameter.bind``/``ParameterExpression.bind`` return plain
        floats, matching the normalisation ``Gate.__post_init__`` would
        apply; concrete params were normalised when the prototype was
        built and pass through unchanged.  The (name, value) recipe is
        cached on the immutable prototype — the bind-many hot loop then
        skips the per-parameter symbolic dispatch.

        ``memo`` (keyed by prototype instruction identity, scoped to one
        bind) lets circuits that share instruction objects — a routed
        body and its CPM variants — share the bound copies too, so each
        shared instruction binds once per parameter point.
        """
        if memo is not None:
            cached = memo.get(id(self))
            if cached is not None:
                return cached
        gate = self.gate
        recipe = self.__dict__.get("_bind_recipe")
        if recipe is None:
            recipe = tuple(
                (p.name, p) if is_symbolic(p) else (None, p)
                for p in gate.params
            )
            object.__setattr__(self, "_bind_recipe", recipe)
        if len(recipe) == 1:
            name, obj = recipe[0]
            if name is not None and name in by_name:
                obj = obj.bind(by_name[name])
            params = (obj,)
        else:
            params = tuple(
                obj if name is None or name not in by_name
                else obj.bind(by_name[name])
                for name, obj in recipe
            )
        new_gate = object.__new__(Gate)
        object.__setattr__(new_gate, "name", gate.name)
        object.__setattr__(new_gate, "params", params)
        out = Instruction.unchecked_gate(new_gate, self.qubits)
        if memo is not None:
            memo[id(self)] = out
        return out

    @staticmethod
    def unchecked_gate(gate: Gate, qubits: Tuple[int, ...]) -> "Instruction":
        """A gate instruction built without ``__post_init__``'s checks.

        For callers that guarantee them — ``qubits`` distinct and as many
        as ``gate`` takes — because they copy an instruction that passed
        them: a bind keeps the wiring, a router maps distinct logical
        qubits to distinct physical ones.
        """
        out = object.__new__(Instruction)
        object.__setattr__(out, "kind", "gate")
        object.__setattr__(out, "gate", gate)
        object.__setattr__(out, "qubits", qubits)
        object.__setattr__(out, "clbits", ())
        return out

    @property
    def is_gate(self) -> bool:
        return self.kind == "gate"

    @property
    def is_measure(self) -> bool:
        return self.kind == "measure"

    @property
    def is_two_qubit_gate(self) -> bool:
        return self.kind == "gate" and len(self.qubits) == 2


class QuantumCircuit:
    """An ordered sequence of instructions over qubits and classical bits.

    The builder methods (``h``, ``cx``, ...) mirror the gate library and
    return ``self`` so construction chains naturally::

        qc = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
    """

    def __init__(
        self,
        num_qubits: int,
        num_clbits: Optional[int] = None,
        name: str = "circuit",
    ) -> None:
        if num_qubits <= 0:
            raise CircuitError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else int(num_qubits)
        if self.num_clbits < 0:
            raise CircuitError("num_clbits must be non-negative")
        self.name = name
        self._instructions: List[Instruction] = []

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------

    @property
    def instructions(self) -> Tuple[Instruction, ...]:
        """Immutable view of the instruction list."""
        return tuple(self._instructions)

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self.num_clbits == other.num_clbits
            and self._instructions == other._instructions
        )

    # ------------------------------------------------------------------
    # Low-level append
    # ------------------------------------------------------------------

    def _check_qubits(self, qubits: Sequence[int]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise CircuitError(
                    f"qubit {q} out of range for {self.num_qubits}-qubit circuit"
                )

    def _check_clbits(self, clbits: Sequence[int]) -> None:
        for c in clbits:
            if not 0 <= c < self.num_clbits:
                raise CircuitError(
                    f"clbit {c} out of range for {self.num_clbits} classical bits"
                )

    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a pre-built :class:`Instruction` (validated against sizes)."""
        self._check_qubits(instruction.qubits)
        self._check_clbits(instruction.clbits)
        self._instructions.append(instruction)
        return self

    def apply_gate(self, gate: Gate, *qubits: int) -> "QuantumCircuit":
        """Append ``gate`` on ``qubits``."""
        return self.append(Instruction("gate", gate, tuple(qubits)))

    # ------------------------------------------------------------------
    # Named gate builders
    # ------------------------------------------------------------------

    def id(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("id"), qubit)

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("x"), qubit)

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("y"), qubit)

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("z"), qubit)

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("h"), qubit)

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("s"), qubit)

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("sdg"), qubit)

    def t(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("t"), qubit)

    def tdg(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("tdg"), qubit)

    def sx(self, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("sx"), qubit)

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("rx", (theta,)), qubit)

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("ry", (theta,)), qubit)

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("rz", (theta,)), qubit)

    def p(self, theta: float, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("p", (theta,)), qubit)

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("u3", (theta, phi, lam)), qubit)

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("cx"), control, target)

    def cz(self, q0: int, q1: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("cz"), q0, q1)

    def swap(self, q0: int, q1: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("swap"), q0, q1)

    def rzz(self, theta: float, q0: int, q1: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("rzz", (theta,)), q0, q1)

    def cp(self, theta: float, q0: int, q1: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("cp", (theta,)), q0, q1)

    def ccx(self, c0: int, c1: int, target: int) -> "QuantumCircuit":
        return self.apply_gate(Gate("ccx"), c0, c1, target)

    # ------------------------------------------------------------------
    # Non-unitary instructions
    # ------------------------------------------------------------------

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        """Measure ``qubit`` into classical bit ``clbit``."""
        return self.append(Instruction("measure", None, (qubit,), (clbit,)))

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit ``q`` into classical bit ``q``."""
        if self.num_clbits < self.num_qubits:
            raise CircuitError("measure_all needs one clbit per qubit")
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Append a barrier (all qubits when none are given)."""
        targets = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        return self.append(Instruction("barrier", None, targets))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def measurements(self) -> Tuple[Instruction, ...]:
        """All measurement instructions, in circuit order.

        Cached per length, as :meth:`_parameterized_sites` is: the list
        is append-only, and the compiler and the backend read one
        executable's measurements several times.
        """
        cached = getattr(self, "_measures", None)
        if cached is not None and cached[0] == len(self._instructions):
            return cached[1]
        measures = tuple(ins for ins in self._instructions if ins.is_measure)
        self._measures = (len(self._instructions), measures)
        return measures

    @property
    def measured_qubits(self) -> Tuple[int, ...]:
        """Qubits that are measured, in measurement order."""
        return tuple(ins.qubits[0] for ins in self.measurements)

    @property
    def measurement_map(self) -> Dict[int, int]:
        """Mapping of measured qubit -> classical bit."""
        return {ins.qubits[0]: ins.clbits[0] for ins in self.measurements}

    @property
    def num_measurements(self) -> int:
        return len(self.measurements)

    def gates(self) -> Tuple[Instruction, ...]:
        """All unitary-gate instructions, in circuit order."""
        return tuple(ins for ins in self._instructions if ins.is_gate)

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        """Distinct symbolic parameters, in first-appearance order.

        First-appearance order is the positional convention used by
        :meth:`bind` when given a bare sequence of values, and by the
        sweep runner's ``(K, P)`` parameter matrices.
        """
        seen: List[Parameter] = []
        for ins in self._instructions:
            if not ins.is_gate or not ins.gate.is_parameterized:
                continue
            for parameter in ins.gate.parameters():
                if parameter not in seen:
                    seen.append(parameter)
        return tuple(seen)

    @property
    def is_parameterized(self) -> bool:
        """True when any gate carries an unbound symbolic parameter."""
        return any(
            ins.is_gate and ins.gate.is_parameterized
            for ins in self._instructions
        )

    def count_ops(self) -> Dict[str, int]:
        """Histogram of instruction names (gate name, ``measure``, ``barrier``)."""
        counts: Dict[str, int] = {}
        for ins in self._instructions:
            key = ins.gate.name if ins.is_gate else ins.kind
            counts[key] = counts.get(key, 0) + 1
        return counts

    def depth(self) -> int:
        """Circuit depth counting gates and measurements (barriers excluded)."""
        level: Dict[int, int] = {}
        depth = 0
        for ins in self._instructions:
            if ins.kind == "barrier":
                continue
            start = max((level.get(q, 0) for q in ins.qubits), default=0)
            for q in ins.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "QuantumCircuit":
        """Shallow copy (instructions are immutable so sharing is safe)."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        out._instructions = list(self._instructions)
        return out

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit running ``self`` then ``other``.

        ``other`` must not use more qubits/clbits than ``self``.
        """
        if other.num_qubits > self.num_qubits or other.num_clbits > self.num_clbits:
            raise CircuitError("composed circuit does not fit")
        out = self.copy()
        out._instructions.extend(other._instructions)
        return out

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse of the unitary part of the circuit.

        Raises :class:`CircuitError` if the circuit contains measurements,
        because measurements are not invertible.
        """
        if self.num_measurements:
            raise CircuitError("cannot invert a circuit containing measurements")
        out = QuantumCircuit(self.num_qubits, self.num_clbits, f"{self.name}_dg")
        for ins in reversed(self._instructions):
            if ins.kind == "barrier":
                out.barrier(*ins.qubits)
            else:
                out.apply_gate(ins.gate.inverse(), *ins.qubits)
        return out

    def bind(self, values, strict: bool = True) -> "QuantumCircuit":
        """Return a copy with symbolic parameters replaced by floats.

        ``values`` is either a mapping keyed by :class:`Parameter` or by
        parameter name, or a sequence aligned with :attr:`parameters`
        (first-appearance order).  With ``strict=True`` (the default)
        every parameter in the circuit must be resolved and every key in
        ``values`` must name a parameter the circuit actually uses;
        ``strict=False`` permits partial binds, leaving the rest symbolic.
        """
        if isinstance(values, dict):
            # The non-strict dict path (the compiler's bind-many hot loop)
            # never needs the parameter census.
            own = self.parameters if strict else ()
            by_name: Dict[str, float] = {}
            for key, value in values.items():
                name = key.name if isinstance(key, Parameter) else str(key)
                by_name[name] = float(value)
        else:
            own = self.parameters
            supplied = tuple(values)
            if len(supplied) != len(own):
                raise CircuitError(
                    f"bind() got {len(supplied)} value(s) for "
                    f"{len(own)} parameter(s)"
                )
            by_name = {p.name: float(v) for p, v in zip(own, supplied)}
        if strict:
            own_names = {p.name for p in own}
            unknown = sorted(set(by_name) - own_names)
            if unknown:
                raise CircuitError(f"bind() got unknown parameter(s): {unknown}")
            missing = sorted(own_names - set(by_name))
            if missing:
                raise CircuitError(f"bind() is missing parameter(s): {missing}")
        return self.bind_resolved(by_name)

    def bind_resolved(
        self,
        by_name: Dict[str, float],
        memo: Optional[Dict[int, Instruction]] = None,
    ) -> "QuantumCircuit":
        """Non-validating bind over a ``{name: value}`` mapping.

        The compiler's bind-many entry point: no key normalisation, no
        coverage checks, parameters absent from the mapping stay
        symbolic.  ``Parameter.bind`` floats each resolved value, so the
        result is identical to the checked :meth:`bind` path.  ``memo``
        is threaded to :meth:`Instruction.bound` so circuits sharing
        instruction objects share the bound copies within one point.
        """
        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        instructions = list(self._instructions)
        for index in self._parameterized_sites():
            instructions[index] = instructions[index].bound(by_name, memo)
        out._instructions = instructions
        return out

    def _parameterized_sites(self) -> Tuple[int, ...]:
        """Indices of parameterized gate instructions, cached per length.

        The instruction list is append-only, so the cache is valid while
        the length is unchanged — the bind-many hot loop then skips the
        per-instruction ``is_parameterized`` scan entirely.
        """
        cached = getattr(self, "_param_sites", None)
        if cached is not None and cached[0] == len(self._instructions):
            return cached[1]
        sites = tuple(
            index
            for index, ins in enumerate(self._instructions)
            if ins.kind == "gate" and ins.gate.is_parameterized
        )
        self._param_sites = (len(self._instructions), sites)
        return sites

    def remove_measurements(self) -> "QuantumCircuit":
        """Return a copy with all measurement instructions stripped."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits, self.name)
        out._instructions = [ins for ins in self._instructions if not ins.is_measure]
        return out

    def with_measured_subset(self, qubits: Iterable[int]) -> "QuantumCircuit":
        """Return a copy measuring only ``qubits`` (the CPM construction).

        The unitary body is kept verbatim; existing measurements are removed
        and replaced by measurements of ``qubits`` into clbits ``0..k-1`` in
        ascending qubit order.  This is exactly the paper's Circuit with
        Partial Measurements: "identical to the original program, except that
        it measures only a subset of qubits" (§4.2.1).
        """
        subset = sorted(set(qubits))
        self._check_qubits(subset)
        if not subset:
            raise CircuitError("a CPM must measure at least one qubit")
        out = QuantumCircuit(self.num_qubits, len(subset), f"{self.name}_cpm")
        out._instructions = [ins for ins in self._instructions if not ins.is_measure]
        for clbit, qubit in enumerate(subset):
            out.measure(qubit, clbit)
        return out

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = self.count_ops()
        summary = ", ".join(f"{k}:{v}" for k, v in sorted(ops.items()))
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"clbits={self.num_clbits}, ops={{{summary}}})"
        )

"""Tests for symbolic parameters and compile-once plan templates.

The load-bearing invariant: every compile stage is parameter
independent, so ``PlanTemplate.bind(p)`` must be **bit-for-bit
identical** to running the full pipeline on the bound circuit — same
executables, same layouts, same EPS scores, same subsets.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Parameter, ParameterExpression, QuantumCircuit
from repro.circuits.parameter import bind_value, is_symbolic
from repro.compiler.eps import gate_eps, readout_eps_targets
from repro.compiler.template import (
    PlanTemplate,
    bind_executable,
    normalize_values,
)
from repro.exceptions import CompilationError, GateError
from repro.runtime import Session, circuit_fingerprint, executable_fingerprint
from repro.runtime.fingerprint import body_fingerprint, structure_fingerprint
from repro.workloads import qaoa_maxcut
from repro.workloads.workload import Workload
from tests.conftest import make_varied_line_device


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


def symbolic_pair():
    """A two-parameter circuit and its (gamma, beta) parameters."""
    gamma, beta = Parameter("gamma"), Parameter("beta")
    qc = QuantumCircuit(4, name="vqe")
    for q in range(4):
        qc.h(q)
    for q in range(3):
        qc.rzz(gamma, q, q + 1)
    for q in range(4):
        qc.rx(2.0 * beta, q)
    qc.measure_all()
    return qc, (gamma, beta)


class TestParameter:
    def test_identity_by_name(self):
        assert Parameter("a") == Parameter("a")
        assert hash(Parameter("a")) == hash(Parameter("a"))
        assert Parameter("a") != Parameter("b")

    def test_expression_arithmetic(self):
        beta = Parameter("beta")
        expr = 2.0 * beta
        assert isinstance(expr, ParameterExpression)
        assert expr.bind(0.25) == 2.0 * 0.25
        assert (expr + 1.0).bind(0.25) == 2.0 * 0.25 + 1.0
        assert (-expr).bind(0.25) == -(2.0 * 0.25)
        assert (expr / 2.0).bind(0.3) == 0.3

    def test_bind_is_float_exact(self):
        # Binding must produce the identical float a direct construction
        # would: (2.0*beta)(v) == 2.0*v bit-for-bit.
        beta = Parameter("beta")
        for value in (0.1, math.pi / 3.0, 1e-8, 123.456):
            assert (2.0 * beta).bind(value) == 2.0 * value

    def test_bind_value_passthrough(self):
        theta = Parameter("theta")
        assert bind_value(theta, {"theta": 0.5}) == 0.5
        assert bind_value(theta, {"other": 0.5}) is theta  # partial bind
        assert bind_value(1.25, {"theta": 0.5}) == 1.25
        assert is_symbolic(theta) and not is_symbolic(1.25)


class TestCircuitBind:
    def test_parameters_first_appearance_order(self):
        qc, (gamma, beta) = symbolic_pair()
        assert qc.parameters == (gamma, beta)
        assert qc.is_parameterized

    def test_bind_matches_direct_construction(self):
        qc, _ = symbolic_pair()
        bound = qc.bind({"gamma": 0.3, "beta": 0.7})
        direct = QuantumCircuit(4, name="vqe")
        for q in range(4):
            direct.h(q)
        for q in range(3):
            direct.rzz(0.3, q, q + 1)
        for q in range(4):
            direct.rx(2.0 * 0.7, q)
        direct.measure_all()
        assert circuit_fingerprint(bound) == circuit_fingerprint(direct)
        assert not bound.is_parameterized

    def test_bind_by_sequence_and_parameter_key(self):
        qc, (gamma, beta) = symbolic_pair()
        by_seq = qc.bind([0.3, 0.7])
        by_map = qc.bind({gamma: 0.3, beta: 0.7})
        assert circuit_fingerprint(by_seq) == circuit_fingerprint(by_map)

    def test_strict_bind_validates(self):
        qc, _ = symbolic_pair()
        with pytest.raises(Exception):
            qc.bind({"gamma": 0.3})  # missing beta
        with pytest.raises(Exception):
            qc.bind({"gamma": 0.3, "beta": 0.7, "nope": 1.0})

    def test_unbound_matrix_raises(self):
        qc, _ = symbolic_pair()
        gate = next(
            instr.gate
            for instr in qc.instructions
            if instr.gate is not None and instr.gate.is_parameterized
        )
        with pytest.raises(GateError):
            gate.matrix()


class TestStructureFingerprint:
    def test_body_fingerprint_is_angle_free(self):
        qc, _ = symbolic_pair()
        a = qc.bind({"gamma": 0.3, "beta": 0.7})
        b = qc.bind({"gamma": 1.1, "beta": 0.2})
        assert body_fingerprint(a) == body_fingerprint(b)
        assert body_fingerprint(a) == body_fingerprint(qc)
        assert structure_fingerprint(a) == structure_fingerprint(qc)

    def test_circuit_fingerprint_keeps_angles(self):
        qc, _ = symbolic_pair()
        a = qc.bind({"gamma": 0.3, "beta": 0.7})
        b = qc.bind({"gamma": 1.1, "beta": 0.2})
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_structure_differs_across_structures(self):
        qc, _ = symbolic_pair()
        other = QuantumCircuit(4)
        other.h(0)
        other.measure_all()
        assert structure_fingerprint(qc) != structure_fingerprint(other)


def plan_signature(plan):
    """Everything observable about a plan, for bit-for-bit comparison."""
    return {
        "scheme": plan.scheme,
        "circuit": circuit_fingerprint(plan.circuit),
        "fingerprint": plan.circuit_fingerprint,
        "global": executable_fingerprint(plan.global_executable),
        "global_eps": plan.global_executable.eps,
        "layers": [
            {
                "subset_size": layer.subset_size,
                "subsets": layer.subsets,
                "executables": [
                    executable_fingerprint(e) for e in layer.executables
                ],
                "eps": [e.eps for e in layer.executables],
                "swaps": [e.num_swaps for e in layer.executables],
            }
            for layer in plan.layers
        ],
        "global_trials": plan.global_trials,
        "trials_per_cpm": plan.trials_per_cpm,
    }


class TestTemplateBindEqualsFullCompile:
    """template.bind(p) == full-pipeline compile of the bound circuit."""

    @settings(max_examples=8, deadline=None)
    @given(
        gamma=st.floats(-math.pi, math.pi, allow_nan=False, width=64),
        beta=st.floats(-math.pi, math.pi, allow_nan=False, width=64),
        scheme=st.sampled_from(["jigsaw", "jigsaw_nr", "jigsaw_m"]),
    )
    def test_workload_template_property(self, device, gamma, beta, scheme):
        workload = qaoa_maxcut(5)
        point = [gamma, beta]

        session_a = Session(device, seed=17, exact=True)
        template = session_a.plan_template(workload, scheme=scheme)
        bound_plan = template.bind(point)

        session_b = Session(device, seed=17, exact=True)
        bound_workload = Workload(
            name=workload.name,
            circuit=workload.template_circuit.bind(point),
            correct_outcomes=workload.correct_outcomes,
            metadata=workload.metadata,
        )
        fresh_plan = session_b.plan(bound_workload, scheme=scheme)
        assert plan_signature(bound_plan) == plan_signature(fresh_plan)

    def test_bare_circuit_template(self, device):
        qc, _ = symbolic_pair()
        point = [0.4, 1.2]

        session_a = Session(device, seed=5, exact=True)
        template = session_a.plan_template(qc, scheme="jigsaw")
        bound_plan = template.bind(point)

        session_b = Session(device, seed=5, exact=True)
        fresh_plan = session_b.plan(qc.bind(point), scheme="jigsaw")
        assert plan_signature(bound_plan) == plan_signature(fresh_plan)

    def test_template_cached_per_structure(self, device):
        workload = qaoa_maxcut(5)
        session = Session(device, seed=17, exact=True)
        t1 = session.plan_template(workload, scheme="jigsaw")
        t2 = session.plan_template(workload, scheme="jigsaw")
        assert t1 is t2
        t3 = session.plan_template(workload, scheme="jigsaw_m")
        assert t3 is not t1


class TestTemplateMechanics:
    def test_from_plan_rejects_concrete_plan(self, device):
        workload = qaoa_maxcut(5)
        session = Session(device, seed=0, exact=True)
        plan = session.plan(workload, scheme="jigsaw")
        with pytest.raises(CompilationError):
            PlanTemplate.from_plan(plan)

    def test_normalize_values_validates(self):
        qc, (gamma, beta) = symbolic_pair()
        with pytest.raises(CompilationError):
            normalize_values((gamma, beta), [0.1])
        with pytest.raises(CompilationError):
            normalize_values((gamma, beta), {"gamma": 0.1})
        with pytest.raises(CompilationError):
            normalize_values((gamma, beta), {"gamma": 0.1, "beta": 0.2, "x": 3})
        assert normalize_values((gamma, beta), [0.1, 0.2]) == {
            "gamma": 0.1,
            "beta": 0.2,
        }

    def test_rescore_reproduces_compile_time_eps(self, device):
        # EPS is angle independent, so re-scoring a bound executable at
        # any point lands on the compile-time score the bind carries over
        # from the prototype: binds need no re-score of their own.
        workload = qaoa_maxcut(5)
        session = Session(device, seed=17, exact=True)
        template = session.plan_template(workload, scheme="jigsaw")
        first = template.bind([0.3, 0.4])
        far = template.bind([3.0, -3.0])

        def executables(plan):
            return [plan.global_executable] + [
                exe for layer in plan.layers for exe in layer.executables
            ]

        def rescore(exe):
            return gate_eps(exe.physical, exe.device) * readout_eps_targets(
                exe.measured_physical_qubits, exe.device
            )

        prototype = executables(template.prototype)
        for plan in (first, far):
            bound = executables(plan)
            assert [exe.eps for exe in bound] == [exe.eps for exe in prototype]
            assert [rescore(exe) for exe in bound] == [exe.eps for exe in bound]

    def test_bind_executable_reuses_layouts(self, device):
        workload = qaoa_maxcut(5)
        session = Session(device, seed=17, exact=True)
        template = session.plan_template(workload, scheme="jigsaw")
        prototype = template.prototype.global_executable
        bound = bind_executable(prototype, {"gamma_0": 0.3, "beta_0": 0.4})
        assert bound.initial_layout == prototype.initial_layout
        assert bound.final_layout == prototype.final_layout
        assert bound.num_swaps == prototype.num_swaps
        assert not bound.physical.is_parameterized

    def test_describe_mentions_parameters(self, device):
        workload = qaoa_maxcut(5)
        session = Session(device, seed=17, exact=True)
        template = session.plan_template(workload, scheme="jigsaw")
        text = template.describe()
        assert "gamma_0" in text and "jigsaw" in text

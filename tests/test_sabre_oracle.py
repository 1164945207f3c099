"""The array-form router against the reference router, decision for decision.

``tests/sabre_oracle.py`` keeps the router the compiler ran before its
array form.  For every routing problem the paper's toronto sweep and the
served mix compile, and for random circuits, layouts and seeds, the array
form must emit the same physical schedule — gate for gate, SWAP for SWAP
— end on the same final layout and count the same SWAPs.  The routed
body's gate-success product must equal the noise model's loop over the
materialised schedule bit for bit, and exact-mode coalescing must group a
batch exactly as :func:`executable_fingerprint` grouped it wherever no
two programs share a routed body with different angles.
"""

from __future__ import annotations

import random
from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.compiler import CompilerPipeline, Layout, route
from repro.compiler.sabre import RoutingBody, route_schedule
from repro.core import JigSaw, JigSawConfig
from repro.devices import ibmq_toronto
from repro.noise.model import NoiseModel
from repro.runtime import CompilationCache, LocalBackend, Session
from repro.runtime.fingerprint import executable_fingerprint
from repro.workloads import paper_suite, workload_by_name
from tests import sabre_oracle
from tests.conftest import make_line_device

#: The served mix: every (workload, scheme) pair twice, as perfbench's
#: served-wave submits it, compiled with the serving tier's settings.
SERVED_WORKLOADS = (
    "BV-6", "BV-8", "BV-10", "BV-12",
    "GHZ-6", "GHZ-8", "GHZ-10", "GHZ-12",
    "QAOA-6 p1", "QAOA-8 p1", "QAOA-10 p1", "QAOA-12 p1",
    "Ising-6", "Ising-8", "Ising-10", "Ising-12",
)
SERVED_SCHEMES = ("baseline", "edm", "jigsaw", "jigsaw_m")
PAPER_SCHEMES = ("baseline", "edm", "jigsaw", "jigsaw_nr", "jigsaw_m")


def _served_specs():
    rng = random.Random(0)
    pairs = []
    for _ in range(2):
        round_ = [(w, s) for w in SERVED_WORKLOADS for s in SERVED_SCHEMES]
        rng.shuffle(round_)
        pairs += round_
    return [(w, s, index) for index, (w, s) in enumerate(pairs)]


def _record_routings(monkeypatch) -> Dict[str, tuple]:
    """Patch the pipeline to keep every distinct routing problem it meets:
    routing key -> (body, pipeline, initial layout, routed body)."""
    problems: Dict[str, tuple] = {}
    original = CompilerPipeline._routed

    def recording(self, memo, layout):
        routed = original(self, memo, layout)
        if routed.routing_key not in problems:
            body = QuantumCircuit(memo.num_qubits)
            for ins in memo.instructions:
                body.append(ins)
            problems[routed.routing_key] = (body, self, layout.copy(), routed)
        return routed

    monkeypatch.setattr(CompilerPipeline, "_routed", recording)
    return problems


def _paper_problems(monkeypatch):
    problems = _record_routings(monkeypatch)
    session = Session(ibmq_toronto(27001), seed=0, total_trials=32_768, exact=True)
    prepared = []
    for workload in paper_suite():
        for scheme in PAPER_SCHEMES:
            prepared.append(session.prepare_scheme(scheme, workload))
    return problems, [r for p in prepared for r in p.requests]


def _served_problems(monkeypatch):
    problems = _record_routings(monkeypatch)
    device = ibmq_toronto()
    cache = CompilationCache()
    requests = []
    for workload, scheme, index in _served_specs():
        session = Session(
            device, seed=index, total_trials=32_768, exact=True, cache=cache,
            compile_attempts=4, cpm_attempts=3, ensemble_size=4,
        )
        prepared = session.prepare_scheme(scheme, workload_by_name(workload))
        requests.extend(prepared.requests)
    return problems, requests


def _assert_matches_oracle(problems) -> None:
    for key, (body, pipeline, layout, routed) in problems.items():
        seed = int(key[:16], 16)
        reference = sabre_oracle.route(body, pipeline.device, layout, seed=seed)
        assert pipeline.retarget(routed, body) == reference.physical, key
        assert routed.final_layout == reference.final_layout, key
        assert routed.num_swaps == reference.num_swaps, key
        survival = NoiseModel.from_device(pipeline.device).gate_survival_probability(
            reference.physical
        )
        assert routed.gate_eps == survival, key


def _fingerprint_groups(requests):
    groups: Dict[str, list] = {}
    for index, request in enumerate(requests):
        groups.setdefault(executable_fingerprint(request.executable), []).append(index)
    return sorted(groups.values())


def _coalescing_groups(requests):
    backend = LocalBackend(noise_model=NoiseModel.from_device(ibmq_toronto()))
    return sorted(backend._group_indices(requests))


class TestEveryRoutingProblem:
    def test_paper_suite_on_toronto(self, monkeypatch):
        problems, requests = _paper_problems(monkeypatch)
        assert len(problems) == 104
        _assert_matches_oracle(problems)
        assert _coalescing_groups(requests) == _fingerprint_groups(requests)

    def test_served_mix(self, monkeypatch):
        problems, requests = _served_problems(monkeypatch)
        assert len(problems) == 338
        _assert_matches_oracle(problems)
        assert _coalescing_groups(requests) == _fingerprint_groups(requests)


class TestCoalescing:
    def test_separately_seeded_runners_still_coalesce(self):
        # benchmarks/test_batched_kernels.py's sweep: one fresh runner
        # (and so one private stage cache) per plan.
        requests = []
        for name in ("BV-6", "GHZ-8", "QAOA-8 p1"):
            circuit = workload_by_name(name).circuit
            for budget in (16_384, 32_768, 65_536):
                runner = JigSaw(ibmq_toronto(), JigSawConfig(exact=True), seed=0)
                requests.extend(runner.plan(circuit, total_trials=budget).requests())
        groups = _coalescing_groups(requests)
        assert groups == _fingerprint_groups(requests)
        assert len(groups) * 3 == len(requests)

    def test_failure_product_is_the_loop_bit_for_bit(self):
        device = ibmq_toronto()
        model = NoiseModel.from_device(device)
        session = Session(device, seed=4, exact=True)
        plan = session.plan(workload_by_name("QAOA-8 p1"))
        for executable in [plan.global_executable] + plan.cpm_executables:
            assert executable.routed is not None
            assert model.executable_failure_probability(executable) == (
                model.circuit_failure_probability(executable.physical)
            )


# ----------------------------------------------------------------------
# Random circuits, layouts and seeds
# ----------------------------------------------------------------------

_LINE = make_line_device(num_qubits=6)
_TORONTO = ibmq_toronto()
_GATES = st.sampled_from(["h", "x", "rx", "cx", "cz", "swap", "rzz", "barrier"])


@st.composite
def _problem(draw, device):
    num_qubits = draw(st.integers(min_value=2, max_value=min(8, device.num_qubits)))
    qc = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        name = draw(_GATES)
        qubits = draw(
            st.permutations(range(num_qubits)).map(lambda perm: perm[:2])
        )
        if name == "barrier":
            qc.barrier(*qubits[: draw(st.integers(min_value=1, max_value=2))])
        elif name in ("cx", "cz", "swap"):
            getattr(qc, name)(*qubits)
        elif name == "rzz":
            qc.rzz(draw(st.floats(min_value=-3, max_value=3)), *qubits)
        elif name == "rx":
            qc.rx(draw(st.floats(min_value=-3, max_value=3)), qubits[0])
        else:
            getattr(qc, name)(qubits[0])
    if draw(st.booleans()):
        qc.measure_all()
    physical = draw(
        st.permutations(range(device.num_qubits)).map(
            lambda perm: perm[:num_qubits]
        )
    )
    layout = Layout({l: p for l, p in enumerate(physical)})
    return qc, layout, draw(st.integers(min_value=0, max_value=2**63 - 1))


def _check_problem(circuit, device, layout, seed):
    reference = sabre_oracle.route(circuit, device, layout, seed=seed)
    routed = route(circuit, device, layout, seed=seed)
    assert routed.physical == reference.physical
    assert routed.final_layout == reference.final_layout
    assert routed.num_swaps == reference.num_swaps
    schedule = route_schedule(RoutingBody.from_circuit(circuit), device, layout, seed)
    assert schedule.final_layout == reference.final_layout


class TestRandomProblems:
    @settings(max_examples=150, deadline=None)
    @given(_problem(_LINE))
    def test_line_device(self, problem):
        _check_problem(problem[0], _LINE, problem[1], problem[2])

    @settings(max_examples=100, deadline=None)
    @given(_problem(_TORONTO))
    def test_toronto(self, problem):
        _check_problem(problem[0], _TORONTO, problem[1], problem[2])

"""Tests for layout, placement, SABRE routing, EPS, and compilation."""

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.compiler import (
    CompilerPipeline,
    Layout,
    candidate_layouts,
    expected_probability_of_success,
    gate_eps,
    readout_eps,
    route,
)
from repro.exceptions import CompilationError
from repro.sim import StatevectorSimulator
from tests.conftest import make_line_device


@pytest.fixture
def device():
    return make_line_device(num_qubits=6)


@pytest.fixture
def pipeline(device):
    return CompilerPipeline(device)


class TestLayout:
    def test_trivial(self):
        layout = Layout.trivial(3)
        assert layout.physical(2) == 2
        assert layout.logical(1) == 1

    def test_bijective(self):
        with pytest.raises(CompilationError):
            Layout({0: 1, 1: 1})

    def test_negative_rejected(self):
        with pytest.raises(CompilationError):
            Layout({0: -1})

    def test_swap_two_occupied(self):
        layout = Layout({0: 10, 1: 11})
        layout.apply_swap(10, 11)
        assert layout.physical(0) == 11
        assert layout.physical(1) == 10

    def test_swap_with_free_qubit(self):
        layout = Layout({0: 10})
        layout.apply_swap(10, 12)
        assert layout.physical(0) == 12
        assert not layout.hosts_logical(10)

    def test_missing_lookups_raise(self):
        layout = Layout({0: 5})
        with pytest.raises(CompilationError):
            layout.physical(3)
        with pytest.raises(CompilationError):
            layout.logical(0)

    def test_copy_is_independent(self):
        layout = Layout({0: 1, 1: 2})
        clone = layout.copy()
        clone.apply_swap(1, 2)
        assert layout.physical(0) == 1

    def test_equality(self):
        assert Layout({0: 3}) == Layout({0: 3})
        assert Layout({0: 3}) != Layout({0: 4})


class TestEps:
    def test_gate_eps_product(self, device):
        physical = QuantumCircuit(6).h(0).cx(0, 1)
        assert gate_eps(physical, device) == pytest.approx(
            (1 - 0.0005) * (1 - 0.01)
        )

    def test_swap_three_cnot_cost(self, device):
        physical = QuantumCircuit(6).swap(2, 3)
        assert gate_eps(physical, device) == pytest.approx((1 - 0.01) ** 3)

    def test_readout_eps_uses_simultaneous_width(self, device):
        one = QuantumCircuit(6, 1).measure(0, 0)
        three = QuantumCircuit(6, 3)
        for i in range(3):
            three.measure(i, i)
        per_bit_1 = readout_eps(one, device)
        per_bit_3 = readout_eps(three, device) ** (1 / 3)
        assert per_bit_3 < per_bit_1  # crosstalk penalty

    def test_emphasis_raises_readout_weight(self, device):
        physical = QuantumCircuit(6, 2).cx(0, 1).measure(0, 0).measure(1, 1)
        plain = expected_probability_of_success(physical, device, 1.0)
        emphasised = expected_probability_of_success(physical, device, 3.0)
        assert emphasised < plain  # readout factor < 1 gets cubed

    def test_negative_emphasis_rejected(self, device):
        with pytest.raises(CompilationError):
            expected_probability_of_success(QuantumCircuit(6), device, -1.0)


class TestPlacement:
    def test_layouts_cover_program(self, device, ghz4):
        layouts = candidate_layouts(ghz4, device, seed=0)
        for layout in layouts:
            assert set(layout.logical_qubits) == {0, 1, 2, 3}
            assert len(set(layout.physical_qubits)) == 4

    def test_too_large_program_rejected(self, device):
        big = QuantumCircuit(7).h(0).measure_all()
        with pytest.raises(CompilationError):
            candidate_layouts(big, device)

    def test_avoid_qubits_steers_placement(self, varied_device, ghz4):
        layouts = candidate_layouts(
            ghz4, varied_device, avoid_qubits=[0, 1, 2, 3], seed=1,
            num_candidates=4,
        )
        best = layouts[0]
        overlap = set(best.physical_qubits) & {0, 1, 2, 3}
        assert len(overlap) <= 2


class TestRouting:
    def test_adjacent_gates_no_swaps(self, device, ghz4):
        routed = route(ghz4, device, Layout.trivial(4), seed=0)
        assert routed.num_swaps == 0
        assert routed.final_layout == routed.initial_layout

    def test_distant_gate_inserts_swaps(self, device):
        qc = QuantumCircuit(2).cx(0, 1).measure_all()
        layout = Layout({0: 0, 1: 5})
        routed = route(qc, device, layout, seed=0)
        assert routed.num_swaps >= 4

    def test_all_gates_respect_coupling(self, device):
        qc = QuantumCircuit(4)
        qc.cx(0, 3).cx(1, 2).cx(0, 2).cx(3, 1)
        qc.measure_all()
        layout = Layout({0: 0, 1: 2, 2: 4, 3: 5})
        routed = route(qc, device, layout, seed=1)
        for ins in routed.physical.gates():
            if len(ins.qubits) == 2:
                assert device.are_coupled(*ins.qubits)

    def test_measurements_follow_final_layout(self, device):
        qc = QuantumCircuit(2).cx(0, 1).measure_all()
        layout = Layout({0: 0, 1: 3})
        routed = route(qc, device, layout, seed=0)
        for ins in routed.physical.measurements:
            logical = routed.final_layout.logical(ins.qubits[0])
            assert ins.clbits[0] == qc.measurement_map[logical]

    def test_routing_preserves_semantics(self):
        """Routed physical circuit must compute the same distribution."""
        device = make_line_device(num_qubits=5)
        qc = QuantumCircuit(4, name="scrambler")
        qc.h(0).cx(0, 2).cx(3, 1).rz(0.4, 2).cx(2, 3).h(3).cx(0, 3)
        qc.measure_all()
        layout = Layout({0: 0, 1: 2, 2: 3, 3: 4})
        routed = route(qc, device, layout, seed=2)
        sim = StatevectorSimulator()
        logical_dist = sim.ideal_distribution(qc)
        physical_dist = sim.ideal_distribution(routed.physical)
        assert set(logical_dist) == set(physical_dist)
        for key, value in logical_dist.items():
            assert physical_dist[key] == pytest.approx(value, abs=1e-9)

    def test_incomplete_layout_rejected(self, device, ghz4):
        with pytest.raises(CompilationError):
            route(ghz4, device, Layout({0: 0, 1: 1}), seed=0)

    def test_layout_outside_device_rejected(self, device, ghz4):
        with pytest.raises(CompilationError):
            route(ghz4, device, Layout({0: 0, 1: 1, 2: 2, 3: 99}), seed=0)


class TestTranspile:
    def test_executable_fields(self, pipeline, device, ghz4):
        executable = pipeline.compile(ghz4, seed=0)
        assert executable.logical is ghz4
        assert executable.physical.num_qubits == device.num_qubits
        assert 0.0 < executable.eps <= 1.0
        assert len(executable.measured_physical_qubits) == 4

    def test_explicit_layouts_path(self, pipeline, ghz4):
        executable = pipeline.compile(
            ghz4, initial_layouts=[Layout.trivial(4)], seed=0
        )
        assert executable.initial_layout == Layout.trivial(4)

    def test_empty_layout_list_rejected(self, pipeline, ghz4):
        with pytest.raises(CompilationError):
            pipeline.compile(ghz4, initial_layouts=[])

    def test_invalid_attempts(self, pipeline, ghz4):
        with pytest.raises(CompilationError):
            pipeline.compile(ghz4, attempts=0)

    def test_deterministic_for_seed(self, pipeline, ghz4):
        a = pipeline.compile(ghz4, seed=11)
        b = pipeline.compile(ghz4, seed=11)
        assert a.final_layout == b.final_layout
        assert a.eps == pytest.approx(b.eps)

    def test_ideal_probabilities_cached_and_shared(self, pipeline, ghz4):
        executable = pipeline.compile(ghz4, seed=0)
        probs = executable.ideal_probabilities()
        assert probs.shape == (16,)
        shared = np.ones(16) / 16
        executable.share_ideal_probabilities(shared)
        assert executable.ideal_probabilities() is shared

    def test_share_wrong_size_rejected(self, pipeline, ghz4):
        executable = pipeline.compile(ghz4, seed=0)
        with pytest.raises(CompilationError):
            executable.share_ideal_probabilities(np.ones(8) / 8)

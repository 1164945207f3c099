"""Unit tests for the QuantumCircuit IR."""

import pytest

from repro.circuits import Gate, Instruction, QuantumCircuit, draw
from repro.exceptions import CircuitError
from tests.conftest import gate_counts


class TestInstruction:
    def test_gate_instruction(self):
        ins = Instruction("gate", Gate("cx"), (0, 1))
        assert ins.is_gate and ins.is_two_qubit_gate and not ins.is_measure

    def test_measure_instruction(self):
        ins = Instruction("measure", None, (2,), (0,))
        assert ins.is_measure

    def test_gate_requires_gate_object(self):
        with pytest.raises(CircuitError):
            Instruction("gate", None, (0,))

    def test_gate_arity_mismatch(self):
        with pytest.raises(CircuitError):
            Instruction("gate", Gate("cx"), (0,))

    def test_measure_clbit_count(self):
        with pytest.raises(CircuitError):
            Instruction("measure", None, (0, 1), (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Instruction("gate", Gate("cx"), (1, 1))

    def test_unknown_kind(self):
        with pytest.raises(CircuitError):
            Instruction("reset", None, (0,))


class TestConstruction:
    def test_default_clbits_match_qubits(self):
        assert QuantumCircuit(3).num_clbits == 3

    def test_zero_qubits_rejected(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(0)

    def test_builder_chaining(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        assert len(qc) == 4

    def test_qubit_range_checked(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).h(2)

    def test_clbit_range_checked(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2, 1).measure(0, 1)

    def test_all_gate_builders(self):
        qc = QuantumCircuit(3)
        qc.id(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0)
        qc.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).p(0.4, 0).u3(0.1, 0.2, 0.3, 0)
        qc.cx(0, 1).cz(0, 1).swap(0, 1).rzz(0.5, 0, 1).cp(0.6, 0, 1)
        qc.ccx(0, 1, 2)
        assert len(qc) == 21

    def test_measure_all_requires_enough_clbits(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(3, 2).measure_all()


class TestQueries:
    def test_measurement_map(self, ghz4):
        assert ghz4.measurement_map == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_measured_qubits_order(self):
        qc = QuantumCircuit(3, 2).measure(2, 0).measure(0, 1)
        assert qc.measured_qubits == (2, 0)

    def test_count_ops(self, ghz4):
        ops = ghz4.count_ops()
        assert ops == {"h": 1, "cx": 3, "measure": 4}

    def test_gate_counts(self, ghz4):
        assert gate_counts(ghz4) == (1, 3)

    def test_depth_linear_chain(self, ghz4):
        # h, cx, cx, cx, measures: depth = 1 + 3 + 1 = 5
        assert ghz4.depth() == 5

    def test_depth_parallel_gates(self):
        qc = QuantumCircuit(4).h(0).h(1).h(2).h(3)
        assert qc.depth() == 1

    def test_barrier_not_counted_in_depth(self):
        qc = QuantumCircuit(2).h(0).barrier().h(0)
        assert qc.depth() == 2


class TestTransformations:
    def test_copy_is_independent(self, ghz4):
        clone = ghz4.copy()
        clone.x(0)
        assert len(clone) == len(ghz4) + 1

    def test_compose(self):
        a = QuantumCircuit(2).h(0)
        b = QuantumCircuit(2).cx(0, 1)
        combined = a.compose(b)
        assert [i.gate.name for i in combined.gates()] == ["h", "cx"]

    def test_compose_size_mismatch(self):
        with pytest.raises(CircuitError):
            QuantumCircuit(2).compose(QuantumCircuit(3))

    def test_inverse_reverses_and_inverts(self):
        qc = QuantumCircuit(2).h(0).s(0).cx(0, 1)
        inv = qc.inverse()
        names = [i.gate.name for i in inv.gates()]
        assert names == ["cx", "sdg", "h"]

    def test_inverse_rejects_measurements(self, ghz4):
        with pytest.raises(CircuitError):
            ghz4.inverse()

    def test_remove_measurements(self, ghz4):
        stripped = ghz4.remove_measurements()
        assert stripped.num_measurements == 0
        assert len(stripped.gates()) == len(ghz4.gates())


class TestWithMeasuredSubset:
    def test_cpm_keeps_body_changes_measurements(self, ghz4):
        cpm = ghz4.with_measured_subset([1, 3])
        assert len(cpm.gates()) == len(ghz4.gates())
        assert cpm.measured_qubits == (1, 3)
        assert cpm.measurement_map == {1: 0, 3: 1}
        assert cpm.num_clbits == 2

    def test_cpm_sorts_subset(self, ghz4):
        cpm = ghz4.with_measured_subset([3, 0])
        assert cpm.measured_qubits == (0, 3)

    def test_cpm_rejects_empty(self, ghz4):
        with pytest.raises(CircuitError):
            ghz4.with_measured_subset([])

    def test_cpm_rejects_out_of_range(self, ghz4):
        with pytest.raises(CircuitError):
            ghz4.with_measured_subset([7])

    def test_cpm_is_paper_example(self):
        """§4.2.1: a CPM is the original program with fewer measurements."""
        qc = QuantumCircuit(4, name="bv4")
        qc.h(0).h(1).h(2).x(3).h(3)
        qc.cx(0, 3).cx(1, 3).cx(2, 3)
        qc.measure(0, 0)
        qc.measure(1, 1)
        qc.measure(2, 2)
        cpm = qc.with_measured_subset([0, 1])
        assert cpm.count_ops()["measure"] == 2
        assert cpm.count_ops()["cx"] == 3


class TestEquality:
    def test_equal_circuits(self):
        a = QuantumCircuit(2).h(0).cx(0, 1)
        b = QuantumCircuit(2).h(0).cx(0, 1)
        assert a == b

    def test_different_instructions(self):
        assert QuantumCircuit(2).h(0) != QuantumCircuit(2).x(0)


class TestDraw:
    def test_draw_renders_all_rows(self, ghz4):
        art = draw(ghz4)
        lines = art.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("q0:")
        assert "[h]" in art
        assert "M3" in art

    def test_draw_swap_and_barrier(self):
        qc = QuantumCircuit(2).swap(0, 1).barrier().rx(0.5, 0)
        art = draw(qc)
        assert "x" in art
        assert "|" in art

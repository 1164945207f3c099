"""Tests for OpenQASM 2.0 serialisation."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit, from_qasm, to_qasm
from repro.exceptions import CircuitError, ReproError
from repro.sim import StatevectorSimulator


class TestExport:
    def test_header_and_registers(self, bell):
        text = to_qasm(bell)
        assert text.startswith("OPENQASM 2.0;")
        assert "qreg q[2];" in text
        assert "creg c[2];" in text

    def test_gates_and_measures(self, bell):
        text = to_qasm(bell)
        assert "h q[0];" in text
        assert "cx q[0],q[1];" in text
        assert "measure q[0] -> c[0];" in text

    def test_pi_fractions_pretty(self):
        qc = QuantumCircuit(1).rx(math.pi / 2, 0).rz(-3 * math.pi / 4, 0)
        text = to_qasm(qc)
        assert "rx(pi/2)" in text
        assert "rz(-3*pi/4)" in text

    def test_barrier(self):
        qc = QuantumCircuit(2).h(0).barrier()
        assert "barrier q[0],q[1];" in to_qasm(qc)


class TestImport:
    def test_round_trip_structure(self, ghz4):
        restored = from_qasm(to_qasm(ghz4))
        assert restored == ghz4

    def test_round_trip_semantics(self):
        qc = QuantumCircuit(3)
        qc.h(0).rx(0.37, 1).cx(0, 2).rzz(1.1, 1, 2).u3(0.2, 0.4, 0.6, 0)
        qc.measure_all()
        restored = from_qasm(to_qasm(qc))
        sim = StatevectorSimulator()
        original = sim.ideal_distribution(qc)
        parsed = sim.ideal_distribution(restored)
        for key in set(original) | set(parsed):
            assert original.get(key, 0.0) == pytest.approx(
                parsed.get(key, 0.0), abs=1e-9
            )

    def test_parse_angle_forms(self):
        text = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[1];\ncreg c[1];\n"
            "rx(pi/2) q[0];\nrz(-pi) q[0];\nry(0.25) q[0];\n"
        )
        qc = from_qasm(text)
        gates = qc.gates()
        assert gates[0].gate.params[0] == pytest.approx(math.pi / 2)
        assert gates[1].gate.params[0] == pytest.approx(-math.pi)
        assert gates[2].gate.params[0] == pytest.approx(0.25)

    def test_missing_qreg_rejected(self):
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\ncreg c[2];\n")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nh q[0]\n")

    def test_bad_angle_rejected(self):
        with pytest.raises(CircuitError):
            from_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(two) q[0];\n")

    @pytest.mark.parametrize(
        "angle", ["pi/0", "2*pi/0", "1e999", "inf", "-inf", "nan"]
    )
    def test_degenerate_angle_rejected(self, angle):
        with pytest.raises(CircuitError):
            from_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({angle}) q[0];\n")

    @settings(max_examples=300, deadline=None)
    @given(
        angle=st.one_of(
            st.text(),
            st.text(alphabet="0123456789 +-*/.eEpinaf", max_size=16),
            st.from_regex(r"-?(\d+\*)?pi(/\d+)?", fullmatch=True),
        )
    )
    @example(angle="pi/0")
    @example(angle="nan")
    @example(angle="1e999")
    def test_any_angle_text_parses_finite_or_raises(self, angle):
        text = f"OPENQASM 2.0;\nqreg q[1];\nrx({angle}) q[0];\n"
        try:
            circuit = from_qasm(text)
        except ReproError:
            return
        for ins in circuit.gates():
            assert all(math.isfinite(p) for p in ins.gate.params)

    def test_comments_ignored(self):
        text = "OPENQASM 2.0;\nqreg q[1]; // register\nx q[0]; // flip\n"
        qc = from_qasm(text)
        assert qc.count_ops()["x"] == 1


class TestQasmBenchStyle:
    """QASMBench-style files (Li et al., ACM TQC 2022): comments,
    includes, blank lines, broadcasts, arbitrary register names."""

    def test_block_comments_and_blank_lines(self):
        text = """
        /* QASMBench header
           spanning lines */
        OPENQASM 2.0;
        include "qelib1.inc";

        qreg q[2];  // two qubits
        creg c[2];

        h q[0]; /* inline */ cx q[0],q[1];
        measure q[0] -> c[0];
        measure q[1] -> c[1];
        """
        circuit = from_qasm(text)
        assert circuit.num_qubits == 2
        assert len(circuit.measurements) == 2

    def test_bare_register_barrier(self):
        circuit = from_qasm(
            "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\nbarrier q;\n"
            "measure q[0] -> c[0];\n"
        )
        barrier = [i for i in circuit.instructions if i.kind == "barrier"]
        assert len(barrier) == 1 and barrier[0].qubits == (0, 1, 2)

    def test_register_broadcast_measure(self):
        circuit = from_qasm(
            "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\n"
            "measure q -> c;\n"
        )
        assert circuit.measurement_map == {0: 0, 1: 1, 2: 2}

    def test_single_arg_gate_broadcast(self):
        circuit = from_qasm(
            "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q;\nmeasure q -> c;\n"
        )
        gates = [i for i in circuit.instructions if i.is_gate]
        assert [g.qubits for g in gates] == [(0,), (1,), (2,)]

    def test_arbitrary_register_names_concatenate(self):
        circuit = from_qasm(
            "OPENQASM 2.0;\nqreg data[2];\nqreg anc[1];\ncreg out[3];\n"
            "h data[0];\ncx data[0],anc[0];\n"
            "measure data[0] -> out[0];\nmeasure anc[0] -> out[2];\n"
        )
        assert circuit.num_qubits == 3
        # anc[0] is the third flat qubit (after data's two).
        cx = [i for i in circuit.instructions if i.is_gate][1]
        assert cx.qubits == (0, 2)
        assert circuit.measurement_map == {0: 0, 2: 2}

    def test_statement_split_across_lines(self):
        circuit = from_qasm(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\n"
            "cx\n  q[0],\n  q[1];\nmeasure q -> c;\n"
        )
        assert [i for i in circuit.instructions if i.is_gate][0].qubits == (0, 1)

    def test_gate_definitions_rejected_clearly(self):
        with pytest.raises(CircuitError, match="gate definitions"):
            from_qasm(
                "OPENQASM 2.0;\nqreg q[1];\n"
                "gate mygate a { h a; }\nmygate q[0];\n"
            )

    def test_classical_control_rejected_clearly(self):
        with pytest.raises(CircuitError, match="classically-controlled"):
            from_qasm(
                "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\n"
                "measure q[0] -> c[0];\nif (c == 1) x q[0];\n"
            )

    def test_duplicate_register_rejected(self):
        with pytest.raises(CircuitError, match="duplicate"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nqreg q[3];\n")

    def test_out_of_range_index_rejected(self):
        with pytest.raises(CircuitError, match="out of range"):
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n")


class TestFromQasmFile:
    def test_import_registers_in_suite(self, tmp_path):
        from repro.workloads import from_qasm_file, workload_by_name
        from repro.workloads.suite import _REGISTERED

        path = tmp_path / "ghz3_ext.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[3];\ncreg c[3];\n"
            "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nbarrier q;\n"
            "measure q -> c;\n"
        )
        try:
            workload = from_qasm_file(str(path))
            assert workload.name == "ghz3_ext"
            # Modal ideal outcomes of a GHZ state: the two end states.
            assert workload.correct_outcomes == ("000", "111")
            assert workload_by_name("ghz3_ext") is workload
        finally:
            _REGISTERED.pop("ghz3_ext", None)

    def test_measureless_file_gets_measure_all(self, tmp_path):
        from repro.workloads import from_qasm_file

        path = tmp_path / "unmeasured.qasm"
        path.write_text("OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n")
        workload = from_qasm_file(str(path), register=False)
        assert workload.circuit.num_measurements == 2

    def test_cannot_shadow_builtin_names(self, tmp_path):
        from repro.exceptions import WorkloadError
        from repro.workloads import from_qasm_file

        path = tmp_path / "fake.qasm"
        path.write_text(
            "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\nmeasure q -> c;\n"
        )
        with pytest.raises(WorkloadError, match="shadows a built-in"):
            from_qasm_file(str(path), name="GHZ-4")

    def test_runs_through_jigsaw_session(self, tmp_path):
        from repro.devices import ibmq_toronto
        from repro.runtime import Session
        from repro.workloads import from_qasm_file

        path = tmp_path / "ext.qasm"
        path.write_text(
            "OPENQASM 2.0;\nqreg q[4];\ncreg c[4];\n"
            "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
            "measure q -> c;\n"
        )
        workload = from_qasm_file(str(path), register=False)
        with Session(ibmq_toronto(), seed=0, total_trials=1024) as session:
            result = session.run(session.plan(workload, scheme="jigsaw"))
            metrics = session.evaluate(workload, result.output_pmf)
        assert 0.0 < metrics.pst <= 1.0

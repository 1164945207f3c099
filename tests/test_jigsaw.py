"""End-to-end tests for the JigSaw runner, plain and JigSaw-M."""

import json

import numpy as np
import pytest

from repro.circuits import QuantumCircuit
from repro.core import (
    PMF,
    JigSaw,
    JigSawConfig,
    JigSawMConfig,
    measured_positions_map,
)
from repro.exceptions import ReconstructionError
from repro.runtime import CompilationCache
from repro.utils.random import spawn
from repro.metrics import (
    probability_of_successful_trial,
    total_variation_distance,
)
from tests.conftest import make_line_device, make_varied_line_device


@pytest.fixture
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture
def ghz6():
    qc = QuantumCircuit(6, name="ghz6")
    qc.h(0)
    for i in range(5):
        qc.cx(i, i + 1)
    return qc.measure_all()


CORRECT6 = ("000000", "111111")


class TestConfig:
    def test_defaults_follow_paper(self):
        config = JigSawConfig()
        assert config.subset_size == 2
        assert config.global_fraction == 0.5
        assert config.recompile_cpms is True

    def test_invalid_fraction(self):
        with pytest.raises(ReconstructionError):
            JigSawConfig(global_fraction=1.0)

    def test_invalid_method(self):
        with pytest.raises(ReconstructionError):
            JigSawConfig(subset_method="fancy")

    @pytest.mark.parametrize(
        "knobs",
        [
            {"tolerance": -1.0},
            {"tolerance": float("nan")},
            {"tolerance": float("inf")},
            {"tolerance": "1e-4"},
            {"max_rounds": 0},
            {"max_rounds": 2.5},
            {"max_rounds": True},
            {"max_rounds": 0, "tolerance": -1.0},
        ],
    )
    def test_invalid_reconstruction_knobs(self, knobs):
        """Rejected at construction, before any compile or execution."""
        with pytest.raises(ReconstructionError):
            JigSawConfig(**knobs)
        with pytest.raises(ReconstructionError):
            JigSawMConfig(**knobs)

    def test_jigsawm_size_validation(self):
        with pytest.raises(ReconstructionError):
            JigSawMConfig(min_subset_size=1)
        with pytest.raises(ReconstructionError):
            JigSawMConfig(min_subset_size=4, max_subset_size=3)

    def test_jigsawm_sizes_clipped_to_program(self):
        config = JigSawMConfig(min_subset_size=2, max_subset_size=5)
        assert config.sizes_for(4) == [2, 3]
        assert config.sizes_for(10) == [2, 3, 4, 5]

    @pytest.mark.parametrize(
        "knob",
        [
            {"subset_size": 4},
            {"subset_method": "random"},
            {"num_subsets": 3},
            {"subset_method": "random", "num_subsets": 3, "subset_size": 4},
        ],
    )
    def test_jigsawm_refuses_one_layer_knobs(self, knob):
        """JigSaw-M plans its own sliding layers, so the one-layer knobs
        would do nothing; a non-default value is refused."""
        with pytest.raises(ReconstructionError, match="does not apply"):
            JigSawMConfig(**knob)

    def test_config_names_the_scheme(self):
        assert JigSawConfig.scheme == "jigsaw"
        assert JigSawMConfig.scheme == "jigsaw_m"
        # The one-layer knobs' defaults, spelled out, are accepted.
        JigSawMConfig(subset_size=2, subset_method="sliding", num_subsets=None)
        assert JigSawConfig(subset_size=3).sizes_for(6) == [3]
        assert JigSawConfig(subset_size=8).sizes_for(6) == [6]


class TestMeasuredPositions:
    def test_monotone_map_accepted(self, ghz6):
        assert measured_positions_map(ghz6) == {q: q for q in range(6)}

    def test_non_monotone_rejected(self):
        qc = QuantumCircuit(3, 3).h(0)
        qc.measure(0, 2)
        qc.measure(1, 1)
        qc.measure(2, 0)
        with pytest.raises(ReconstructionError):
            measured_positions_map(qc)

    def test_too_few_measurements_rejected(self):
        qc = QuantumCircuit(2, 1).h(0).measure(0, 0)
        with pytest.raises(ReconstructionError):
            measured_positions_map(qc)


class TestPlanning:
    def test_sliding_subsets_default(self, device, ghz6):
        jigsaw = JigSaw(device, seed=0)
        subsets = jigsaw.generate_subsets(ghz6)
        assert len(subsets) == 6
        assert all(len(s) == 2 for s in subsets)

    def test_explicit_subsets(self, device, ghz6):
        jigsaw = JigSaw(device, seed=0)
        subsets = jigsaw.generate_subsets(ghz6, subsets=[(0, 5), (2, 3)])
        assert subsets == [(0, 5), (2, 3)]

    def test_random_method(self, device, ghz6):
        config = JigSawConfig(subset_method="random", num_subsets=6)
        jigsaw = JigSaw(device, config, seed=0)
        subsets = jigsaw.generate_subsets(ghz6)
        assert len(subsets) == 6
        covered = {q for s in subsets for q in s}
        assert covered == set(range(6))

    def test_split_trials_even(self, device):
        jigsaw = JigSaw(device, seed=0)
        global_trials, per_cpm = jigsaw.split_trials(32_768, 8)
        assert global_trials == 16_384
        assert per_cpm == 2_048

    def test_split_trials_too_few(self, device):
        jigsaw = JigSaw(device, seed=0)
        with pytest.raises(ReconstructionError):
            jigsaw.split_trials(4, 8)

    def test_plan_keeps_the_runner_spawn_stream(self, device, ghz6):
        # A fresh plan and a plan-cache hit both advance the runner's
        # spawn counter by the plan's compile_spawns (the global compile
        # plus one per CPM); the next spawn is then the child that
        # building every one of those generators gives.
        cache = CompilationCache()
        runner = JigSaw(device, seed=7, cache=cache)
        reference = np.random.default_rng(7)
        spawn(reference, 1)  # the runner's sampler stream
        for hits in (0, 1):
            plan = runner.plan(ghz6)
            counters = cache.metrics.snapshot()["counters"]
            assert counters["cache.plan_hits"] == hits
            spawn(reference, plan.compile_spawns)
            ours = spawn(runner._rng, 1)[0].integers(2**62, size=4)
            theirs = spawn(reference, 1)[0].integers(2**62, size=4)
            assert ours.tolist() == theirs.tolist()


class TestJigSawEndToEnd:
    def test_improves_pst_exact(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        result = jigsaw.run(ghz6, total_trials=16_384)
        base = probability_of_successful_trial(result.global_pmf, CORRECT6)
        out = probability_of_successful_trial(result.output_pmf, CORRECT6)
        assert out > base

    def test_improves_pst_sampled(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=False), seed=5)
        result = jigsaw.run(ghz6, total_trials=32_768)
        base = probability_of_successful_trial(result.global_pmf, CORRECT6)
        out = probability_of_successful_trial(result.output_pmf, CORRECT6)
        assert out > base

    def test_result_bookkeeping(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        result = jigsaw.run(ghz6, total_trials=16_384)
        assert len(result.cpm_executables) == 6
        assert len(result.marginals) == 6
        # 8192 // 6 leaves 2 remainder trials; they fold into global mode
        # so the whole budget is spent.
        assert result.global_trials == 8_194
        assert result.total_trials == 16_384
        for marginal, subset in zip(result.marginals, result.subsets):
            assert marginal.qubits == subset

    def test_cpms_measure_declared_subsets(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        result = jigsaw.run(ghz6, total_trials=16_384)
        for subset, executable in zip(result.subsets, result.cpm_executables):
            assert executable.logical.measured_qubits == subset

    def test_reuses_provided_global_executable(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        global_exec = jigsaw.compile_global(ghz6)
        result = jigsaw.run(
            ghz6, total_trials=16_384, global_executable=global_exec
        )
        assert result.global_executable is global_exec

    def test_deterministic_with_seed(self, device, ghz6):
        a = JigSaw(device, JigSawConfig(exact=True), seed=7).run(ghz6, 16_384)
        b = JigSaw(device, JigSawConfig(exact=True), seed=7).run(ghz6, 16_384)
        assert a.output_pmf.as_dict() == pytest.approx(b.output_pmf.as_dict())

    def test_cpm_marginals_beat_global_derived(self, device):
        """The paper's §4.2 premise: each CPM marginal is at least as close
        to the ideal marginal as the same marginal derived from the
        global PMF."""
        from repro.workloads import ghz

        workload = ghz(6)
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=30)
        result = jigsaw.run(workload.circuit, total_trials=32_768)
        ideal = workload.ideal_distribution()
        wins = 0
        for marginal in result.marginals:
            ideal_marginal = ideal.marginal(marginal.qubits)
            derived = result.global_pmf.marginal(marginal.qubits)
            wins += total_variation_distance(
                marginal.pmf, ideal_marginal
            ) <= total_variation_distance(derived, ideal_marginal)
        assert wins >= len(result.marginals) - 1  # one loss to routing luck

    def test_bv_single_answer(self, device):
        from repro.workloads import bv

        workload = bv(5)
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=3)
        result = jigsaw.run(workload.circuit, total_trials=16_384)
        assert result.output_pmf.mode() == workload.correct_outcomes[0]


class TestJigSawM:
    def test_improves_over_plain_jigsaw(self, device, ghz6):
        plain = JigSaw(device, JigSawConfig(exact=True), seed=5)
        multi = JigSaw(device, JigSawMConfig(exact=True), seed=5)
        shared = plain.compile_global(ghz6)
        plain_out = plain.run(ghz6, 32_768, global_executable=shared).output_pmf
        multi_out = multi.run(ghz6, 32_768, global_executable=shared).output_pmf
        plain_pst = probability_of_successful_trial(plain_out, CORRECT6)
        multi_pst = probability_of_successful_trial(multi_out, CORRECT6)
        assert multi_pst >= plain_pst * 0.98  # at least on par, usually above

    def test_pmf_count_matches_paper(self, device, ghz6):
        """§4.4.1: JigSaw-M with S sizes produces SN local PMFs."""
        multi = JigSaw(device, JigSawMConfig(exact=True), seed=5)
        result = multi.run(ghz6, 32_768)
        sizes = sorted(result.marginals_by_size)
        assert sizes == [2, 3, 4, 5]
        for size in sizes:
            assert len(result.marginals_by_size[size]) == 6
        assert len(result.cpm_executables) == 24

    def test_explicit_subsets_rejected(self, device, ghz6):
        multi = JigSaw(device, JigSawMConfig(exact=True), seed=5)
        with pytest.raises(ReconstructionError):
            multi.run(ghz6, 16_384, subsets=[(0, 1)])

    def test_marginal_sizes_match_layers(self, device, ghz6):
        multi = JigSaw(device, JigSawMConfig(exact=True), seed=5)
        result = multi.run(ghz6, 32_768)
        for size, marginals in result.marginals_by_size.items():
            assert all(m.subset_size == size for m in marginals)


class TestReconstructionCounters:
    """``reconstruct.rounds`` and ``reconstruct.capped`` in the registry."""

    @staticmethod
    def counts(snapshot):
        rounds = snapshot["histograms"]["reconstruct.rounds"]
        return rounds, snapshot["counters"]["reconstruct.capped"]

    def test_cap_counts_every_reconstruction(self, device, ghz6):
        plain = JigSaw(device, JigSawConfig(exact=True, max_rounds=1), seed=5)
        multi = JigSaw(
            device, JigSawMConfig(exact=True, max_rounds=1), seed=5
        )
        plain.run(ghz6, 16_384)
        result = multi.run(ghz6, 16_384)
        rounds, capped = self.counts(plain.metrics.snapshot())
        assert (rounds["count"], rounds["max_rounds"], capped) == (1, 1, 1)
        rounds, capped = self.counts(multi.metrics.snapshot())
        layers = len(result.marginals_by_size)
        assert (rounds["count"], rounds["max_rounds"], capped) == (layers, 1, layers)

    def test_exact_marginals_stop_after_one_round(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, 16_384)
        ideal = PMF({"000000": 0.5, "111111": 0.5})
        pmfs = [ideal] + [ideal.marginal(subset) for subset in plan.subsets]
        jigsaw.reconstruct(plan, pmfs)
        rounds, capped = self.counts(jigsaw.metrics.snapshot())
        assert rounds["count"] == 1
        assert rounds["buckets"] == {"le_1": 1}
        assert capped == 0

    def test_session_snapshot_shows_counters(self):
        from repro.runtime import Session
        from repro.workloads import workload_by_name

        workload = workload_by_name("GHZ-6")
        with Session(make_line_device(8), seed=0, exact=True) as session:
            session.run_scheme("jigsaw", workload)
            session.run_scheme("jigsaw_m", workload)
            rounds, capped = self.counts(session.telemetry_snapshot())
        # One JigSaw reconstruction plus one per JigSaw-M layer (2..5).
        assert rounds["count"] == 1 + 4
        assert 0 <= capped <= rounds["count"]


class TestPayloadSchema:
    """The stored result payloads of both plan shapes, pinned by structure
    and integers only (float bits would tie the test to one BLAS)."""

    PMF_KEYS = ["codes", "probs", "num_bits"]
    HEAD = ["scheme", "payload_version", "output_pmf", "global_pmf"]
    TRIALS = ["global_trials", "trials_per_cpm", "total_trials"]

    @pytest.fixture(scope="class")
    def payloads(self):
        from repro.devices import ibmq_toronto
        from repro.runtime import Session
        from repro.workloads import ghz

        session = Session(ibmq_toronto(), seed=0, exact=True)
        workload = ghz(6)
        return {
            scheme: session.run(session.plan(workload, scheme=scheme)).to_dict()
            for scheme in ("jigsaw", "jigsaw_nr", "jigsaw_m")
        }

    def check_marginal(self, entry, num_qubits):
        assert list(entry) == ["qubits", "pmf"]
        assert len(entry["qubits"]) == num_qubits
        assert list(entry["pmf"]) == self.PMF_KEYS
        assert entry["pmf"]["num_bits"] == num_qubits

    def check_common(self, payload, num_cpms):
        from repro.core import PAYLOAD_VERSION

        assert payload["payload_version"] == PAYLOAD_VERSION
        for key in ("output_pmf", "global_pmf"):
            assert list(payload[key]) == self.PMF_KEYS
            assert payload[key]["num_bits"] == 6
        assert all(type(payload[key]) is int for key in self.TRIALS)
        assert payload["total_trials"] == (
            payload["global_trials"] + payload["trials_per_cpm"] * num_cpms
        )
        assert json.loads(json.dumps(payload)) == payload

    @pytest.mark.parametrize("scheme", ["jigsaw", "jigsaw_nr"])
    def test_one_layer_shape(self, payloads, scheme):
        payload = payloads[scheme]
        assert list(payload) == self.HEAD + ["marginals", "subsets"] + self.TRIALS
        assert payload["scheme"] == "jigsaw"
        assert len(payload["marginals"]) == len(payload["subsets"]) == 6
        for entry, subset in zip(payload["marginals"], payload["subsets"]):
            self.check_marginal(entry, 2)
            assert entry["qubits"] == subset
        self.check_common(payload, 6)

    def test_multi_layer_shape(self, payloads):
        payload = payloads["jigsaw_m"]
        assert list(payload) == self.HEAD + ["marginals_by_size"] + self.TRIALS
        assert payload["scheme"] == "jigsaw_m"
        by_size = payload["marginals_by_size"]
        assert list(by_size) == ["2", "3", "4", "5"]
        for size, entries in by_size.items():
            assert len(entries) == 6
            for entry in entries:
                self.check_marginal(entry, int(size))
        self.check_common(payload, 24)

"""Tests for batch execution: validation, coalescing counters, spliced
multi-plan batches and budget accounting.

:class:`~repro.runtime.backend.LocalBackend` evaluates every batch
in-process through one body; exact mode coalesces duplicate executables
into one evaluation group.
"""

import pytest

from repro.core import (
    JigSaw,
    JigSawConfig,
    JigSawMConfig,
    budget_report_for_plan,
    plan_trial_budget,
    split_trial_budget,
)
from repro.compiler import CompilerPipeline
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime import ExecutionRequest, LocalBackend, Session
from repro.workloads import ghz
from tests.conftest import counts, make_varied_line_device


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture(scope="module")
def noise_model(device):
    return NoiseModel.from_device(device)


@pytest.fixture(scope="module")
def ghz6():
    return ghz(6).circuit


def make_requests(device, ghz6, trials=400):
    pipeline = CompilerPipeline(device)
    executables = [
        pipeline.compile(ghz6, seed=0),
        pipeline.compile(ghz6.with_measured_subset([0, 1]), seed=1),
        pipeline.compile(ghz6.with_measured_subset([2, 3]), seed=2),
        pipeline.compile(ghz6.with_measured_subset([4, 5]), seed=3),
    ]
    return [ExecutionRequest(e, trials) for e in executables]


class TestShardedValidation:
    def test_rejects_non_local_inner(self, noise_model):
        # A splice takes local-backend parts only: their seed streams
        # are what keep every part bit-for-bit solo.
        backend = LocalBackend(noise_model=noise_model)
        with pytest.raises(SimulationError):
            backend.execute_spliced([(object(), [])])

    def test_rejects_part_with_other_chunk_shots(
        self, device, noise_model, ghz6
    ):
        # Every request of a splice samples on the executor's sampler,
        # and the chunk size is the sampler setting that moves bits.
        executor = LocalBackend(exact=False, noise_model=noise_model)
        part = LocalBackend(
            NoisySampler(noise_model, seed=1, chunk_shots=1_000), exact=False
        )
        requests = make_requests(device, ghz6)
        with pytest.raises(SimulationError, match="chunk_shots"):
            executor.execute_spliced([(part, requests)])
        same = LocalBackend(NoisySampler(noise_model, seed=1), exact=False)
        (pmfs,) = executor.execute_spliced([(same, requests)])
        solo = LocalBackend(NoisySampler(noise_model, seed=1), exact=False)
        assert [pmf.as_dict() for pmf in pmfs] == [
            pmf.as_dict() for pmf in solo.execute(requests)
        ]

    def test_zero_trials_sampled_rejected(self, device, noise_model, ghz6):
        executable = CompilerPipeline(device).compile(ghz6, seed=0)
        backend = LocalBackend(exact=False, noise_model=noise_model, seed=1)
        with pytest.raises(SimulationError):
            backend.execute([ExecutionRequest(executable, 0)])

    def test_empty_batch(self, noise_model):
        backend = LocalBackend(noise_model=noise_model)
        assert backend.execute([]) == []

    def test_runner_backend_stats_persist_across_runs(self, device, ghz6):
        # The runner builds its backend once, so cumulative counters
        # survive across execute calls.
        runner = JigSaw(device, JigSawConfig(exact=True), seed=5)
        backend = runner.backend
        runner.run(ghz6, total_trials=8_192)
        runner.run(ghz6, total_trials=8_192)
        assert counts(runner)["backend.batches"] == 2
        assert runner.backend is backend

    def test_stats_counters(self, device, noise_model, ghz6):
        requests = make_requests(device, ghz6) + make_requests(device, ghz6)
        backend = LocalBackend(noise_model=noise_model)
        pmfs = backend.execute(requests)
        counters = counts(backend)
        assert counters["backend.requests"] == 8
        assert counters["backend.groups"] == 4  # duplicates coalesced
        assert counters["backend.channel_evals"] == 4
        # A coalesced group shares one PMF object.
        assert all(pmfs[i] is pmfs[i + 4] for i in range(4))
        assert len({id(pmf) for pmf in pmfs}) == 4

        # A session's backend coalesces a JigSaw plan's batch submitted
        # twice the same way: one group per distinct executable.
        with Session(device, seed=4) as session:
            requests = session.plan(ghz(6)).requests() * 2
            session.backend.execute(requests)
            counters = session.telemetry_snapshot()["counters"]
        assert counters["backend.requests"] == len(requests)
        assert counters["backend.groups"] * 2 == len(requests)


class TestExecuteMany:
    """Several plans' batches executed as one spliced batch."""

    def test_combined_batch_matches_per_plan_exact(self, device, ghz6):
        a = JigSaw(device, JigSawConfig(exact=True), seed=5)
        b = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plans_a = [a.plan(ghz6, total_trials=t) for t in (8_192, 16_384)]
        plans_b = [b.plan(ghz6, total_trials=t) for t in (8_192, 16_384)]
        separate = [a.execute(plan) for plan in plans_a]
        pmf_lists = b.backend.execute_spliced(
            [(b.backend, plan.requests()) for plan in plans_b]
        )
        combined = [
            b.reconstruct(plan, pmfs) for plan, pmfs in zip(plans_b, pmf_lists)
        ]
        assert len(combined) == 2
        for lhs, rhs in zip(separate, combined):
            assert lhs.output_pmf.as_dict() == rhs.output_pmf.as_dict()
            assert rhs.total_trials == lhs.total_trials

    def test_spliced_parts_stack_like_one_batch(self, device, ghz6):
        # Every request of a splice evaluates on the executor's sampler,
        # so parts whose noise models are equal by content but distinct
        # objects share channel contractions exactly as one plain batch
        # of all their requests does.
        requests = make_requests(device, ghz6)

        def backend():
            return LocalBackend(noise_model=NoiseModel.from_device(device))

        executor, plain = backend(), backend()
        spliced = executor.execute_spliced(
            [(backend(), requests[:2]), (backend(), requests[2:])]
        )
        pmfs = plain.execute(requests)
        assert [pmf.as_dict() for part in spliced for pmf in part] == [
            pmf.as_dict() for pmf in pmfs
        ]
        for key in (
            "backend.channel_evals",
            "backend.stacked_evals",
            "backend.stacked_circuits",
        ):
            assert counts(executor)[key] == counts(plain)[key], key


class TestBudgetConservation:
    """split_trials, plan_trial_budget, and run_edm agree and conserve."""

    @pytest.mark.parametrize("total", [1_001, 4_099, 16_383, 32_768])
    @pytest.mark.parametrize("num_cpms", [3, 6, 7, 16])
    def test_split_conserves_and_matches_runner(self, device, total, num_cpms):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=0)
        global_trials, per_cpm = jigsaw.split_trials(total, num_cpms)
        assert global_trials + per_cpm * num_cpms == total
        assert (global_trials, per_cpm) == split_trial_budget(
            total, num_cpms, 0.5
        )

    @pytest.mark.parametrize("total", [1_001, 4_099, 16_383])
    def test_plan_trial_budget_matches_split(self, total):
        report = plan_trial_budget(total, [2, 3], [6, 6])
        expected_global, expected_per = split_trial_budget(total, 12, 0.5)
        assert report["global_trials"] == expected_global
        assert report["trials_per_cpm"] == expected_per
        assert report["allocated_trials"] == total

    def test_budget_report_describes_executed_plan(self, device, ghz6):
        runner = JigSaw(device, JigSawMConfig(exact=True), seed=0)
        plan = runner.plan(ghz6, total_trials=16_383)
        report = budget_report_for_plan(plan)
        assert report["global_trials"] == plan.global_trials
        assert report["trials_per_cpm"] == plan.trials_per_cpm
        assert report["allocated_trials"] == plan.total_trials
        sizes = [layer["subset_size"] for layer in report["layers"]]
        assert sizes == [layer.subset_size for layer in plan.layers]
        # Size-aware: each layer is checked against its own minimum.
        minima = [layer["min_trials_needed"] for layer in report["layers"]]
        assert minima == sorted(minima) and len(set(minima)) == len(minima)

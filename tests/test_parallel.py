"""Tests for sharded execution: determinism, coalescing, budget accounting.

The contract under test: :class:`~repro.runtime.backend.LocalBackend`
runs every batch through one body, and produces **bit-for-bit** the same
PMFs under a fixed seed in-process (``workers`` None/1) and at any
sharded worker count, because seed streams are spawned per request
index — never per worker.
"""

import pytest

from repro.core import (
    JigSaw,
    JigSawConfig,
    JigSawM,
    JigSawMConfig,
    budget_report_for_plan,
    plan_trial_budget,
    split_trial_budget,
)
from repro.compiler import CompilerPipeline
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.runtime import ExecutionRequest, LocalBackend, Session
from repro.workloads import ghz, workload_by_name
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


def exact_dicts(pmfs):
    return [pmf.as_dict() for pmf in pmfs]


class TestShardedDeterminism:
    """in-process == workers=1 == workers=4, bit-for-bit (no approx)."""

    def test_sampled_serial_vs_sharded_worker_counts(
        self, device, noise_model, ghz6
    ):
        requests = make_requests(device, ghz6)
        serial = LocalBackend(
            exact=False, noise_model=noise_model, seed=11
        ).execute(requests)
        for workers in (1, 4):
            sharded = LocalBackend(
                exact=False, workers=workers, noise_model=noise_model, seed=11
            ).execute(requests)
            assert exact_dicts(sharded) == exact_dicts(serial), workers

    def test_exact_serial_vs_sharded_with_coalescing(
        self, device, noise_model, ghz6
    ):
        requests = make_requests(device, ghz6)
        # Duplicate the batch so coalescing has something to merge.
        requests = requests + make_requests(device, ghz6)
        serial = LocalBackend(noise_model=noise_model).execute(requests)
        for workers in (1, 4):
            backend = LocalBackend(workers=workers, noise_model=noise_model)
            sharded = backend.execute(requests)
            assert exact_dicts(sharded) == exact_dicts(serial), workers
            counters = counts(backend)
            assert counters["backend.groups"] < counters["backend.requests"]

    def test_worker_counts_record_equal_counters(self, device):
        # One execution body at every worker count: a session's backend
        # coalesces, counts requests/groups/batches and evaluates the
        # same work whether it runs in-process or sharded.  Only the
        # shard and stacking counters follow the shard count.
        parity = (
            "backend.requests",
            "backend.groups",
            "backend.channel_evals",
            "backend.statevector_evals",
            "backend.batches",
        )
        runs = []
        for workers in (None, 1, 2):
            with Session(device, seed=4, workers=workers) as session:
                # Every request of the plan twice; fresh plans per
                # session, so no statevector is pre-shared.
                requests = session.plan(ghz(6)).requests() * 2
                pmfs = session.backend.execute(requests)
                counters = session.telemetry_snapshot()["counters"]
            runs.append(
                (
                    exact_dicts(pmfs),
                    {name: counters.get(name, 0) for name in parity},
                )
            )
        reference_pmfs, reference_counters = runs[0]
        # The in-process session coalesces the duplicated plan as well.
        assert reference_counters["backend.requests"] == len(requests)
        assert reference_counters["backend.groups"] * 2 == len(requests)
        for pmfs, counters in runs[1:]:
            assert pmfs == reference_pmfs
            assert counters == reference_counters

    def test_process_executor_matches_thread(self, device, noise_model, ghz6):
        requests = make_requests(device, ghz6, trials=100)
        by_executor = []
        for executor in ("thread", "process"):
            backend = LocalBackend(
                exact=False,
                workers=2,
                executor=executor,
                noise_model=noise_model,
                seed=13,
            )
            by_executor.append(exact_dicts(backend.execute(requests)))
        assert by_executor[0] == by_executor[1]

    @pytest.mark.parametrize("exact", [True, False])
    def test_process_pool_matches_serial_on_jigsaw_batches(
        self, toronto, exact
    ):
        # Jigsaw batches of two programs on a paper device, pickled to a
        # two-process pool: every PMF equals the in-process backend's.
        noise_model = NoiseModel.from_device(toronto)

        def requests():
            batch = []
            for name in ("BV-6", "GHZ-8"):
                runner = JigSaw(toronto, JigSawConfig(exact=exact), seed=0)
                plan = runner.plan(
                    workload_by_name(name).circuit, total_trials=8_192
                )
                batch.extend(plan.requests())
            return batch

        def backend(**sharding):
            return LocalBackend(
                exact=exact, noise_model=noise_model, seed=17, **sharding
            )

        serial = exact_dicts(backend().execute(requests()))
        with backend(workers=2, executor="process") as pooled:
            sharded = exact_dicts(pooled.execute(requests()))
            assert counts(pooled)["backend.shards"] == 2
        assert sharded == serial

    def test_sampled_jigsaw_run_with_execute_workers(self, device, ghz6):
        serial = JigSaw(device, JigSawConfig(exact=False), seed=7)
        sharded = JigSaw(
            device, JigSawConfig(exact=False, execute_workers=4), seed=7
        )
        a = serial.run(ghz6, total_trials=4_096)
        b = sharded.run(ghz6, total_trials=4_096)
        assert a.output_pmf.as_dict() == b.output_pmf.as_dict()
        assert a.global_pmf.as_dict() == b.global_pmf.as_dict()

    def test_sampled_session_with_workers(self, device):
        workload = ghz(6)
        plain = Session(device, seed=3, exact=False, total_trials=4_096)
        fanned = Session(
            device, seed=3, exact=False, total_trials=4_096, workers=4
        )
        for scheme in ("baseline", "edm", "jigsaw", "jigsaw_m"):
            assert (
                plain.run_scheme(scheme, workload).as_dict()
                == fanned.run_scheme(scheme, workload).as_dict()
            ), scheme
        # close() releases every lazily created pool; the session stays
        # usable afterwards (pools re-materialise on demand).
        fanned.close()
        assert (
            plain.run_scheme("jigsaw", workload).as_dict()
            == fanned.run_scheme("jigsaw", workload).as_dict()
        )

    def test_sampled_jigsaw_m_with_workers(self, device, ghz6):
        serial = JigSawM(device, JigSawMConfig(exact=False), seed=9)
        sharded = JigSawM(
            device, JigSawMConfig(exact=False, execute_workers=3), seed=9
        )
        a = serial.run(ghz6, total_trials=8_192)
        b = sharded.run(ghz6, total_trials=8_192)
        assert a.output_pmf.as_dict() == b.output_pmf.as_dict()


class TestShardedValidation:
    def test_rejects_non_local_inner(self, noise_model):
        # A splice takes local-backend parts only: their samplers and
        # seed streams are what keep every part bit-for-bit solo.
        backend = LocalBackend(noise_model=noise_model)
        with pytest.raises(SimulationError):
            backend.execute_spliced([(object(), [])])

    def test_rejects_unknown_executor(self, noise_model):
        with pytest.raises(SimulationError):
            LocalBackend(noise_model=noise_model, executor="rayon")

    def test_zero_trials_sampled_rejected(self, device, noise_model, ghz6):
        executable = CompilerPipeline(device).compile(ghz6, seed=0)
        backend = LocalBackend(
            exact=False, workers=2, noise_model=noise_model, seed=1
        )
        with pytest.raises(SimulationError):
            backend.execute([ExecutionRequest(executable, 0)])

    def test_empty_batch(self, noise_model):
        backend = LocalBackend(noise_model=noise_model)
        assert backend.execute([]) == []

    def test_runner_backend_stats_persist_across_runs(self, device, ghz6):
        # The runner caches its resolved backend, so cumulative counters
        # (and the worker pool) survive across execute calls.
        runner = JigSaw(
            device, JigSawConfig(exact=True, execute_workers=2), seed=5
        )
        runner.run(ghz6, total_trials=8_192)
        runner.run(ghz6, total_trials=8_192)
        backend = runner._resolve_backend()
        assert counts(runner)["backend.batches"] == 2
        assert backend is runner._resolve_backend()

    def test_stats_counters(self, device, noise_model, ghz6):
        requests = make_requests(device, ghz6) + make_requests(device, ghz6)
        backend = LocalBackend(workers=2, noise_model=noise_model)
        backend.execute(requests)
        counters = counts(backend)
        assert counters["backend.requests"] == 8
        assert counters["backend.groups"] == 4  # duplicates coalesced
        assert counters["backend.channel_evals"] == 4


class TestExecuteMany:
    def test_combined_batch_matches_per_plan_exact(self, device, ghz6):
        a = JigSaw(device, JigSawConfig(exact=True), seed=5)
        b = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plans_a = [a.plan(ghz6, total_trials=t) for t in (8_192, 16_384)]
        plans_b = [b.plan(ghz6, total_trials=t) for t in (8_192, 16_384)]
        separate = [a.execute(plan) for plan in plans_a]
        combined = b.execute_many(plans_b)
        assert len(combined) == 2
        for lhs, rhs in zip(separate, combined):
            assert lhs.output_pmf.as_dict() == rhs.output_pmf.as_dict()
            assert rhs.total_trials == lhs.total_trials

    def test_execute_many_rejects_foreign_plan(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        jigsaw_m = JigSawM(device, JigSawMConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        from repro.exceptions import ReconstructionError

        with pytest.raises(ReconstructionError):
            jigsaw_m.execute_many([plan])


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
        runner = JigSawM(device, JigSawMConfig(exact=True), seed=0)
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

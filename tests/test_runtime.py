"""Tests for the runtime layer: backends, plans, fingerprints, cache."""

import pickle

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import CompilerPipeline
from repro.compiler.sabre import RoutingBody
from repro.core import JigSaw, JigSawConfig, JigSawMConfig
from repro.exceptions import ReconstructionError, SimulationError
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime import (
    CompilationCache,
    ExecutionRequest,
    LocalBackend,
    circuit_fingerprint,
    config_fingerprint,
    executable_fingerprint,
    unitary_body_fingerprint,
)
from repro.runtime.fingerprint import body_fingerprint, structure_fingerprint
from repro.workloads import ghz, qaoa_maxcut
from tests.conftest import make_varied_line_device


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture(scope="module")
def noise_model(device):
    return NoiseModel.from_device(device)


@pytest.fixture(scope="module")
def ghz6():
    return ghz(6).circuit


@pytest.fixture(scope="module")
def pipeline(device):
    return CompilerPipeline(device)


class TestFingerprints:
    def test_stable_across_builds(self):
        a, b = ghz(5).circuit, ghz(5).circuit
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_name_does_not_matter(self):
        a, b = ghz(5).circuit, ghz(5).circuit
        b.name = "renamed"
        assert circuit_fingerprint(a) == circuit_fingerprint(b)

    def test_instruction_change_changes_fingerprint(self):
        a, b = ghz(5).circuit, ghz(5).circuit
        b.x(0)
        assert circuit_fingerprint(a) != circuit_fingerprint(b)

    def test_unitary_body_shared_by_cpms(self, ghz6):
        cpm = ghz6.with_measured_subset([0, 1])
        assert unitary_body_fingerprint(ghz6) == unitary_body_fingerprint(cpm)
        assert circuit_fingerprint(ghz6) != circuit_fingerprint(cpm)

    def test_config_fingerprint_distinguishes_values_and_classes(self):
        assert config_fingerprint(JigSawConfig()) != config_fingerprint(
            JigSawConfig(recompile_cpms=False)
        )
        assert config_fingerprint(JigSawConfig()) != config_fingerprint(
            JigSawMConfig()
        )

    def test_executable_fingerprint_deterministic(self, pipeline, ghz6):
        a = pipeline.compile(ghz6, seed=3)
        b = pipeline.compile(ghz6, seed=3)
        assert executable_fingerprint(a) == executable_fingerprint(b)

    def test_fingerprint_strings_are_pinned(self, ghz6):
        # body_fingerprint seeds the router's tie-break jitter (through
        # routing_fingerprint) and the others key caches and stores, so
        # their strings must never move; recorded before the structure
        # token was cached and the parts were hashed in one update.
        cpm = ghz6.with_measured_subset((1, 4))
        template = qaoa_maxcut(5).template_circuit
        bound = qaoa_maxcut(5).circuit
        assert {
            name: (body_fingerprint(c), structure_fingerprint(c))
            for name, c in (("ghz6", ghz6), ("cpm", cpm), ("qaoa5", template))
        } == {
            "ghz6": (
                "5d90525c414ba39ccfccff47dd558d7f9698e9c2520eff87ca405be847030710",
                "150538920b50edbae0e537f34e47a8b01c0d6ad77ebc9b03174c2c0ec0687bf4",
            ),
            "cpm": (
                "5d90525c414ba39ccfccff47dd558d7f9698e9c2520eff87ca405be847030710",
                "0f3c429a4e4255f0b08905d1967b7f574f8bce053dc3b559abc3c7f01781cc3a",
            ),
            "qaoa5": (
                "462c10e3e88f930641ad1d6636153b41a6506658fa4e1243e22cf36adec49cb2",
                "84ba25d08476f5bcc5ed77cc304185e94878130ba8d1428cebfd300412b4237b",
            ),
        }
        # The bound QAOA-5 circuit's tokens carry its optimised angles.
        assert circuit_fingerprint(bound) == (
            "7f194b95983f0ac0b4fdad1c76512f37d11d2b115ab55a605eeda3e6d7ee3297"
        )
        assert unitary_body_fingerprint(cpm) == (
            "2600e7f57c7d3f2467d6455ec8a41f33cff3cdb62f2d9748508c288315d44edf"
        )

    def test_pipeline_reuses_a_body_fingerprint_only_for_the_same_body(
        self, device, ghz6
    ):
        pipeline = CompilerPipeline(device)
        body = ghz6.remove_measurements()
        prefix = QuantumCircuit(6)
        wider = QuantumCircuit(7)
        for ins in body.instructions[:-1]:
            prefix.append(ins)
        for ins in body.instructions:
            wider.append(ins)
        cpm_body = ghz6.with_measured_subset((0, 5)).remove_measurements()
        for circuit in (body, cpm_body, prefix, body, wider, cpm_body, ghz(5).circuit):
            memo = pipeline._body(circuit)
            assert memo.fingerprint == body_fingerprint(circuit)
            assert memo.routing == RoutingBody.from_circuit(circuit)
            assert memo.unitary_key == unitary_body_fingerprint(circuit)


class TestBackends:
    def test_exact_matches_sampler_closed_form(self, pipeline, noise_model, ghz6):
        executable = pipeline.compile(ghz6, seed=0)
        backend = LocalBackend(noise_model=noise_model)
        (pmf,) = backend.execute([ExecutionRequest(executable, 1024)])
        expected = NoisySampler(noise_model).exact_distribution(executable)
        assert pmf.as_dict() == pytest.approx(expected)

    def test_sampling_bitforbit_with_per_request_streams(
        self, pipeline, noise_model, ghz6
    ):
        # The batch seed discipline: one child stream per request index,
        # spawned off the sampler stream before any evaluation.  This is
        # what makes every worker count bit-for-bit equal.
        executable = pipeline.compile(ghz6, seed=0)
        cpm = pipeline.compile(ghz6.with_measured_subset([0, 1]), seed=1)
        requests = [
            ExecutionRequest(executable, 500),
            ExecutionRequest(cpm, 300),
        ]
        backend = LocalBackend(exact=False, noise_model=noise_model, seed=7)
        batch = backend.execute(requests)

        reference_sampler = NoisySampler(noise_model, seed=7)
        streams = reference_sampler.spawn_streams(len(requests))
        for request, pmf, stream in zip(requests, batch, streams):
            counts = reference_sampler.run(
                request.executable, request.trials, rng=stream
            )
            total = sum(counts.values())
            expected = {k: v / total for k, v in counts.items()}
            assert pmf.as_dict() == pytest.approx(expected)

    def test_sampling_request_streams_independent_of_batch_shape(
        self, pipeline, noise_model, ghz6
    ):
        # Request i's draws depend on its batch position only: executing
        # [a, b] yields the same PMF for a as executing [a, c].
        a = pipeline.compile(ghz6, seed=0)
        b = pipeline.compile(ghz6.with_measured_subset([0, 1]), seed=1)
        c = pipeline.compile(ghz6.with_measured_subset([2, 3]), seed=2)
        first = LocalBackend(
            exact=False, noise_model=noise_model, seed=9
        ).execute([ExecutionRequest(a, 400), ExecutionRequest(b, 200)])
        second = LocalBackend(
            exact=False, noise_model=noise_model, seed=9
        ).execute([ExecutionRequest(a, 400), ExecutionRequest(c, 200)])
        assert first[0].as_dict() == second[0].as_dict()

    def test_one_statevector_per_unitary_body(self, device, noise_model, ghz6):
        # Its own pipeline: the module's shared one may already hold the
        # body's vector in its cache's ideal store.
        pipeline = CompilerPipeline(device)
        executables = [
            pipeline.compile(ghz6, seed=0),
            pipeline.compile(ghz6.with_measured_subset([0, 1]), seed=1),
            pipeline.compile(ghz6.with_measured_subset([2, 3]), seed=2),
        ]
        requests = [ExecutionRequest(e, 64) for e in executables]
        # One body across global + both CPMs: one contraction, unstacked.
        assert LocalBackend.share_statevectors(requests) == (1, 0, 0)
        first = executables[0]._ideal_probabilities
        for executable in executables[1:]:
            assert executable._ideal_probabilities is first

    def test_share_skips_preshared(self, pipeline, noise_model, ghz6):
        executable = pipeline.compile(ghz6, seed=0)
        executable.ideal_probabilities()  # populate
        assert LocalBackend.share_statevectors(
            [ExecutionRequest(executable, 64)]
        ) == (0, 0, 0)

    def test_rejects_negative_trials(self, pipeline, ghz6):
        executable = pipeline.compile(ghz6, seed=0)
        with pytest.raises(SimulationError):
            ExecutionRequest(executable, -1)

    def test_zero_trials_ok_in_exact_mode(self, pipeline, noise_model, ghz6):
        # A starved allocation (e.g. extreme global_fraction) must not
        # crash exact mode, which ignores trial counts.
        executable = pipeline.compile(ghz6, seed=0)
        backend = LocalBackend(noise_model=noise_model)
        (pmf,) = backend.execute([ExecutionRequest(executable, 0)])
        assert pmf.num_bits == 6
        sampling = LocalBackend(exact=False, noise_model=noise_model, seed=1)
        with pytest.raises(SimulationError):
            sampling.execute([ExecutionRequest(executable, 0)])


class TestExecutionPlan:
    def test_plan_contents(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        assert plan.scheme == "jigsaw"
        assert plan.device_name == device.name
        assert plan.num_cpms == 6
        assert len(plan.layers) == 1
        assert plan.allocated_trials == 16_384
        requests = plan.requests()
        assert len(requests) == 7
        assert requests[0].trials == plan.global_trials

    def test_plan_execute_equals_run(self, device, ghz6):
        a = JigSaw(device, JigSawConfig(exact=True), seed=5)
        b = JigSaw(device, JigSawConfig(exact=True), seed=5)
        via_run = a.run(ghz6, total_trials=16_384)
        via_plan = b.execute(b.plan(ghz6, total_trials=16_384))
        assert via_run.output_pmf.as_dict() == pytest.approx(
            via_plan.output_pmf.as_dict()
        )

    def test_with_trials_rebudgets_without_recompiling(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        rebudgeted = plan.with_trials(
            32_768, *jigsaw.split_trials(32_768, plan.num_cpms)
        )
        assert rebudgeted.total_trials == 32_768
        assert rebudgeted.allocated_trials == 32_768
        assert rebudgeted.cpm_executables == plan.cpm_executables

    def test_with_trials_rejects_leaky_split(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        with pytest.raises(ReconstructionError):
            plan.with_trials(100, 10, 10)

    def test_to_dict_and_describe(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        summary = plan.to_dict()
        assert summary["scheme"] == "jigsaw"
        assert summary["num_cpms"] == 6
        assert len(summary["layers"][0]["subsets"]) == 6
        assert "6 CPMs" in plan.describe()

    def test_plan_pickles(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.circuit_fingerprint == plan.circuit_fingerprint
        assert clone.num_cpms == plan.num_cpms

    def test_jigsawm_plan_layers_ascending(self, device, ghz6):
        runner = JigSaw(device, JigSawMConfig(exact=True), seed=5)
        plan = runner.plan(ghz6, total_trials=16_384)
        assert plan.scheme == "jigsaw_m"
        sizes = [layer.subset_size for layer in plan.layers]
        assert sizes == sorted(sizes)
        assert sizes[0] == 2

    def test_scheme_mismatch_rejected(self, device, ghz6):
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=5)
        jigsaw_m = JigSaw(device, JigSawMConfig(exact=True), seed=5)
        plan = jigsaw.plan(ghz6, total_trials=16_384)
        with pytest.raises(ReconstructionError):
            jigsaw_m.execute(plan)


def plan_counts(cache):
    """(plan hits, plan misses) from the cache's telemetry registry."""
    counters = cache.metrics.snapshot()["counters"]
    return counters["cache.plan_hits"], counters["cache.plan_misses"]


class TestCompilationCache:
    def test_hit_returns_same_executables(self, device, ghz6):
        cache = CompilationCache()
        first = JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache)
        again = JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache)
        plan_a = first.plan(ghz6, total_trials=16_384)
        plan_b = again.plan(ghz6, total_trials=16_384)
        assert plan_counts(cache) == (1, 1)
        assert plan_b.cpm_executables == plan_a.cpm_executables

    def test_hit_avoids_transpile_calls(self, device, ghz6):
        cache = CompilationCache()
        first = JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache)
        first.plan(ghz6, total_trials=16_384)
        again = JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache)
        again.plan(ghz6, total_trials=16_384)
        compiles = [
            runner.metrics.snapshot()["counters"].get("compiler.compiles", 0)
            for runner in (first, again)
        ]
        assert compiles[0] > 0
        assert compiles[1] == 0

    def test_hit_result_identical_to_miss(self, device, ghz6):
        cache = CompilationCache()
        uncached = JigSaw(device, JigSawConfig(exact=True), seed=5).run(
            ghz6, total_trials=16_384
        )
        JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache).plan(
            ghz6, total_trials=16_384
        )
        cached = JigSaw(
            device, JigSawConfig(exact=True), seed=5, cache=cache
        ).run(ghz6, total_trials=16_384)
        assert plan_counts(cache)[0] == 1
        assert cached.output_pmf.as_dict() == pytest.approx(
            uncached.output_pmf.as_dict()
        )

    def test_execution_knobs_do_not_defeat_cache(self, device, ghz6):
        # tolerance/max_rounds/exact cannot change the compiled
        # artifact, so sweeps over them must hit.
        cache = CompilationCache()
        JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache).plan(
            ghz6, total_trials=16_384
        )
        swept = JigSaw(
            device,
            JigSawConfig(exact=False, tolerance=0.5, max_rounds=3),
            seed=5,
            cache=cache,
        ).plan(ghz6, total_trials=16_384)
        assert plan_counts(cache)[0] == 1
        # The hit carries the *current* runner's config snapshot.
        assert swept.config.tolerance == 0.5
        assert swept.config.exact is False

    def test_different_config_misses(self, device, ghz6):
        cache = CompilationCache()
        JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache).plan(
            ghz6, total_trials=16_384
        )
        JigSaw(
            device,
            JigSawConfig(exact=True, recompile_cpms=False),
            seed=5,
            cache=cache,
        ).plan(ghz6, total_trials=16_384)
        assert plan_counts(cache) == (0, 2)

    def test_random_subsets_never_cached(self, device, ghz6):
        cache = CompilationCache()
        config = JigSawConfig(exact=True, subset_method="random")
        JigSaw(device, config, seed=5, cache=cache).plan(ghz6, 16_384)
        assert len(cache) == 0 and plan_counts(cache)[1] == 0

    def test_disabled_cache_stores_nothing(self, device, ghz6):
        cache = CompilationCache.disabled()
        for _ in range(2):
            JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache).plan(
                ghz6, total_trials=16_384
            )
        assert plan_counts(cache) == (0, 2) and len(cache) == 0

    def test_lru_eviction(self, device):
        cache = CompilationCache(max_entries=1)
        config = JigSawConfig(exact=True)
        JigSaw(device, config, seed=5, cache=cache).plan(
            ghz(5).circuit, 16_384
        )
        JigSaw(device, config, seed=5, cache=cache).plan(
            ghz(6).circuit, 16_384
        )
        assert len(cache) == 1
        # The GHZ-5 plan was evicted: planning it again misses.
        JigSaw(device, config, seed=5, cache=cache).plan(
            ghz(5).circuit, 16_384
        )
        assert plan_counts(cache) == (0, 3)

    def test_make_key_escapes_separator(self):
        # Regression: components containing "|" used to collide — two
        # different part tuples could map to one cache key.
        assert CompilationCache.make_key(
            ("a|b", "c")
        ) != CompilationCache.make_key(("a", "b|c"))
        assert CompilationCache.make_key(
            ("a\\", "|b")
        ) != CompilationCache.make_key(("a", "\\|b"))

    def test_make_key_injective_over_part_tuples(self):
        parts = [
            ("a", "b", "c"),
            ("a|b", "c"),
            ("a", "b|c"),
            ("a\\|b", "c"),
            ("a\\", "b", "c"),
            ("a", "b\\", "c"),
            ("a|b|c",),
        ]
        keys = {CompilationCache.make_key(p) for p in parts}
        assert len(keys) == len(parts)

    def test_make_key_plain_parts_unchanged(self):
        # Fingerprints/device names contain neither "|" nor "\\"; their
        # keys keep the historical readable format.
        assert CompilationCache.make_key(("jigsaw", "abc123")) == "jigsaw|abc123"

    def test_rebudget_on_hit(self, device, ghz6):
        cache = CompilationCache()
        JigSaw(device, JigSawConfig(exact=True), seed=5, cache=cache).plan(
            ghz6, total_trials=16_384
        )
        plan = JigSaw(
            device, JigSawConfig(exact=True), seed=5, cache=cache
        ).plan(ghz6, total_trials=32_768)
        assert plan_counts(cache)[0] == 1
        assert plan.total_trials == 32_768
        assert plan.allocated_trials == 32_768

    def test_session_plan_key_is_pinned(self):
        # A session plan's cache key, as the string it is: scheme,
        # circuit, device, config (execution-only knobs excluded), the
        # shared global executable and the session's seed salt.
        from repro.devices import ibmq_toronto
        from repro.runtime import Session

        session = Session(ibmq_toronto(), seed=0)
        session.plan(ghz(4))
        assert len(session.cache) == 1
        assert CompilationCache.make_key(
            (
                "jigsaw",
                "d55f32819bf5c5a6e84c518272f891ae"
                "e5137722d6789be46b71ab6af363c735",
                "ibmq_toronto",
                "291df1785ea6f6670ce7e43325648ed7"
                "429dbee4f22ff385938975bdd3f2212e",
                "285b72569241043b17b9e32c215e1e93"
                "f8c72737169c11934eb78cab5a4b3a02",
                "session:0",
            )
        ) in session.cache


def ideal_counts(cache):
    """(ideal hits, ideal misses) from the cache's telemetry registry."""
    counters = cache.metrics.snapshot()["counters"]
    return counters["cache.ideal.hits"], counters["cache.ideal.misses"]


class TestIdealStore:
    def test_second_batch_of_a_body_is_served_from_the_cache(
        self, device, ghz6
    ):
        pipeline = CompilerPipeline(device)
        first = [pipeline.compile(ghz6, seed=0)]
        second = [
            pipeline.compile(ghz6.with_measured_subset([0, 1]), seed=1),
            pipeline.compile(ghz6.with_measured_subset([2, 3]), seed=2),
        ]
        assert LocalBackend.share_statevectors(
            [ExecutionRequest(e, 64) for e in first]
        ) == (1, 0, 0)
        assert LocalBackend.share_statevectors(
            [ExecutionRequest(e, 64) for e in second]
        ) == (0, 0, 0)
        vector = first[0]._ideal_probabilities
        assert all(e._ideal_probabilities is vector for e in second)
        assert not vector.flags.writeable
        assert ideal_counts(pipeline.cache) == (1, 1)
        assert len(pipeline.cache.ideal) == 1

    def test_keyed_by_unitary_body_not_angle_free_structure(self, device):
        from repro.runtime.fingerprint import body_fingerprint
        from repro.sim.statevector import StatevectorSimulator
        from repro.workloads import qaoa_maxcut

        workload = qaoa_maxcut(6, depth=1)
        point = dict(workload.default_parameters)
        shifted = {name: value + 0.3 for name, value in point.items()}
        pipeline = CompilerPipeline(device)
        a = pipeline.compile(workload.template_circuit.bind(point), seed=0)
        b = pipeline.compile(workload.template_circuit.bind(shifted), seed=0)
        assert body_fingerprint(a.logical) == body_fingerprint(b.logical)
        for executable in (a, b):
            LocalBackend.share_statevectors([ExecutionRequest(executable, 64)])
        simulator = StatevectorSimulator()
        for executable in (a, b):
            assert (
                executable._ideal_probabilities
                == simulator.probabilities(executable.logical)
            ).all()
        assert not (a._ideal_probabilities == b._ideal_probabilities).all()
        assert len(pipeline.cache.ideal) == 2
        assert ideal_counts(pipeline.cache) == (0, 2)

    def test_lookups_count_once_each(self, device, ghz6, monkeypatch):
        from repro.runtime.cache import IdealStore

        calls = []
        original = IdealStore.get

        def spy(store, key):
            calls.append(key)
            return original(store, key)

        monkeypatch.setattr(IdealStore, "get", spy)
        pipeline = CompilerPipeline(device)
        other = ghz(5).circuit
        for seed in range(3):
            LocalBackend.share_statevectors(
                [
                    ExecutionRequest(pipeline.compile(ghz6, seed=seed), 8),
                    ExecutionRequest(pipeline.compile(other, seed=seed), 8),
                ]
            )
        hits, misses = ideal_counts(pipeline.cache)
        assert (hits, misses) == (4, 2)
        assert hits + misses == len(calls)

    def test_byte_bound_evicts_least_recently_used(self):
        import numpy as np

        from repro.runtime.cache import IdealStore
        from repro.telemetry.metrics import MetricsRegistry

        store = IdealStore(max_bytes=2 * 64 * 8, metrics=MetricsRegistry())
        vectors = {key: np.full(64, float(i)) for i, key in enumerate("abc")}
        store.put("a", vectors["a"])
        store.put("b", vectors["b"])
        assert store.get("a") is vectors["a"]  # "b" is now the LRU
        store.put("c", vectors["c"])
        assert store.get("b") is None
        assert store.get("a") is vectors["a"]
        assert store.get("c") is vectors["c"]
        assert len(store) == 2 and store._bytes == 2 * 64 * 8
        store.put("big", np.zeros(3 * 64))  # over the bound: never kept
        assert store.get("big") is None and len(store) == 2

    def test_byte_bound_evicts_through_the_backend(
        self, device, ghz6, monkeypatch
    ):
        from repro.runtime import cache as cache_module

        # Room for one 6-qubit vector (64 float64s) only.
        monkeypatch.setattr(cache_module, "IDEAL_STORE_BYTES", 64 * 8)
        pipeline = CompilerPipeline(device, cache=CompilationCache())
        other = ghz6.copy()
        other.x(0)

        def evaluate(circuit, seed):
            executable = pipeline.compile(circuit, seed=seed)
            return LocalBackend.share_statevectors(
                [ExecutionRequest(executable, 8)]
            )[0]

        assert evaluate(ghz6, 0) == 1
        assert evaluate(ghz6, 1) == 0
        assert evaluate(other, 0) == 1  # evicts the GHZ body
        assert evaluate(ghz6, 2) == 1
        assert len(pipeline.cache.ideal) == 1
        assert pipeline.cache.ideal._bytes == 64 * 8

    def test_disabled_cache_shares_nothing(self, device, ghz6):
        pipeline = CompilerPipeline(device, cache=CompilationCache.disabled())
        for seed in range(2):
            executable = pipeline.compile(ghz6, seed=seed)
            assert LocalBackend.share_statevectors(
                [ExecutionRequest(executable, 8)]
            ) == (1, 0, 0)
        assert len(pipeline.cache.ideal) == 0
        assert ideal_counts(pipeline.cache) == (0, 2)

    def test_executable_pickles_without_its_store(self, device, ghz6):
        pipeline = CompilerPipeline(device)
        executable = pipeline.compile(ghz6, seed=0)
        LocalBackend.share_statevectors([ExecutionRequest(executable, 8)])
        assert executable._ideal_store is pipeline.cache.ideal
        clone = pickle.loads(pickle.dumps(executable))
        assert clone._ideal_store is None
        assert (clone._ideal_probabilities == executable._ideal_probabilities).all()
        assert executable._ideal_store is pipeline.cache.ideal

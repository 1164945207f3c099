"""Tests for the staged compiler pipeline (route-once/retarget-many).

The load-bearing invariants:

* stage-cached compilation is **bit-for-bit identical** to compiling on
  a ``CompilationCache.disabled()`` pipeline — routing is a pure function
  of its content key, so reuse can never change a plan;
* within a plan, a ``(body, initial layout)`` pair is routed at most
  once, no matter how many CPMs retarget onto it;
* ``MeasureRetarget`` never alters the routed body it retargets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import QuantumCircuit
from repro.compiler import CompilerPipeline, Layout, pool_layouts
from repro.compiler.pipeline import STAGE_ROUTE
from repro.core import JigSaw, JigSawConfig, JigSawMConfig
from repro.runtime import CompilationCache, executable_fingerprint
from repro.runtime.fingerprint import body_fingerprint, device_fingerprint
from repro.workloads import bv, ghz, qaoa_maxcut
from tests.conftest import counts, make_line_device, make_varied_line_device


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


def route_calls(owner):
    return counts(owner).get("compiler.route_calls", 0)


@pytest.fixture(scope="module")
def workload_circuits():
    return [
        ghz(6).circuit,
        bv(6).circuit,
        qaoa_maxcut(6, depth=1).circuit,
    ]


def _fingerprints(plan):
    return [
        executable_fingerprint(e)
        for e in [plan.global_executable] + plan.cpm_executables
    ]


def _eps_values(plan):
    return [e.eps for e in [plan.global_executable] + plan.cpm_executables]


class TestStageCacheEquivalence:
    """Cached and uncached compilation must be interchangeable."""

    def test_transpile_bit_for_bit(self, device, workload_circuits):
        for circuit in workload_circuits:
            cached = CompilerPipeline(device, cache=CompilationCache()).compile(
                circuit, seed=7
            )
            uncached = CompilerPipeline(
                device, cache=CompilationCache.disabled()
            ).compile(circuit, seed=7)
            assert executable_fingerprint(cached) == executable_fingerprint(
                uncached
            )
            assert cached.eps == uncached.eps
            assert cached.num_swaps == uncached.num_swaps

    def test_compile_cpm_bit_for_bit(self, device, workload_circuits):
        for circuit in workload_circuits:
            global_exec = CompilerPipeline(device).compile(circuit, seed=3)
            cpm = circuit.with_measured_subset([1, 2])
            results = []
            for cache in (CompilationCache(), CompilationCache.disabled()):
                pipeline = CompilerPipeline(device, cache=cache)
                results.append(
                    pipeline.compile_cpm(
                        cpm, global_exec, recompile=True, pool_size=3
                    )
                )
            assert executable_fingerprint(results[0]) == executable_fingerprint(
                results[1]
            )
            assert results[0].eps == results[1].eps

    def test_repeat_compile_hits_route_cache(self, device):
        pipeline = CompilerPipeline(device, cache=CompilationCache())
        circuit = ghz(6).circuit
        first = pipeline.compile(circuit, seed=11, attempts=4)
        calls_after_first = route_calls(pipeline)
        second = pipeline.compile(circuit, seed=11, attempts=4)
        assert executable_fingerprint(first) == executable_fingerprint(second)
        # Same seed -> same layouts -> every routing replays from cache.
        assert route_calls(pipeline) == calls_after_first
        assert counts(pipeline)["compiler.route_hits"] > 0


class TestPlanEquivalence:
    """JigSaw/JigSaw-M plans: stage-cached == recompute-everything."""

    @pytest.mark.parametrize("scheme", ["jigsaw", "jigsaw_m"])
    def test_plans_bit_for_bit(self, device, workload_circuits, scheme):
        runner_cls, config_cls = (
            (JigSaw, JigSawConfig)
            if scheme == "jigsaw"
            else (JigSaw, JigSawMConfig)
        )
        for circuit in workload_circuits:
            cached_runner = runner_cls(
                device, config_cls(exact=True), seed=9
            )
            legacy_runner = runner_cls(
                device, config_cls(exact=True), seed=9,
                cache=CompilationCache.disabled(),
            )
            plan_a = cached_runner.plan(circuit, total_trials=16_384)
            plan_b = legacy_runner.plan(circuit, total_trials=16_384)
            assert _fingerprints(plan_a) == _fingerprints(plan_b)
            assert _eps_values(plan_a) == _eps_values(plan_b)
            assert plan_a.subsets == plan_b.subsets
            assert (plan_a.global_trials, plan_a.trials_per_cpm) == (
                plan_b.global_trials, plan_b.trials_per_cpm
            )

    def test_recompile_disabled_matches(self, device):
        circuit = ghz(6).circuit
        config = JigSawConfig(exact=True, recompile_cpms=False)
        plan_a = JigSaw(device, config, seed=2).plan(circuit, 8_192)
        plan_b = JigSaw(
            device, config, seed=2, cache=CompilationCache.disabled()
        ).plan(circuit, 8_192)
        assert _fingerprints(plan_a) == _fingerprints(plan_b)
        for exe in plan_a.cpm_executables:
            assert exe.initial_layout == plan_a.global_executable.initial_layout


class TestRouteOnce:
    def test_each_body_layout_pair_routed_at_most_once(self, device):
        runner = JigSaw(device, JigSawMConfig(exact=True), seed=0)
        runner.plan(ghz(6).circuit, total_trials=16_384)
        counters = counts(runner)
        # Every route call created a distinct stage entry: no key was
        # ever routed twice.
        assert counters[
            "compiler.route_calls"
        ] == runner.pipeline.cache.stage_entries(STAGE_ROUTE)
        # 24 CPMs retargeted onto a handful of routings.
        assert counters["compiler.retargets"] > 4 * counters[
            "compiler.route_calls"
        ]
        assert counters["compiler.route_hits"] > 0

    def test_replanning_only_routes_new_layouts(self, device):
        # A second plan re-explores global placement from its own seeds
        # (possibly proposing a few layouts never seen before) but every
        # CPM routing — the bulk — replays from the stage cache, and no
        # key is ever routed twice.
        config = JigSawMConfig(exact=True)
        runner = JigSaw(device, config, seed=0)
        runner.plan(ghz(6).circuit, total_trials=16_384)
        calls = route_calls(runner)
        runner.plan(ghz(6).circuit, total_trials=4_096)
        new_calls = route_calls(runner) - calls
        assert new_calls <= config.compile_attempts
        assert route_calls(runner) == runner.pipeline.cache.stage_entries(
            STAGE_ROUTE
        )

    def test_legacy_path_routes_strictly_more(self, device):
        cached = JigSaw(device, JigSawMConfig(exact=True), seed=0)
        legacy = JigSaw(
            device, JigSawMConfig(exact=True), seed=0,
            cache=CompilationCache.disabled(),
        )
        cached.plan(ghz(6).circuit, total_trials=16_384)
        legacy.plan(ghz(6).circuit, total_trials=16_384)
        assert route_calls(legacy) >= 3 * route_calls(cached)


_GATE_NAMES = st.sampled_from(["h", "x", "t", "s", "cx", "cz"])


@st.composite
def body_with_layout(draw):
    """A small measurement-free body plus a random initial layout."""
    num_qubits = draw(st.integers(min_value=2, max_value=4))
    qc = QuantumCircuit(num_qubits)
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        name = draw(_GATE_NAMES)
        if name in ("cx", "cz"):
            a = draw(st.integers(min_value=0, max_value=num_qubits - 1))
            b = draw(
                st.integers(min_value=0, max_value=num_qubits - 1).filter(
                    lambda x: x != a
                )
            )
            getattr(qc, name)(a, b)
        else:
            getattr(qc, name)(
                draw(st.integers(min_value=0, max_value=num_qubits - 1))
            )
    physical = draw(
        st.permutations(range(8)).map(lambda perm: perm[:num_qubits])
    )
    return qc, Layout({l: p for l, p in enumerate(physical)})


class TestMeasureRetarget:
    @settings(max_examples=40, deadline=None)
    @given(body_with_layout(), st.integers(min_value=1, max_value=4))
    def test_retarget_never_alters_routed_body(self, pair, subset_size):
        body, layout = pair
        device = make_varied_line_device(num_qubits=8)
        pipeline = CompilerPipeline(device)
        routed = pipeline.routed_body(body, layout)
        before = (routed.ops, routed.qubits, routed.final_layout.as_dict())
        gates = pipeline.retarget(routed, body).instructions
        qubits = list(range(min(subset_size, body.num_qubits)))
        circuit = body.copy()
        for clbit, qubit in enumerate(qubits):
            circuit.measure(qubit, clbit)
        physical = pipeline.retarget(routed, circuit)
        # The routed body is untouched: same schedule, same layouts.
        assert (
            routed.ops, routed.qubits, routed.final_layout.as_dict()
        ) == before
        assert not any(ins.is_measure for ins in gates)
        # The retargeted schedule is the body's physical gates plus
        # terminal measurements on each logical qubit's resting position.
        assert physical.instructions[: len(gates)] == gates
        for ins in physical.measurements:
            logical = routed.final_layout.logical(ins.qubits[0])
            assert logical == qubits[ins.clbits[0]]

    @settings(max_examples=20, deadline=None)
    @given(body_with_layout())
    def test_routing_is_pure_function_of_content(self, pair):
        body, layout = pair
        device = make_varied_line_device(num_qubits=8)
        a = CompilerPipeline(device, cache=CompilationCache.disabled())
        b = CompilerPipeline(device, cache=CompilationCache.disabled())
        routed_a = a.routed_body(body, layout)
        routed_b = b.routed_body(body, layout)
        assert a.retarget(routed_a, body) == b.retarget(routed_b, body)
        assert routed_a.routing_key == routed_b.routing_key
        assert routed_a.final_layout == routed_b.final_layout
        assert routed_a.num_swaps == routed_b.num_swaps
        assert routed_a.gate_eps == routed_b.gate_eps


class TestPoolLayouts:
    def test_pool_is_deterministic(self, device):
        body = ghz(6).circuit.remove_measurements()
        a = pool_layouts(body, device, pool_size=3, readout_weight=4.0)
        b = pool_layouts(body, device, pool_size=3, readout_weight=4.0)
        assert a == b
        assert len(a) <= 3

    def test_pool_is_measured_set_agnostic(self, device):
        circuit = ghz(6).circuit
        bodies = [
            circuit.with_measured_subset([0, 1]).remove_measurements(),
            circuit.with_measured_subset([3, 4, 5]).remove_measurements(),
        ]
        pools = [
            pool_layouts(body, device, pool_size=3, readout_weight=4.0)
            for body in bodies
        ]
        assert pools[0] == pools[1]
        assert body_fingerprint(bodies[0]) == body_fingerprint(bodies[1])


class TestDeviceContentKeys:
    """Stage artifacts key on device *content*, never on the bare name."""

    def test_same_name_different_calibration_never_shares(self):
        noisy = make_line_device(num_qubits=6, gate_2q=0.01, name="twin")
        quiet = make_line_device(num_qubits=6, gate_2q=0.001, name="twin")
        assert device_fingerprint(noisy) != device_fingerprint(quiet)
        shared = CompilationCache()
        exe_a = CompilerPipeline(noisy, cache=shared).compile(
            ghz(4).circuit, seed=0
        )
        exe_b = CompilerPipeline(quiet, cache=shared).compile(
            ghz(4).circuit, seed=0
        )
        # Same routing problem modulo calibration: the cached gate-EPS of
        # one device must not leak into the other through the shared store.
        assert exe_a.eps != exe_b.eps


class TestCounters:
    def test_pipeline_stats_count_compiles(self, device):
        pipeline = CompilerPipeline(device)
        pipeline.compile(ghz(6).circuit, seed=0)
        assert counts(pipeline)["compiler.compiles"] == 1
        global_exec = pipeline.compile(ghz(6).circuit, seed=0)
        pipeline.compile_cpm(
            ghz(6).circuit.with_measured_subset([0, 1]), global_exec
        )
        assert counts(pipeline)["compiler.compiles"] == 3

    def test_pipeline_stats_have_per_stage_counters(self, device):
        pipeline = CompilerPipeline(device)
        pipeline.compile(ghz(6).circuit, seed=0)
        counters = counts(pipeline)
        for counter in ("compiles", "place_runs", "route_calls",
                        "retargets", "eps_evals", "selects"):
            assert counters.get(f"compiler.{counter}", 0) > 0, counter

    def test_runner_surfaces_stage_stats(self, device):
        runner = JigSaw(device, JigSawConfig(exact=True), seed=1)
        runner.plan(ghz(6).circuit, total_trials=8_192)
        # The runner's registry carries its pipeline's counters and the
        # stage cache's.
        counters = counts(runner)
        assert counters["compiler.route_calls"] > 0
        assert counters["cache.stage.route.hits"] > 0
        assert runner.pipeline.cache.stage_entries(STAGE_ROUTE) > 0

    def test_cache_stats_namespace_is_separate(self, device):
        cache = CompilationCache()
        runner = JigSaw(device, JigSawConfig(exact=True), seed=1, cache=cache)
        runner.plan(ghz(6).circuit, total_trials=8_192)
        counters = counts(cache)
        # Stage traffic never perturbs the plan-level hit/miss counters.
        assert counters["cache.plan_misses"] == 1
        assert counters["cache.plan_hits"] == 0
        assert counters["cache.stage.route.misses"] > 0
        assert cache.stage_entries() > 0
        assert len(cache) == 1

"""The telemetry spine: metrics registry, tracer, exporters, adapters.

Four layers under test:

* the instruments (`Counter`/`Histogram`) and their registry
  composition (attach/merge, thread safety);
* the tracer (hierarchy, contextvar propagation, cross-thread spans,
  the disabled null path);
* the exporters (JSONL, Chrome trace-event JSON, Prometheus text, the
  ASCII tree);
* the integration seams: a traced service job yields one connected
  span tree from admission to finish, a traced sweep nests its
  compile-once/bind-many spans, ``telemetry_snapshot()`` carries every
  count under a dotted name, and tracing never changes payloads.
"""

import json
import pathlib
import re
import threading

import pytest

from repro.devices import device_by_name
from repro.runtime import Session
from repro.service.tier import ServiceSupervisor
from repro.service.tier.events import JobEventLog
from repro.telemetry import (
    DEFAULT_LATENCY_BOUNDS,
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Span,
    Tracer,
    chrome_trace,
    current_span,
    get_tracer,
    prometheus_text,
    render_trace_tree,
    spans_to_jsonl,
    trace_document,
    use_tracer,
)
from repro.workloads import workload_by_name


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_histogram_snapshot_shape(self):
        hist = Histogram(bounds=[0.1, 1.0])
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {"le_0.1": 1, "le_1": 1, "inf": 1}
        assert snap["min_seconds"] == 0.05
        assert snap["max_seconds"] == 5.0
        assert snap["total_seconds"] == pytest.approx(5.55)
        assert set(snap["quantiles"]) == {"p50", "p95", "p99"}

    def test_quantiles_interpolate_within_bucket(self):
        hist = Histogram(bounds=[1.0, 2.0, 4.0])
        for value in (1.1, 1.5, 1.9, 3.0):
            hist.observe(value)
        # p50 lands in the (1, 2] bucket; interpolation stays inside it
        # and inside the observed range.
        p50 = hist.quantile(0.5)
        assert 1.1 <= p50 <= 1.9
        # p99 lands in the (2, 4] bucket, clamped to the observed max.
        assert hist.quantile(0.99) <= 3.0
        assert hist.quantile(0.0) == pytest.approx(1.1)
        assert hist.quantile(1.0) == pytest.approx(3.0)

    def test_quantile_empty_and_bad_input(self):
        hist = Histogram()
        assert hist.quantile(0.5) is None
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_quantile_single_observation(self):
        hist = Histogram()
        hist.observe(0.25)
        for q in (0.5, 0.95, 0.99):
            assert hist.quantile(q) == pytest.approx(0.25)

    def test_merge(self):
        a = Histogram(bounds=[1.0])
        b = Histogram(bounds=[1.0])
        a.observe(0.5)
        b.observe(2.0)
        b.observe(0.25)
        a.merge(b)
        snap = a.snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {"le_1": 2, "inf": 1}
        assert snap["min_seconds"] == 0.25
        assert snap["max_seconds"] == 2.0

    def test_merge_rejects_mismatched_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=[1.0]).merge(Histogram(bounds=[2.0]))

    def test_default_bounds_are_log_spaced(self):
        assert DEFAULT_LATENCY_BOUNDS[0] == pytest.approx(1e-4)
        ratios = [
            DEFAULT_LATENCY_BOUNDS[i + 1] / DEFAULT_LATENCY_BOUNDS[i]
            for i in range(len(DEFAULT_LATENCY_BOUNDS) - 1)
        ]
        assert all(r == pytest.approx(4.0) for r in ratios)


class TestRegistry:
    def test_instruments_are_singletons_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("z") is registry.histogram("z")

    def test_snapshot_merges_children_by_sum(self):
        parent = MetricsRegistry()
        for _ in range(2):
            child = MetricsRegistry()
            child.counter("work.items").add(3)
            child.histogram("work.latency").observe(0.5)
            parent.attach(child)
        parent.counter("work.items").add(1)
        snap = parent.snapshot()
        assert snap["counters"]["work.items"] == 7
        assert snap["histograms"]["work.latency"]["count"] == 2

    def test_attach_prefix_namespaces_child(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("hits").add(2)
        parent.attach(child, prefix="cache")
        assert parent.snapshot()["counters"] == {"cache.hits": 2}

    def test_attach_dedups_and_rejects_self(self):
        parent = MetricsRegistry()
        child = MetricsRegistry()
        child.counter("n").add(1)
        parent.attach(child)
        parent.attach(child)  # second attach is a no-op
        assert parent.snapshot()["counters"]["n"] == 1
        with pytest.raises(ValueError):
            parent.attach(parent)

    def test_diamond_attachment_counts_once(self):
        # Two engines attach one shared registry; the supervisor attaches
        # both engines — the shared child must merge exactly once.
        shared = MetricsRegistry()
        shared.counter("cache.hits").add(5)
        top = MetricsRegistry()
        for _ in range(2):
            engine = MetricsRegistry()
            engine.attach(shared)
            top.attach(engine)
        assert top.snapshot()["counters"]["cache.hits"] == 5

    def test_thread_hammer(self):
        registry = MetricsRegistry()
        threads = 8
        per_thread = 2_000
        barrier = threading.Barrier(threads)

        def work():
            barrier.wait()
            counter = registry.counter("hammer.count")
            hist = registry.histogram("hammer.lat", bounds=[0.5])
            for i in range(per_thread):
                counter.add(1)
                hist.observe(0.25 if i % 2 else 0.75)

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        snap = registry.snapshot()
        total = threads * per_thread
        assert snap["counters"]["hammer.count"] == total
        assert snap["histograms"]["hammer.lat"]["count"] == total


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_default_tracer_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything") as span:
            assert span is None
        assert NULL_TRACER.spans() == []

    def test_use_tracer_scopes_activation(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with get_tracer().span("op"):
                pass
        assert get_tracer() is NULL_TRACER
        assert [s.name for s in tracer.spans()] == ["op"]

    def test_nesting_via_contextvar(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        assert current_span() is None
        by_name = {s.name: s for s in tracer.spans()}
        assert by_name["outer"].parent_id is None
        assert by_name["inner"].parent_id == by_name["outer"].span_id

    def test_deterministic_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [s.span_id for s in tracer.spans()] == ["s000001", "s000002"]
        assert tracer.new_trace_id() == "t000003"

    def test_explicit_parent_wins_over_context(self):
        tracer = Tracer()
        root = tracer.start_span("root", trace_id=tracer.new_trace_id())
        with tracer.span("other"):
            with tracer.span("child", parent=root) as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id

    def test_cross_thread_start_end(self):
        tracer = Tracer()
        span = tracer.start_span("queue_wait", trace_id="t42")

        def closer():
            tracer.end_span(span, worker="w0")

        thread = threading.Thread(target=closer)
        thread.start()
        thread.join()
        (filed,) = tracer.spans()
        assert filed.duration is not None
        assert filed.attrs["worker"] == "w0"
        assert filed.trace_id == "t42"

    def test_end_span_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("once")
        tracer.end_span(span)
        first = span.duration
        tracer.end_span(span)
        assert span.duration == first
        assert len(tracer.spans()) == 1

    def test_record_post_hoc(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        tracer.record("execute", parent=root, start=1.0, duration=2.0, n=3)
        (span,) = tracer.spans()
        assert (span.start, span.duration) == (1.0, 2.0)
        assert span.parent_id == root.span_id
        assert span.attrs == {"n": 3}

    def test_exception_marks_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"
        assert span.duration is not None

    def test_bounded_span_store_drops_oldest(self):
        tracer = Tracer(max_spans=5)
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 3
        assert [s.name for s in tracer.spans()] == [
            "s3", "s4", "s5", "s6", "s7",
        ]

    def test_spans_for_orders_by_start(self):
        tracer = Tracer()
        root = tracer.start_span("root", trace_id="tX")
        tracer.record("late", parent=root, start=10.0, duration=1.0)
        tracer.record("early", parent=root, start=5.0, duration=1.0)
        assert [s.name for s in tracer.spans_for("tX")] == ["early", "late"]
        assert tracer.spans_for(None) == []


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _sample_spans():
    tracer = Tracer()
    with tracer.span("job", job_id="j1") as root:
        with tracer.span("prepare"):
            pass
        with tracer.span("execute", requests=5):
            pass
    return root, tracer.spans()


class TestExporters:
    def test_jsonl_round_trip(self):
        _, spans = _sample_spans()
        lines = spans_to_jsonl(spans).splitlines()
        rows = [json.loads(line) for line in lines]
        assert len(rows) == 3
        assert {row["name"] for row in rows} == {"job", "prepare", "execute"}
        assert all(row["duration"] is not None for row in rows)

    def test_chrome_trace_shape(self):
        root, spans = _sample_spans()
        document = json.loads(json.dumps(chrome_trace(spans)))
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        assert len(events) == 3
        assert meta and meta[0]["name"] == "thread_name"
        # Timestamps are rebased to the earliest span and carried in us.
        assert min(e["ts"] for e in events) == 0.0
        job = next(e for e in events if e["name"] == "job")
        assert job["args"]["trace_id"] == root.trace_id
        assert job["args"]["job_id"] == "j1"
        assert all(e["dur"] >= 0 for e in events)

    def test_trace_document_round_trips_hierarchy(self):
        _, spans = _sample_spans()
        document = trace_document(spans, job_id="j1")
        again = json.loads(json.dumps(document))
        assert again["job_id"] == "j1"
        assert len(again["spans"]) == 3
        by_id = {row["span_id"]: row for row in again["spans"]}
        children = [
            row for row in again["spans"] if row["parent_id"] is not None
        ]
        assert children
        assert all(row["parent_id"] in by_id for row in children)

    def test_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("engine.batches").add(2)
        hist = registry.histogram("tier.execute", bounds=[0.1, 1.0])
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(9.0)
        text = prometheus_text(registry.snapshot())
        lines = text.splitlines()
        assert "# TYPE repro_engine_batches counter" in lines
        assert "repro_engine_batches 2" in lines
        # Cumulative buckets, ending at +Inf == count.
        assert 'repro_tier_execute_bucket{le="0.1"} 1' in lines
        assert 'repro_tier_execute_bucket{le="1.0"} 2' in lines
        assert 'repro_tier_execute_bucket{le="+Inf"} 3' in lines
        assert "repro_tier_execute_count 3" in lines

    def test_render_trace_tree(self):
        _, spans = _sample_spans()
        text = render_trace_tree(spans)
        lines = text.splitlines()
        assert len(lines) == 3
        assert "job job_id=j1" in lines[0]
        assert lines[1].endswith("  prepare")
        assert "execute requests=5" in lines[2]
        assert render_trace_tree([]) == "(no spans)"

    def test_render_trace_tree_orphans_become_roots(self):
        span = Span("t1", "s9", "missing-parent", "lonely", 0.0, {})
        span.duration = 1.0
        assert "lonely" in render_trace_tree([span])


# ---------------------------------------------------------------------------
# Event-log ring buffer
# ---------------------------------------------------------------------------


class TestEventLogRing:
    def test_truncation_keeps_head_and_tail(self):
        log = JobEventLog("job-x", head_events=2, max_events=3)
        for i in range(10):
            log.append("retrying", attempt=i)
        log.append("done")
        events = log.snapshot()
        # Head: the first two events. Tail: the last three appended.
        assert [e.seq for e in events] == [1, 2, 9, 10, 11]
        assert log.truncated == 6
        assert log.snapshot()[-1].seq == 11
        assert log.closed

    def test_watch_skips_dropped_middle(self):
        log = JobEventLog("job-y", head_events=1, max_events=2)
        for i in range(6):
            log.append("retrying", attempt=i)
        log.append("done")
        seen = [e.seq for e in log.watch(after_seq=0, timeout=1.0)]
        assert seen == [1, 6, 7]  # head, then the surviving ring tail

    def test_watch_after_seq_and_timeout(self):
        log = JobEventLog("job-z")
        log.append("queued")
        log.append("running")
        stream = log.watch(after_seq=1, timeout=0.05)
        assert next(stream).kind == "running"
        with pytest.raises(TimeoutError):
            next(stream)

    def test_watch_resumed_at_the_terminal_event_returns(self):
        # A closed log holds nothing past its terminal event: resuming
        # there, or past it, must end at once instead of waiting.
        log = JobEventLog("job-v")
        for kind in ("queued", "running", "done"):
            log.append(kind)
        for after_seq in (3, 7):
            assert list(log.watch(after_seq=after_seq, timeout=1.0)) == []

    def test_unbounded_semantics_within_cap(self):
        log = JobEventLog("job-w")
        for _ in range(5):
            log.append("running")
        assert [e.seq for e in log.snapshot()] == [1, 2, 3, 4, 5]
        assert log.truncated == 0


# ---------------------------------------------------------------------------
# Integration: traced jobs, sweeps, and stats consistency
# ---------------------------------------------------------------------------


def _span_children(spans):
    children = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    return children


class TestTracedService:
    @pytest.fixture(scope="class")
    def traced_run(self):
        supervisor = ServiceSupervisor(workers=2, tracing=True)
        with supervisor:
            job = supervisor.submit(
                {
                    "tenant": "alice",
                    "workload": "GHZ-4",
                    "scheme": "jigsaw",
                    "total_trials": 2048,
                    "seed": 3,
                }
            )
            supervisor.wait(job, timeout=120)
            resubmit = supervisor.submit(
                {
                    "tenant": "bob",
                    "workload": "GHZ-4",
                    "scheme": "jigsaw",
                    "total_trials": 2048,
                    "seed": 3,
                }
            )
            supervisor.wait(resubmit, timeout=120)
            spans = supervisor.job_trace(job)
            memo_spans = supervisor.job_trace(resubmit)
            lanes = [
                worker.engine.metrics.snapshot()["counters"]
                for worker in supervisor.drain_workers
            ]
            telemetry = supervisor.telemetry_snapshot()
        return job, spans, memo_spans, lanes, telemetry

    def test_single_connected_tree(self, traced_run):
        job, spans, _, _, _ = traced_run
        assert spans, "tracing produced no spans"
        assert len({s.trace_id for s in spans}) == 1
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "job"
        assert root.attrs["job_id"] == job.job_id
        assert root.attrs["status"] == "done"
        by_id = {s.span_id for s in spans}
        assert all(
            s.parent_id in by_id for s in spans if s.parent_id is not None
        )

    def test_lifecycle_stages_present_in_order(self, traced_run):
        _, spans, _, _, _ = traced_run
        children = _span_children(spans)
        root = next(s for s in spans if s.parent_id is None)
        stages = sorted(children[root.span_id], key=lambda s: s.start)
        names = [s.name for s in stages]
        assert names == [
            "admission",
            "queue_wait",
            "prepare",
            "execute",
            "reconstruct",
            "finish",
        ]
        execute = stages[3]
        assert execute.attrs["batch_jobs"] >= 1
        assert execute.attrs["requests"] >= 1
        assert stages[1].attrs["worker"].startswith("worker-")

    def test_compile_spans_nest_under_prepare(self, traced_run):
        _, spans, _, _, _ = traced_run
        children = _span_children(spans)
        prepare = next(s for s in spans if s.name == "prepare")
        compiles = [
            s for s in children.get(prepare.span_id, [])
            if s.name == "compile"
        ]
        assert compiles, "no compile spans under prepare"
        stage_names = {
            child.name
            for compile_span in compiles
            for child in children.get(compile_span.span_id, [])
        }
        assert stage_names == {
            "compile.place",
            "compile.route",
            "compile.retarget",
            "compile.eps",
            "compile.select",
        }
        # Cache accounting annotates the stage spans: the plan's CPM
        # bodies re-route through the shared stage cache.
        route_attrs = [
            child.attrs
            for compile_span in compiles
            for child in children.get(compile_span.span_id, [])
            if child.name == "compile.route"
        ]
        assert any("cache_hits" in attrs for attrs in route_attrs)
        assert any("cache_misses" in attrs for attrs in route_attrs)

    def test_exports_as_valid_chrome_trace(self, traced_run):
        _, spans, _, _, _ = traced_run
        document = json.loads(json.dumps(trace_document(spans)))
        events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(spans)
        assert all(
            isinstance(e["ts"], float) and e["ts"] >= 0 for e in events
        )

    def test_memoized_job_has_own_short_trace(self, traced_run):
        _, spans, memo_spans, _, _ = traced_run
        assert memo_spans
        assert {s.trace_id for s in memo_spans}.pop() != spans[0].trace_id
        root = next(s for s in memo_spans if s.parent_id is None)
        assert root.attrs["source"] == "memoized"
        names = {s.name for s in memo_spans}
        assert "admission" in names
        assert "prepare" not in names  # never executed

    def test_event_log_carries_trace_id(self, traced_run):
        job, spans, _, _, _ = traced_run
        # Telemetry captured while the supervisor was open; the event
        # log keeps the trace id for the CLI to join on.
        assert spans[0].trace_id is not None

    def test_snapshot_counts_the_traced_run(self, traced_run):
        _, _, _, lanes, telemetry = traced_run
        counters = telemetry["counters"]
        assert counters["tier.submitted"] == 2
        assert counters["tier.executed"] == 1
        assert counters["tier.memoized"] == 1
        assert counters["tier.failed"] == 0
        assert counters["tier.worker_crashes"] == 0
        # Per-lane engine counters sum to the tier's engine.* totals.
        assert counters["engine.executed"] == sum(
            lane["engine.executed"] for lane in lanes
        )
        # (A lane that never executed built no backend pool.)
        assert counters["backend.requests"] == sum(
            lane.get("backend.requests", 0) for lane in lanes
        )
        # The shared compiler cache folds in exactly once.
        assert counters["cache.plan_misses"] == lanes[0]["cache.plan_misses"]
        # Only the executed job waited in the queue.
        assert telemetry["histograms"]["tier.job_total"]["count"] == 1

    def test_worker_batches_registry_backed(self, traced_run):
        _, _, _, lanes, telemetry = traced_run
        counters = telemetry["counters"]
        assert counters["engine.batches"] == sum(
            lane["engine.batches"] for lane in lanes
        )
        assert counters["engine.batches"] == counters["tier.batches"]


class TestTracedSweep:
    def test_sweep_trace_shape_ten_points(self):
        device = device_by_name("toronto")
        workload = workload_by_name("QAOA-6 p1")
        points = [[0.1 * (i + 1), 0.2] for i in range(10)]
        tracer = Tracer()
        with Session(device, total_trials=1024) as session:
            with use_tracer(tracer):
                result = session.run_sweep("jigsaw", workload, points)
        assert len(result) == 10
        spans = tracer.spans()
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        (root,) = by_name["sweep"]
        assert root.parent_id is None
        assert root.attrs == {"scheme": "jigsaw", "points": 10}
        (prepare,) = by_name["sweep.prepare"]
        assert prepare.parent_id == root.span_id
        assert prepare.attrs == {"scheme": "jigsaw", "points": 10}
        (bind,) = by_name["sweep.bind"]
        assert bind.parent_id is not None
        assert bind.attrs["points"] == 10
        (execute,) = by_name["sweep.execute"]
        assert execute.attrs["points"] == 10
        assert execute.attrs["requests"] >= 10
        assert len(by_name["sweep.finish"]) == 1
        # Compile-once: the single compile tree nests under the sweep's
        # prepare span (via the template), not one per point.
        compiles = by_name.get("compile", [])
        assert compiles
        assert len({s.trace_id for s in spans}) == 1

    def test_sweep_results_identical_with_tracing_off(self):
        device = device_by_name("toronto")
        workload = workload_by_name("QAOA-6 p1")
        points = [[0.3, 0.2], [0.5, 0.1]]
        with Session(device, total_trials=1024) as session:
            baseline = session.run_sweep("jigsaw", workload, points)
        tracer = Tracer()
        with Session(device, total_trials=1024) as session:
            with use_tracer(tracer):
                traced = session.run_sweep("jigsaw", workload, points)
        assert tracer.spans()
        for lhs, rhs in zip(baseline.output_pmfs, traced.output_pmfs):
            assert lhs.as_dict() == rhs.as_dict()


class TestDisabledPath:
    def test_untraced_supervisor_files_no_spans(self):
        supervisor = ServiceSupervisor(workers=1)
        with supervisor:
            job = supervisor.submit(
                {
                    "tenant": "t",
                    "workload": "BV-5",
                    "scheme": "baseline",
                    "total_trials": 1024,
                    "seed": 0,
                }
            )
            supervisor.wait(job, timeout=120)
            assert supervisor.tracer is NULL_TRACER
            assert supervisor.tracer.spans() == []
            assert supervisor.job_trace(job) == []
            assert job.trace is None and job.queue_span is None

    def test_untraced_session_files_no_spans(self):
        device = device_by_name("toronto")
        workload = workload_by_name("GHZ-4")
        with Session(device, total_trials=1024) as session:
            session.run_scheme("jigsaw", workload)
        assert get_tracer() is NULL_TRACER
        assert NULL_TRACER.spans() == []


class TestStatsConsistency:
    def test_session_execution_counted_by_backends_only(self):
        # Sampling and the exact channel are counted once, by the
        # backends (``backend.*``); the sampler keeps no counters of its
        # own, so no ``sim.*`` name can sit in the snapshot stuck at 0.
        device = device_by_name("toronto")
        with Session(device, seed=0) as session:
            for name in ("BV-6", "GHZ-8"):
                workload = workload_by_name(name)
                for scheme in ("baseline", "edm", "jigsaw"):
                    session.run_scheme(scheme, workload)
            counters = session.telemetry_snapshot()["counters"]
        assert [name for name in counters if name.startswith("sim.")] == []
        assert counters["backend.channel_evals"] > 0
        assert counters["backend.stacked_evals"] >= 1

    def test_lane_counts_agree_with_snapshot(self):
        supervisor = ServiceSupervisor(workers=1)
        try:
            for seed in (0, 0, 1):
                supervisor.submit(
                    {
                        "tenant": "t",
                        "workload": "GHZ-4",
                        "scheme": "baseline",
                        "total_trials": 1024,
                        "seed": seed,
                    }
                )
            supervisor.start()
            supervisor.stop(drain=True, timeout=120)
            (worker,) = supervisor.drain_workers
            lane = worker.engine.metrics.snapshot()["counters"]
            telemetry = supervisor.telemetry_snapshot()
        finally:
            supervisor.close()
        counters = telemetry["counters"]
        assert counters["tier.submitted"] == 3
        assert counters["tier.executed"] + counters["tier.memoized"] == 3
        assert lane["engine.batches"] == counters["tier.batches"] == 1
        # One lane: every engine, backend and cache count is the lane's.
        for name, value in lane.items():
            assert counters[name] == value, name
        assert counters["backend.requests"] > 0

    def test_service_payloads_identical_with_tracing_on(self):
        spec = {
            "tenant": "t",
            "workload": "GHZ-4",
            "scheme": "jigsaw",
            "total_trials": 1024,
            "seed": 11,
        }
        with ServiceSupervisor(workers=1) as plain:
            job = plain.submit(dict(spec))
            plain.wait(job, timeout=120)
            untraced = plain.result(job)
        with ServiceSupervisor(workers=1, tracing=True) as traced:
            job = traced.submit(dict(spec))
            traced.wait(job, timeout=120)
            traced_payload = traced.result(job)
            assert traced.job_trace(job)
        assert untraced == traced_payload


class TestCounterNames:
    """The counter names perfbench reads with ``.get(name, 0)``: a rename
    would silently zero its per-layer metrics, so they are pinned here."""

    SESSION_NAMES = (
        "backend.channel_evals",
        "backend.statevector_evals",
        "cache.stage.place.hits",
        "cache.stage.place.misses",
        "cache.stage.route.hits",
        "cache.stage.route.misses",
    )
    TIER_NAMES = SESSION_NAMES + (
        "tier.batch_jobs",
        "tier.batches",
        "tier.memoized",
        "tier.submitted",
    )

    @staticmethod
    def documented_namespaces():
        """The namespace list of ARCHITECTURE.md "Telemetry -> Metrics"."""
        path = pathlib.Path(__file__).parents[1] / "docs" / "ARCHITECTURE.md"
        section = path.read_text().split("### Metrics", 1)[1]
        section = section.split("\n### ", 1)[0]
        return set(re.findall(r"^- `([a-z]+)\.\*`", section, re.MULTILINE))

    def test_perfbench_counter_names_in_snapshots(self):
        workload = workload_by_name("GHZ-4")
        with Session(device_by_name("toronto"), total_trials=1024) as session:
            session.run_scheme("jigsaw", workload)
            session_counters = session.telemetry_snapshot()["counters"]
        spec = {
            "tenant": "t",
            "workload": "GHZ-4",
            "scheme": "jigsaw",
            "total_trials": 1024,
            "seed": 0,
        }
        supervisor = ServiceSupervisor(workers=1)
        try:
            jobs = [supervisor.submit(dict(spec)) for _ in range(2)]
            supervisor.start()
            supervisor.stop(drain=True, timeout=120)
            tier_counters = supervisor.telemetry_snapshot()["counters"]
        finally:
            supervisor.close()
        assert sorted(job.source for job in jobs) == ["executed", "memoized"]
        for names, counters in (
            (self.SESSION_NAMES, session_counters),
            (self.TIER_NAMES, tier_counters),
        ):
            for name in names:
                assert counters.get(name, 0) > 0, name
        namespaces = self.documented_namespaces()
        assert {"compiler", "cache", "backend", "tier"} <= namespaces
        for name in {**session_counters, **tier_counters}:
            assert name.split(".", 1)[0] in namespaces and "." in name, name

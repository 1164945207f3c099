"""The serving tier: N-worker determinism, crash-replay, admission, events.

The load-bearing claims:

* Results from N concurrent drain workers — any arrival order, any
  crash/retry schedule — are **bit-for-bit** equal to a solo
  ``Session.run`` of the same spec, for every scheme.
* A worker crash mid-batch re-queues its jobs (bounded retries with
  backoff) and the tier converges; retry exhaustion fails the job
  terminally rather than hanging it.
* A job that cannot be built is refused at admission with
  :class:`~repro.exceptions.AdmissionError`, and a flooding tenant can
  never starve the others past the fair-share cap — asserted by a
  property test over random submission schedules.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import ibmq_paris, ibmq_toronto
from repro.exceptions import AdmissionError, ServiceError
from repro.runtime import SCHEME_NAMES, Session
from repro.service import JobSpec
from repro.service.engine import ExecutionEngine
from repro.service.job import JobStatus
from repro.service.queue import FairShareQueue
from repro.service.tier import ServiceSupervisor
from repro.workloads import workload_by_name

DEVICES = {"toronto": ibmq_toronto}


def solo_payload(spec: JobSpec, supervisor: ServiceSupervisor) -> dict:
    """The payload a solo, equally-parameterised session produces."""
    factory = DEVICES[spec.device]
    kwargs = supervisor._engine_kwargs
    with Session(
        factory(),
        seed=spec.seed,
        total_trials=spec.total_trials,
        exact=spec.exact,
        compile_attempts=kwargs["compile_attempts"],
        cpm_attempts=kwargs["cpm_attempts"],
        ensemble_size=kwargs["ensemble_size"],
    ) as session:
        workload = workload_by_name(spec.workload)
        prepared = session.prepare_scheme(spec.scheme, workload)
        result = prepared.finish(prepared.backend.execute(prepared.requests))
        return ExecutionEngine._payload(spec, result)


def spec(i=0, tenant="a", workload="GHZ-4", scheme="baseline", **kw):
    return JobSpec(
        tenant=tenant, workload=workload, scheme=scheme, seed=i, **kw
    )


class TestDeterminism:
    @pytest.mark.parametrize("placement", ["round_robin"])
    def test_all_schemes_bitforbit_solo_at_three_workers(self, placement):
        """Every scheme through 3 concurrent workers == solo session."""
        specs = [
            JobSpec(
                tenant=f"t{i % 2}", workload="GHZ-6", scheme=scheme, seed=5
            )
            for i, scheme in enumerate(SCHEME_NAMES)
        ]
        with ServiceSupervisor(
            devices=DEVICES, workers=3, placement=placement
        ) as sup:
            jobs = [sup.submit(s) for s in specs]
            for job in jobs:
                sup.wait(job, timeout=300)
            for s, job in zip(specs, jobs):
                assert job.status is JobStatus.DONE, job.error
                assert job.result == solo_payload(s, sup)

    def test_sampled_mode_bitforbit_solo(self):
        specs = [
            spec(i, scheme="jigsaw", workload="GHZ-5", exact=False,
                 total_trials=2048)
            for i in range(4)
        ]
        with ServiceSupervisor(devices=DEVICES, workers=2) as sup:
            jobs = [sup.submit(s) for s in specs]
            for s, job in zip(specs, jobs):
                sup.wait(job, timeout=300)
                assert job.result == solo_payload(s, sup)

    def test_worker_count_and_arrival_order_invariant(self):
        """Same stream, different worker counts and orders: same payloads."""
        specs = [
            spec(i, tenant=f"t{i % 3}", workload="GHZ-5",
                 scheme=("jigsaw", "mbm", "edm")[i % 3])
            for i in range(6)
        ]
        by_fingerprint = {}
        for workers, order in ((1, 1), (2, -1), (4, 1)):
            with ServiceSupervisor(devices=DEVICES, workers=workers) as sup:
                jobs = [sup.submit(s) for s in specs[::order]]
                for job in jobs:
                    sup.wait(job, timeout=300)
                    assert job.status is JobStatus.DONE, job.error
                    expected = by_fingerprint.setdefault(
                        job.fingerprint, job.result
                    )
                    assert job.result == expected

    def test_each_worker_drains_its_own_lane(self):
        """Submissions are dealt round-robin: job i waits on lane
        i mod N, and only worker-(i mod N) runs it."""
        sup = ServiceSupervisor(devices=DEVICES, workers=2, max_batch=1)
        try:
            jobs = [sup.submit(spec(i, tenant=f"t{i % 2}")) for i in range(4)]
            sup.start()
            sup.stop(drain=True, timeout=120)
            for index, job in enumerate(jobs):
                assert job.status is JobStatus.DONE, job.error
                events = sup.events(job)
                assert events[0].detail["lane"] == index % 2
                (running,) = [e for e in events if e.kind == "running"]
                assert running.detail["worker"] == f"worker-{index % 2}"
        finally:
            sup.close()

    def test_cross_worker_memoization_via_shared_store(self):
        with ServiceSupervisor(devices=DEVICES, workers=2) as sup:
            first = sup.submit(spec(1))
            sup.wait(first, timeout=300)
            second = sup.submit(spec(1))
            sup.wait(second, timeout=300)
            assert second.source == "memoized"
            assert second.result == first.result


class TestCrashReplay:
    def test_crash_mid_batch_retries_and_converges(self):
        crashes = {"left": 2}
        lock = threading.Lock()

        def injector(worker, batch):
            with lock:
                if crashes["left"] > 0:
                    crashes["left"] -= 1
                    raise RuntimeError("injected crash")

        with ServiceSupervisor(
            devices=DEVICES, workers=2, max_retries=3, backoff_base=0.01,
            fault_injector=injector,
        ) as sup:
            job = sup.submit(spec(2, scheme="jigsaw"))
            sup.wait(job, timeout=300)
            assert job.status is JobStatus.DONE, job.error
            # The payload survived the crash schedule bit-for-bit.
            assert job.result == solo_payload(job.spec, sup)
            kinds = [e.kind for e in sup.events(job)]
            assert "retrying" in kinds and "requeued" in kinds
            assert kinds[-1] == "done"
            counters = sup.telemetry_snapshot()["counters"]
            assert counters["tier.worker_crashes"] >= 1
            assert counters["tier.retried"] >= 1
            # Crashed lanes were respawned: the pool is whole again.
            assert all(worker.alive for worker in sup.drain_workers)

    def test_crash_outside_a_batch_respawns_the_lane(self, monkeypatch):
        """A worker that dies popping its lane, before any batch is
        registered in flight, is reaped and respawned like one that dies
        mid-batch, and the job it had not yet popped still runs."""
        sup = ServiceSupervisor(devices=DEVICES, workers=1)
        pop_batch = sup.queue.pop_batch
        failures = {"left": 1}

        def pop_batch_failing_once(*args, **kwargs):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("injected pop failure")
            return pop_batch(*args, **kwargs)

        monkeypatch.setattr(sup.queue, "pop_batch", pop_batch_failing_once)
        job = sup.submit(spec(4))
        sup.start()
        try:
            sup.wait(job, timeout=60)
            assert job.status is JobStatus.DONE, job.error
            assert job.result == solo_payload(job.spec, sup)
            counters = sup.telemetry_snapshot()["counters"]
            assert counters["tier.worker_crashes"] == 1
            assert all(worker.alive for worker in sup.drain_workers)
        finally:
            sup.stop(drain=False)

    def test_retry_exhaustion_fails_terminally(self):
        def injector(worker, batch):
            raise RuntimeError("always crashes")

        sup = ServiceSupervisor(
            devices=DEVICES, workers=1, max_retries=2, backoff_base=0.01,
            fault_injector=injector,
        )
        sup.start()
        try:
            job = sup.submit(spec(3))
            sup.wait(job, timeout=60)
            assert job.status is JobStatus.FAILED
            assert job.attempts == 2
            assert "crashed" in job.error
            kinds = [e.kind for e in sup.events(job)]
            assert kinds.count("retrying") == 2
            assert kinds[-1] == "failed"
        finally:
            sup.stop(drain=False)

    def test_retry_requeue_is_never_refused_by_a_full_queue(self):
        """A crashed job goes back on its lane even when newer jobs have
        filled the queue meanwhile: it was admitted once, and a retry
        must never lose it."""
        sup = ServiceSupervisor(
            devices=DEVICES, workers=1, capacity=1, max_retries=1,
            backoff_base=0.0,
        )
        try:
            crashed = sup.submit(spec(20))
            # A worker pops the job, the queue fills up behind it, and
            # the worker dies holding it.
            assert sup.queue.pop_batch(1, timeout=0) == [crashed]
            blocker = sup.submit(spec(21))
            with pytest.raises(AdmissionError, match="queue full"):
                sup.submit(spec(22))
            sup.fail(crashed, "worker-0 crashed", retryable=True)
            # The monitor's delivery step; the zero backoff is due at once.
            sup._deliver_due_requeues()
            assert len(sup.queue) == 2
            sup.start()
            sup.stop(drain=True, timeout=300)
            for job in (crashed, blocker):
                assert job.status is JobStatus.DONE, job.error
                assert job.result == solo_payload(job.spec, sup)
            assert crashed.attempts == 1
            assert [e.kind for e in sup.events(crashed)] == [
                "queued", "retrying", "requeued", "running", "done"
            ]
        finally:
            sup.close()

    def test_deterministic_failure_is_not_retried(self):
        """A bad spec fails identically every time: no retry burned."""
        with ServiceSupervisor(
            devices=DEVICES, workers=1, max_retries=3
        ) as sup:
            # MBM on an 18-bit output exceeds MAX_MBM_QUBITS (16); the
            # check fires at preparation — a deterministic failure that
            # must settle terminally without consuming the retry budget.
            job = sup.submit(
                JobSpec(tenant="a", workload="GHZ-18", scheme="mbm",
                        total_trials=1024)
            )
            sup.wait(job, timeout=300)
            assert job.status is JobStatus.FAILED
            assert "MBM" in job.error
            assert job.attempts == 0
            kinds = [e.kind for e in sup.events(job)]
            assert "retrying" not in kinds
            with pytest.raises(ServiceError, match="failed"):
                sup.result(job)

    def test_over_cap_job_fails_alone(self):
        """A job over the simulator's qubit cap fails terminally at its
        own prepare step; its batch-mates run as if it were absent."""
        small = [spec(0, tenant=t, scheme="baseline") for t in "abc"]
        over_cap = spec(0, tenant="d", workload="GHZ-25", scheme="baseline")
        sup = ServiceSupervisor(devices=DEVICES, workers=1, max_batch=32)
        try:
            jobs = [sup.submit(s) for s in small + [over_cap]]
            sup.start()
            sup.stop(drain=True, timeout=300)
            *done, failed = jobs
            assert failed.status is JobStatus.FAILED
            assert "exceeds the 24-qubit limit" in failed.error
            assert failed.attempts == 0
            for s, job in zip(small, done):
                assert job.status is JobStatus.DONE, job.error
                with Session(
                    DEVICES[s.device](), seed=s.seed,
                    total_trials=s.total_trials, exact=s.exact,
                ) as session:
                    solo = session.run_scheme(
                        s.scheme, workload_by_name(s.workload)
                    )
                assert job.result == ExecutionEngine._payload(s, solo)
            counters = sup.telemetry_snapshot()["counters"]
            assert counters["tier.retried"] == 0
        finally:
            sup.close()

    def test_graceful_drain_settles_everything(self):
        sup = ServiceSupervisor(devices=DEVICES, workers=2)
        sup.start()
        jobs = [sup.submit(spec(i, tenant=f"t{i % 3}")) for i in range(6)]
        sup.stop(drain=True, timeout=300)
        assert all(job.done for job in jobs)
        assert sup.open_jobs == 0
        sup.close()


class TestSharedIdealStates:
    """One ideal statevector per unitary body per device cache, however
    the tier batches and places the jobs of that body."""

    SPECS = [
        JobSpec(tenant=f"t{i % 2}", workload="Ising-6", scheme=scheme,
                seed=i, device=device)
        for device in ("toronto", "paris")
        for i, scheme in enumerate(("jigsaw", "baseline", "edm", "jigsaw_m"))
    ]
    TWO_DEVICES = {"toronto": ibmq_toronto, "paris": ibmq_paris}

    def _check(self, sup, jobs):
        for s, job in zip(self.SPECS, jobs):
            assert job.status is JobStatus.DONE, job.error
            factory = self.TWO_DEVICES[s.device]
            kwargs = sup._engine_kwargs
            with Session(
                factory(), seed=s.seed, total_trials=s.total_trials,
                exact=s.exact, compile_attempts=kwargs["compile_attempts"],
                cpm_attempts=kwargs["cpm_attempts"],
                ensemble_size=kwargs["ensemble_size"],
            ) as session:
                prepared = session.prepare_scheme(
                    s.scheme, workload_by_name(s.workload)
                )
                solo = prepared.finish(
                    prepared.backend.execute(prepared.requests)
                )
            assert job.result == ExecutionEngine._payload(s, solo)
        counters = sup.telemetry_snapshot()["counters"]
        assert counters["tier.batches"] >= 2
        # Two devices, so two shared caches: one simulation each.
        assert counters["backend.statevector_evals"] == 2
        assert counters["cache.ideal.misses"] == 2
        assert counters["cache.ideal.hits"] == len(self.SPECS) - 2

    def test_one_batch_per_job(self):
        sup = ServiceSupervisor(
            devices=self.TWO_DEVICES, workers=1, max_batch=1
        )
        try:
            jobs = [sup.submit(s) for s in self.SPECS]
            sup.start()
            sup.stop(drain=True, timeout=300)
            self._check(sup, jobs)
        finally:
            sup.close()

    def test_across_workers(self):
        """Round-robin placement deals consecutive jobs to different
        workers, whose engines and backends are private; waiting for each
        job keeps the two from racing on a body's first batch."""
        with ServiceSupervisor(
            devices=self.TWO_DEVICES, workers=2, placement="round_robin"
        ) as sup:
            jobs = []
            for s in self.SPECS:
                jobs.append(sup.submit(s))
                sup.wait(jobs[-1], timeout=300)
            self._check(sup, jobs)


class TestUnbuildableWorkloads:
    @pytest.mark.parametrize(
        "name, reason",
        [
            ("Ising-30", "exceeds the 24-qubit limit"),
            ("QAOA-30", "limited to 24 qubits"),
            ("Nope-3", "unknown workload"),
        ],
    )
    def test_submit_rejects_with_admission_error(self, name, reason):
        with ServiceSupervisor(devices=DEVICES, workers=1) as sup:
            with pytest.raises(AdmissionError, match=reason):
                sup.submit(spec(0, workload=name))
            job = sup.submit(spec(0))
            sup.wait(job, timeout=300)
            assert job.status is JobStatus.DONE, job.error
            counters = sup.telemetry_snapshot()["counters"]
            assert counters["tier.submitted"] == 1
            assert counters["tier.rejected_unbuildable"] == 1


class TestEventsAndAsync:
    def test_watch_streams_lifecycle_in_order(self):
        with ServiceSupervisor(devices=DEVICES, workers=1) as sup:
            job = sup.submit(spec(4))
            events = list(sup.watch(job, timeout=300))
            kinds = [e.kind for e in events]
            assert kinds[0] == "queued"
            assert kinds[-1] == "done"
            assert "running" in kinds
            assert [e.seq for e in events] == list(range(1, len(events) + 1))
            # A late watcher replays the full history and still ends.
            assert [e.kind for e in sup.watch(job, timeout=1)] == kinds
            # Resume from a midpoint.
            tail = [e.kind for e in sup.watch(job, after_seq=1, timeout=1)]
            assert tail == kinds[1:]

    def test_memoized_submit_emits_terminal_events(self):
        with ServiceSupervisor(devices=DEVICES, workers=1) as sup:
            first = sup.submit(spec(5))
            sup.wait(first, timeout=300)
            second = sup.submit(spec(5))
            kinds = [e.kind for e in sup.watch(second, timeout=5)]
            assert kinds == ["queued", "done"]

    def test_poll_reports_status_row(self):
        with ServiceSupervisor(devices=DEVICES, workers=1) as sup:
            job = sup.submit(spec(7))
            sup.wait(job, timeout=300)
            row = sup.poll(job.job_id)
            assert row["status"] == "done"
            assert row["attempts"] == 0
            assert row["events"] >= 3

    def test_tier_stats_shape(self):
        with ServiceSupervisor(devices=DEVICES, workers=2) as sup:
            sup.wait(sup.submit(spec(8)), timeout=300)
            telemetry = sup.telemetry_snapshot()
            counters = telemetry["counters"]
            assert counters["tier.executed"] == 1
            assert counters["tier.worker_crashes"] == 0
            assert len(sup.drain_workers) == 2
            assert sum(
                worker.engine.metrics.snapshot()["counters"]["engine.batches"]
                for worker in sup.drain_workers
            ) >= 1
            # Latency lives in the registry, one histogram per stage.
            assert counters["tier.batch_jobs"] >= counters["tier.batches"] >= 1
            for stage in (
                "queue_wait", "prepare", "execute", "finish", "job_total"
            ):
                assert telemetry["histograms"][f"tier.{stage}"]["count"] >= 1


class TestFairnessProperty:
    """Adversarial tenancy: a flooder cannot starve others, ever."""

    @given(
        flood=st.integers(min_value=8, max_value=40),
        others=st.lists(
            st.sampled_from(["b", "c", "d"]), min_size=1, max_size=12
        ),
        interleave=st.lists(st.booleans(), min_size=8, max_size=52),
    )
    @settings(max_examples=40, deadline=None)
    def test_flooder_capped_others_admitted(self, flood, others, interleave):
        """Random schedules of a flooding tenant vs small tenants: the
        flooder never exceeds the fair-share cap, and *every* small
        tenant submission within its own cap is admitted."""
        queue = FairShareQueue(capacity=16, fair_share=0.25, lanes=2)
        flood_specs = iter(range(flood))
        other_specs = iter(others)
        schedule = list(interleave)
        admitted_flood = rejected_flood = 0
        lane = 0
        while True:
            take_flood = schedule.pop(0) if schedule else True
            if take_flood:
                index = next(flood_specs, None)
                if index is None:
                    break
                job = _job("flood", seed=index)
                try:
                    queue.push(job, lane=lane % 2)
                    admitted_flood += 1
                except AdmissionError:
                    rejected_flood += 1
            else:
                tenant = next(other_specs, None)
                if tenant is None:
                    continue
                # Small tenants stay under their own cap, so admission
                # must NEVER reject them, no matter the flood pressure.
                held = queue.pending_by_tenant().get(tenant, 0)
                job = _job(tenant, seed=lane)
                if held < queue.tenant_cap and len(queue) < queue.capacity:
                    queue.push(job, lane=lane % 2)
                else:
                    with pytest.raises(AdmissionError):
                        queue.push(job, lane=lane % 2)
            lane += 1
            # Invariant: the flooder never holds more than the cap.
            assert (
                queue.pending_by_tenant().get("flood", 0) <= queue.tenant_cap
            )
        assert admitted_flood <= queue.tenant_cap
        if flood > queue.tenant_cap:
            assert rejected_flood > 0


def _job(tenant, seed=0):
    from repro.service.job import Job

    return Job(
        spec=JobSpec(tenant=tenant, workload="GHZ-4", seed=seed),
        fingerprint=f"fp-{tenant}-{seed}",
    )


class TestStats:
    """The tier's counters and stage histograms after one drained run."""

    @pytest.fixture(scope="class")
    def drained(self):
        # One worker fed four jobs before it starts, three per batch:
        # two batches (3 + 1), each timed once per stage.
        sup = ServiceSupervisor(devices=DEVICES, workers=1, max_batch=3)
        try:
            jobs = [sup.submit(spec(i)) for i in range(4)]
            sup.start()
            sup.stop(drain=True, timeout=300)
            assert all(job.status is JobStatus.DONE for job in jobs)
            (worker,) = sup.drain_workers
            return worker.engine.metrics.snapshot(), sup.telemetry_snapshot()
        finally:
            sup.close()

    def test_histogram_buckets_and_moments(self, drained):
        _, telemetry = drained
        histograms = telemetry["histograms"]
        for stage in ("prepare", "execute", "finish"):
            snap = histograms[f"tier.{stage}"]
            assert snap["count"] == 2
            assert sum(snap["buckets"].values()) == 2
            assert (
                0.0
                <= snap["min_seconds"]
                <= snap["mean_seconds"]
                <= snap["max_seconds"]
            )
        assert histograms["tier.queue_wait"]["count"] == 4
        assert histograms["tier.job_total"]["count"] == 4

    def test_tier_stats_counters(self, drained):
        lane, telemetry = drained
        counters = telemetry["counters"]
        assert counters["tier.batches"] == 2
        assert counters["tier.batch_jobs"] == 4
        assert lane["counters"]["engine.batches"] == 2
        assert counters["engine.batches"] == 2
        assert counters["tier.retried"] == 0
        assert counters["tier.worker_crashes"] == 0

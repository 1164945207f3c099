"""The multi-tenant job service: determinism, admission, memoization.

The load-bearing claim: for fixed seeds, a result fetched from the
:class:`ServiceSupervisor` is **bit-for-bit** equal to a solo
``Session.run`` of the same spec — for every scheme, across arrival
orders, batch compositions, and execution worker counts.  Most tests run
the single-drain deployment: one drain worker, fed the whole stream
before it starts, so the batches it drains are fixed by ``max_batch``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import ibmq_toronto
from repro.exceptions import AdmissionError, ServiceError
import repro.service
from repro.runtime import SCHEME_NAMES, Session
from repro.service import FairShareQueue, Job, JobSpec, JobStatus
from repro.service.engine import ExecutionEngine
from repro.service.job import job_fingerprint, resolve_spec_circuit
from repro.service.tier import SegmentedResultStore, ServiceSupervisor
from repro.workloads import workload_by_name
from tests.conftest import counts

#: The coalescing window of the drained tiers below: wide enough that
#: every stream here drains as one batch.
MAX_BATCH = 32


def solo_payload(spec: JobSpec) -> dict:
    """The payload a solo, equally-parameterised session produces."""
    with Session(
        ibmq_toronto(),
        seed=spec.seed,
        total_trials=spec.total_trials,
        exact=spec.exact,
    ) as session:
        workload = workload_by_name(spec.workload)
        prepared = session.prepare_scheme(spec.scheme, workload)
        result = prepared.finish(prepared.backend.execute(prepared.requests))
        return ExecutionEngine._payload(spec, result)


@contextlib.contextmanager
def drained_tier(specs, max_batch=MAX_BATCH, **kwargs):
    """A one-worker tier fed every spec before it starts, then drained."""
    supervisor = ServiceSupervisor(workers=1, max_batch=max_batch, **kwargs)
    try:
        jobs = [supervisor.submit(spec) for spec in specs]
        supervisor.start()
        supervisor.stop(drain=True, timeout=300)
        yield supervisor, jobs
    finally:
        supervisor.close()


class TestJobSpec:
    def test_roundtrip(self):
        spec = JobSpec(tenant="a", workload="GHZ-4", seed=3, priority=2)
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_fields(self):
        with pytest.raises(ServiceError, match="unknown job-spec fields"):
            JobSpec.from_dict({"tenant": "a", "workload": "GHZ-4", "nope": 1})

    def test_needs_workload_or_qasm(self):
        with pytest.raises(ServiceError, match="exactly one"):
            JobSpec(tenant="a")
        with pytest.raises(ServiceError, match="exactly one"):
            JobSpec(tenant="a", workload="GHZ-4", qasm="OPENQASM 2.0;")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ServiceError, match="unknown scheme"):
            JobSpec(tenant="a", workload="GHZ-4", scheme="magic")

    def test_accepts_every_session_scheme(self):
        # Jobs validate against the session's one tuple of scheme names;
        # the service keeps no copy of its own.
        for scheme in SCHEME_NAMES:
            spec = JobSpec(tenant="a", workload="GHZ-4", scheme=scheme)
            assert spec.scheme == scheme
        assert not hasattr(repro.service, "SERVICE_SCHEMES")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("priority", "high"),
            ("priority", True),
            ("priority", 1.0),
            ("exact", "false"),
            ("exact", 0),
            ("total_trials", 1.5),
            ("total_trials", True),
            ("total_trials", 0),
            ("seed", -1),
            ("seed", "abc"),
            ("seed", None),
            ("tenant", 5),
            ("tenant", ""),
            ("workload", 5),
            ("qasm", ["OPENQASM 2.0;"]),
            ("device", None),
            ("scheme", ["jigsaw"]),
        ],
    )
    def test_rejects_mistyped_fields(self, field, value):
        """A mistyped JSON entry fails with ServiceError before it is
        queued, instead of crashing the queue (a string priority), running
        on a truthy string (``exact: "false"``) or failing inside the
        worker (a negative seed)."""
        entry = {"tenant": "a", "workload": "GHZ-4", field: value}
        with pytest.raises(ServiceError, match=field):
            JobSpec.from_dict(entry)

    @pytest.mark.parametrize("entry", [5, None, "GHZ-4", [1], {1: "a", "b": 2}])
    def test_rejects_entries_that_are_not_objects(self, entry):
        """A job-file entry that is not a JSON object raises ServiceError,
        not TypeError."""
        with pytest.raises(ServiceError):
            JobSpec.from_dict(entry)

    def test_numpy_integers_are_stored_as_ints(self):
        """numpy integers become ints, so the spec stays JSON-ready."""
        spec = JobSpec(
            tenant="a", workload="GHZ-4", seed=np.int64(3), total_trials=np.int32(64)
        )
        assert type(spec.seed) is int and type(spec.total_trials) is int
        assert json.loads(json.dumps(spec.to_dict()))["seed"] == 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(
            [
                {"tenant": "a", "workload": "GHZ-4"},
                {"tenant": "a", "workload": "QAOA-5 p1", "parameter_sets": [[0.1, 0.2]]},
            ]
        ),
        st.sampled_from(
            [
                "tenant", "workload", "qasm", "device", "scheme", "total_trials",
                "seed", "exact", "priority", "parameter_sets",
                "eps_rescore_threshold",
            ]
        ),
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats()
            | st.text(max_size=8)
            | st.sampled_from(["jigsaw", "edm", "GHZ-4", "toronto"]),
            lambda children: st.lists(children, max_size=3)
            | st.dictionaries(st.text(max_size=4), children, max_size=3),
            max_leaves=8,
        ),
    )
    def test_from_dict_round_trips_or_raises_service_error(self, base, field, value):
        """Any JSON value in any field: either a spec that survives a JSON
        round trip unchanged, or ServiceError — never another exception."""
        try:
            spec = JobSpec.from_dict({**base, field: value})
        except ServiceError:
            return
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert type(again) is type(spec)
        assert again == spec

    def test_equal_sweep_specs_share_a_fingerprint(self):
        """Rows written as ints or floats are one spec and one memo key."""
        from repro.service import SweepJobSpec

        fields = {"tenant": "a", "workload": "QAOA-5 p1"}
        whole = SweepJobSpec(**fields, parameter_sets=[[1, 0], [2, -1]])
        real = SweepJobSpec(**fields, parameter_sets=[[1.0, 0.0], [2.0, -1.0]])
        assert whole == real
        assert all(
            type(value) is float
            for row in whole.to_dict()["parameter_sets"]
            for value in row
        )
        circuit = resolve_spec_circuit(whole).circuit
        assert job_fingerprint(whole, circuit, "dev", "salt") == job_fingerprint(
            real, circuit, "dev", "salt"
        )

    def test_fingerprint_strings_are_pinned(self):
        """The memo keys of stored results, as the strings they are.

        Stored payloads are found by these keys, so a change to any input
        of :func:`job_fingerprint` (or to its literal parts, such as the
        sweep spec's constant ``eps_rescore=None``) orphans every stored
        result; the equality tests above cannot see that.
        """
        from repro.service import SweepJobSpec
        from repro.service.job import spec_circuit

        fields = {
            "tenant": "acme", "device": "toronto", "scheme": "jigsaw",
            "total_trials": 1_024, "seed": 7,
        }
        plain = JobSpec(**fields, workload="GHZ-4")
        sweep = SweepJobSpec(
            **fields, workload="QAOA-5 p1",
            parameter_sets=((0.3, 0.4), (0.5, 0.2)),
        )
        pins = [
            (plain, "c18b6a2fcfdbb7e6763e16a4af88685c"
                    "18725038ebdce78c725ae8e532e9f3b3"),
            (sweep, "1e4806d050fedb046c504bcc13b3f9b1"
                    "81e916a2bf42d5f0c4bb054f8d181cc3"),
        ]
        for spec, pinned in pins:
            key = job_fingerprint(spec, spec_circuit(spec), "devkey", "salt")
            assert key == pinned

    def test_fingerprint_ignores_tenant_and_priority(self):
        base = JobSpec(tenant="a", workload="GHZ-4", priority=0)
        other = JobSpec(tenant="b", workload="GHZ-4", priority=9)
        circuit = resolve_spec_circuit(base).circuit
        assert job_fingerprint(base, circuit, "dev", "salt") == job_fingerprint(
            other, circuit, "dev", "salt"
        )

    def test_fingerprint_depends_on_seed_and_trials(self):
        base = JobSpec(tenant="a", workload="GHZ-4")
        circuit = resolve_spec_circuit(base).circuit
        fp = job_fingerprint(base, circuit, "dev", "salt")
        for variant in (
            JobSpec(tenant="a", workload="GHZ-4", seed=1),
            JobSpec(tenant="a", workload="GHZ-4", total_trials=4096),
            JobSpec(tenant="a", workload="GHZ-4", exact=False),
        ):
            assert job_fingerprint(variant, circuit, "dev", "salt") != fp


class TestFairShareQueue:
    def _job(self, tenant: str, priority: int = 0) -> Job:
        return Job(
            spec=JobSpec(tenant=tenant, workload="GHZ-4", priority=priority)
        )

    def test_priority_then_fifo_order(self):
        queue = FairShareQueue(capacity=8, fair_share=1.0)
        first = queue.push(self._job("a", priority=0))
        urgent = queue.push(self._job("a", priority=5))
        second = queue.push(self._job("a", priority=0))
        drained = queue.pop_batch(8)
        assert [j.job_id for j in drained] == [
            urgent.job_id, first.job_id, second.job_id
        ]

    def test_backpressure_when_full(self):
        queue = FairShareQueue(capacity=2, fair_share=1.0)
        queue.push(self._job("a"))
        queue.push(self._job("b"))
        with pytest.raises(AdmissionError, match="queue full"):
            queue.push(self._job("c"))
        assert counts(queue)["queue.rejected_full"] == 1

    def test_fair_share_caps_one_tenant(self):
        queue = FairShareQueue(capacity=4, fair_share=0.5)
        queue.push(self._job("greedy"))
        queue.push(self._job("greedy"))
        with pytest.raises(AdmissionError, match="fair-share"):
            queue.push(self._job("greedy"))
        # Other tenants still fit: the greedy tenant never fills the queue.
        queue.push(self._job("patient"))
        assert counts(queue)["queue.rejected_fair_share"] == 1
        assert queue.pending_by_tenant() == {"greedy": 2, "patient": 1}

    def test_pop_releases_fair_share_slots(self):
        queue = FairShareQueue(capacity=4, fair_share=0.5)
        queue.push(self._job("a"))
        queue.push(self._job("a"))
        queue.pop_batch(1)
        queue.push(self._job("a"))  # slot freed; no AdmissionError
        assert len(queue) == 2


class TestResultStore:
    """The service's store: memory-only by default, LRU-bounded, and
    journaled under ``root`` in fingerprint-prefix shards when the
    writer gives no device hint."""

    def test_roundtrip_and_counters(self):
        store = SegmentedResultStore()
        assert store.get("fp") is None
        store.put("fp", {"scheme": "jigsaw", "x": [1, 2]})
        payload = store.get("fp")
        assert payload["x"] == [1, 2]
        assert payload["payload_version"] == 1
        assert counts(store)["store.hits"] == 1
        assert counts(store)["store.misses"] == 1

    def test_lru_eviction(self):
        store = SegmentedResultStore(max_entries=2)
        store.put("a", {"v": 1})
        store.put("b", {"v": 2})
        assert store.get("a")["v"] == 1  # refresh a
        store.put("c", {"v": 3})  # evicts b (LRU)
        assert "b" not in store and "a" in store and "c" in store
        assert store.get("b") is None
        assert counts(store)["store.evictions"] == 1

    def test_disk_roundtrip(self, tmp_path):
        root = str(tmp_path / "store")
        store = SegmentedResultStore(root=root)
        store.put("fp1", {"scheme": "baseline", "v": 1})
        store.put("fp2", {"scheme": "jigsaw", "v": 2})
        store.put("fp1", {"scheme": "baseline", "v": 10})  # update wins

        reloaded = SegmentedResultStore(root=root)
        assert reloaded.get("fp1")["v"] == 10
        assert reloaded.get("fp2")["v"] == 2
        assert counts(reloaded)["store.loaded"] == 2

    def test_torn_final_line_is_ignored(self, tmp_path):
        root = tmp_path / "store"
        store = SegmentedResultStore(root=str(root))
        store.put("fp1", {"v": 1})
        (segment,) = (root / "fp-fp").glob("seg-*.jsonl")
        with open(segment, "a") as handle:
            handle.write('{"fingerprint": "fp2", "payl')  # crash artifact
        reloaded = SegmentedResultStore(root=str(root))
        assert reloaded.get("fp1")["v"] == 1
        assert "fp2" not in reloaded

    def test_refuses_future_payload_version(self, tmp_path):
        shard = tmp_path / "store" / "fp-fp"
        shard.mkdir(parents=True)
        (shard / "seg-000001.jsonl").write_text(
            '{"fingerprint": "fp", "payload_version": 99, "payload": {}}\n'
        )
        from repro.exceptions import PayloadError

        with pytest.raises(PayloadError, match="payload_version 99"):
            SegmentedResultStore(root=str(tmp_path / "store"))


@pytest.fixture(scope="module")
def exact_specs():
    """A small multi-tenant mix: overlapping programs, varied budgets."""
    return [
        JobSpec(tenant="alice", workload="GHZ-4", total_trials=2048, seed=0),
        JobSpec(tenant="bob", workload="GHZ-4", total_trials=4096, seed=0),
        JobSpec(tenant="bob", workload="BV-4", total_trials=2048, seed=0,
                scheme="baseline"),
        JobSpec(tenant="carol", workload="BV-4", total_trials=2048, seed=3,
                scheme="jigsaw_m"),
    ]


@pytest.fixture(scope="module")
def solo_payloads(exact_specs):
    return [solo_payload(spec) for spec in exact_specs]


class TestServiceDeterminism:
    def run_service(self, specs, **kwargs):
        with drained_tier(specs, **kwargs) as (_, jobs):
            for job in jobs:
                assert job.status is JobStatus.DONE, job.error
            return [job.result for job in jobs]

    def test_matches_solo_sessions(self, exact_specs, solo_payloads):
        assert self.run_service(exact_specs) == solo_payloads

    def test_arrival_order_irrelevant(self, exact_specs, solo_payloads):
        reordered = list(reversed(exact_specs))
        results = self.run_service(reordered)
        assert results == list(reversed(solo_payloads))

    def test_batch_composition_irrelevant(self, exact_specs, solo_payloads):
        # max_batch=1: every job executes alone — same results as one
        # merged batch of everything.
        assert (
            self.run_service(exact_specs, max_batch=1) == solo_payloads
        )

    def test_sampled_mode_matches_solo(self):
        specs = [
            JobSpec(tenant="a", workload="GHZ-4", total_trials=1024,
                    seed=5, exact=False),
            JobSpec(tenant="b", workload="BV-4", total_trials=1024,
                    seed=5, exact=False, scheme="baseline"),
        ]
        solos = [solo_payload(spec) for spec in specs]
        assert self.run_service(specs) == solos
        # And merged vs per-job batches agree in sampled mode too.
        assert self.run_service(specs, max_batch=1) == solos

    def test_all_schemes_match_solo(self):
        specs = [
            JobSpec(tenant="t", workload="BV-4", total_trials=1024,
                    seed=2, scheme=scheme)
            for scheme in (
                "baseline", "edm", "jigsaw", "jigsaw_nr", "jigsaw_m",
                "mbm", "jigsaw_mbm",
            )
        ]
        solos = [solo_payload(spec) for spec in specs]
        assert self.run_service(specs) == solos


class TestServiceBehaviour:
    def test_memoization_within_and_across_drains(self):
        spec = JobSpec(tenant="a", workload="GHZ-4", total_trials=1024)
        with drained_tier([spec, dataclasses.replace(spec, tenant="b")]) as (
            supervisor, (first, duplicate)
        ):
            assert first.source == "executed"
            assert duplicate.source == "memoized"
            assert duplicate.result == first.result
            # Resubmission after the drain returns instantly, no queueing.
            instant = supervisor.submit(spec)
            assert instant.status is JobStatus.DONE
            assert instant.source == "memoized"
            counters = supervisor.telemetry_snapshot()["counters"]
            assert counters["tier.executed"] == 1
            assert counters["tier.memoized"] == 2

    def test_cross_job_coalescing_reduces_executions(self):
        # Three tenants, identical program content -> one evaluation per
        # unique executable, not one per job.
        specs = [
            JobSpec(tenant=t, workload="GHZ-4", total_trials=n, seed=0)
            for t, n in (("a", 1024), ("b", 2048), ("c", 4096))
        ]
        with drained_tier(specs) as (supervisor, _):
            counters = supervisor.telemetry_snapshot()["counters"]
            assert counters["backend.spliced_parts"] == 3
            assert counters["backend.requests"] == 3 * counters[
                "backend.channel_evals"
            ]
            assert counters["backend.groups"] == counters[
                "backend.channel_evals"
            ]

    def test_payloads_survive_json_roundtrip_byte_identically(self):
        # The disk store round-trips payloads through JSON; every scheme's
        # payload must come back equal (notably: no int dict keys, which
        # JSON silently turns into strings).
        import json

        specs = [
            JobSpec(tenant="a", workload="BV-4", total_trials=1024,
                    scheme=scheme)
            for scheme in ("baseline", "jigsaw", "jigsaw_m")
        ]
        with drained_tier(specs) as (_, jobs):
            for job in jobs:
                assert job.status is JobStatus.DONE, job.error
                assert json.loads(json.dumps(job.result)) == job.result

    def test_disk_store_survives_service_restart(self, tmp_path):
        root = str(tmp_path / "store")
        spec = JobSpec(tenant="a", workload="BV-4", total_trials=1024)
        with drained_tier(
            [spec], store=SegmentedResultStore(root=root)
        ) as (_, (job,)):
            executed_payload = job.result
        with ServiceSupervisor(
            workers=1, store=SegmentedResultStore(root=root)
        ) as supervisor:
            job = supervisor.submit(spec)
            assert job.status is JobStatus.DONE
            assert job.source == "memoized"
            assert job.result == executed_payload

    def test_failed_job_reports_error(self):
        # MBM on an 18-bit output exceeds MAX_MBM_QUBITS (12); the check
        # fires at preparation, before any compilation happens.
        spec = JobSpec(tenant="a", workload="GHZ-18", scheme="mbm",
                       total_trials=1024)
        with drained_tier([spec]) as (supervisor, (job,)):
            assert job.status is JobStatus.FAILED
            assert "MBM" in job.error
            with pytest.raises(ServiceError, match="failed"):
                supervisor.result(job)

    def test_store_failure_costs_memoization_not_results(self):
        # A store that cannot persist must not fail jobs or kill the
        # worker — the computed result still reaches the caller.
        class FullDisk(SegmentedResultStore):
            def put(self, fingerprint, payload, shard=None):
                raise OSError("no space left on device")

        spec = JobSpec(tenant="a", workload="GHZ-4", total_trials=1024)
        with drained_tier([spec], store=FullDisk()) as (supervisor, (job,)):
            assert job.status is JobStatus.DONE, job.error
            counters = supervisor.telemetry_snapshot()["counters"]
            assert counters["tier.store_errors"] == 1

    def test_memoized_result_is_isolated_from_caller_mutation(self):
        spec = JobSpec(tenant="a", workload="GHZ-4", total_trials=1024)
        with drained_tier([spec]) as (supervisor, (first,)):
            pristine = supervisor.submit(
                dataclasses.replace(spec, tenant="b")
            ).result
            # Vandalise the served copy; the store entry must not notice.
            pristine["output_pmf"]["probs"][0] = 123.0
            again = supervisor.submit(
                dataclasses.replace(spec, tenant="c")
            ).result
            assert again["output_pmf"]["probs"][0] != 123.0
            assert again == first.result

    def test_unknown_device_rejected_at_submit(self):
        with ServiceSupervisor(workers=1) as supervisor:
            with pytest.raises(AdmissionError, match="unknown device"):
                supervisor.submit(
                    JobSpec(tenant="a", workload="GHZ-4", device="nope")
                )

    @pytest.mark.parametrize(
        "knobs",
        [
            {"executor": "rayon"},
            {"placement": "shared"},
            {"executor": "process"},
            {"max_batch": 0},
        ],
    )
    def test_bad_backend_knobs_rejected_at_construction(self, knobs):
        # Refused up front, not as a backend error that every job then
        # retries max_retries times.
        with pytest.raises(ServiceError):
            ServiceSupervisor(workers=1, **knobs)

    def test_inline_qasm_job(self):
        qasm = (
            'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
            "qreg q[3];\ncreg c[3];\n"
            "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
            "measure q -> c;\n"
        )
        spec = JobSpec(tenant="a", qasm=qasm, total_trials=1024)
        with drained_tier([spec]) as (_, (job,)):
            assert job.status is JobStatus.DONE, job.error
            assert job.result["scheme"] == "jigsaw"

    def test_service_smoke_submit_poll_fetch(self):
        """The worker-loop smoke: submit -> poll -> fetch, hard timeout."""
        with ServiceSupervisor(workers=1) as supervisor:
            job = supervisor.submit(
                JobSpec(tenant="a", workload="GHZ-4", total_trials=1024)
            )
            deadline = time.monotonic() + 60.0
            while not job.done and time.monotonic() < deadline:
                time.sleep(0.01)
            settled = supervisor.wait(job.job_id, timeout=60.0)
            assert settled.status is JobStatus.DONE, settled.error
            payload = supervisor.result(job.job_id)
            assert payload["scheme"] == "jigsaw"

    def test_wait_timeout(self):
        # Never started: the job stays queued and wait() gives up.
        supervisor = ServiceSupervisor(workers=1)
        try:
            job = supervisor.submit(
                JobSpec(tenant="a", workload="GHZ-4", total_trials=1024)
            )
            with pytest.raises(ServiceError, match="timed out"):
                supervisor.wait(job, timeout=0.01)
        finally:
            supervisor.close()

    def test_concurrent_submitters_one_worker(self):
        """Many submitting threads, one worker loop: all jobs settle and
        every result matches its fingerprint-identical peers."""
        with ServiceSupervisor(
            workers=1, capacity=64, fair_share=1.0
        ) as supervisor:
            jobs, errors = [], []
            lock = threading.Lock()

            def submit(tenant):
                try:
                    job = supervisor.submit(
                        JobSpec(tenant=tenant, workload="GHZ-4",
                                total_trials=1024, seed=0)
                    )
                    with lock:
                        jobs.append(job)
                except Exception as exc:  # pragma: no cover - diagnostic
                    with lock:
                        errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(f"t{i}",))
                for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for job in jobs:
                supervisor.wait(job, timeout=120.0)
            payloads = {id(j): j.result for j in jobs}
            reference = jobs[0].result
            assert all(p == reference for p in payloads.values())

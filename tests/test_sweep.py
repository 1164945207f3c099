"""Tests for variational sweeps: coalesced K-point execution.

The contract: ``Session.run_sweep`` submits all K bound iterations as
one backend batch and its results are **bit-for-bit equal** to running
the iterations one at a time in an equally seeded session — for every
scheme, exact and sampled, and at any drain-worker count of the serving
tier.
"""

import json

import pytest

from repro.devices import ibmq_toronto
from repro.exceptions import ExperimentError, ServiceError
from repro.runtime import SCHEME_NAMES, Session
from repro.service import JobSpec, SweepJobSpec, job_fingerprint
from repro.service.tier import ServiceSupervisor
from repro.workloads import ghz, ising, qaoa_maxcut
from repro.workloads.probe import probe_circuit
from repro.workloads.suite import workload_by_name
from tests.conftest import make_varied_line_device

POINTS = [[0.3, 0.4], [0.5, 0.2], [1.1, 0.9]]
TRIALS = 2_048


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture(scope="module")
def toronto():
    return ibmq_toronto()


@pytest.fixture(scope="module")
def workload():
    return qaoa_maxcut(5)


def pmf_dicts(sweep_result):
    return [pmf.as_dict() for pmf in sweep_result.output_pmfs]


class TestSweepEqualsPerIteration:
    """One coalesced batch == the unbatched per-iteration path."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_all_schemes(self, device, workload, scheme, exact):
        coalesced = Session(
            device, seed=13, exact=exact, total_trials=TRIALS
        ).run_sweep(scheme, workload, POINTS)

        session = Session(device, seed=13, exact=exact, total_trials=TRIALS)
        one_at_a_time = [
            session.run_sweep(scheme, workload, [point]).output_pmfs[0]
            for point in POINTS
        ]

        assert pmf_dicts(coalesced) == [pmf.as_dict() for pmf in one_at_a_time]

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
    def test_solo_run_equals_one_point_sweep(self, toronto, scheme, exact):
        # prepare_scheme and prepare_sweep hand their compiled programs to
        # one recipe; at the workload's default point a fresh session
        # compiles the same mapping on the same streams either way.
        workload = qaoa_maxcut(5)
        solo = Session(
            toronto, seed=13, exact=exact, total_trials=TRIALS
        ).run_scheme(scheme, workload)
        swept = Session(
            toronto, seed=13, exact=exact, total_trials=TRIALS
        ).run_sweep(scheme, workload, [workload.default_parameters])
        assert swept.output_pmfs[0].as_dict() == solo.as_dict()

    @pytest.mark.parametrize("scheme", ["jigsaw", "edm", "baseline"])
    def test_worker_count_invariance(self, device, scheme):
        # A batch evaluates in-process; the worker count left is the
        # serving tier's drain workers.  Sampled sweep jobs dealt over
        # two lanes carry the payloads one lane computes.
        specs = [
            SweepJobSpec(
                tenant=tenant, workload="QAOA-5 p1", device="line",
                scheme=scheme, parameter_sets=POINTS, total_trials=TRIALS,
                seed=seed, exact=False,
            )
            for tenant, seed in (("a", 13), ("b", 14))
        ]
        payloads = {}
        for workers in (1, 2):
            with ServiceSupervisor(
                devices={"line": device}, workers=workers
            ) as supervisor:
                jobs = [supervisor.submit(spec) for spec in specs]
                payloads[workers] = [
                    supervisor.result(supervisor.wait(job, timeout=300))
                    for job in jobs
                ]
        assert payloads[1] == payloads[2]

    def test_sweep_of_bare_parameterized_circuit(self, device, workload):
        session_a = Session(device, seed=9, exact=True, total_trials=TRIALS)
        from_circuit = session_a.run_sweep(
            "jigsaw", workload.template_circuit, POINTS
        )
        assert len(from_circuit) == len(POINTS)
        for pmf in from_circuit.output_pmfs:
            assert sum(pmf.as_dict().values()) == pytest.approx(1.0)


class TestSweepMechanics:
    def test_route_calls_constant_in_k(self, device, workload):
        counts = {}
        for k in (1, 6):
            session = Session(device, seed=13, exact=True, total_trials=TRIALS)
            points = [[0.1 + 0.05 * i, 0.2] for i in range(k)]
            session.run_sweep("jigsaw", workload, points)
            counters = session.telemetry_snapshot()["counters"]
            counts[k] = counters["compiler.route_calls"]
            assert counters["compiler.template_binds"] == k
        assert counts[1] == counts[6]

    def test_template_key_records_the_global_source(self, toronto):
        # A bare circuit's template holds a mapping its runner compiled;
        # the workload's global comes from the session baseline stream,
        # so a later workload sweep must not replay the bare one's.
        workload = qaoa_maxcut(6)
        points = [[0.3, 0.4], [0.5, 0.2]]
        session = Session(toronto, seed=3, exact=True, total_trials=TRIALS)
        session.run_sweep("jigsaw", workload.template_circuit, points)
        after_bare = session.run_sweep("jigsaw", workload, points)
        fresh = Session(
            toronto, seed=3, exact=True, total_trials=TRIALS
        ).run_sweep("jigsaw", workload, points)
        assert pmf_dicts(after_bare) == pmf_dicts(fresh)

    def test_sweep_result_to_dict(self, device, workload):
        session = Session(device, seed=13, exact=True, total_trials=TRIALS)
        result = session.run_sweep("jigsaw", workload, POINTS)
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["scheme"] == "jigsaw"
        assert payload["parameter_names"] == ["gamma_0", "beta_0"]
        assert payload["num_iterations"] == len(POINTS)
        assert len(payload["output_pmfs"]) == len(POINTS)

    def test_unknown_scheme_rejected(self, device, workload):
        session = Session(device, seed=13, exact=True)
        with pytest.raises(ExperimentError):
            session.run_sweep("magic", workload, POINTS)

    def test_unsweepable_workload_rejected(self, device):
        session = Session(device, seed=13, exact=True)
        with pytest.raises(ExperimentError):
            session.run_sweep("jigsaw", ghz(5), POINTS)

    def test_empty_point_list_rejected(self, device, workload):
        session = Session(device, seed=13, exact=True)
        with pytest.raises(ExperimentError):
            session.run_sweep("jigsaw", workload, [])

    def test_wrong_width_point_rejected(self, device, workload):
        session = Session(device, seed=13, exact=True)
        with pytest.raises(Exception):
            session.run_sweep("jigsaw", workload, [[0.1]])


class TestWorkloadTemplates:
    """Parameterized workloads bind their defaults to the exact circuit."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: qaoa_maxcut(5),
            lambda: qaoa_maxcut(4, depth=2),
            lambda: ising(4),
            lambda: probe_circuit(3, probe_state="tilted"),
        ],
        ids=["qaoa-p1", "qaoa-p2", "ising", "probe"],
    )
    def test_default_bind_reproduces_circuit(self, factory):
        from repro.runtime.fingerprint import circuit_fingerprint

        workload = factory()
        assert workload.is_sweepable
        rebound = workload.template_circuit.bind(workload.default_parameters)
        assert circuit_fingerprint(rebound) == circuit_fingerprint(
            workload.circuit
        )
        assert not workload.circuit.is_parameterized
        assert workload.template_circuit.is_parameterized


class TestSweepJobs:
    """SweepJobSpec through the service == solo session, plus validation."""

    def spec(self, **overrides):
        payload = dict(
            tenant="acme",
            workload="QAOA-5 p1",
            device="toronto",
            scheme="jigsaw",
            total_trials=1_024,
            seed=7,
            parameter_sets=((0.3, 0.4), (0.5, 0.2)),
        )
        payload.update(overrides)
        return SweepJobSpec(**payload)

    def test_roundtrip_and_dispatch(self):
        spec = self.spec()
        entry = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(entry) == spec
        assert isinstance(JobSpec.from_dict(entry), SweepJobSpec)

    def test_validation(self):
        with pytest.raises(ServiceError):
            self.spec(parameter_sets=())
        with pytest.raises(ServiceError):
            self.spec(parameter_sets=((0.1,), (0.2, 0.3)))  # ragged
        with pytest.raises(ServiceError):
            self.spec(workload=None, qasm="OPENQASM 2.0;")
        with pytest.raises(ServiceError):
            SweepJobSpec.from_dict({**self.spec().to_dict(), "bogus": 1})
        # Templates keep their compile-time EPS: a re-score threshold is
        # refused like any unknown field.
        entry = {**self.spec().to_dict(), "eps_rescore_threshold": 0.5}
        for parse in (JobSpec.from_dict, SweepJobSpec.from_dict):
            with pytest.raises(ServiceError, match="unknown sweep-job fields"):
                parse(entry)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"parameter_sets": [[1, "a"]]},
            {"parameter_sets": [[float("nan"), 0.2]]},
            {"parameter_sets": [[float("inf"), 0.2]]},
            {"parameter_sets": [[10**400, 0.2]]},
            {"parameter_sets": [[True, 0.2]]},
            {"parameter_sets": "ab"},
            {"parameter_sets": [0.1, 0.2]},
            {"eps_rescore_threshold": "x"},
            {"eps_rescore_threshold": float("nan")},
            {"eps_rescore_threshold": True},
        ],
    )
    def test_rejects_mistyped_fields(self, overrides):
        """Non-numeric or non-finite points raise ServiceError, not
        ValueError or TypeError; so does a stale job file's re-score
        threshold, whatever its type, as an unknown field."""
        with pytest.raises(ServiceError):
            SweepJobSpec.from_dict({**self.spec().to_dict(), **overrides})

    def test_fingerprint_covers_points(self):
        from repro.service.job import spec_circuit

        a = self.spec()
        b = self.spec(parameter_sets=((0.3, 0.4), (0.5, 0.21)))
        plain = JobSpec(
            tenant="acme", workload="QAOA-5 p1", device="toronto",
            scheme="jigsaw", total_trials=1_024, seed=7,
        )
        circuit = spec_circuit(a)
        prints = {
            job_fingerprint(spec, circuit, "devkey", "salt")
            for spec in (a, b, plain)
        }
        assert len(prints) == 3

    def test_service_matches_solo_session(self):
        from repro.devices.library import DEVICE_FACTORIES

        spec = self.spec()
        with ServiceSupervisor(workers=1) as supervisor:
            job = supervisor.wait(supervisor.submit(spec), timeout=300)
        assert job.status.value == "done"

        session = Session(
            DEVICE_FACTORIES["toronto"](), seed=7, total_trials=1_024,
            exact=True, compile_attempts=4, cpm_attempts=3, ensemble_size=4,
        )
        solo = session.run_sweep(
            "jigsaw", workload_by_name("QAOA-5 p1"), spec.parameter_sets
        )
        assert job.result == json.loads(json.dumps(solo.to_dict()))

    def test_service_memoizes_sweeps(self):
        spec = self.spec()
        with ServiceSupervisor(workers=1) as supervisor:
            first = supervisor.wait(supervisor.submit(spec), timeout=300)
            second = supervisor.submit(spec)
        assert first.source == "executed"
        assert second.source == "memoized"
        assert second.result == first.result

    def test_unsweepable_workload_fails_job(self):
        spec = self.spec(workload="GHZ-8")
        with ServiceSupervisor(workers=1) as supervisor:
            job = supervisor.wait(supervisor.submit(spec), timeout=300)
        assert job.status.value == "failed"
        assert "template" in (job.error or "")

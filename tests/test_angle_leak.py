"""Routed bodies are shared by structure, never by rotation angle.

The Route stage keys a routed body by the angle-free body fingerprint, so
two programs that differ only in their angles share one routing.  Each
executable must still carry *its own* angles on its physical schedule,
and exact-mode coalescing must never hand one program's distribution to
another.  Every case here is a served or session path where the first
program to route a body used to lend its angles to every later one.
"""

from __future__ import annotations

from repro.core.pmf import PMF
from repro.devices import ibmq_manhattan, ibmq_toronto
from repro.runtime import CompilationCache, Session
from repro.service import JobSpec, SweepJobSpec
from repro.service.job import resolve_spec_circuit
from repro.service.tier import ServiceSupervisor
from repro.workloads import workload_by_name


def _gap(left: PMF, right: PMF) -> float:
    a = dict(zip(left.codes.tolist(), left.probs.tolist()))
    b = dict(zip(right.codes.tolist(), right.probs.tolist()))
    return max(abs(a.get(c, 0.0) - b.get(c, 0.0)) for c in a.keys() | b.keys())


def _qasm(theta: float) -> str:
    return (
        "OPENQASM 2.0;\n"
        'include "qelib1.inc";\n'
        "qreg q[4];\ncreg c[4];\n"
        f"ry({theta!r}) q[0];\n"
        "cx q[0],q[1];\ncx q[1],q[2];\ncx q[2],q[3];\n"
        f"ry({theta / 2!r}) q[3];\n"
        "measure q -> c;\n"
    )


def _solo(spec: JobSpec, device) -> PMF:
    with Session(
        device, seed=spec.seed, total_trials=spec.total_trials, exact=True
    ) as session:
        return session.run_scheme(spec.scheme, resolve_spec_circuit(spec))


def _rotation_angles(circuit):
    return sorted(
        float(ins.gate.params[0])
        for ins in circuit.instructions
        if ins.is_gate and ins.gate.name == "ry"
    )


class TestServedMergedBatch:
    def test_each_program_gets_its_own_distribution(self):
        specs = [
            JobSpec(
                tenant="a", qasm=_qasm(theta), device="toronto",
                scheme="jigsaw", seed=seed, exact=True,
            )
            for theta, seed in ((0.3, 1), (1.7, 2))
        ]
        supervisor = ServiceSupervisor(workers=1, max_batch=8)
        try:
            # Both queued before the worker starts: one merged batch.
            jobs = [supervisor.submit(spec) for spec in specs]
            supervisor.start()
            payloads = [
                supervisor.result(supervisor.wait(job, timeout=300))
                for job in jobs
            ]
        finally:
            supervisor.close()
        assert supervisor.telemetry_snapshot()["counters"]["tier.batches"] == 1
        device = ibmq_toronto()
        for spec, payload in zip(specs, payloads):
            served = PMF.from_payload(payload["output_pmf"])
            assert _gap(served, _solo(spec, device)) == 0.0


class TestSessionRouteCacheHit:
    def test_sweep_after_plain_run_matches_unshared_routing(self):
        workload = workload_by_name("QAOA-8 p1")
        names = [p.name for p in workload.template_circuit.parameters]
        base = [workload.default_parameters[name] for name in names]
        points = [[v + 0.2 * k for v in base] for k in range(3)]
        device = ibmq_manhattan()

        def plain_then_sweep(cache):
            session = Session(device, seed=0, exact=True, cache=cache)
            session.run_scheme("jigsaw", workload)
            return session.run_sweep("jigsaw", workload, points).output_pmfs

        # The sweep's template hits the plain run's routed bodies; with
        # the stage store disabled nothing is shared, and routing is a
        # pure function of content, so the two must agree bit for bit.
        shared = plain_then_sweep(None)
        unshared = plain_then_sweep(CompilationCache.disabled())
        assert len({tuple(sorted(p.as_dict().items())) for p in shared}) == 3
        for left, right in zip(shared, unshared):
            assert _gap(left, right) == 0.0

    def test_physical_rotations_carry_own_angles(self):
        device = ibmq_toronto()
        session = Session(device, seed=3, exact=True)
        for theta in (0.3, 1.7):
            spec = JobSpec(
                tenant="a", qasm=_qasm(theta), device="toronto",
                scheme="jigsaw", seed=3, exact=True,
            )
            circuit = resolve_spec_circuit(spec).circuit
            plan = session.plan(circuit)
            for executable in [plan.global_executable] + plan.cpm_executables:
                assert _rotation_angles(executable.physical) == sorted(
                    [theta, theta / 2]
                )


class TestServedSweepAfterPlainJob:
    def test_sweep_job_matches_its_solo_run(self):
        workload = workload_by_name("QAOA-6 p1")
        names = [p.name for p in workload.template_circuit.parameters]
        base = [workload.default_parameters[name] for name in names]
        points = [[v + 0.3 * k for v in base] for k in range(3)]
        plain = JobSpec(
            tenant="a", workload="QAOA-6 p1", device="toronto",
            scheme="jigsaw", seed=5, exact=True,
        )
        sweep = SweepJobSpec(
            tenant="a", workload="QAOA-6 p1", device="toronto",
            scheme="jigsaw", seed=6, exact=True, parameter_sets=points,
        )
        supervisor = ServiceSupervisor(workers=1)
        try:
            supervisor.start()
            supervisor.result(supervisor.wait(supervisor.submit(plain), timeout=300))
            payload = supervisor.result(
                supervisor.wait(supervisor.submit(sweep), timeout=300)
            )
        finally:
            supervisor.close()
        solo = Session(ibmq_toronto(), seed=6, exact=True).run_sweep(
            "jigsaw", workload, points
        )
        served = [PMF.from_payload(p) for p in payload["output_pmfs"]]
        assert len(served) == len(points)
        for left, right in zip(served, solo.output_pmfs):
            assert _gap(left, right) == 0.0

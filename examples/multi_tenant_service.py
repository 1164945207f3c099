"""Walkthrough: serving many tenants' mitigation jobs from one service.

Demonstrates the :class:`repro.service.tier.ServiceSupervisor` lifecycle
with one drain worker:

1. submit jobs from several tenants (overlapping programs, different
   trial budgets) as serializable :class:`JobSpec`s;
2. start the worker and drain them — one merged, cross-job-coalesced
   backend batch, because every job was queued before the worker
   started;
3. fetch results and confirm they are **bit-for-bit** what a solo
   ``Session`` produces for the same spec;
4. resubmit and watch the result store serve everything instantly;
5. read the service counters that quantify the sharing.

Run with::

    PYTHONPATH=src python examples/multi_tenant_service.py
"""

from __future__ import annotations

import json

from repro.devices import ibmq_toronto
from repro.runtime import Session
from repro.service import JobSpec, JobStatus
from repro.service.tier import ServiceSupervisor
from repro.workloads import workload_by_name

CATALOG = ("GHZ-8", "BV-6")
TENANT_BUDGETS = {"alice": 8_192, "bob": 16_384, "carol": 32_768}


def main() -> None:
    supervisor = ServiceSupervisor(workers=1, max_batch=32)
    try:
        # --- 1. submit: three tenants, one shared workload catalog ----
        jobs = [
            supervisor.submit(
                JobSpec(tenant=tenant, workload=name, total_trials=budget,
                        seed=0, scheme="jigsaw")
            )
            for tenant, budget in TENANT_BUDGETS.items()
            for name in CATALOG
        ]
        print(f"submitted {len(jobs)} jobs, {len(supervisor.queue)} queued")

        # --- 2. drain: one coalesced batch ----------------------------
        supervisor.start()
        supervisor.stop(drain=True)
        for job in jobs:
            assert job.status is JobStatus.DONE, job.error
        print("first wave:", {job.job_id: job.source for job in jobs})

        # --- 3. the determinism contract ------------------------------
        # Any job's payload is bit-for-bit a solo Session run of its spec.
        probe = jobs[0]
        with Session(
            ibmq_toronto(), seed=probe.spec.seed,
            total_trials=probe.spec.total_trials, exact=probe.spec.exact,
        ) as session:
            solo = session.run_jigsaw(
                workload_by_name(probe.spec.workload)
            ).to_dict()
        assert solo == probe.result
        print(f"{probe.job_id}: service payload == solo Session.run payload")

        # --- 4. resubmission: served from the store, no execution -----
        resubmitted = [supervisor.submit(job.spec) for job in jobs]
        assert all(job.source == "memoized" for job in resubmitted)
        print(f"resubmitted {len(resubmitted)} jobs: all memoized instantly")

        # --- 5. the sharing, quantified -------------------------------
        counters = supervisor.telemetry_snapshot()["counters"]
        print("\nservice counters:")
        print(
            json.dumps(
                {
                    name: value
                    for name, value in counters.items()
                    if name.startswith(("tier.", "backend."))
                },
                indent=2,
            )
        )
        requests = counters["backend.requests"]
        print(
            f"\n{requests} requests collapsed to "
            f"{counters['backend.channel_evals']} channel evaluations "
            f"({requests - counters['backend.groups']} coalesced across "
            f"jobs) and {counters['backend.statevector_evals']} statevector "
            "simulations."
        )
    finally:
        supervisor.close()


if __name__ == "__main__":
    main()

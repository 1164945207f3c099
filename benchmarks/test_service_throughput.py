"""Perf smoke check: the multi-tenant service beats sequential sessions.

The sweep models a production day: **3 tenants** submit overlapping
workloads (a shared catalog, per-tenant trial budgets), then every tenant
**resubmits** its jobs (dashboards refresh, retries happen).  Two
architectures serve the same 18-job stream:

1. **Sequential sessions** (the pre-service deployment): every job owns a
   private ``Session`` and runs alone — every submission recompiles and
   re-executes.
2. **The job service**: a one-worker ``ServiceSupervisor`` fed the first
   wave before it starts, so the wave drains as one batch; cross-job
   coalescing merges content-identical executables, and the store
   memoizes the resubmission wave outright at submission.

Assertions: identical payloads job-for-job, and the service needs at
least **2x fewer backend executions** (channel evaluations — the
deterministic cost model; wall clock is printed, not asserted).  The
rendered counts are checked into ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import time

from _shared import save_bench_json
from repro.devices import ibmq_toronto
from repro.runtime import Session
from repro.service import JobSpec
from repro.service.tier import ServiceSupervisor
from repro.workloads import workload_by_name

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 0
CATALOG = ("BV-6", "GHZ-8", "QAOA-8 p1")
TENANT_BUDGETS = {"alice": 16_384, "bob": 32_768, "carol": 65_536}


def job_stream():
    """The 18-job stream: one wave per tenant, then a resubmission wave."""
    wave = [
        JobSpec(tenant=tenant, workload=name, total_trials=budget,
                seed=SEED, exact=True)
        for tenant, budget in TENANT_BUDGETS.items()
        for name in CATALOG
    ]
    return wave + list(wave)  # every tenant resubmits everything


def test_service_halves_backend_executions():
    specs = job_stream()

    # --- Sequential sessions: one private session per submission. -----
    sequential_payloads = []
    sequential_evals = 0
    start = time.perf_counter()
    for spec in specs:
        with Session(
            ibmq_toronto(), seed=spec.seed, total_trials=spec.total_trials,
            exact=spec.exact,
        ) as session:
            result = session.run_jigsaw(workload_by_name(spec.workload))
            sequential_payloads.append(result.to_dict())
            sequential_evals += session.telemetry_snapshot()["counters"][
                "backend.channel_evals"
            ]
    sequential_seconds = time.perf_counter() - start

    # --- The service: same stream, one drained wave + memo hits. ------
    supervisor = ServiceSupervisor(
        devices={"toronto": ibmq_toronto}, workers=1, max_batch=32
    )
    try:
        start = time.perf_counter()
        first_wave = [
            supervisor.submit(spec) for spec in specs[: len(specs) // 2]
        ]
        supervisor.start()
        supervisor.stop(drain=True, timeout=600)
        resubmission = [
            supervisor.submit(spec) for spec in specs[len(specs) // 2:]
        ]
        service_seconds = time.perf_counter() - start
        jobs = first_wave + resubmission
        counters = supervisor.telemetry_snapshot()["counters"]
    finally:
        supervisor.close()

    # Identical results, job for job (the determinism contract).
    assert [job.result for job in jobs] == sequential_payloads

    service_evals = counters["backend.channel_evals"]
    requests = counters["backend.requests"]
    coalesced = requests - counters["backend.groups"]

    # The resubmission wave is pure memoization...
    assert all(job.source == "memoized" for job in resubmission)
    assert counters["tier.memoized"] == len(resubmission)
    # ...and the first wave coalesced 3 tenants onto one execution per
    # unique executable, so the whole stream needs >= 2x (here: 6x)
    # fewer backend executions than sequential sessions.
    assert service_evals > 0
    assert sequential_evals >= 2 * service_evals, (
        f"service executed {service_evals} channel evals vs "
        f"{sequential_evals} sequential — expected >= 2x reduction"
    )

    reduction = sequential_evals / service_evals
    save_bench_json(
        "service_throughput",
        {
            "jobs": len(specs),
            "tenants": list(TENANT_BUDGETS),
            "catalog": list(CATALOG),
            "sequential_channel_evals": sequential_evals,
            "service_channel_evals": service_evals,
            "reduction": reduction,
            "asserted_min_reduction": 2.0,
            "requests": requests,
            "coalesced_requests": coalesced,
            "statevector_evals": counters["backend.statevector_evals"],
            "jobs_memoized": counters["tier.memoized"],
            "jobs_executed": counters["tier.executed"],
        },
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "service_throughput.txt"), "w"
    ) as handle:
        handle.write(
            "Multi-tenant service throughput benchmark (exact mode)\n"
            f"tenants:  {', '.join(TENANT_BUDGETS)} "
            "(per-tenant budgets, shared catalog, one resubmission wave)\n"
            f"catalog:  {', '.join(CATALOG)}\n"
            f"jobs in stream:               {len(specs)}\n"
            f"sequential channel evals:     {sequential_evals}\n"
            f"service    channel evals:     {service_evals}\n"
            f"reduction:                    {reduction:.1f}x "
            "(>= 2x asserted)\n"
            f"service requests spliced:     {requests} "
            f"({coalesced} coalesced)\n"
            f"statevector evals:            "
            f"{counters['backend.statevector_evals']}\n"
            f"jobs memoized:                {counters['tier.memoized']}\n"
            f"jobs executed:                {counters['tier.executed']}\n"
            "(payloads bit-for-bit equal to sequential sessions; counts "
            "asserted, wall clock measured to stdout)\n"
        )
    print(
        f"\nwall clock: sequential {sequential_seconds:.2f}s, "
        f"service {service_seconds:.2f}s; "
        f"channel evals {sequential_evals} -> {service_evals} "
        f"({reduction:.1f}x)"
    )

"""Perf smoke check: the serving tier scales throughput with workers.

A 3-tenant stream of unique jobs (distinct seeds — no memoization, no
coalescing, so every job carries real work) is served twice:

1. **Single drain**: a one-worker ``ServiceSupervisor`` fed the whole
   stream before it starts (``max_batch=32``, so it drains as one
   batch) — every channel evaluation happens on one lane, back to back.
2. **Serving tier at 4 workers**: one ``ServiceSupervisor`` with
   round-robin placement — submissions are dealt across 4 drain workers,
   each with a private engine, and the stream is arranged so every lane
   receives one job per wave (balanced by construction).

Throughput is asserted via the repo's deterministic cost model, not wall
clock (CI machines vary; this container has one core): the single-drain
loop's makespan is the **total** channel evaluations, the tier's is the
**busiest lane's** — deterministic because round-robin placement pins
every job to a lane by submission order.  With 4 balanced lanes the
modeled speedup is ~4x; >= 2x is asserted.  Payloads must be bit-for-bit
identical between the two architectures (the determinism contract), and
the tier's total work must equal the single drain's (concurrency adds
zero evaluations).

Artifacts: ``results/service_tier.txt`` (human table) and
``results/BENCH_service_tier.json`` (machine-readable counts), both
byte-stable across runs and machines.
"""

from __future__ import annotations

import time

from _shared import save_bench_json, save_result
from repro.devices import ibmq_toronto
from repro.service import JobSpec
from repro.service.tier import ServiceSupervisor

SEED_BASE = 100
TIER_WORKERS = 4
TENANTS = ("alice", "bob", "carol")
#: 16 *distinct* workloads in 4 waves of 4: distinct programs mean no
#: memoization and no cross-job coalescing in either architecture, so
#: the stream measures raw drain throughput.  Each wave is one family
#: with sizes 6..9, rotated per wave (a Latin square), so round-robin
#: placement deals every lane one workload of each size band — the
#: lanes balance by construction.
CATALOG = (
    ("GHZ-6", "GHZ-7", "GHZ-8", "GHZ-9"),
    ("BV-7", "BV-8", "BV-9", "BV-6"),
    ("QAOA-8 p1", "QAOA-9 p1", "QAOA-6 p1", "QAOA-7 p1"),
    ("BV-13", "BV-10", "BV-11", "BV-12"),
)


def job_stream():
    """16 unique jobs: 4 waves x 4 lanes, tenants interleaved."""
    specs = []
    for wave, names in enumerate(CATALOG):
        for slot, workload in enumerate(names):
            index = wave * TIER_WORKERS + slot
            specs.append(
                JobSpec(
                    tenant=TENANTS[index % len(TENANTS)],
                    workload=workload,
                    scheme="jigsaw",
                    seed=SEED_BASE + index,
                    exact=True,
                )
            )
    return specs


def test_tier_doubles_modeled_throughput():
    specs = job_stream()
    devices = {"toronto": ibmq_toronto}

    # --- Single drain: one worker, the whole stream queued first. ------
    single = ServiceSupervisor(devices=devices, workers=1, max_batch=32)
    try:
        start = time.perf_counter()
        solo_jobs = [single.submit(spec) for spec in specs]
        single.start()
        single.stop(drain=True, timeout=600)
        solo_seconds = time.perf_counter() - start
        serial_evals = single.telemetry_snapshot()["counters"][
            "backend.channel_evals"
        ]
    finally:
        single.close()
    solo_payloads = [job.result for job in solo_jobs]

    # --- Serving tier: 4 drain workers, round-robin lanes. ------------
    supervisor = ServiceSupervisor(
        devices=devices, workers=TIER_WORKERS, placement="round_robin"
    )
    supervisor.start()
    try:
        start = time.perf_counter()
        tier_jobs = [supervisor.submit(spec) for spec in specs]
        supervisor.stop(drain=True, timeout=600)
        tier_seconds = time.perf_counter() - start
        counters = supervisor.telemetry_snapshot()["counters"]
        # Per-lane counts live in each worker's engine registry.
        lane_evals = [
            worker.engine.metrics.snapshot()["counters"].get(
                "backend.channel_evals", 0
            )
            for worker in supervisor.drain_workers
        ]
    finally:
        supervisor.close()

    # Determinism: bit-for-bit the single-drain payloads, job for job.
    assert [job.result for job in tier_jobs] == solo_payloads
    assert all(job.source == "executed" for job in tier_jobs)

    assert len(lane_evals) == TIER_WORKERS
    assert all(evals > 0 for evals in lane_evals)
    # Concurrency must add zero work: the lanes partition the stream.
    assert sum(lane_evals) == serial_evals

    # Modeled makespan: all evals serial vs the busiest lane.
    makespan = max(lane_evals)
    speedup = serial_evals / makespan
    assert speedup >= 2.0, (
        f"modeled tier speedup {speedup:.2f}x at {TIER_WORKERS} workers "
        f"(lanes {lane_evals} vs {serial_evals} serial) — expected >= 2x"
    )

    save_bench_json(
        "service_tier",
        {
            "workers": TIER_WORKERS,
            "placement": "round_robin",
            "tenants": list(TENANTS),
            "catalog": [list(wave) for wave in CATALOG],
            "jobs": len(specs),
            "serial_channel_evals": serial_evals,
            "lane_channel_evals": lane_evals,
            "modeled_makespan_evals": makespan,
            "modeled_speedup": speedup,
            "asserted_min_speedup": 2.0,
            "retries": counters["tier.retried"],
            "worker_crashes": counters["tier.worker_crashes"],
        },
    )
    save_result(
        "service_tier",
        "Serving-tier throughput benchmark (exact mode, modeled)\n"
        f"tenants:   {', '.join(TENANTS)}\n"
        "catalog:   "
        + "; ".join(", ".join(wave) for wave in CATALOG)
        + " (4 waves x 4 lanes, all distinct)\n"
        f"jobs in stream:               {len(specs)}\n"
        f"single-drain channel evals:   {serial_evals} (= modeled makespan)\n"
        f"tier lane channel evals:      {lane_evals}\n"
        f"tier modeled makespan:        {makespan} (busiest lane)\n"
        f"modeled speedup @ 4 workers:  {speedup:.2f}x (>= 2x asserted)\n"
        "(payloads bit-for-bit equal to the single-drain loop; lane "
        "placement is deterministic, so every count above is too; wall "
        "clock measured to stdout)",
    )
    print(
        f"\nwall clock: single-drain {solo_seconds:.2f}s, "
        f"tier {tier_seconds:.2f}s on this machine; modeled speedup "
        f"{speedup:.2f}x at {TIER_WORKERS} workers"
    )

"""Perf smoke check: one combined batch coalesces what per-plan batches repeat.

A multi-workload sweep (several workloads x several trial budgets, the
shape where programs repeat) submitted as one combined batch performs
strictly fewer statevector simulations *and* noisy-channel evaluations
than executing each plan's batch on its own ("serial"), with identical
outputs.  Counts are asserted (wall clock is measured and recorded, not
asserted — evaluation counts are the deterministic cost model).
"""

from __future__ import annotations

import os
import time

from _shared import save_bench_json
from repro.core import JigSaw, JigSawConfig
from repro.devices import ibmq_toronto
from repro.noise.model import NoiseModel
from repro.runtime import LocalBackend
from repro.workloads import workload_by_name

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

SEED = 0
WORKLOAD_NAMES = ("BV-6", "GHZ-8", "QAOA-8 p1")
TRIAL_BUDGETS = (16_384, 32_768, 65_536)


def sweep_plans(device):
    """One plan per (workload, budget) from fresh, equally-seeded runners.

    Fresh runners model the production sweep shape: the same program
    re-planned per configuration yields content-identical — but distinct —
    executables, which is exactly what coalescing dedups.
    """
    plans = []
    for name in WORKLOAD_NAMES:
        circuit = workload_by_name(name).circuit
        for budget in TRIAL_BUDGETS:
            runner = JigSaw(device, JigSawConfig(exact=True), seed=SEED)
            plans.append(runner.plan(circuit, total_trials=budget))
    return plans


def test_coalescing_reduces_evaluations():
    device = ibmq_toronto()
    noise_model = NoiseModel.from_device(device)

    # Serial path: each plan's batch executed on its own, as the seed
    # runtime did.  Fresh plans so no statevector is pre-shared.
    serial_backend = LocalBackend(noise_model=noise_model)
    serial_plans = sweep_plans(device)
    start = time.perf_counter()
    serial_pmfs = []
    for plan in serial_plans:
        serial_pmfs.extend(serial_backend.execute(plan.requests()))
    serial_seconds = time.perf_counter() - start

    # Combined path: the whole sweep as ONE coalesced batch (again on
    # fresh plans).
    combined_backend = LocalBackend(noise_model=noise_model)
    combined_plans = sweep_plans(device)
    requests = [r for plan in combined_plans for r in plan.requests()]
    start = time.perf_counter()
    combined_pmfs = combined_backend.execute(requests)
    combined_seconds = time.perf_counter() - start

    # Identical outputs: exact mode + content-identical executables.
    assert [p.as_dict() for p in combined_pmfs] == [
        p.as_dict() for p in serial_pmfs
    ]

    total_requests = len(requests)
    unique_bodies = len(WORKLOAD_NAMES)
    serial = serial_backend.metrics.snapshot()["counters"]
    combined = combined_backend.metrics.snapshot()["counters"]
    coalesced = combined["backend.requests"] - combined["backend.groups"]
    # The sweep repeats every program len(TRIAL_BUDGETS) times, so
    # coalescing must cut channel evaluations by that factor and
    # statevector simulations down to one per workload body.
    assert combined["backend.channel_evals"] == total_requests // len(
        TRIAL_BUDGETS
    )
    assert combined["backend.channel_evals"] < serial["backend.channel_evals"]
    assert combined["backend.statevector_evals"] == unique_bodies
    assert (
        combined["backend.statevector_evals"]
        < serial["backend.statevector_evals"]
    )

    # Wall clock is machine-dependent, so it goes to stdout only; the
    # checked-in artifact holds the deterministic counts and stays
    # byte-stable across runs and machines.
    print(
        f"\nwall clock: serial {serial_seconds:.4f}s, "
        f"combined {combined_seconds:.4f}s"
    )
    save_bench_json(
        "parallel_backend",
        {
            "workloads": list(WORKLOAD_NAMES),
            "trial_budgets": list(TRIAL_BUDGETS),
            "requests": total_requests,
            "serial_statevector_evals": serial["backend.statevector_evals"],
            "serial_channel_evals": serial["backend.channel_evals"],
            "combined_statevector_evals": combined[
                "backend.statevector_evals"
            ],
            "combined_channel_evals": combined["backend.channel_evals"],
            "coalesced_requests": coalesced,
        },
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "parallel_backend.txt"), "w"
    ) as handle:
        handle.write(
            "Combined/coalescing execution benchmark (exact mode)\n"
            f"workloads: {', '.join(WORKLOAD_NAMES)}\n"
            f"budgets:   {', '.join(str(b) for b in TRIAL_BUDGETS)}\n"
            f"requests in sweep:           {total_requests}\n"
            "serial   statevector evals:   "
            f"{serial['backend.statevector_evals']}\n"
            "serial   channel evals:      "
            f"{serial['backend.channel_evals']}\n"
            "combined statevector evals:  "
            f"{combined['backend.statevector_evals']}\n"
            "combined channel evals:      "
            f"{combined['backend.channel_evals']}\n"
            f"coalesced requests:          {coalesced}\n"
            "(outputs bit-for-bit identical; counts asserted, wall clock "
            "measured to stdout)\n"
        )

"""Perf smoke check: sharded execution is deterministic and coalescing wins.

Two claims, one benchmark:

1. **Determinism invariant** — a :class:`ShardedBackend` at ``workers=4``
   produces bit-for-bit the PMFs of the serial backend under a fixed
   seed (sampled mode, where the claim is strongest: per-request seed
   streams make draws independent of worker scheduling).
2. **Coalescing win** — a multi-workload sweep (several workloads x
   several trial budgets, the shape where programs repeat) submitted as
   one combined batch performs strictly fewer statevector simulations
   *and* noisy-channel evaluations than executing each plan's batch
   serially, with identical outputs.  Counts are asserted (wall clock is
   measured and recorded, not asserted — evaluation counts are the
   deterministic cost model).
"""

from __future__ import annotations

import os
import time

from _shared import save_bench_json
from repro.core import JigSaw, JigSawConfig
from repro.devices import ibmq_toronto
from repro.noise.model import NoiseModel
from repro.runtime import LocalExactBackend, LocalSamplingBackend, ShardedBackend
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


def test_sharded_sampled_bitforbit_with_serial():
    device = ibmq_toronto()
    noise_model = NoiseModel.from_device(device)
    circuit = workload_by_name("GHZ-8").circuit
    plan = JigSaw(device, JigSawConfig(exact=False), seed=SEED).plan(
        circuit, total_trials=8_192
    )
    serial = LocalSamplingBackend(noise_model=noise_model, seed=SEED).execute(
        plan.requests()
    )
    sharded = ShardedBackend(
        LocalSamplingBackend(noise_model=noise_model, seed=SEED), workers=4
    ).execute(plan.requests())
    assert [p.as_dict() for p in sharded] == [p.as_dict() for p in serial]


def test_coalescing_reduces_evaluations():
    device = ibmq_toronto()
    noise_model = NoiseModel.from_device(device)

    # Serial path: each plan's batch executed on its own, as the seed
    # runtime did.  Fresh plans so no statevector is pre-shared.
    serial_backend = LocalExactBackend(noise_model=noise_model)
    serial_plans = sweep_plans(device)
    start = time.perf_counter()
    serial_pmfs = []
    for plan in serial_plans:
        serial_pmfs.extend(serial_backend.execute(plan.requests()))
    serial_seconds = time.perf_counter() - start

    # Sharded path: the whole sweep as ONE coalesced batch across 4
    # workers (again on fresh plans).
    sharded_backend = ShardedBackend(
        LocalExactBackend(noise_model=noise_model), workers=4
    )
    sharded_plans = sweep_plans(device)
    requests = [r for plan in sharded_plans for r in plan.requests()]
    start = time.perf_counter()
    sharded_pmfs = sharded_backend.execute(requests)
    sharded_seconds = time.perf_counter() - start

    # Identical outputs: exact mode + content-identical executables.
    assert [p.as_dict() for p in sharded_pmfs] == [
        p.as_dict() for p in serial_pmfs
    ]

    total_requests = len(requests)
    unique_bodies = len(WORKLOAD_NAMES)
    serial = serial_backend.metrics.snapshot()["counters"]
    sharded = sharded_backend.metrics.snapshot()["counters"]
    coalesced = sharded["backend.requests"] - sharded["backend.groups"]
    # The sweep repeats every program len(TRIAL_BUDGETS) times, so
    # coalescing must cut channel evaluations by that factor and
    # statevector simulations down to one per workload body.
    assert sharded["backend.channel_evals"] == total_requests // len(
        TRIAL_BUDGETS
    )
    assert sharded["backend.channel_evals"] < serial["backend.channel_evals"]
    assert sharded["backend.statevector_evals"] == unique_bodies
    assert (
        sharded["backend.statevector_evals"]
        < serial["backend.statevector_evals"]
    )

    # Wall clock is machine-dependent, so it goes to stdout only; the
    # checked-in artifact holds the deterministic counts and stays
    # byte-stable across runs and machines.
    print(
        f"\nwall clock: serial {serial_seconds:.4f}s, "
        f"sharded {sharded_seconds:.4f}s"
    )
    save_bench_json(
        "parallel_backend",
        {
            "workloads": list(WORKLOAD_NAMES),
            "trial_budgets": list(TRIAL_BUDGETS),
            "requests": total_requests,
            "serial_statevector_evals": serial["backend.statevector_evals"],
            "serial_channel_evals": serial["backend.channel_evals"],
            "sharded_statevector_evals": sharded["backend.statevector_evals"],
            "sharded_channel_evals": sharded["backend.channel_evals"],
            "coalesced_requests": coalesced,
        },
    )
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(
        os.path.join(RESULTS_DIR, "parallel_backend.txt"), "w"
    ) as handle:
        handle.write(
            "Sharded/coalescing execution benchmark (exact mode)\n"
            f"workloads: {', '.join(WORKLOAD_NAMES)}\n"
            f"budgets:   {', '.join(str(b) for b in TRIAL_BUDGETS)}\n"
            f"requests in sweep:           {total_requests}\n"
            "serial   statevector evals:   "
            f"{serial['backend.statevector_evals']}\n"
            "serial   channel evals:      "
            f"{serial['backend.channel_evals']}\n"
            "sharded  statevector evals:  "
            f"{sharded['backend.statevector_evals']}\n"
            f"sharded  channel evals:      {sharded['backend.channel_evals']}\n"
            f"coalesced requests:          {coalesced}\n"
            "(outputs bit-for-bit identical; counts asserted, wall clock "
            "measured to stdout)\n"
        )

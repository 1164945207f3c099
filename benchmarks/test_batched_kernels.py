"""Perf smoke for the batched execution spine.

Two measurements, one benchmark file:

1. **Stacked vs per-circuit sweep** — the 3-workload x 3-budget coalesced
   sweep (the shape of `test_parallel_backend`) executed once through the
   per-circuit oracle kernels of ``tests/kernel_oracle.py`` (per plan, the
   shared statevectors plus one exact-channel chain per request — the
   seed runtime's behaviour) and once as a single coalesced batch on the
   stacked spine.  Outputs are asserted bit-for-bit identical and the
   stacked path must be **at least 2x faster** in wall clock: the best
   per-sweep reference time over the best per-sweep stacked time, across
   3 samples that each alternate the two ~10-30 ms sweeps until both
   sides cover 100 ms.  The deterministic eval
   counters behind that win (one stacked contraction per coalesced
   group, not B singles) go into the checked-in JSON, the
   machine-dependent seconds to stdout.
2. **Stacked statevector evolution** — a bind-many batch (same gate
   structure, different parameters) evolved as one ``(B, 2**n)``
   contraction per gate position versus B per-circuit loops; measured and
   reported, not asserted (BLAS batching gains are machine-dependent).
"""

from __future__ import annotations

import time

import numpy as np

from _shared import save_bench_json, save_result
from repro.circuits.circuit import QuantumCircuit
from repro.core import JigSaw, JigSawConfig
from repro.core.pmf import PMF
from repro.devices import ibmq_toronto
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.runtime import LocalBackend
from repro.sim import StatevectorSimulator
from repro.workloads import workload_by_name
from tests import kernel_oracle

SEED = 0
WORKLOAD_NAMES = ("BV-6", "GHZ-8", "QAOA-8 p1")
TRIAL_BUDGETS = (16_384, 32_768, 65_536)
#: Wall-clock floor asserted for the stacked spine over the per-circuit
#: oracle on the coalesced sweep.
MIN_SPEEDUP = 2.0
#: Best-of-N timing to shave scheduler noise off the smoke assertion.
TIMING_ROUNDS = 3
#: One timed sample repeats both sweeps until each side covers this much
#: wall clock, so a single scheduler hiccup cannot swing a ~10 ms
#: reading.
MIN_SAMPLE_SECONDS = 0.1


def sweep_plans(device):
    """One plan per (workload, budget) from fresh, equally-seeded runners."""
    plans = []
    for name in WORKLOAD_NAMES:
        circuit = workload_by_name(name).circuit
        for budget in TRIAL_BUDGETS:
            runner = JigSaw(device, JigSawConfig(exact=True), seed=SEED)
            plans.append(runner.plan(circuit, total_trials=budget))
    return plans


def _run_reference(noise_model, device, monkeypatch):
    """Per-circuit oracle: each plan's batch on its own, unstacked.

    Times only the per-plan evaluation — the batch's shared statevectors
    and the oracle's exact channel per request — never the backend's
    grouping, fingerprinting or sharding.  Returns the seconds, the PMFs
    and the work counters a backend would have recorded.
    """
    sampler = NoisySampler(noise_model)
    plans = sweep_plans(device)
    counters = {"backend.channel_evals": 0, "backend.statevector_evals": 0}
    with monkeypatch.context() as patch:
        kernel_oracle.install(patch)
        start = time.perf_counter()
        pmfs = []
        for plan in plans:
            requests = plan.requests()
            contractions, _, _ = LocalBackend.share_statevectors(requests)
            pmfs.extend(
                PMF.from_codes(codes, probs, num_bits)
                for codes, probs, num_bits in sampler.exact_group_distributions(
                    [request.executable for request in requests]
                )
            )
            counters["backend.statevector_evals"] += contractions
            counters["backend.channel_evals"] += len(requests)
        seconds = time.perf_counter() - start
    return seconds, pmfs, counters


def _run_stacked(noise_model, device):
    """Stacked spine: the whole sweep as ONE coalesced batch, in-process."""
    backend = LocalBackend(noise_model=noise_model)
    plans = sweep_plans(device)
    requests = [r for plan in plans for r in plan.requests()]
    start = time.perf_counter()
    pmfs = backend.execute(requests)
    return time.perf_counter() - start, pmfs, backend, len(requests)


def _timed_sample(noise_model, device, monkeypatch):
    """One timed sample: per-sweep (reference, stacked) seconds, outputs.

    The two sweeps alternate until each side has run for at least
    MIN_SAMPLE_SECONDS; each side's total is divided by the repetition
    count.  Every repetition builds fresh plans outside its timed region
    (executables cache their statevectors, so reused plans would skip
    the work being timed).  The outputs are the last repetition's: each
    side's PMFs and work counters, which cover one sweep.
    """
    reference_total = stacked_total = 0.0
    repetitions = 0
    while min(reference_total, stacked_total) < MIN_SAMPLE_SECONDS:
        seconds, ref_pmfs, ref_counters = _run_reference(
            noise_model, device, monkeypatch
        )
        reference_total += seconds
        seconds, stk_pmfs, stk_backend, total_requests = _run_stacked(
            noise_model, device
        )
        stacked_total += seconds
        repetitions += 1
    outputs = (ref_pmfs, ref_counters, stk_pmfs, stk_backend, total_requests)
    return (
        reference_total / repetitions,
        stacked_total / repetitions,
        outputs,
    )


def test_stacked_spine_speedup_on_coalesced_sweep(monkeypatch):
    device = ibmq_toronto()
    noise_model = NoiseModel.from_device(device)

    reference_seconds = []
    stacked_seconds = []
    for _ in range(TIMING_ROUNDS):
        ref_s, stk_s, outputs = _timed_sample(noise_model, device, monkeypatch)
        ref_pmfs, reference, stk_pmfs, stk_backend, total_requests = outputs
        reference_seconds.append(ref_s)
        stacked_seconds.append(stk_s)
        # Exact mode: stacked + coalesced output is bit-for-bit the oracle's.
        assert [p.as_dict() for p in stk_pmfs] == [
            p.as_dict() for p in ref_pmfs
        ]

    stacked = stk_backend.metrics.snapshot()["counters"]
    # Grouped evals, not B singles: one channel evaluation per coalesced
    # group, stacked contractions covering multiple circuits each.
    assert stacked["backend.channel_evals"] == total_requests // len(
        TRIAL_BUDGETS
    )
    assert stacked["backend.channel_evals"] < total_requests
    assert stacked["backend.stacked_evals"] >= 1
    assert (
        stacked["backend.stacked_circuits"] > stacked["backend.stacked_evals"]
    )
    assert stacked["backend.statevector_evals"] == len(WORKLOAD_NAMES)

    best_reference = min(reference_seconds)
    best_stacked = min(stacked_seconds)
    speedup = best_reference / best_stacked
    print(
        f"\nstacked spine per sweep: reference {best_reference:.4f}s, "
        f"stacked {best_stacked:.4f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"stacked spine speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x floor"
    )

    save_bench_json(
        "batched_kernels",
        {
            "workloads": list(WORKLOAD_NAMES),
            "trial_budgets": list(TRIAL_BUDGETS),
            "requests": total_requests,
            "reference_channel_evals": reference["backend.channel_evals"],
            "reference_statevector_evals": reference[
                "backend.statevector_evals"
            ],
            "stacked_channel_evals": stacked["backend.channel_evals"],
            "stacked_statevector_evals": stacked["backend.statevector_evals"],
            "stacked_evals": stacked["backend.stacked_evals"],
            "stacked_circuits": stacked["backend.stacked_circuits"],
            "shards": stacked["backend.shards"],
            "asserted_min_speedup": MIN_SPEEDUP,
        },
    )
    save_result(
        "batched_kernels",
        "Array-API batched execution spine benchmark (exact mode)\n"
        f"workloads: {', '.join(WORKLOAD_NAMES)}\n"
        f"budgets:   {', '.join(str(b) for b in TRIAL_BUDGETS)}\n"
        f"requests in sweep:            {total_requests}\n"
        f"reference channel evals:      {reference['backend.channel_evals']}\n"
        f"stacked   channel evals:      {stacked['backend.channel_evals']}\n"
        f"stacked   contractions:       {stacked['backend.stacked_evals']} "
        f"(covering {stacked['backend.stacked_circuits']} circuits)\n"
        f"asserted wall-clock floor:    {MIN_SPEEDUP:.1f}x\n"
        "(outputs bit-for-bit identical; wall clock to stdout)",
    )


def test_stacked_statevector_evolution_measured():
    """Bind-many stack vs per-circuit loop; measured, never asserted."""
    num_qubits = 8
    batch = 64
    rng = np.random.default_rng(SEED)
    circuits = []
    for _ in range(batch):
        qc = QuantumCircuit(num_qubits)
        for q in range(num_qubits):
            qc.ry(float(rng.uniform(0, np.pi)), q)
        for q in range(num_qubits - 1):
            qc.cx(q, q + 1)
        for q in range(num_qubits):
            qc.rz(float(rng.uniform(0, np.pi)), q)
        circuits.append(qc)
    sim = StatevectorSimulator()

    start = time.perf_counter()
    singles = np.stack([sim.statevector(c) for c in circuits])
    per_circuit_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stacked = sim.statevectors_stacked(circuits)
    stacked_seconds = time.perf_counter() - start

    assert (singles == stacked).all()
    print(
        f"\nstatevector batch={batch}: per-circuit "
        f"{per_circuit_seconds:.4f}s, stacked {stacked_seconds:.4f}s "
        f"({per_circuit_seconds / stacked_seconds:.2f}x)"
    )

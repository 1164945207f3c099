"""Ablation: JigSaw-M reconstruction ordering (§4.4.2).

The paper reconstructs largest-subset-first so the most-correlated
marginals shape the PMF before the high-fidelity small ones sharpen it.
This bench compares largest-first, smallest-first, and a flat single
pass over all marginals together.
"""

import functools

from _shared import save_result
from repro.core import JigSaw, JigSawMConfig, bayesian_reconstruction
from repro.devices import ibmq_toronto
from repro.experiments import format_table
from repro.metrics import probability_of_successful_trial
from repro.workloads import ghz


@functools.lru_cache(maxsize=1)
def sweep():
    device = ibmq_toronto()
    workload = ghz(12)
    runner = JigSaw(device, JigSawMConfig(exact=True), seed=26)
    result = runner.run(workload.circuit, 65_536)
    marginals_by_size = result.marginals_by_size
    correct = workload.correct_outcomes

    # Largest-first is the runner's own reconstruction.
    largest_first = result.output_pmf
    # Smallest-first: reverse the layer order.
    smallest_first = result.global_pmf
    for size in sorted(marginals_by_size):
        smallest_first = bayesian_reconstruction(
            smallest_first, marginals_by_size[size]
        )
    flat = bayesian_reconstruction(
        result.global_pmf,
        [m for layer in marginals_by_size.values() for m in layer],
    )
    return {
        "baseline (global)": probability_of_successful_trial(
            result.global_pmf, correct
        ),
        "largest-first (paper)": probability_of_successful_trial(
            largest_first, correct
        ),
        "smallest-first": probability_of_successful_trial(
            smallest_first, correct
        ),
        "flat single pass": probability_of_successful_trial(flat, correct),
    }


def test_ablation_ordering(benchmark):
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["Ordering", "PST"],
        [[k, v] for k, v in results.items()],
        title="Ablation: JigSaw-M reconstruction ordering (GHZ-12 / Toronto)",
    )
    save_result("ablation_ordering", text)

    base = results["baseline (global)"]
    # Every ordering beats the prior; the paper's ordering is competitive
    # with (or better than) the alternatives.
    for key, value in results.items():
        if key != "baseline (global)":
            assert value > base, key
    assert results["largest-first (paper)"] >= 0.9 * max(
        results["smallest-first"], results["flat single pass"]
    )

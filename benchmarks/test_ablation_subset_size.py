"""Ablation: CPM subset size (the fidelity/correlation trade-off, §4.4).

The paper argues size 2 maximises per-CPM fidelity while larger sizes
capture more correlation but read worse; JigSaw-M wins by mixing them.
This bench sweeps a single fixed size through 2..5 on GHZ-12/Toronto and
checks that mixing sizes (JigSaw-M) is at least as good as the best
single size.
"""

import functools

from _shared import save_result
from repro.core import JigSaw, JigSawConfig, JigSawMConfig
from repro.devices import ibmq_toronto
from repro.experiments import format_table
from repro.metrics import probability_of_successful_trial
from repro.workloads import ghz


@functools.lru_cache(maxsize=1)
def sweep():
    device = ibmq_toronto()
    workload = ghz(12)
    shared = JigSaw(device, JigSawConfig(exact=True), seed=20).compile_global(
        workload.circuit
    )
    results = {}
    base_pst = None
    for size in (2, 3, 4, 5):
        runner = JigSaw(
            device, JigSawConfig(subset_size=size, exact=True), seed=20
        )
        result = runner.run(
            workload.circuit, 65_536, global_executable=shared
        )
        if base_pst is None:
            base_pst = probability_of_successful_trial(
                result.global_pmf, workload.correct_outcomes
            )
        results[f"size {size}"] = probability_of_successful_trial(
            result.output_pmf, workload.correct_outcomes
        )
    multi = JigSaw(device, JigSawMConfig(exact=True), seed=20)
    result_m = multi.run(workload.circuit, 65_536, global_executable=shared)
    results["sizes 2-5 (JigSaw-M)"] = probability_of_successful_trial(
        result_m.output_pmf, workload.correct_outcomes
    )
    return base_pst, results


def test_ablation_subset_size(benchmark):
    base_pst, results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = format_table(
        ["Configuration", "PST", "Relative"],
        [["baseline (global)", base_pst, 1.0]]
        + [[k, v, v / base_pst] for k, v in results.items()],
        title="Ablation: CPM subset size on GHZ-12 / IBMQ-Toronto",
    )
    save_result("ablation_subset_size", text)

    # Every subset size helps over the baseline.
    assert all(v > base_pst for v in results.values())
    # Mixing sizes is at least on par with the best single size.
    singles = [v for k, v in results.items() if k.startswith("size")]
    assert results["sizes 2-5 (JigSaw-M)"] >= 0.95 * max(singles)

"""Figure 9: sensitivity to the number of CPMs and the selection method.

* **Fig. 9a** — JigSaw's relative PST as the number of random size-2 CPMs
  grows: gains saturate once extra CPMs stop adding unique information.
* **Fig. 9b** — distribution of relative PST across random covering
  selections of N CPMs: JigSaw is insensitive to *which* CPMs are used.

Both studies use a 12-qubit QAOA program on IBMQ-Paris, as in the paper.
The expensive pieces (global PMF, the 66 possible pair-CPM marginals) are
computed once, as one backend batch; each selection then only re-runs
reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.jigsaw import JigSaw, JigSawConfig
from repro.core.pmf import PMF, Marginal
from repro.core.reconstruction import bayesian_reconstruction
from repro.core.subsets import all_pair_subsets
from repro.devices.device import Device
from repro.devices.library import ibmq_paris
from repro.experiments.render import format_table
from repro.metrics.success import probability_of_successful_trial, relative
from repro.runtime.backend import ExecutionRequest
from repro.utils.random import SeedLike, as_generator, spawn
from repro.workloads.qaoa import qaoa_maxcut
from repro.workloads.workload import Workload

__all__ = [
    "CpmPool",
    "build_cpm_pool",
    "figure9a_sweep",
    "figure9b_distribution",
    "figure9a_text",
    "figure9b_text",
]


@dataclass
class CpmPool:
    """Precomputed global PMF + all candidate pair marginals."""

    workload: Workload
    global_pmf: PMF
    marginals: Dict[Tuple[int, ...], Marginal]
    baseline_pst: float


def build_cpm_pool(
    device: Optional[Device] = None,
    workload: Optional[Workload] = None,
    seed: SeedLike = 9,
    exact: bool = True,
    total_trials: int = 65_536,
) -> CpmPool:
    """Compile every possible size-2 CPM and execute them all once.

    The pairs compile on the runner's pipeline, and the global circuit
    plus every pair run as one batch on the runner's backend.
    """
    device = device or ibmq_paris()
    workload = workload or qaoa_maxcut(12, depth=1)
    rng = as_generator(seed)
    jigsaw = JigSaw(device, JigSawConfig(exact=exact), seed=spawn(rng, 1)[0])
    circuit = workload.circuit
    global_executable = jigsaw.compile_global(circuit)

    pairs = all_pair_subsets(len(circuit.measurement_map))
    per_cpm = max(256, total_trials // (2 * len(pairs)))
    requests = [ExecutionRequest(global_executable, total_trials // 2)]
    for pair in pairs:
        executable = jigsaw.pipeline.compile_cpm(
            jigsaw.build_cpm_circuit(circuit, pair),
            global_executable,
            pool_size=2,
        )
        requests.append(ExecutionRequest(executable, per_cpm))
    global_pmf, *pair_pmfs = jigsaw.backend.execute(requests)
    marginals: Dict[Tuple[int, ...], Marginal] = {
        pair: Marginal(pair, pmf) for pair, pmf in zip(pairs, pair_pmfs)
    }

    baseline_pst = probability_of_successful_trial(
        global_pmf, workload.correct_outcomes
    )
    return CpmPool(workload, global_pmf, marginals, baseline_pst)


@dataclass(frozen=True)
class SweepPoint:
    num_cpms: int
    mean_relative_pst: float
    std_relative_pst: float


def _selection_relative_pst(
    pool: CpmPool, selection: Sequence[Tuple[int, ...]]
) -> float:
    output = bayesian_reconstruction(
        pool.global_pmf, [pool.marginals[pair] for pair in selection]
    )
    pst = probability_of_successful_trial(
        output, pool.workload.correct_outcomes
    )
    return relative(pst, pool.baseline_pst)


def figure9a_sweep(
    pool: CpmPool,
    cpm_counts: Sequence[int] = (1, 2, 4, 8, 12, 24, 48, 66),
    repeats: int = 20,
    seed: SeedLike = 10,
) -> List[SweepPoint]:
    """Fig. 9a: mean relative PST vs number of randomly chosen CPMs."""
    rng = as_generator(seed)
    pairs = list(pool.marginals.keys())
    points: List[SweepPoint] = []
    for count in cpm_counts:
        if count > len(pairs):
            continue
        rounds = 1 if count == len(pairs) else repeats
        values = []
        for _ in range(rounds):
            indices = rng.choice(len(pairs), size=count, replace=False)
            selection = [pairs[i] for i in indices]
            values.append(_selection_relative_pst(pool, selection))
        points.append(
            SweepPoint(count, float(np.mean(values)), float(np.std(values)))
        )
    return points


def figure9b_distribution(
    pool: CpmPool,
    num_cpms: Optional[int] = None,
    repeats: int = 200,
    seed: SeedLike = 11,
) -> Dict[str, float]:
    """Fig. 9b: relative-PST spread across random covering selections."""
    rng = as_generator(seed)
    num_qubits = pool.workload.num_outcome_bits
    num_cpms = num_cpms or num_qubits
    pairs = list(pool.marginals.keys())
    values: List[float] = []
    attempts = 0
    while len(values) < repeats and attempts < repeats * 50:
        attempts += 1
        indices = rng.choice(len(pairs), size=num_cpms, replace=False)
        selection = [pairs[i] for i in indices]
        covered = {q for pair in selection for q in pair}
        if len(covered) != num_qubits:
            continue  # the paper requires every qubit measured at least once
        values.append(_selection_relative_pst(pool, selection))
    array = np.asarray(values)
    return {
        "repeats": float(len(values)),
        "mean": float(array.mean()),
        "std": float(array.std()),
        "min": float(array.min()),
        "max": float(array.max()),
    }


def figure9a_text(points: Sequence[SweepPoint]) -> str:
    return format_table(
        ["Num CPMs", "Mean Relative PST", "Std"],
        [[p.num_cpms, p.mean_relative_pst, p.std_relative_pst] for p in points],
        title="Figure 9a: Relative PST vs number of CPMs (saturation)",
    )


def figure9b_text(stats: Dict[str, float]) -> str:
    return format_table(
        ["Selections", "Mean", "Std", "Min", "Max"],
        [[int(stats["repeats"]), stats["mean"], stats["std"], stats["min"], stats["max"]]],
        title="Figure 9b: Relative PST across random CPM selections",
    )

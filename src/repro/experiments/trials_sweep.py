"""Figure 7: Probability of Successful Trial versus number of trials.

The paper runs GHZ and QAOA benchmarks for up to 4 million trials on
IBMQ-Paris and observes that PST saturates — more trials do not fix
correlated errors.  This experiment samples the baseline execution at a
geometric ladder of trial counts and reports PST at each point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.pmf import PMF
from repro.devices.device import Device
from repro.devices.library import ibmq_paris
from repro.experiments.render import format_table
from repro.runtime import Session
from repro.metrics.success import probability_of_successful_trial
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.utils.random import SeedLike, as_generator
from repro.workloads.suite import workload_by_name

__all__ = ["TrialsPoint", "run_trials_sweep", "figure7_text", "FIGURE7_WORKLOADS"]

FIGURE7_WORKLOADS = (
    "GHZ-12",
    "GHZ-14",
    "GHZ-16",
    "QAOA-10 p1",
    "QAOA-10 p2",
    "QAOA-10 p4",
)

DEFAULT_TRIAL_LADDER = (8_192, 65_536, 524_288, 2_097_152)


@dataclass(frozen=True)
class TrialsPoint:
    """One (workload, trials) -> PST measurement of Fig. 7."""

    workload: str
    trials: int
    pst: float


def run_trials_sweep(
    device: Optional[Device] = None,
    workload_names: Sequence[str] = FIGURE7_WORKLOADS,
    trial_ladder: Sequence[int] = DEFAULT_TRIAL_LADDER,
    seed: SeedLike = 7,
) -> List[TrialsPoint]:
    """Sampled baseline PST at each rung of the trial ladder."""
    device = device or ibmq_paris()
    rng = as_generator(seed)
    with Session(device, seed=rng, exact=True) as runner:
        sampler = NoisySampler(NoiseModel.from_device(device), seed=rng)
        points: List[TrialsPoint] = []
        for name in workload_names:
            workload = workload_by_name(name)
            executable = runner.global_executable(workload)
            for trials in trial_ladder:
                counts = sampler.run_codes(executable, trials)
                histogram = PMF.from_codes(
                    counts.codes, counts.counts, counts.num_bits,
                    normalize=False,
                )
                pst = probability_of_successful_trial(
                    histogram, workload.correct_outcomes
                )
                points.append(TrialsPoint(name, trials, pst))
    return points


def figure7_text(points: Sequence[TrialsPoint]) -> str:
    """Render the Fig. 7 PST-vs-trials series as a text table."""
    trials_axis = sorted({p.trials for p in points})
    rows = []
    for name in sorted({p.workload for p in points}):
        row: List[object] = [name]
        for trials in trials_axis:
            match = [p.pst for p in points if p.workload == name and p.trials == trials]
            row.append(match[0] if match else None)
        rows.append(row)
    headers = ["Workload"] + [f"T={t}" for t in trials_axis]
    return format_table(
        headers, rows, title="Figure 7: PST vs number of trials (saturation)"
    )

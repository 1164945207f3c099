"""Figure 10: per-qubit measurement success, baseline vs recompiled CPM.

For BV-6 on IBMQ-Toronto the paper shows that after CPM recompilation the
probability of *correctly measuring each qubit* approaches the best-case
qubits instead of whatever the global mapping landed on (up to 3.25x
better per qubit).

The per-qubit success probability marginalises the noisy output onto one
bit and compares it with the ideal bit value distribution — "computed
from the set of outcomes where the particular qubit is correctly measured,
even if the overall outcome is erroneous" (§6.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.jigsaw import JigSaw, JigSawConfig
from repro.core.pmf import PMF
from repro.devices.device import Device
from repro.devices.library import ibmq_toronto
from repro.experiments.render import format_table
from repro.utils.random import SeedLike
from repro.workloads.standard import bv
from repro.workloads.workload import Workload

__all__ = ["PerQubitReadout", "figure10_per_qubit", "figure10_text"]


def _bit_success(pmf: PMF, position: int, ideal_bit_p1: float) -> float:
    """P(bit read correctly) given its ideal distribution.

    For the deterministic benchmarks used here the ideal bit is fixed, so
    success is simply the marginal probability of the correct value.
    """
    marg = pmf.marginal([position])
    p1 = marg.prob("1")
    # Probability the measured bit agrees with an ideal sample of the bit.
    return p1 * ideal_bit_p1 + (1.0 - p1) * (1.0 - ideal_bit_p1)


@dataclass
class PerQubitReadout:
    """Per-program-qubit measurement success for baseline vs CPMs."""

    qubit: int
    baseline: float
    cpm: float

    @property
    def improvement(self) -> float:
        """CPM-over-baseline measurement-success ratio for this qubit."""
        return self.cpm / self.baseline if self.baseline > 0 else float("inf")


def figure10_per_qubit(
    device: Optional[Device] = None,
    workload: Optional[Workload] = None,
    seed: SeedLike = 6,
    total_trials: int = 32_768,
    exact: bool = True,
) -> List[PerQubitReadout]:
    """Fig. 10: per-qubit readout success for baseline and size-2 CPMs."""
    device = device or ibmq_toronto()
    workload = workload or bv(6)
    jigsaw = JigSaw(device, JigSawConfig(exact=exact), seed=seed)
    result = jigsaw.run(workload.circuit, total_trials=total_trials)

    ideal = workload.ideal_distribution()
    num_bits = workload.num_outcome_bits

    rows: List[PerQubitReadout] = []
    for position in range(num_bits):
        ideal_bit_p1 = ideal.marginal([position]).prob("1")
        baseline_success = _bit_success(result.global_pmf, position, ideal_bit_p1)
        # Success of this bit inside every CPM that measures it.
        cpm_successes = []
        for marginal in result.marginals:
            if position not in marginal.qubits:
                continue
            local_index = sorted(marginal.qubits).index(position)
            cpm_successes.append(
                _bit_success(marginal.pmf, local_index, ideal_bit_p1)
            )
        cpm_success = max(cpm_successes) if cpm_successes else baseline_success
        rows.append(PerQubitReadout(position, baseline_success, cpm_success))
    return rows


def figure10_text(rows: Sequence[PerQubitReadout]) -> str:
    """Render the Fig. 10 per-qubit readout table."""
    return format_table(
        ["Program Qubit", "Baseline", "CPM (subset 2)", "Improvement"],
        [[r.qubit, r.baseline, r.cpm, r.improvement] for r in rows],
        title="Figure 10: Probability of correctly measuring each qubit (BV-6)",
    )

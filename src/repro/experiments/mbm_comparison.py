"""Figure 14: JigSaw versus (and combined with) IBM's matrix-based
mitigation.

Relative PST of MBM alone, JigSaw alone, JigSaw+MBM and JigSaw-M+MBM on
the small QAOA benchmarks of Fig. 14.  The paper's takeaway: the schemes
compose — JigSaw+MBM beats either alone — while MBM's cost is exponential
in program size and JigSaw's is linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.jigsaw import JigSawResult
from repro.core.pmf import PMF
from repro.devices.device import Device
from repro.devices.library import ibmq_paris, ibmq_toronto
from repro.experiments.render import format_table
from repro.runtime import Session
from repro.metrics.success import probability_of_successful_trial, relative
from repro.mitigation.combos import mbm_corrected
from repro.utils.random import SeedLike
from repro.workloads.suite import workload_by_name

__all__ = ["MbmRow", "run_figure14", "figure14_text", "FIGURE14_WORKLOADS"]

#: (workload, device-name) pairs of Fig. 14.
FIGURE14_WORKLOADS = (
    "QAOA-8 p1",
    "QAOA-8 p2",
    "QAOA-10 p1",
)


@dataclass
class MbmRow:
    device: str
    workload: str
    mbm: float
    jigsaw: float
    jigsaw_mbm: float
    jigsawm_mbm: float


def _with_mbm(session: Session, result: JigSawResult) -> PMF:
    """Reconstruct a JigSaw(-M) run again from its MBM-corrected batch."""
    plan = result.plan
    pmfs = [result.global_pmf, *(m.pmf for m in result.marginals)]
    corrected = mbm_corrected(plan, pmfs, session.noise_model)
    return session.runner_for(plan).reconstruct(plan, corrected).output_pmf


def run_figure14(
    devices: Optional[Sequence[Device]] = None,
    workload_names: Sequence[str] = FIGURE14_WORKLOADS,
    seed: SeedLike = 14,
    total_trials: int = 32_768,
    exact: bool = True,
) -> List[MbmRow]:
    """Relative PST of the four mitigation schemes on each pair."""
    devices = (
        list(devices) if devices is not None else [ibmq_toronto(), ibmq_paris()]
    )
    rows: List[MbmRow] = []
    for device in devices:
        with Session(
            device, seed=seed, total_trials=total_trials, exact=exact
        ) as runner:
            for name in workload_names:
                workload = workload_by_name(name)
                correct = workload.correct_outcomes

                baseline_pst = probability_of_successful_trial(
                    runner.run_baseline(workload), correct
                )
                mbm_pst = probability_of_successful_trial(
                    runner.run_mbm(workload), correct
                )
                jigsaw_result = runner.run_jigsaw(workload)
                jigsaw_pst = probability_of_successful_trial(
                    jigsaw_result.output_pmf, correct
                )
                jigsaw_mbm_pst = probability_of_successful_trial(
                    _with_mbm(runner, jigsaw_result), correct
                )
                jigsawm_mbm_pst = probability_of_successful_trial(
                    _with_mbm(runner, runner.run_jigsaw_m(workload)), correct
                )
                rows.append(
                    MbmRow(
                        device=device.name,
                        workload=name,
                        mbm=relative(mbm_pst, baseline_pst),
                        jigsaw=relative(jigsaw_pst, baseline_pst),
                        jigsaw_mbm=relative(jigsaw_mbm_pst, baseline_pst),
                        jigsawm_mbm=relative(jigsawm_mbm_pst, baseline_pst),
                    )
                )
    return rows


def figure14_text(rows: Sequence[MbmRow]) -> str:
    return format_table(
        [
            "Device",
            "Workload",
            "IBM MBM",
            "JigSaw",
            "JigSaw + MBM",
            "JigSaw-M + MBM",
        ],
        [
            [r.device, r.workload, r.mbm, r.jigsaw, r.jigsaw_mbm, r.jigsawm_mbm]
            for r in rows
        ],
        title="Figure 14: Relative PST — JigSaw vs IBM MBM (and combined)",
    )

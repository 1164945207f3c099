"""JigSaw core: PMFs, subsets, Bayesian reconstruction, runners, models."""

from repro.core.jigsaw import (
    JigSaw,
    JigSawConfig,
    JigSawMConfig,
    JigSawResult,
    measured_positions_map,
)
from repro.core.payload import PAYLOAD_VERSION, check_payload_version
from repro.core.pmf import PMF, Marginal
from repro.core.reconstruction import (
    bayesian_reconstruction,
    bayesian_reconstruction_round,
    bayesian_update,
    hellinger_distance,
)
from repro.core.scalability import (
    TABLE7_OPERATING_POINTS,
    ScalabilityModel,
    table7_rows,
)
from repro.core.subsets import (
    all_pair_subsets,
    random_subsets,
    sliding_window_subsets,
    validate_subsets,
)
from repro.core.trials import (
    budget_report_for_plan,
    cpm_trial_estimate,
    plan_trial_budget,
    split_trial_budget,
    trials_for_outcome,
    trials_to_observe_all,
)

__all__ = [
    "PMF",
    "Marginal",
    "PAYLOAD_VERSION",
    "check_payload_version",
    "bayesian_update",
    "bayesian_reconstruction",
    "bayesian_reconstruction_round",
    "hellinger_distance",
    "JigSaw",
    "JigSawConfig",
    "JigSawMConfig",
    "JigSawResult",
    "measured_positions_map",
    "sliding_window_subsets",
    "random_subsets",
    "all_pair_subsets",
    "validate_subsets",
    "trials_for_outcome",
    "trials_to_observe_all",
    "cpm_trial_estimate",
    "split_trial_budget",
    "plan_trial_budget",
    "budget_report_for_plan",
    "ScalabilityModel",
    "table7_rows",
    "TABLE7_OPERATING_POINTS",
]

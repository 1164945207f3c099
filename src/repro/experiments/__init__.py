"""Experiment registry: one module per paper table/figure family."""

from repro.experiments.characterization import (
    figure2_crosstalk_sweep,
    figure3_spatial_variation,
    table1_measurement_stats,
)
from repro.experiments.cpm_sensitivity import (
    build_cpm_pool,
    figure9a_sweep,
    figure9a_text,
    figure9b_distribution,
    figure9b_text,
)
from repro.experiments.main_results import (
    MainResultRow,
    default_devices,
    figure8_rows,
    figure8_text,
    figure11_rows,
    figure11_text,
    run_main_results,
    table3_text,
    table4_text,
)
from repro.experiments.mbm_comparison import (
    figure14_text,
    run_figure14,
)
from repro.experiments.qaoa_arg import run_table5, table5_text
from repro.experiments.recompilation import figure10_per_qubit, figure10_text
from repro.experiments.render import format_table
from repro.experiments.runner import SCHEME_NAMES, Metrics, geometric_mean
from repro.experiments.scalability_exp import (
    figure13_epsilon_sweep,
    figure13_text,
    table6_observed_outcomes,
    table6_text,
)
from repro.experiments.trials_sweep import figure7_text, run_trials_sweep

__all__ = [
    "Metrics",
    "SCHEME_NAMES",
    "geometric_mean",
    "format_table",
    "default_devices",
    "run_main_results",
    "MainResultRow",
    "figure8_rows",
    "figure8_text",
    "table3_text",
    "table4_text",
    "figure11_rows",
    "figure11_text",
    "run_table5",
    "table5_text",
    "table1_measurement_stats",
    "figure2_crosstalk_sweep",
    "figure3_spatial_variation",
    "run_trials_sweep",
    "figure7_text",
    "build_cpm_pool",
    "figure9a_sweep",
    "figure9a_text",
    "figure9b_distribution",
    "figure9b_text",
    "figure10_per_qubit",
    "figure10_text",
    "table6_observed_outcomes",
    "table6_text",
    "figure13_epsilon_sweep",
    "figure13_text",
    "run_figure14",
    "figure14_text",
]

"""Benchmark workloads: the paper's Table 2 suite plus probe circuits."""

from repro.workloads.probe import PROBE_STATES, probe_circuit
from repro.workloads.qaoa import (
    cut_values,
    path_graph_edges,
    qaoa_maxcut,
    ring_graph_edges,
)
from repro.workloads.standard import bv, ghz, graycode, ising
from repro.workloads.suite import (
    PAPER_SUITE_NAMES,
    from_qasm_file,
    paper_suite,
    register_workload,
    registered_workloads,
    workload_by_name,
)
from repro.workloads.workload import Workload

__all__ = [
    "Workload",
    "bv",
    "ghz",
    "graycode",
    "ising",
    "qaoa_maxcut",
    "path_graph_edges",
    "ring_graph_edges",
    "cut_values",
    "probe_circuit",
    "PROBE_STATES",
    "paper_suite",
    "workload_by_name",
    "PAPER_SUITE_NAMES",
    "from_qasm_file",
    "register_workload",
    "registered_workloads",
]

"""Compiler substrate: compile procedures, placement, SABRE, EPS, EDM."""

from repro.compiler.edm import ensemble_of_diverse_mappings
from repro.compiler.eps import (
    expected_probability_of_success,
    gate_eps,
    readout_eps,
)
from repro.compiler.layout import Layout
from repro.compiler.pipeline import (
    CompilerPipeline,
    ExecutableCircuit,
    RoutedBody,
)
from repro.compiler.placement import (
    candidate_layouts,
    embed_in_region,
    grow_region,
    pool_layouts,
)
from repro.compiler.sabre import RoutedCircuit, route

__all__ = [
    "Layout",
    "route",
    "RoutedCircuit",
    "ExecutableCircuit",
    "CompilerPipeline",
    "RoutedBody",
    "expected_probability_of_success",
    "gate_eps",
    "readout_eps",
    "candidate_layouts",
    "grow_region",
    "embed_in_region",
    "pool_layouts",
    "ensemble_of_diverse_mappings",
]

"""Compiler substrate: staged pipeline, placement, SABRE routing, EPS, EDM."""

from repro.compiler.decompose import NATIVE_BASIS, decompose_to_native, zyz_angles
from repro.compiler.edm import ensemble_of_diverse_mappings
from repro.compiler.eps import (
    expected_probability_of_success,
    gate_eps,
    readout_eps,
)
from repro.compiler.layout import Layout
from repro.compiler.pipeline import (
    CompilationState,
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
    "decompose_to_native",
    "zyz_angles",
    "NATIVE_BASIS",
    "route",
    "RoutedCircuit",
    "ExecutableCircuit",
    "CompilerPipeline",
    "CompilationState",
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

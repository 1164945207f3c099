"""Shared utilities: bitstring handling and deterministic RNG plumbing."""

from repro.utils.bits import (
    all_bitstrings,
    bit_array_to_indices,
    bit_array_to_strings,
    bit_positions,
    bitstring_to_index,
    extract_bits,
    hamming_distance,
    index_to_bitstring,
    indices_to_bit_array,
)
from repro.utils.random import SeedLike, as_generator, spawn

__all__ = [
    "index_to_bitstring",
    "bitstring_to_index",
    "extract_bits",
    "bit_positions",
    "all_bitstrings",
    "hamming_distance",
    "indices_to_bit_array",
    "bit_array_to_indices",
    "bit_array_to_strings",
    "as_generator",
    "spawn",
    "SeedLike",
]

"""Noise modelling: gate failures, crosstalk-aware readout, trial sampling."""

from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler, clbit_probability_vector

__all__ = [
    "NoiseModel",
    "NoisySampler",
    "clbit_probability_vector",
]

"""Device characterisation experiments: Table 1, Figure 2, Figure 3.

* **Table 1** — isolated vs simultaneous measurement-error statistics on
  the Sycamore-like device (crosstalk at full-chip readout width).
* **Figure 2** — probe-qubit fidelity as the number of simultaneous
  measurements grows from 1 to 10 (the paper's IBMQ-Paris experiment).
* **Figure 3** — spatial variation of readout error on IBMQ-Toronto:
  summary statistics plus the per-qubit percentile map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.compiler.layout import Layout
from repro.compiler.pipeline import CompilerPipeline
from repro.core.pmf import PMF
from repro.devices.device import Device
from repro.devices.library import google_sycamore, ibmq_paris, ibmq_toronto
from repro.metrics.distances import total_variation_distance
from repro.noise.model import NoiseModel
from repro.noise.sampler import NoisySampler
from repro.utils.random import SeedLike, as_generator, spawn
from repro.workloads.probe import PROBE_STATES, probe_circuit

__all__ = [
    "table1_measurement_stats",
    "figure2_crosstalk_sweep",
    "figure3_spatial_variation",
]


def table1_measurement_stats(
    device: Optional[Device] = None,
) -> Dict[str, Dict[str, float]]:
    """Isolated vs simultaneous readout-error statistics (Table 1, %)."""
    device = device or google_sycamore()
    isolated = device.readout_stats(num_simultaneous=1).as_percent()
    simultaneous = device.readout_stats(
        num_simultaneous=device.num_qubits
    ).as_percent()
    return {
        "isolated": {
            "min": isolated.minimum,
            "average": isolated.mean,
            "median": isolated.median,
            "max": isolated.maximum,
        },
        "simultaneous": {
            "min": simultaneous.minimum,
            "average": simultaneous.mean,
            "median": simultaneous.median,
            "max": simultaneous.maximum,
        },
    }


@dataclass(frozen=True)
class ProbePoint:
    """One (state, N) fidelity measurement of Fig. 2b."""

    probe_state: str
    num_measured: int
    fidelity: float


def _probe_fidelity(
    pipeline: CompilerPipeline,
    sampler: NoisySampler,
    probe_physical: int,
    probe_state: str,
    num_measured: int,
    rng: np.random.Generator,
) -> float:
    """Probe-qubit marginal fidelity (1 - TVD) for one configuration."""
    workload = probe_circuit(num_measured, probe_state)
    num_qubits = pipeline.device.num_qubits
    others = [q for q in range(num_qubits) if q != probe_physical]
    spectators = rng.choice(others, size=num_measured - 1, replace=False)
    mapping = {0: probe_physical}
    for logical, physical in enumerate(spectators, start=1):
        mapping[logical] = int(physical)
    executable = pipeline.compile(
        workload.circuit,
        attempts=1,
        initial_layouts=[Layout(mapping)],
        seed=rng,
    )
    noisy = sampler.exact_distribution(executable)
    # Probe is clbit 0: marginalise both distributions onto that bit.
    p1_noisy = sum(v for k, v in noisy.items() if k[-1] == "1")
    p1_ideal = workload.metadata["probe_ideal_p1"]
    return 1.0 - total_variation_distance(
        PMF({"1": p1_noisy, "0": 1.0 - p1_noisy}, normalize=False),
        PMF({"1": p1_ideal, "0": 1.0 - p1_ideal}, normalize=False),
    )


def figure2_crosstalk_sweep(
    device: Optional[Device] = None,
    probe_physical: int = 6,
    max_measured: int = 10,
    samples_per_point: int = 10,
    probe_states: Sequence[str] = ("one", "plus", "tilted", "zero"),
    seed: SeedLike = 2,
) -> List[ProbePoint]:
    """Fig. 2b: probe fidelity vs number of simultaneous measurements.

    The probe stays pinned to ``probe_physical`` (Qubit-6 on IBMQ-Paris in
    the paper); spectators are randomly remapped for each sample and the
    fidelities averaged.
    """
    device = device or ibmq_paris()
    rng = as_generator(seed)
    sampler = NoisySampler(
        NoiseModel.from_device(device), seed=spawn(rng, 1)[0]
    )
    pipeline = CompilerPipeline(device)
    points: List[ProbePoint] = []
    for probe_state in probe_states:
        if probe_state not in PROBE_STATES:
            raise ValueError(f"unknown probe state {probe_state!r}")
        for num_measured in range(1, max_measured + 1):
            samples = 1 if num_measured == 1 else samples_per_point
            values = [
                _probe_fidelity(
                    pipeline, sampler, probe_physical, probe_state,
                    num_measured, rng,
                )
                for _ in range(samples)
            ]
            points.append(
                ProbePoint(probe_state, num_measured, float(np.mean(values)))
            )
    return points


def figure3_spatial_variation(
    device: Optional[Device] = None,
) -> Dict[str, object]:
    """Fig. 3: readout-error statistics and percentile map for Toronto."""
    device = device or ibmq_toronto()
    errors = device.calibration.readout_error
    quartiles = np.percentile(errors, [25, 50, 75])

    def bucket(error: float) -> str:
        if error < quartiles[0]:
            return "<25"
        if error < quartiles[1]:
            return "25-50"
        if error < quartiles[2]:
            return "50-75"
        return ">75"

    stats = device.readout_stats().as_percent()
    return {
        "device": device.name,
        "mean_percent": stats.mean,
        "median_percent": stats.median,
        "min_percent": stats.minimum,
        "max_percent": stats.maximum,
        "percentile_bucket_by_qubit": {
            q: bucket(float(errors[q])) for q in range(device.num_qubits)
        },
        "vulnerable_qubits": device.vulnerable_qubits(75.0),
    }

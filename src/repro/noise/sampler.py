"""Fast noisy execution of compiled circuits.

:class:`NoisySampler` is the stand-in for running trials on real IBMQ
hardware.  It exploits the factorised noise model (gate depolarizing +
independent per-qubit readout flips with crosstalk; see
:mod:`repro.noise.model`) to sample hundreds of thousands of trials in
milliseconds:

1. the ideal outcome distribution comes from one statevector simulation of
   the *logical* circuit (shared across the global circuit and every CPM,
   whose unitary bodies are identical);
2. each trial survives all gates with probability ``EPS_gates``; failed
   trials draw a uniformly random outcome (depolarized);
3. each measured bit is then flipped with its physical qubit's effective
   asymmetric readout rates at the circuit's simultaneous-measurement
   width.

``exact_group_distributions`` evaluates the same channel in closed form
(the "infinite shots" limit), which the experiments use for deterministic
sweeps and the tests use to validate the sampler against the density-
matrix oracle.

Both bodies are stacked: sampling runs one coalesced group's allocations
through one inverse CDF, and the exact channel evaluates every
executable of one measured width as one ``(B, 2**k)`` contraction.  The
per-circuit loops they replaced live on in the test suite as the oracle
the stacked bodies are asserted bit-for-bit equal to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.core.pmf import PMF
from repro.exceptions import SimulationError
from repro.noise.model import NoiseModel
from repro.sim import kernels
from repro.utils.bits import (
    bit_array_to_indices,
    codes_to_strings,
    group_code_sums,
    indices_to_bit_array,
)
from repro.utils.random import SeedLike, as_generator, spawn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.pipeline import ExecutableCircuit

__all__ = [
    "CodeCounts",
    "NoisySampler",
    "clbit_probability_vector",
    "DEFAULT_CHUNK_SHOTS",
]


class CodeCounts(NamedTuple):
    """A counts histogram in the array-native data plane.

    ``codes`` are sorted int64 outcome codes (IBM-order encoding: bit ``c``
    = clbit ``c``) aligned with integer ``counts``; ``num_bits`` is the
    measured register width.  Strings appear only through :meth:`to_dict`.
    """

    codes: np.ndarray
    counts: np.ndarray
    num_bits: int

    @property
    def total(self) -> int:
        """Total trials in the histogram."""
        return int(self.counts.sum())

    def to_pmf(self) -> PMF:
        """Normalised PMF over the observed outcomes (no strings built)."""
        return PMF.from_codes(
            self.codes, self.counts.astype(np.float64), self.num_bits
        )

    def to_dict(self) -> Dict[str, int]:
        """Bitstring-keyed histogram (serialization/display edge)."""
        return {
            key: int(count)
            for key, count in zip(
                codes_to_strings(self.codes, self.num_bits), self.counts
            )
        }

#: Shots sampled per chunk.  Sampling materialises a ``(chunk, k)`` bit
#: matrix, so the chunk size bounds peak memory regardless of the request's
#: total shot count; million-shot requests stream through in chunks.
DEFAULT_CHUNK_SHOTS = 1 << 16


def clbit_probability_vector(
    probabilities: np.ndarray, meas_map: Dict[int, int], num_qubits: int
) -> np.ndarray:
    """Marginalise a full ``2**n`` vector onto the measured classical bits.

    ``meas_map`` maps measured qubit -> clbit; clbits must form the range
    ``0..k-1``.  The result is a ``2**k`` vector indexed by clbit encoding.
    """
    if not meas_map:
        raise SimulationError("circuit has no measurements")
    clbits = sorted(meas_map.values())
    k = len(clbits)
    if clbits != list(range(k)):
        raise SimulationError("measurement clbits must form a contiguous range")
    keep_sorted = sorted(meas_map.keys())
    marg = kernels.marginal_probabilities(probabilities, keep_sorted, num_qubits)
    # marg bit j corresponds to qubit keep_sorted[j]; permute onto clbits.
    qubit_to_margbit = {q: j for j, q in enumerate(keep_sorted)}
    perm = [0] * k
    for qubit, clbit in meas_map.items():
        perm[k - 1 - clbit] = k - 1 - qubit_to_margbit[qubit]
    tensor = marg.reshape((2,) * k)
    return np.transpose(tensor, perm).reshape(-1)


class NoisySampler:
    """Samples trials from compiled circuits under the device noise model."""

    def __init__(
        self,
        noise_model: NoiseModel,
        seed: SeedLike = None,
        chunk_shots: int = DEFAULT_CHUNK_SHOTS,
    ) -> None:
        if chunk_shots < 1:
            raise SimulationError("chunk_shots must be positive")
        self.noise_model = noise_model
        self.chunk_shots = chunk_shots
        self._rng = as_generator(seed)

    # ------------------------------------------------------------------

    def spawn_streams(self, count: int) -> List[np.random.Generator]:
        """``count`` independent child RNG streams off this sampler's stream.

        The local backend uses this to give every request in a batch its
        own stream (spawned per request *index*), which is what makes
        every worker count bit-for-bit identical: a request's draws
        depend only on its position in the batch, never on which worker
        evaluates it.  Spawning advances the generator's spawn
        counter, not its draw stream, so it is deterministic per seed.
        """
        return spawn(self._rng, count)

    # ------------------------------------------------------------------

    def _measured_setup(self, executable: ExecutableCircuit):
        meas_map = executable.logical.measurement_map
        if not meas_map:
            raise SimulationError("executable has no measurements")
        k = len(meas_map)
        ideal = clbit_probability_vector(
            executable.ideal_probabilities(), meas_map, executable.logical.num_qubits
        )
        physical_by_clbit = executable.measured_physical_qubits
        if len(physical_by_clbit) != k:
            raise SimulationError("physical circuit measurement count mismatch")
        return ideal, physical_by_clbit, k

    def run(
        self,
        executable: ExecutableCircuit,
        shots: int,
        rng: SeedLike = None,
    ) -> Dict[str, int]:
        """Sample ``shots`` noisy trials; returns a counts histogram.

        Bitstring-keyed wrapper over :meth:`run_codes` for callers at the
        display/serialization edge; the sampling itself never builds a
        string.
        """
        return self.run_codes(executable, shots, rng=rng).to_dict()

    def run_codes(
        self,
        executable: ExecutableCircuit,
        shots: int,
        rng: SeedLike = None,
    ) -> CodeCounts:
        """Sample ``shots`` noisy trials; returns an array-native histogram.

        :meth:`run_many_codes` with a single allocation.
        """
        (result,) = self.run_many_codes(executable, [shots], rng=rng)
        return result

    def run_many(
        self,
        executable: ExecutableCircuit,
        shots_list: Sequence[int],
        rng: SeedLike = None,
    ) -> List[Dict[str, int]]:
        """Bitstring-keyed wrapper over :meth:`run_many_codes`."""
        return [
            counts.to_dict()
            for counts in self.run_many_codes(executable, shots_list, rng=rng)
        ]

    def run_many_codes(
        self,
        executable: ExecutableCircuit,
        shots_list: Sequence[int],
        rng: SeedLike = None,
    ) -> List[CodeCounts]:
        """Sample several allocations of one executable from one stream.

        Returns one array-native histogram per allocation, in order.  All
        allocations share the measurement setup (statevector
        marginalisation) and one inverse CDF, so the backends sample a
        whole coalesced group here.

        Each allocation is cut into chunks of at most ``chunk_shots``
        trials, drawn from the stream in order: per chunk the failure
        draws, the outcome uniforms, the failure masks, then the readout
        draws.  Runs of consecutive chunks holding at most ``chunk_shots``
        trials together form a *block*, whose deterministic transforms
        (one ``searchsorted`` against the CDF, failure masks, readout
        flips, code packing) run as one stacked pass.  A block bounds
        peak memory by the chunk size whatever the total shot count, and
        since blocks only batch row-independent transforms, the draws
        and counts do not depend on how chunks are blocked.
        """
        for shots in shots_list:
            if shots <= 0:
                raise SimulationError("shots must be positive")
        if not shots_list:
            return []
        rng = as_generator(rng) if rng is not None else self._rng
        ideal, physical_by_clbit, k = self._measured_setup(executable)
        ideal = ideal / ideal.sum()
        p_fail = self.noise_model.circuit_failure_probability(executable.physical)
        p01, p10 = self.noise_model.readout_rates(physical_by_clbit, k)
        flip_rate = self.noise_model.gate_failure_flip_rate
        # Generator.choice(n, size, p) is exactly searchsorted of uniform
        # draws against the renormalised inclusive CDF.
        cdf = ideal.cumsum()
        cdf /= cdf[-1]

        # Chunk plan: (allocation, chunk) rows in draw order, cut into
        # blocks of at most chunk_shots trials.
        blocks: List[List[Tuple[int, int]]] = []
        block_shots = self.chunk_shots
        for allocation, shots in enumerate(shots_list):
            for start in range(0, shots, self.chunk_shots):
                chunk = min(shots - start, self.chunk_shots)
                if block_shots + chunk > self.chunk_shots:
                    blocks.append([])
                    block_shots = 0
                blocks[-1].append((allocation, chunk))
                block_shots += chunk

        parts_by_allocation: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in shots_list
        ]
        for block in blocks:
            size = sum(chunk for _, chunk in block)
            failure_draws = np.empty(size)
            uniforms = np.empty(size)
            readout_draws = np.empty((size, k))
            mask_rows: List[np.ndarray] = []
            cursor = 0
            for _, chunk in block:
                rows = slice(cursor, cursor + chunk)
                failures = rng.random(out=failure_draws[rows]) < p_fail
                rng.random(out=uniforms[rows])
                num_fail = int(failures.sum())
                if num_fail:
                    # Gate failures corrupt the outcome locally: each
                    # measured bit of a failing trial flips with the
                    # model's flip rate (see NoiseModel).
                    mask_rows.append(
                        (rng.random((num_fail, k)) < flip_rate).astype(np.uint8)
                    )
                rng.random(out=readout_draws[rows])
                cursor += chunk

            bits = indices_to_bit_array(
                cdf.searchsorted(uniforms, side="right"), k
            )
            if mask_rows:
                bits[failure_draws < p_fail] ^= np.vstack(mask_rows)
            flip = np.where(
                bits == 0,
                readout_draws < p01[None, :],
                readout_draws < p10[None, :],
            )
            codes = bit_array_to_indices(bits ^ flip.astype(np.uint8))

            cursor = 0
            for allocation, chunk in block:
                parts_by_allocation[allocation].append(
                    np.unique(codes[cursor : cursor + chunk], return_counts=True)
                )
                cursor += chunk

        results: List[CodeCounts] = []
        for parts in parts_by_allocation:
            if len(parts) == 1:
                codes, counts = parts[0]
            else:
                merged = np.concatenate([codes for codes, _ in parts])
                weights = np.concatenate([counts for _, counts in parts])
                codes, counts = group_code_sums(merged, weights)
                counts = counts.astype(np.int64)
            results.append(CodeCounts(codes, counts, k))
        return results

    # ------------------------------------------------------------------

    def exact_group_distributions(
        self, executables: Sequence[ExecutableCircuit]
    ) -> List[Tuple[np.ndarray, np.ndarray, int]]:
        """Closed-form noisy distributions of several executables, stacked.

        The "infinite shots" limit of :meth:`run_many_codes`: executables
        measuring the same number of bits evaluate the full noise channel
        (failure mixing + readout confusion) as **one** batched
        contraction over a ``(B, 2**k)`` stack, at any ``B`` including 1.
        Returns one ``(codes, probs, k)`` triple per executable, in input
        order, keeping every outcome of non-zero probability.
        """
        results: List[Tuple[np.ndarray, np.ndarray, int]] = [None] * len(
            executables
        )
        setups = [self._measured_setup(e) for e in executables]
        by_width: Dict[int, List[int]] = {}
        for index, (_, _, k) in enumerate(setups):
            by_width.setdefault(k, []).append(index)
        flip_rate = self.noise_model.gate_failure_flip_rate
        flip = np.array(
            [[1.0 - flip_rate, flip_rate], [flip_rate, 1.0 - flip_rate]]
        )
        for k, indices in sorted(by_width.items()):
            batch = len(indices)
            ideal = np.stack(
                [setups[i][0] / setups[i][0].sum() for i in indices]
            )
            p_fail = np.array(
                [
                    self.noise_model.circuit_failure_probability(
                        executables[i].physical
                    )
                    for i in indices
                ]
            ).reshape(batch, 1)
            corrupted = kernels.apply_confusions(ideal, [flip] * k)
            mixed = (1.0 - p_fail) * ideal + p_fail * corrupted
            confusion_rows = [
                self.noise_model.confusion_matrices(setups[i][1], k)
                for i in indices
            ]
            stacked_confusions = [
                np.stack([rows[c] for rows in confusion_rows])
                for c in range(k)
            ]
            noisy = kernels.apply_confusions(mixed, stacked_confusions)
            noisy = noisy / noisy.sum(axis=1).reshape(batch, 1)
            for row, i in enumerate(indices):
                codes = np.flatnonzero(noisy[row] > 0).astype(np.int64)
                results[i] = (codes, noisy[row][codes], k)
        return results

    def exact_pmf(self, executable: ExecutableCircuit) -> PMF:
        """Closed-form noisy outcome PMF (infinite-shot limit)."""
        ((codes, probs, k),) = self.exact_group_distributions([executable])
        return PMF.from_codes(codes, probs, k)

    def exact_distribution(
        self, executable: ExecutableCircuit
    ) -> Dict[str, float]:
        """Bitstring-keyed wrapper over :meth:`exact_group_distributions`."""
        ((codes, probs, k),) = self.exact_group_distributions([executable])
        return {
            key: float(prob)
            for key, prob in zip(codes_to_strings(codes, k), probs)
        }

    def expected_counts(
        self, executable: ExecutableCircuit, shots: int
    ) -> Dict[str, float]:
        """Exact distribution scaled to ``shots`` (fractional counts)."""
        return {
            key: probability * shots
            for key, probability in self.exact_distribution(executable).items()
        }

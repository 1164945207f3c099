"""Device calibration data and its synthetic generation.

A :class:`Calibration` is the information a daily IBMQ calibration report
provides: per-qubit readout error rates (asymmetric: ``p01`` is the chance of
reading "1" when the qubit is "0", ``p10`` the reverse), per-gate error
rates, and — our addition, characterised in the paper's §3.1 — per-qubit
*measurement-crosstalk coefficients* that inflate readout error when many
qubits are measured simultaneously.

Real calibration data is not available offline, so :func:`synthesize_calibration`
builds distributions whose summary statistics match the numbers the paper
reports for each machine (e.g. Toronto readout: mean 4.70 %, median 2.76 %,
min 0.85 %, max 22.2 % — Fig. 3).  The generator is deterministic in its
seed, and the spatial placement deliberately scatters the best qubits so
that, as on the real devices, low-error qubits are not co-located (§3.2).

The readout profile takes evenly spaced lognormal quantiles as
``exp(sigma * ndtri(q)) * median`` and ranks qubits by a double stable
``argsort``: the same bits as ``scipy.stats``' ``lognorm.ppf`` and
``rankdata(method="ordinal")``.  ``ndtri`` is :func:`_ndtri`, a port of the
Cephes algorithm ``scipy.special.ndtri`` runs, on Python floats.  Any other
inverse normal CDF (``statistics.NormalDist().inv_cdf``, say) differs in
the last ulp, which moves placement and routing choices downstream, so the
tests hold the port and both ``scipy.stats`` calls to scipy bit for bit;
the package itself imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.devices.topology import CouplingGraph
from repro.exceptions import DeviceError
from repro.utils.random import SeedLike, as_generator

__all__ = [
    "Calibration",
    "ReadoutStats",
    "SWAP_CNOT_FACTOR",
    "synthesize_calibration",
]

#: Hard ceiling for any effective error probability.
_MAX_ERROR = 0.5

#: A SWAP decomposes into three CNOTs on IBM hardware, so its failure
#: compounds three two-qubit gate errors (compile-time EPS and the noise
#: model's gate part both charge it so).
SWAP_CNOT_FACTOR = 3


@dataclass(frozen=True)
class ReadoutStats:
    """Summary statistics of per-qubit readout error (fractions, not %)."""

    mean: float
    median: float
    minimum: float
    maximum: float

    def as_percent(self) -> "ReadoutStats":
        return ReadoutStats(
            self.mean * 100, self.median * 100, self.minimum * 100, self.maximum * 100
        )


@dataclass
class Calibration:
    """Per-qubit and per-edge error rates of a device.

    Attributes:
        p01: array of P(read 1 | prepared 0) per qubit, *isolated* readout.
        p10: array of P(read 0 | prepared 1) per qubit, *isolated* readout.
        crosstalk: additive readout-error increment per additional qubit
            measured simultaneously (per qubit).
        gate_error_1q: depolarizing error probability per single-qubit gate,
            per qubit.
        gate_error_2q: depolarizing error probability per two-qubit gate,
            keyed by sorted edge tuple.
        meas_duration_us: readout duration in microseconds (metadata; IBM
            readout takes 4-5 us per the paper's §2.3).
    """

    p01: np.ndarray
    p10: np.ndarray
    crosstalk: np.ndarray
    gate_error_1q: np.ndarray
    gate_error_2q: Dict[Tuple[int, int], float]
    meas_duration_us: float = 4.5

    def __post_init__(self) -> None:
        self.p01 = np.asarray(self.p01, dtype=float)
        self.p10 = np.asarray(self.p10, dtype=float)
        self.crosstalk = np.asarray(self.crosstalk, dtype=float)
        self.gate_error_1q = np.asarray(self.gate_error_1q, dtype=float)
        n = len(self.p01)
        if not (len(self.p10) == len(self.crosstalk) == len(self.gate_error_1q) == n):
            raise DeviceError("calibration arrays have inconsistent lengths")
        for name, arr in (
            ("p01", self.p01),
            ("p10", self.p10),
            ("crosstalk", self.crosstalk),
            ("gate_error_1q", self.gate_error_1q),
        ):
            if np.any(arr < 0.0) or np.any(arr > _MAX_ERROR):
                raise DeviceError(f"{name} rates must lie in [0, {_MAX_ERROR}]")
        normalised = {}
        for edge, err in self.gate_error_2q.items():
            u, v = sorted(edge)
            if not 0.0 <= err <= _MAX_ERROR:
                raise DeviceError(f"2q gate error {err} out of range on {edge}")
            normalised[(u, v)] = float(err)
        self.gate_error_2q = normalised

    # ------------------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return len(self.p01)

    @property
    def readout_error(self) -> np.ndarray:
        """Symmetrised isolated readout error per qubit: (p01 + p10) / 2."""
        return (self.p01 + self.p10) / 2.0

    def readout_stats(self, num_simultaneous: int = 1) -> ReadoutStats:
        """Summary statistics at a given simultaneous-measurement count."""
        errors = np.array(
            [
                self.effective_readout_error(q, num_simultaneous)
                for q in range(self.num_qubits)
            ]
        )
        return ReadoutStats(
            float(errors.mean()),
            float(np.median(errors)),
            float(errors.min()),
            float(errors.max()),
        )

    # ------------------------------------------------------------------
    # Crosstalk-aware effective rates
    # ------------------------------------------------------------------

    def _increment(self, qubit: int, num_simultaneous: int) -> float:
        if num_simultaneous < 1:
            raise DeviceError("num_simultaneous must be >= 1")
        return float(self.crosstalk[qubit]) * (num_simultaneous - 1)

    def _asymmetry_weights(self, qubit: int) -> Tuple[float, float]:
        """Split of the crosstalk increment between the two flip directions.

        The increment follows the qubit's own misassignment asymmetry
        (decay-type 1->0 errors dominate in-circuit degradation), while the
        weights average to 1 so the *symmetrised* error still grows by
        exactly ``crosstalk[qubit] * (num_simultaneous - 1)``.
        """
        total = float(self.p01[qubit]) + float(self.p10[qubit])
        if total <= 0.0:
            return 1.0, 1.0
        w01 = 2.0 * float(self.p01[qubit]) / total
        return w01, 2.0 - w01

    def effective_p01(self, qubit: int, num_simultaneous: int = 1) -> float:
        """P(read 1 | prepared 0) when ``num_simultaneous`` qubits are read."""
        inc = self._increment(qubit, num_simultaneous)
        w01, _ = self._asymmetry_weights(qubit)
        return min(float(self.p01[qubit]) + inc * w01, _MAX_ERROR)

    def effective_p10(self, qubit: int, num_simultaneous: int = 1) -> float:
        """P(read 0 | prepared 1) when ``num_simultaneous`` qubits are read."""
        inc = self._increment(qubit, num_simultaneous)
        _, w10 = self._asymmetry_weights(qubit)
        return min(float(self.p10[qubit]) + inc * w10, _MAX_ERROR)

    def effective_readout_error(self, qubit: int, num_simultaneous: int = 1) -> float:
        """Symmetrised effective readout error with crosstalk."""
        return (
            self.effective_p01(qubit, num_simultaneous)
            + self.effective_p10(qubit, num_simultaneous)
        ) / 2.0

    def confusion_matrix(self, qubit: int, num_simultaneous: int = 1) -> np.ndarray:
        """Column-stochastic 2x2 confusion matrix ``A[observed, actual]``."""
        p01 = self.effective_p01(qubit, num_simultaneous)
        p10 = self.effective_p10(qubit, num_simultaneous)
        return np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])

    # ------------------------------------------------------------------
    # Queries used by the compiler
    # ------------------------------------------------------------------

    def best_readout_qubits(self, count: Optional[int] = None) -> np.ndarray:
        """Qubit indices sorted by ascending isolated readout error."""
        order = np.argsort(self.readout_error, kind="stable")
        return order[:count] if count is not None else order

    def vulnerable_qubits(self, percentile: float = 75.0) -> np.ndarray:
        """Qubits above the given readout-error percentile (paper's 'vulnerable')."""
        errors = self.readout_error
        threshold = np.percentile(errors, percentile)
        return np.flatnonzero(errors > threshold)

    def two_qubit_error(self, u: int, v: int) -> float:
        """Calibrated error of a two-qubit gate on edge (u, v)."""
        key = (min(u, v), max(u, v))
        if key not in self.gate_error_2q:
            raise DeviceError(f"no calibrated 2q gate on edge {key}")
        return self.gate_error_2q[key]


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


# Cephes ``ndtri`` coefficients, highest power first: ``_P0``/``_Q0`` for
# the central region, ``_P1``/``_Q1`` for the tails while
# ``sqrt(-2 log y) < 8``, ``_P2``/``_Q2`` beyond.
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_MINUS_2 = 0.13533528323661269189
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1,
    -5.66762857469070293439e1, 1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0,
    8.63602421390890590575e1, -2.25462687854119370527e2,
    2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1,
    5.71628192246421288162e1, 4.40805073893200834700e1,
    1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1,
    4.13172038254672030440e1, 1.50425385692907503408e1,
    2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0,
    3.93881025292474443415e0, 1.33303460815807542389e0,
    2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0,
    1.37702099489081330271e0, 2.16236993594496635890e-1,
    1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)


def _polevl(x: float, coef: Sequence[float]) -> float:
    """Horner evaluation, leading coefficient first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    """:func:`_polevl` with an implicit leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: float) -> float:
    """Inverse of the standard normal CDF, as Cephes (and scipy) compute it.

    Every operation is the one ``scipy.special.ndtri`` makes, in the same
    order on IEEE doubles, so the result is the same bits.  Outside
    ``[0, 1]`` scipy returns NaN; this raises.
    """
    if not 0.0 <= y0 <= 1.0:
        raise DeviceError(f"ndtri needs a probability in [0, 1], got {y0!r}")
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    negate = True
    y = y0
    if y > 1.0 - _EXP_MINUS_2:
        y = 1.0 - y
        negate = False
    if y > _EXP_MINUS_2:
        y = y - 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def _lognormal_quantiles(
    quantiles: np.ndarray, sigma: float, median: float
) -> np.ndarray:
    """Quantiles of the lognormal with shape ``sigma`` and median ``median``.

    The expression ``scipy.stats.lognorm.ppf(quantiles, s=sigma,
    scale=median)`` evaluates, bit for bit, without importing scipy.
    """
    normal = np.array([_ndtri(float(q)) for q in quantiles])
    return np.exp(sigma * normal) * median


def _ordinal_ranks(values: np.ndarray) -> np.ndarray:
    """0-based ranks, ties broken by position.

    Equal to ``scipy.stats.rankdata(values, method="ordinal") - 1``.
    """
    return np.argsort(np.argsort(values, kind="stable"), kind="stable")


def _lognormal_profile(
    count: int,
    median: float,
    mean: float,
    minimum: float,
    maximum: float,
) -> np.ndarray:
    """Deterministic error profile matching the requested statistics.

    Takes evenly spaced quantiles of the lognormal whose median/mean match
    the targets, clips to [minimum, maximum], plants the exact extremes, and
    rescales interior values so the sample mean matches ``mean``.
    """
    if not (0 < minimum <= median <= mean <= maximum < 1):
        raise DeviceError(
            "need 0 < min <= median <= mean <= max < 1 for a readout profile"
        )
    if count < 4:
        raise DeviceError("profiles need at least four qubits")
    ratio = mean / median
    sigma = float(np.sqrt(max(2.0 * np.log(ratio), 1e-6)))
    quantiles = (np.arange(count) + 0.5) / count
    values = _lognormal_quantiles(quantiles, sigma, median)
    values = np.clip(values, minimum, maximum)
    values[0] = minimum
    values[-1] = maximum
    # Alternate pinning the median and rescaling for the mean; a few rounds
    # converge to a profile matching all four statistics closely.
    mid = count // 2
    for _ in range(6):
        if count % 2 == 1:
            values[mid] = median
        else:
            half_gap = (values[mid] - values[mid - 1]) / 2.0
            values[mid - 1] = median - half_gap
            values[mid] = median + half_gap
        interior = values[1:-1]
        target_interior_sum = mean * count - minimum - maximum
        if target_interior_sum > 0 and interior.sum() > 0:
            scale = target_interior_sum / interior.sum()
            interior = np.clip(interior * scale, minimum, maximum)
            values[1:-1] = np.sort(interior)
    return values


def _scatter_best_qubits(
    values: np.ndarray, graph: CouplingGraph, rng: np.random.Generator
) -> np.ndarray:
    """Assign sorted error values to qubits, spreading the best ones apart.

    Mirrors the paper's §3.2 observation: the lowest-error qubits are not
    spatial neighbours, which is what forces large programs onto bad qubits.
    """
    count = len(values)
    permutation = rng.permutation(count)
    assigned = values[np.argsort(permutation)]
    best = set(np.argsort(assigned)[: max(2, count // 5)])
    # Break up adjacent pairs of "best" qubits by swapping with a random
    # non-best qubit elsewhere on the chip.
    for _ in range(4 * count):
        adjacent_best = [
            (u, v) for u, v in graph.edges if u in best and v in best
        ]
        if not adjacent_best:
            break
        u, v = adjacent_best[rng.integers(len(adjacent_best))]
        non_best = [q for q in range(count) if q not in best]
        swap_with = int(rng.choice(non_best))
        assigned[v], assigned[swap_with] = assigned[swap_with], assigned[v]
        best.discard(v)
        best.add(swap_with)
    return assigned


def synthesize_calibration(
    graph: CouplingGraph,
    readout_median: float,
    readout_mean: float,
    readout_min: float,
    readout_max: float,
    asymmetry: float = 1.4,
    crosstalk_median: float = 0.0008,
    crosstalk_max: float = 0.005,
    crosstalk_rank_correlation: float = 0.8,
    gate_error_1q_median: float = 0.0004,
    gate_error_2q_median: float = 0.011,
    gate_error_2q_max: float = 0.05,
    seed: SeedLike = None,
) -> Calibration:
    """Generate a :class:`Calibration` with the requested statistics.

    Args:
        graph: device topology (used for qubit count and spatial placement).
        readout_*: target summary statistics of the symmetrised isolated
            readout error, as fractions (0.047 == 4.7 %).
        asymmetry: ratio ``p10 / p01`` — devices misread "1" as "0" more
            often than the reverse (Manhattan: 3.6 % vs 2.3 %, §8).
        crosstalk_median / crosstalk_max: per-qubit additive readout-error
            increment per extra simultaneously measured qubit.
        crosstalk_rank_correlation: in [0, 1]; how strongly crosstalk
            severity tracks readout-error rank.  Real devices show the
            worst-readout qubits also suffering the most crosstalk (paper
            Table 1: the maximum error grows from 11.7 % isolated to 20.9 %
            simultaneous while the mean only grows 1.6 points).
        gate_error_*: gate-error distribution parameters.
        seed: RNG seed for the spatial assignment and gate-error draws.
    """
    rng = as_generator(seed)
    count = graph.number_of_nodes()

    profile = _lognormal_profile(
        count, readout_median, readout_mean, readout_min, readout_max
    )
    readout = _scatter_best_qubits(profile, graph, rng)

    # Split the symmetric rate into asymmetric components:
    # (p01 + p10) / 2 == readout  and  p10 / p01 == asymmetry.
    p01 = 2.0 * readout / (1.0 + asymmetry)
    p10 = np.clip(asymmetry * p01, 0.0, _MAX_ERROR)
    p01 = np.clip(p01, 0.0, _MAX_ERROR)

    if not 0.0 <= crosstalk_rank_correlation <= 1.0:
        raise DeviceError("crosstalk_rank_correlation must lie in [0, 1]")
    sigma_ct = 0.8
    crosstalk_draws = np.sort(
        np.clip(
            rng.lognormal(np.log(crosstalk_median), sigma_ct, size=count),
            0.0,
            crosstalk_max,
        )
    )
    # Assign draws by a blended rank: a qubit's crosstalk rank tracks its
    # readout-error rank with the requested correlation strength.
    readout_rank = _ordinal_ranks(readout)
    random_rank = rng.permutation(count)
    blended = (
        crosstalk_rank_correlation * readout_rank
        + (1.0 - crosstalk_rank_correlation) * random_rank
    )
    assignment = np.argsort(np.argsort(blended, kind="stable"), kind="stable")
    crosstalk = crosstalk_draws[assignment]

    gate_1q = np.clip(
        rng.lognormal(np.log(gate_error_1q_median), 0.5, size=count), 0.0, 0.01
    )
    gate_2q = {}
    for u, v in graph.edges:
        err = float(
            np.clip(
                rng.lognormal(np.log(gate_error_2q_median), 0.45),
                1e-4,
                gate_error_2q_max,
            )
        )
        gate_2q[(min(u, v), max(u, v))] = err

    return Calibration(
        p01=p01,
        p10=p10,
        crosstalk=crosstalk,
        gate_error_1q=gate_1q,
        gate_error_2q=gate_2q,
    )

"""Bayesian Reconstruction — the paper's Algorithm 1.

The global PMF (full correlation, low fidelity) is the Bayesian *prior*;
each CPM marginal (high fidelity, local) supplies the evidence.  One
``bayesian_update`` pass over a marginal ``m`` rescales every global
outcome in proportion to how strongly ``m`` supports its projection:

1. group the global outcomes by their projection onto the marginal's
   qubits (Fig. 6 step 1);
2. within each group, normalise the prior probabilities into *update
   coefficients* ``C`` (step 2);
3. replace each outcome's probability with ``C * p_m / (1 - p_m)`` where
   ``p_m`` is the marginal probability of its projection (step 3) — the
   odds form boosts outcomes whose projections the CPM saw often and
   crushes the ones it (almost) never saw;
4. normalise.

``bayesian_reconstruction`` applies one update per marginal *from the same
prior*, sums the posteriors with the prior (steps 4-5) and normalises
(step 6).  It repeats that round until the Hellinger distance between two
successive rounds' outputs is at most ``tolerance`` (§4.3), and otherwise
stops after ``max_rounds`` rounds.  The cap is not only a safety net: on
the ibmq_toronto main-results sweep it ends 34 of the 54 reconstructions
with the distance still above the default tolerance (the runners count
these in ``reconstruct.capped``).  Because every posterior is computed
from the same prior and then summed, the order of marginals within a round
does not matter (§4.3, last paragraph).

Rounds run in bin space.  An update only rescales whole projection groups,
so everything but two support-sized steps runs over the marginals' 2**s
bins.  For marginal ``j`` let ``m_j`` be its bin masses under the prior,
``o_j`` its odds and ``L_j`` the bins it observed with ``m_j > 0``.  The
update's unnormalised total is ``T_j = sum(o_j on L_j) + sum(m_j off
L_j)``, its posterior is ``p * f_j[proj_j]`` with ``f_j = (o_j / m_j on
L_j, else 1) / T_j``, and a round is ``p' ∝ p * (1 + sum_j
f_j[proj_j])``.  The support-sized steps — the masses and the factor
``sum_j f_j[proj_j]`` — have two implementations, chosen from the input:

* a dense support of at least ``_DENSE_MIN_BITS`` bits (exact mode, where
  the codes are ``arange(2**n)``) views the probabilities as a ``(2,)*n``
  tensor: masses are axis sums, and each ``f_j`` is added to the factor by
  broadcasting, so a round holds O(support) temporaries and no projection
  arrays;
* every other support stacks its marginals: one ``bincount`` over offset
  projections gives every mass, and one gather plus one row sum the
  factor, a fixed number of numpy calls per round whatever the marginal
  count.

The dense side's per-marginal reductions lose to the stacked side's few
calls on small supports and win once the stacked side's (marginals x
support) temporaries dominate: measured per round, the stacked side is
faster up to 13 bits and the dense side from 14 bits on.  Both sides
agree with the per-marginal reference in ``tests/`` to 1e-12 relative:
they only reorder floating-point sums.

:class:`~repro.core.pmf.PMF` *is* the integer-coded array representation
— ``prior.codes`` / ``prior.probs`` are consumed directly and results are
built with :meth:`PMF.from_codes`, so a full reconstruction performs zero
string conversions, and a round's cost is O(support x marginals),
independent of ``2**n`` for a sparse support (§7).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.pmf import PMF, Marginal, hellinger_pmfs
from repro.exceptions import ReconstructionError
from repro.utils.bits import gather_code_bits

__all__ = [
    "bayesian_update",
    "bayesian_reconstruction_round",
    "bayesian_reconstruction",
    "hellinger_distance",
    "DEFAULT_TOLERANCE",
    "DEFAULT_MAX_ROUNDS",
]

#: Guard against division by zero when a marginal entry has probability 1.
_MAX_MARGINAL_PROB = 1.0 - 1e-12

#: Default convergence tolerance on the Hellinger distance between rounds.
DEFAULT_TOLERANCE = 1e-4

#: Default cap on reconstruction rounds (each round is one full pass).
DEFAULT_MAX_ROUNDS = 32

#: Dense supports of at least this many bits take the axis-sum side.
_DENSE_MIN_BITS = 14

#: numpy 1.x caps an array's rank at 32, the rank of the dense side's view.
_MAX_DENSE_BITS = 32


def hellinger_distance(p: PMF, q: PMF) -> float:
    """Hellinger distance between two PMFs over the same outcome width.

    Thin width-checking wrapper over the shared vectorised
    :func:`~repro.core.pmf.hellinger_pmfs` (also behind
    :func:`repro.metrics.distances.hellinger`).
    """
    if p.num_bits != q.num_bits:
        raise ReconstructionError("PMFs have different outcome widths")
    return hellinger_pmfs(p, q)


# ---------------------------------------------------------------------------
# Bin-space round machinery (operates on the PMF's native arrays)
# ---------------------------------------------------------------------------


class _Bins:
    """The marginals' round-invariant bin arrays, concatenated.

    Marginal ``j`` owns bins ``starts[j] : starts[j] + sizes[j]``, one per
    sub-outcome, in the order of its PMF codes.
    """

    __slots__ = ("sizes", "starts", "odds", "observed")

    def __init__(self, marginals: Sequence[Marginal]) -> None:
        self.sizes = np.array([1 << m.subset_size for m in marginals])
        self.starts = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        vec = np.zeros(int(self.sizes.sum()))
        for start, marginal in zip(self.starts, marginals):
            vec[start + marginal.pmf.codes] = marginal.pmf.probs
        self.observed = vec > 0.0
        clipped = np.minimum(vec, _MAX_MARGINAL_PROB)
        self.odds = np.where(self.observed, clipped / (1.0 - clipped), 0.0)

    def factors(self, masses: np.ndarray) -> np.ndarray:
        """Every marginal's ``f_j`` (see the module docstring) for one round."""
        live = self.observed & (masses > 0.0)
        totals = np.add.reduceat(np.where(live, self.odds, masses), self.starts)
        if np.any(totals <= 0.0):
            raise ReconstructionError("Bayesian update produced a zero posterior")
        # The guarded denominator is never zero, so no errstate is needed.
        ratio = np.where(live, self.odds / np.where(live, masses, 1.0), 1.0)
        return ratio / np.repeat(totals, self.sizes)


class _StackedSupport:
    """Support-sized steps for sparse or small supports, all marginals at once.

    Offsetting each marginal's projections into its own bin range lets one
    ``bincount`` compute every mass of a round and one gather every
    factor term.
    """

    __slots__ = ("projections", "count", "num_bins")

    def __init__(
        self, codes: np.ndarray, marginals: Sequence[Marginal], bins: _Bins
    ) -> None:
        self.count = len(marginals)
        self.num_bins = len(bins.odds)
        self.projections = np.concatenate(
            [
                gather_code_bits(codes, marginal.qubits) + start
                for marginal, start in zip(marginals, bins.starts)
            ]
        )

    def masses(self, probs: np.ndarray) -> np.ndarray:
        return np.bincount(
            self.projections,
            weights=np.tile(probs, self.count),
            minlength=self.num_bins,
        )

    def factor(self, factors: np.ndarray) -> np.ndarray:
        """``sum_j f_j[proj_j]`` over the support."""
        return factors[self.projections].reshape(self.count, -1).sum(axis=0)


class _DenseSupport:
    """Support-sized steps for a dense ``arange(2**n)`` support.

    Axis ``a`` of the ``(2,)*n`` view is bit ``n - 1 - a`` of the code, so
    summing out every axis but a marginal's leaves its masses with the
    highest qubit first — the bin order of its codes.
    """

    __slots__ = ("shape", "dropped", "broadcast", "bounds")

    def __init__(
        self, num_bits: int, marginals: Sequence[Marginal], bins: _Bins
    ) -> None:
        self.shape = (2,) * num_bits
        self.dropped = []
        self.broadcast = []
        for marginal in marginals:
            kept = {num_bits - 1 - q for q in marginal.qubits}
            self.dropped.append(
                tuple(a for a in range(num_bits) if a not in kept)
            )
            self.broadcast.append(
                tuple(2 if a in kept else 1 for a in range(num_bits))
            )
        self.bounds = [
            (int(start), int(start + size))
            for start, size in zip(bins.starts, bins.sizes)
        ]

    def masses(self, probs: np.ndarray) -> np.ndarray:
        view = probs.reshape(self.shape)
        return np.concatenate(
            [view.sum(axis=dropped).ravel() for dropped in self.dropped]
        )

    def factor(self, factors: np.ndarray) -> np.ndarray:
        """``sum_j f_j[proj_j]`` over the support."""
        total = np.zeros(self.shape)
        for (start, stop), shape in zip(self.bounds, self.broadcast):
            total += factors[start:stop].reshape(shape)
        return total.reshape(-1)


def _prepare(prior: PMF, marginals: Sequence[Marginal]):
    """Round-invariant bins plus the support side the input selects."""
    bins = _Bins(marginals)
    codes, num_bits = prior.codes, prior.num_bits
    dense = len(codes) == 1 << num_bits and int(codes[-1]) == len(codes) - 1
    if dense and _DENSE_MIN_BITS <= num_bits <= _MAX_DENSE_BITS:
        return bins, _DenseSupport(num_bits, marginals, bins)
    return bins, _StackedSupport(codes, marginals, bins)


def _normalized(prior: PMF) -> np.ndarray:
    """The prior's probabilities normalised to unit mass.

    The update mixes scale-invariant terms (observed projections) with
    raw prior entries (unobserved ones), so an unnormalised prior — e.g.
    built with ``normalize=False`` — must be rescaled first.
    """
    return prior.probs / prior.probs.sum()


def _check_marginals(marginals: Iterable[Marginal], num_bits: int) -> List[Marginal]:
    marginals = list(marginals)
    if not marginals:
        raise ReconstructionError("reconstruction needs at least one marginal")
    for marginal in marginals:
        if marginal.qubits[-1] >= num_bits:
            raise ReconstructionError(
                f"marginal covers bit {marginal.qubits[-1]} but the prior is "
                f"{num_bits}-bit"
            )
    return marginals


def _round(probs: np.ndarray, bins: _Bins, support) -> np.ndarray:
    """One reconstruction round over a support; returns new probabilities.

    ``Pout = normalize(P + sum_j BayesianUpdate(P, m_j))`` — Algorithm 1's
    ``Bayesian_Reconstruction`` body, computed as ``P * (1 + factor)``.
    """
    out = support.factor(bins.factors(support.masses(probs)))
    out += 1.0
    out *= probs
    return out / out.sum()


def _hellinger_arrays(p: np.ndarray, q: np.ndarray) -> float:
    diff = np.sqrt(p) - np.sqrt(q)
    return float(np.sqrt(np.dot(diff, diff) / 2.0))


def iterate_reconstruction(
    prior: PMF, marginals: Iterable[Marginal], tolerance: float, max_rounds: int
) -> Tuple[PMF, int, bool]:
    """:func:`bayesian_reconstruction` plus its round count and whether
    the cap stopped it with the distance still above ``tolerance``."""
    if max_rounds < 1:
        raise ReconstructionError("max_rounds must be >= 1")
    if not tolerance >= 0.0:
        raise ReconstructionError("tolerance must be a non-negative number")
    marginals = _check_marginals(marginals, prior.num_bits)
    bins, support = _prepare(prior, marginals)
    current = _normalized(prior)
    converged = False
    rounds = 0
    while rounds < max_rounds and not converged:
        updated = _round(current, bins, support)
        converged = _hellinger_arrays(current, updated) <= tolerance
        current = updated
        rounds += 1
    output = PMF.from_codes(prior.codes, current, prior.num_bits, normalize=True)
    return output, rounds, not converged


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def bayesian_update(prior: PMF, marginal: Marginal) -> PMF:
    """One Bayesian update of ``prior`` with one marginal (Algorithm 1).

    Outcomes whose projection never appears in the marginal keep their
    prior probability (``Po = P`` initialisation in the algorithm); the
    result is normalised.
    """
    marginals = _check_marginals([marginal], prior.num_bits)
    bins, support = _prepare(prior, marginals)
    probs = _normalized(prior)
    posterior = probs * support.factor(bins.factors(support.masses(probs)))
    return PMF.from_codes(prior.codes, posterior, prior.num_bits, normalize=True)


def bayesian_reconstruction_round(prior: PMF, marginals: Iterable[Marginal]) -> PMF:
    """One full round: update per marginal from the same prior, then merge."""
    marginals = _check_marginals(marginals, prior.num_bits)
    new_probs = _round(_normalized(prior), *_prepare(prior, marginals))
    return PMF.from_codes(prior.codes, new_probs, prior.num_bits, normalize=True)


def bayesian_reconstruction(
    prior: PMF,
    marginals: Iterable[Marginal],
    tolerance: float = DEFAULT_TOLERANCE,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> PMF:
    """Iterate reconstruction rounds until the output PMF stabilises.

    Stops after the first round whose output is within Hellinger distance
    ``tolerance`` of its input (§4.3), or after ``max_rounds`` rounds.  A
    negative or NaN ``tolerance`` raises :class:`ReconstructionError`.
    """
    return iterate_reconstruction(prior, marginals, tolerance, max_rounds)[0]

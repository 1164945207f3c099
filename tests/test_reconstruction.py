"""Tests for the Bayesian Reconstruction algorithm (paper Algorithm 1).

Two references live here.  A slow dictionary-based one mirrors the
paper's pseudocode line by line and pins the Fig. 6 worked example.  An
array-based one updates the prior marginal by marginal on the support and
accumulates the posteriors one at a time; the bin-space production round
(both its stacked and its dense side) must agree with it to 1e-12
relative and stop at the same round.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PMF,
    Marginal,
    bayesian_reconstruction,
    bayesian_reconstruction_round,
    bayesian_update,
    hellinger_distance,
    random_subsets,
    sliding_window_subsets,
)
from repro.core import reconstruction
from repro.exceptions import ReconstructionError
from repro.utils.bits import extract_bits, gather_code_bits


# ---------------------------------------------------------------------------
# Reference implementation (paper pseudocode, dict-based)
# ---------------------------------------------------------------------------


def reference_bayesian_update(prior: PMF, marginal: Marginal) -> PMF:
    prior_dist = prior.as_dict()
    posterior = dict(prior_dist)
    groups = {}
    mass = {}
    for key, value in prior_dist.items():
        projection = extract_bits(key, marginal.qubits)
        groups.setdefault(projection, []).append(key)
        mass[projection] = mass.get(projection, 0.0) + value
    for projection, pry in marginal.pmf.as_dict().items():
        candidates = groups.get(projection)
        if not candidates or mass[projection] <= 0:
            continue
        pry = min(pry, 1.0 - 1e-12)
        odds = pry / (1.0 - pry)
        for key in candidates:
            posterior[key] = (prior_dist[key] / mass[projection]) * odds
    return PMF(posterior, normalize=True)


def reference_round(prior: PMF, marginals) -> PMF:
    accumulator = dict(prior.as_dict())
    for marginal in marginals:
        posterior = reference_bayesian_update(prior, marginal)
        for key, value in posterior.as_dict().items():
            accumulator[key] = accumulator.get(key, 0.0) + value
    return PMF(accumulator, normalize=True)


# ---------------------------------------------------------------------------
# Reference implementation (per marginal on the support, array-based)
# ---------------------------------------------------------------------------

RTOL = 1e-12


def reference_update_probs(codes, probs, marginal):
    """One update of normalised ``probs`` on the support ``codes``."""
    vec = np.zeros(1 << marginal.subset_size)
    vec[marginal.pmf.codes] = marginal.pmf.probs
    observed = vec > 0.0
    clipped = np.minimum(vec, 1.0 - 1e-12)
    odds = np.where(observed, clipped / (1.0 - clipped), 0.0)
    projections = gather_code_bits(codes, marginal.qubits)
    group_mass = np.bincount(projections, weights=probs, minlength=len(vec))
    mass = group_mass[projections]
    mass_positive = mass > 0.0
    updated = np.where(
        observed[projections] & mass_positive,
        probs / np.where(mass_positive, mass, 1.0) * odds[projections],
        probs,
    )
    total = updated.sum()
    if total <= 0.0:
        raise ReconstructionError("Bayesian update produced a zero posterior")
    return updated / total


def reference_round_probs(codes, probs, marginals):
    """Prior plus every posterior, accumulated marginal by marginal."""
    accumulator = probs.copy()
    for marginal in marginals:
        accumulator += reference_update_probs(codes, probs, marginal)
    return accumulator / accumulator.sum()


def reference_reconstruction(prior, marginals, tolerance, max_rounds):
    """Reference output probabilities, rounds run and whether it converged."""
    current = prior.probs / prior.probs.sum()
    for rounds in range(1, max_rounds + 1):
        updated = reference_round_probs(prior.codes, current, marginals)
        diff = np.sqrt(current) - np.sqrt(updated)
        current = updated
        if math.sqrt(np.dot(diff, diff) / 2.0) <= tolerance:
            return current, rounds, True
    return current, rounds, False


def assert_matches(pmf, codes, expected):
    np.testing.assert_array_equal(pmf.codes, codes)
    np.testing.assert_allclose(pmf.probs, expected / expected.sum(), rtol=RTOL, atol=0)


def dense_side_from(num_bits):
    """Route supports of ``num_bits`` or more dense bits to the dense side."""
    return mock.patch.object(reconstruction, "_DENSE_MIN_BITS", num_bits)


@st.composite
def reconstruction_inputs(draw):
    """A prior on a sparse or dense support and 1-4 marginals over it.

    Sparse supports miss whole projection groups; zero marginal entries
    leave bins unobserved.
    """
    num_bits = draw(st.integers(1, 10))
    # Up to 2**10 prior entries: drawn from a seeded generator to keep
    # hypothesis's own buffer small.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.arange(1 << num_bits)
    if not draw(st.booleans()):
        count = draw(st.integers(1, codes.size))
        codes = np.sort(rng.choice(codes, size=count, replace=False))
    probs = rng.uniform(1e-3, 1.0, size=codes.size)
    prior = PMF.from_codes(codes, probs, num_bits)
    weights = st.floats(min_value=1e-3, max_value=1.0)
    marginals = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, min(5, num_bits)))
        qubits = draw(st.permutations(range(num_bits)))[:width]
        entries = draw(
            st.lists(
                st.one_of(st.just(0.0), weights),
                min_size=1 << width,
                max_size=1 << width,
            )
        )
        if not any(entries):
            entries[0] = 1.0
        marginals.append(
            Marginal(
                qubits,
                PMF.from_codes(np.arange(1 << width), np.array(entries), width),
            )
        )
    shuffled = draw(st.permutations(marginals))
    return prior, marginals, shuffled


# ---------------------------------------------------------------------------
# The paper's Figure 6 worked example
# ---------------------------------------------------------------------------

FIG6_GLOBAL = {
    "000": 0.10, "001": 0.10, "010": 0.15, "011": 0.15,
    "100": 0.10, "101": 0.05, "110": 0.15, "111": 0.20,
}
FIG6_MARGINAL = {"00": 0.1, "01": 0.1, "10": 0.2, "11": 0.6}
# Raw (unnormalised) posterior from the figure: C * pry / (1 - pry).
FIG6_RAW_POSTERIOR = {
    "000": 0.0556, "001": 0.0741, "010": 0.1250, "011": 0.6429,
    "100": 0.0556, "101": 0.0370, "110": 0.1250, "111": 0.8571,
}


class TestFigure6:
    def test_update_matches_paper_numbers(self):
        prior = PMF(FIG6_GLOBAL)
        marginal = Marginal((0, 1), PMF(FIG6_MARGINAL))
        posterior = bayesian_update(prior, marginal)
        total = sum(FIG6_RAW_POSTERIOR.values())
        for key, raw in FIG6_RAW_POSTERIOR.items():
            assert posterior.prob(key) == pytest.approx(raw / total, abs=2e-3)

    def test_correct_answer_amplified(self):
        """Fig. 6: the probability of 111 increases substantially."""
        prior = PMF(FIG6_GLOBAL)
        marginal = Marginal((0, 1), PMF(FIG6_MARGINAL))
        posterior = bayesian_update(prior, marginal)
        assert posterior.prob("111") > 2.0 * prior.prob("111")

    def test_reference_agrees_on_fig6(self):
        prior = PMF(FIG6_GLOBAL)
        marginal = Marginal((0, 1), PMF(FIG6_MARGINAL))
        fast = bayesian_update(prior, marginal)
        slow = reference_bayesian_update(prior, marginal)
        for key in FIG6_GLOBAL:
            assert fast.prob(key) == pytest.approx(slow.prob(key), abs=1e-12)


# ---------------------------------------------------------------------------
# Properties of a single update
# ---------------------------------------------------------------------------


class TestBayesianUpdate:
    def test_posterior_normalised(self):
        prior = PMF(FIG6_GLOBAL)
        marginal = Marginal((1, 2), PMF({"00": 0.4, "11": 0.6}))
        posterior = bayesian_update(prior, marginal)
        assert posterior.probs.sum() == pytest.approx(1.0)

    def test_unseen_projection_keeps_prior_value(self):
        """Entries whose projection is absent from the marginal keep P[x]."""
        prior = PMF({"00": 0.5, "01": 0.25, "11": 0.25})
        marginal = Marginal((0,), PMF({"1": 1.0}))
        posterior = bayesian_update(prior, marginal)
        # "00" projects to "0", unseen in the marginal: raw value stays 0.5
        # while "01"/"11" get odds-scaled; after normalisation "00" shrinks
        # but remains strictly positive.
        assert posterior.prob("00") > 0.0

    def test_marginal_probability_one_is_clipped(self):
        prior = PMF({"00": 0.5, "01": 0.5})
        marginal = Marginal((0,), PMF({"1": 1.0}))
        posterior = bayesian_update(prior, marginal)
        assert math.isfinite(posterior.prob("01"))
        assert posterior.prob("01") > 0.99

    def test_uniform_marginal_over_balanced_prior_is_neutral(self):
        prior = PMF({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25})
        marginal = Marginal((0,), PMF({"0": 0.5, "1": 0.5}))
        posterior = bayesian_update(prior, marginal)
        for key in prior.as_dict():
            assert posterior.prob(key) == pytest.approx(0.25)

    def test_out_of_range_marginal_rejected(self):
        prior = PMF({"00": 1.0})
        marginal = Marginal((5,), PMF({"0": 0.5, "1": 0.5}))
        with pytest.raises(ReconstructionError):
            bayesian_update(prior, marginal)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=1.0),
            min_size=8,
            max_size=8,
        ),
        st.lists(
            st.floats(min_value=0.001, max_value=1.0),
            min_size=4,
            max_size=4,
        ),
        st.sampled_from([(0, 1), (1, 2), (0, 2)]),
    )
    def test_vectorised_matches_reference(self, prior_raw, marg_raw, qubits):
        prior = PMF(
            {format(i, "03b"): p for i, p in enumerate(prior_raw)}
        )
        marginal = Marginal(
            qubits, PMF({format(i, "02b"): p for i, p in enumerate(marg_raw)})
        )
        fast = bayesian_update(prior, marginal)
        slow = reference_bayesian_update(prior, marginal)
        for key in prior.as_dict():
            assert fast.prob(key) == pytest.approx(slow.prob(key), abs=1e-10)


# ---------------------------------------------------------------------------
# Full reconstruction
# ---------------------------------------------------------------------------


def exact_marginals_of(pmf: PMF, subsets):
    return [Marginal(subset, pmf.marginal(subset)) for subset in subsets]


class TestReconstruction:
    def test_round_matches_reference(self):
        prior = PMF(FIG6_GLOBAL)
        marginals = [
            Marginal((0, 1), PMF(FIG6_MARGINAL)),
            Marginal((1, 2), PMF({"00": 0.2, "01": 0.1, "10": 0.1, "11": 0.6})),
        ]
        fast = bayesian_reconstruction_round(prior, marginals)
        slow = reference_round(prior, marginals)
        for key in FIG6_GLOBAL:
            assert fast.prob(key) == pytest.approx(slow.prob(key), abs=1e-12)

    def test_marginal_order_does_not_matter(self):
        """§4.3: updates are computed from the same prior, then summed."""
        prior = PMF(FIG6_GLOBAL)
        m1 = Marginal((0, 1), PMF(FIG6_MARGINAL))
        m2 = Marginal((1, 2), PMF({"00": 0.3, "11": 0.7}))
        forward = bayesian_reconstruction(prior, [m1, m2])
        backward = bayesian_reconstruction(prior, [m2, m1])
        for key in FIG6_GLOBAL:
            assert forward.prob(key) == pytest.approx(backward.prob(key), abs=1e-12)

    def test_sharp_marginals_amplify_truth(self):
        """Noisy uniform-ish prior + clean GHZ marginals -> GHZ-like output."""
        noisy = {format(i, "04b"): 0.04 for i in range(16)}
        noisy["0000"] = 0.2
        noisy["1111"] = 0.2
        prior = PMF(noisy)
        subsets = [(0, 1), (1, 2), (2, 3), (0, 3)]
        marginals = [
            Marginal(s, PMF({"00": 0.5, "11": 0.5})) for s in subsets
        ]
        output = bayesian_reconstruction(prior, marginals)
        correct_mass = output.prob("0000") + output.prob("1111")
        prior_mass = prior.prob("0000") + prior.prob("1111")
        assert correct_mass > 1.5 * prior_mass

    def test_exact_marginals_preserve_correct_distribution(self):
        """Reconstruction with marginals derived from the prior is stable."""
        prior = PMF({"000": 0.5, "111": 0.5})
        marginals = exact_marginals_of(prior, [(0, 1), (1, 2)])
        output = bayesian_reconstruction(prior, marginals)
        assert output.prob("000") == pytest.approx(0.5, abs=1e-6)
        assert output.prob("111") == pytest.approx(0.5, abs=1e-6)

    def test_converges_within_max_rounds(self):
        prior = PMF(FIG6_GLOBAL)
        marginal = Marginal((0, 1), PMF(FIG6_MARGINAL))
        out_few = bayesian_reconstruction(prior, [marginal], max_rounds=32)
        out_more = bayesian_reconstruction(prior, [marginal], max_rounds=64)
        assert hellinger_distance(out_few, out_more) < 1e-3

    def test_empty_marginals_rejected(self):
        with pytest.raises(ReconstructionError):
            bayesian_reconstruction(PMF({"0": 1.0}), [])

    def test_invalid_tolerance(self):
        prior = PMF({"0": 1.0})
        marginal = Marginal((0,), PMF({"0": 1.0}))
        with pytest.raises(ReconstructionError):
            bayesian_reconstruction(prior, [marginal], tolerance=-1.0)

    def test_invalid_rounds(self):
        prior = PMF({"0": 1.0})
        marginal = Marginal((0,), PMF({"0": 1.0}))
        with pytest.raises(ReconstructionError):
            bayesian_reconstruction(prior, [marginal], max_rounds=0)

    def test_nan_tolerance_rejected(self):
        """A NaN tolerance would never stop the loop before the cap."""
        prior = PMF({"000": 0.5, "111": 0.5})
        marginals = exact_marginals_of(prior, [(0, 1), (1, 2)])
        _, rounds, capped = reconstruction.iterate_reconstruction(
            prior, marginals, 1e-4, 32
        )
        assert (rounds, capped) == (1, False)
        with pytest.raises(ReconstructionError):
            bayesian_reconstruction(prior, marginals, tolerance=float("nan"))

    def test_support_never_grows(self):
        """§7.1: only outcomes observed in the global PMF are stored."""
        prior = PMF({"000": 0.6, "011": 0.4})
        marginal = Marginal((0, 1), PMF({"00": 0.25, "01": 0.25, "10": 0.25, "11": 0.25}))
        output = bayesian_reconstruction(prior, [marginal])
        assert set(output.as_dict()) <= {"000", "011"}


class TestAgainstReference:
    """The bin-space round against the per-marginal reference."""

    @pytest.mark.parametrize("dense_min_bits", [1, reconstruction._DENSE_MIN_BITS])
    @settings(max_examples=60, deadline=None)
    @given(reconstruction_inputs())
    def test_property(self, dense_min_bits, inputs):
        """Update, round and stop round agree on either side."""
        prior, marginals, shuffled = inputs
        codes = prior.codes
        probs = prior.probs / prior.probs.sum()
        with dense_side_from(dense_min_bits):
            for marginal in marginals:
                assert_matches(
                    bayesian_update(prior, marginal),
                    codes,
                    reference_update_probs(codes, probs, marginal),
                )
            assert_matches(
                bayesian_reconstruction_round(prior, shuffled),
                codes,
                reference_round_probs(codes, probs, marginals),
            )
            output, rounds, capped = reconstruction.iterate_reconstruction(
                prior, shuffled, 1e-4, 16
            )
        expected, expected_rounds, converged = reference_reconstruction(
            prior, marginals, 1e-4, 16
        )
        assert (rounds, capped) == (expected_rounds, not converged)
        assert_matches(output, codes, expected)

    def test_dense_16_bit_windows(self):
        """The dense side's bin order: asymmetric width-2 and width-4
        windows, wrapping around, on a dense 2**16 support."""
        num_bits = 16
        assert num_bits >= reconstruction._DENSE_MIN_BITS
        rng = np.random.default_rng(16)
        codes = np.arange(1 << num_bits)
        prior = PMF.from_codes(codes, rng.random(codes.size) + 0.01, num_bits)
        probs = prior.probs
        marginals = []
        for width in (2, 4):
            for start in range(num_bits):
                qubits = [(start + k) % num_bits for k in range(width)]
                entries = rng.random(1 << width) ** 3
                entries[rng.integers(1 << width)] = 0.0
                marginals.append(
                    Marginal(
                        qubits,
                        PMF.from_codes(np.arange(1 << width), entries, width),
                    )
                )
        assert_matches(
            bayesian_update(prior, marginals[-1]),
            codes,
            reference_update_probs(codes, probs, marginals[-1]),
        )
        expected = reference_round_probs(codes, probs, marginals)
        assert_matches(
            bayesian_reconstruction_round(prior, marginals), codes, expected
        )
        with dense_side_from(num_bits + 1):
            stacked = bayesian_reconstruction_round(prior, marginals)
        assert_matches(stacked, codes, expected)

    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(
                lambda width: sliding_window_subsets(18, width), id="sliding"
            ),
            pytest.param(
                lambda width: random_subsets(18, width, 9, seed=width),
                id="random",
            ),
        ],
    )
    def test_dense_18_bit_layers(self, family):
        """JigSaw-M's four layers (widths 2-5) on a dense 2**18 support:
        sliding windows that wrap around keep the top and the bottom
        qubits, random subsets leave several dropped runs between kept
        ones.  Each layer's round matches the reference and the stacked
        side, and two iterated rounds match the reference loop."""
        num_bits = 18
        rng = np.random.default_rng(18)
        codes = np.arange(1 << num_bits)
        prior = PMF.from_codes(codes, rng.random(codes.size) + 0.01, num_bits)
        probs = prior.probs
        for width in (2, 3, 4, 5):
            marginals = []
            for qubits in family(width):
                entries = rng.random(1 << width) ** 3
                entries[rng.integers(1 << width)] = 0.0
                marginals.append(
                    Marginal(
                        qubits,
                        PMF.from_codes(np.arange(1 << width), entries, width),
                    )
                )
            assert isinstance(
                reconstruction._prepare(prior, marginals)[1],
                reconstruction._DenseSupport,
            )
            expected = reference_round_probs(codes, probs, marginals)
            dense = bayesian_reconstruction_round(prior, marginals)
            assert_matches(dense, codes, expected)
            with dense_side_from(num_bits + 1):
                stacked = bayesian_reconstruction_round(prior, marginals)
            assert_matches(stacked, codes, expected)
            np.testing.assert_allclose(
                dense.probs, stacked.probs, rtol=RTOL, atol=0
            )
            output, rounds, capped = reconstruction.iterate_reconstruction(
                prior, marginals, 1e-4, 2
            )
            expected, expected_rounds, converged = reference_reconstruction(
                prior, marginals, 1e-4, 2
            )
            assert (rounds, capped) == (expected_rounds, not converged)
            assert_matches(output, codes, expected)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("num_bits", [3, reconstruction._DENSE_MIN_BITS])
    def test_zero_posterior_raises(self, num_bits):
        """A prior whose total overflows normalises to all zeros, so no
        update has mass left to rescale (3 bits: stacked side, the dense
        cut-over: dense side)."""
        codes = np.arange(1 << num_bits)
        prior = PMF.from_codes(
            codes, np.full(codes.size, 1e308), num_bits, normalize=False
        )
        marginal = Marginal((0, 1), PMF({"00": 0.5, "11": 0.5}))
        with pytest.raises(ReconstructionError, match="zero posterior"):
            reference_update_probs(
                codes, prior.probs / prior.probs.sum(), marginal
            )
        with pytest.raises(ReconstructionError, match="zero posterior"):
            bayesian_update(prior, marginal)
        with pytest.raises(ReconstructionError, match="zero posterior"):
            bayesian_reconstruction(prior, [marginal, marginal])


class TestHellinger:
    def test_identical_distributions(self):
        pmf = PMF({"0": 0.3, "1": 0.7})
        assert hellinger_distance(pmf, pmf) == pytest.approx(0.0)

    def test_disjoint_distributions(self):
        a = PMF({"00": 1.0})
        b = PMF({"11": 1.0})
        assert hellinger_distance(a, b) == pytest.approx(1.0)

    def test_symmetry(self):
        a = PMF({"0": 0.2, "1": 0.8})
        b = PMF({"0": 0.6, "1": 0.4})
        assert hellinger_distance(a, b) == pytest.approx(
            hellinger_distance(b, a)
        )

    def test_width_mismatch_rejected(self):
        with pytest.raises(ReconstructionError):
            hellinger_distance(PMF({"0": 1.0}), PMF({"00": 1.0}))

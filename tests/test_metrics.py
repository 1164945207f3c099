"""Tests for the figures of merit (paper §5.5)."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import PMF
from repro.exceptions import PMFError, ReproError
from repro.metrics import (
    approximation_ratio,
    approximation_ratio_gap,
    expected_cut,
    fidelity,
    hellinger,
    inference_strength,
    probability_of_successful_trial,
    relative,
    total_variation_distance,
    workload_arg,
)
from repro.workloads import qaoa_maxcut
from tests import metrics_oracle as oracle


class TestPst:
    def test_counts_histogram(self):
        counts = PMF({"00": 600, "01": 250, "11": 150}, normalize=False)
        assert probability_of_successful_trial(counts, ["00"]) == pytest.approx(0.6)

    def test_multiple_correct_outcomes(self):
        dist = PMF({"00": 0.4, "11": 0.35, "01": 0.25})
        assert probability_of_successful_trial(
            dist, ["00", "11"]
        ) == pytest.approx(0.75)

    def test_missing_outcome_counts_zero(self):
        assert probability_of_successful_trial(PMF({"01": 1.0}), ["00"]) == 0.0

    def test_requires_correct_outcomes(self):
        with pytest.raises(ReproError):
            probability_of_successful_trial(PMF({"0": 1.0}), [])

    def test_requires_mass(self):
        with pytest.raises(ReproError):
            probability_of_successful_trial(PMF({"0": 0.0}), ["0"])


class TestIst:
    def test_paper_definition(self):
        """Eq. 2: P(correct) / P(most frequent incorrect)."""
        dist = PMF({"11": 0.5, "10": 0.25, "01": 0.15, "00": 0.10})
        assert inference_strength(dist, ["11"]) == pytest.approx(2.0)

    def test_strongest_correct_used(self):
        dist = PMF({"00": 0.4, "11": 0.1, "01": 0.5})
        assert inference_strength(dist, ["00", "11"]) == pytest.approx(0.8)

    def test_no_incorrect_gives_inf(self):
        assert inference_strength(PMF({"0": 1.0}), ["0"]) == math.inf

    def test_ist_below_one_means_wrong_mode(self):
        dist = PMF({"00": 0.3, "01": 0.7})
        assert inference_strength(dist, ["00"]) < 1.0


class TestBadCorrectOutcomes:
    """Scoring rejects malformed answers instead of returning a number."""

    PMF3 = PMF({"00": 0.6, "01": 0.3, "11": 0.1})

    def test_duplicate_outcome_counts_once(self):
        assert probability_of_successful_trial(
            self.PMF3, ["00", "00"]
        ) == pytest.approx(0.6)
        assert inference_strength(self.PMF3, ["00", "00"]) == pytest.approx(2.0)

    @pytest.mark.parametrize("outcome", ["000", "0", "0x", "", 0])
    @pytest.mark.parametrize(
        "metric", [probability_of_successful_trial, inference_strength]
    )
    def test_malformed_outcome_raises(self, metric, outcome):
        with pytest.raises(ReproError, match="bitstring"):
            metric(self.PMF3, [outcome])


class TestDistances:
    def test_tvd_identical(self):
        dist = PMF({"0": 0.4, "1": 0.6})
        assert total_variation_distance(dist, dist) == pytest.approx(0.0)

    def test_tvd_disjoint_is_one(self):
        assert total_variation_distance(
            PMF({"0": 1.0}), PMF({"1": 1.0})
        ) == pytest.approx(1.0)

    def test_fidelity_complement(self):
        p = PMF({"0": 0.5, "1": 0.5})
        q = PMF({"0": 0.75, "1": 0.25})
        assert fidelity(p, q) == pytest.approx(1.0 - 0.25)

    def test_hellinger_bounds(self):
        assert hellinger(PMF({"0": 1.0}), PMF({"1": 1.0})) == pytest.approx(1.0)
        assert hellinger(PMF({"0": 1.0}), PMF({"0": 1.0})) == pytest.approx(0.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
    )
    def test_tvd_properties(self, raw_p, raw_q):
        keys = ["00", "01", "10", "11"]
        p_total, q_total = sum(raw_p), sum(raw_q)
        p = PMF({k: v / p_total for k, v in zip(keys, raw_p)}, normalize=False)
        q = PMF({k: v / q_total for k, v in zip(keys, raw_q)}, normalize=False)
        tvd = total_variation_distance(p, q)
        assert 0.0 <= tvd <= 1.0
        assert tvd == pytest.approx(total_variation_distance(q, p))

    @pytest.mark.parametrize(
        "metric", [total_variation_distance, fidelity, hellinger]
    )
    def test_width_mismatch_raises(self, metric):
        """PMFs of different widths describe different registers.

        Code 1 is ``"1"`` at one bit and ``"01"`` at two, so the integer
        path must refuse the pair rather than let the codes collide.
        """
        for narrow, wide in [
            (PMF({"01": 1.0}), PMF({"001": 1.0})),
            (PMF({"1": 1.0}), PMF({"01": 1.0})),
        ]:
            with pytest.raises(PMFError, match="-bit PMF"):
                metric(narrow, wide)
            with pytest.raises(PMFError, match="-bit PMF"):
                metric(wide, narrow)


class TestRelative:
    def test_ordinary_ratio(self):
        assert relative(0.6, 0.3) == pytest.approx(2.0)

    def test_zero_baseline(self):
        assert relative(0.5, 0.0) == math.inf
        assert relative(0.0, 0.0) == 1.0


class TestQaoaMetrics:
    def test_expected_cut(self):
        dist = PMF({"01": 0.5, "11": 0.5})
        assert expected_cut(dist, [(0, 1)]) == pytest.approx(0.5)

    def test_cut_size(self):
        """The cut of one partition; IBM order: rightmost char is qubit 0."""
        assert expected_cut(PMF({"01": 1.0}), [(0, 1)]) == 1.0
        assert expected_cut(PMF({"11": 1.0}), [(0, 1)]) == 0.0
        path = [(0, 1), (1, 2), (2, 3)]
        assert expected_cut(PMF({"0101": 1.0}), path) == 3.0

    def test_cut_size_range_check(self):
        with pytest.raises(ReproError):
            expected_cut(PMF({"01": 1.0}), [(0, 5)])

    def test_approximation_ratio(self):
        dist = PMF({"01": 1.0})
        assert approximation_ratio(dist, [(0, 1)], 1.0) == pytest.approx(1.0)

    def test_arg_formula(self):
        """Eq. 4: 100 * (AR_ideal - AR_real) / AR_ideal."""
        assert approximation_ratio_gap(0.8, 0.6) == pytest.approx(25.0)

    def test_arg_zero_when_equal(self):
        assert approximation_ratio_gap(0.7, 0.7) == pytest.approx(0.0)

    def test_arg_invalid_ideal(self):
        with pytest.raises(ReproError):
            approximation_ratio_gap(0.0, 0.5)

    def test_workload_arg_ideal_is_zero(self):
        workload = qaoa_maxcut(5, depth=1)
        arg = workload_arg(workload, workload.ideal_distribution())
        assert arg == pytest.approx(0.0, abs=1e-9)

    def test_workload_arg_uniform_positive(self):
        workload = qaoa_maxcut(5, depth=1)
        uniform = PMF({format(i, "05b"): 1 / 32 for i in range(32)})
        assert workload_arg(workload, uniform) > 0.0

    def test_workload_arg_requires_qaoa(self):
        from repro.workloads import ghz

        with pytest.raises(ReproError):
            workload_arg(ghz(3), PMF({"000": 1.0}))


class TestPmfOnly:
    """Every metric takes PMFs; a string-keyed dict is refused by name."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda d: probability_of_successful_trial(d, ["00"]),
            lambda d: inference_strength(d, ["00"]),
            lambda d: expected_cut(d, [(0, 1)]),
            lambda d: approximation_ratio(d, [(0, 1)], 1.0),
            lambda d: total_variation_distance(d, PMF({"00": 1.0})),
            lambda d: total_variation_distance(PMF({"00": 1.0}), d),
            lambda d: fidelity(PMF({"00": 1.0}), d),
            lambda d: hellinger(d, PMF({"00": 1.0})),
            lambda d: workload_arg(qaoa_maxcut(5, depth=1), d),
        ],
        ids=[
            "pst", "ist", "expected_cut", "approximation_ratio",
            "tvd_left", "tvd_right", "fidelity", "hellinger", "workload_arg",
        ],
    )
    def test_dict_raises_type_error(self, call):
        with pytest.raises(TypeError, match="PMF"):
            call({"00": 3, "11": 1})

    def test_non_bitstring_keys_have_no_path(self):
        """Keys that are not bitstrings neither build a PMF nor score."""
        with pytest.raises(PMFError):
            PMF({"a": 1.0})
        with pytest.raises(TypeError, match="PMF"):
            total_variation_distance({"a": 1.0}, {"a": 1.0})
        with pytest.raises(TypeError, match="PMF"):
            hellinger({"a": 1.0}, {"b": 1.0})


# ----------------------------------------------------------------------
# Differential: the array paths against the per-key oracle
# ----------------------------------------------------------------------

#: Dense supports list every outcome, so they stop at this width to keep
#: the per-key oracle fast; sparse supports go to the full 20 bits.
DENSE_MAX_BITS = 12


def _random_pmf(rng, num_bits, size, base=None):
    """A PMF over ``num_bits`` with random positive probabilities.

    ``size`` outcomes are drawn at random, or every outcome when it is
    None.  With ``base``, as many again come from ``base``'s codes so the
    two PMFs overlap.
    """
    if size is None:
        codes = np.arange(1 << num_bits)
    else:
        codes = rng.choice(1 << num_bits, size=size, replace=False)
        if base is not None:
            codes = np.concatenate([codes, rng.choice(base.codes, size=size)])
    # Squared uniforms spread the masses over several decades.
    probs = rng.random(codes.size) ** 2 + 1e-6
    return PMF.from_codes(codes, probs, num_bits)


@st.composite
def scoring_cases(draw):
    """A PMF pair of one width, correct outcomes and a random graph."""
    num_bits = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = st.integers(1, min(1 << num_bits, 64))
    if num_bits <= DENSE_MAX_BITS:
        sizes = sizes | st.none()
    measured = _random_pmf(rng, num_bits, draw(sizes))
    ideal = _random_pmf(rng, num_bits, draw(sizes), base=measured)
    present = [int(code) for code in measured.codes]
    codes = draw(
        st.lists(
            st.one_of(
                st.sampled_from(present),
                st.integers(0, (1 << num_bits) - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    correct = [format(code, f"0{num_bits}b") for code in codes]
    bit = st.integers(0, num_bits - 1)
    edges = draw(st.lists(st.tuples(bit, bit), max_size=8))
    return measured, ideal, correct, edges


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(scoring_cases())
    def test_array_metrics_match_per_key_loops(self, case):
        measured, ideal, correct, edges = case
        m, i = measured.as_dict(), ideal.as_dict()
        rel = 1e-12

        assert probability_of_successful_trial(
            measured, correct
        ) == pytest.approx(oracle.pst(m, correct), rel=rel)
        ist = inference_strength(measured, correct)
        ist_ref = oracle.ist(m, correct)
        assert math.isinf(ist) == math.isinf(ist_ref)
        if not math.isinf(ist_ref):
            assert ist == pytest.approx(ist_ref, rel=rel)
        assert expected_cut(measured, edges) == pytest.approx(
            oracle.expected_cut(m, edges), rel=rel
        )
        assert total_variation_distance(measured, ideal) == pytest.approx(
            oracle.tvd(m, i), rel=rel
        )
        assert hellinger(measured, ideal) == pytest.approx(
            oracle.hellinger(m, i), rel=rel
        )

        max_cut = max(len(edges), 1)
        ar_ideal = oracle.expected_cut(i, edges) / max_cut
        assume(ar_ideal > 0.05)
        arg_ref = approximation_ratio_gap(
            ar_ideal, oracle.expected_cut(m, edges) / max_cut
        )
        arg = approximation_ratio_gap(
            approximation_ratio(ideal, edges, max_cut),
            approximation_ratio(measured, edges, max_cut),
        )
        assert arg == pytest.approx(arg_ref, rel=0.0, abs=1e-9)


def test_evaluate_renders_no_bitstring(monkeypatch):
    """Scoring a JigSaw output never turns a code into a string."""
    import repro.core.pmf as pmf_module
    from repro.devices import ibmq_paris
    from repro.runtime import Session
    from repro.workloads import workload_by_name

    workload = workload_by_name("QAOA-8 p1")
    with Session(ibmq_paris(), seed=3) as session:
        output = session.run_scheme("jigsaw", workload)

        def refuse(*_args, **_kwargs):
            raise AssertionError("scoring rendered bitstrings")

        monkeypatch.setattr(pmf_module, "codes_to_strings", refuse)
        metrics = session.evaluate(workload, output)
    assert 0.0 < metrics.pst < 1.0
    assert metrics.arg is not None

"""Tests for the figures of merit (paper §5.5)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.metrics import (
    approximation_ratio,
    approximation_ratio_gap,
    cut_size,
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


class TestPst:
    def test_counts_histogram(self):
        counts = {"00": 600, "01": 250, "11": 150}
        assert probability_of_successful_trial(counts, ["00"]) == pytest.approx(0.6)

    def test_multiple_correct_outcomes(self):
        dist = {"00": 0.4, "11": 0.35, "01": 0.25}
        assert probability_of_successful_trial(
            dist, ["00", "11"]
        ) == pytest.approx(0.75)

    def test_missing_outcome_counts_zero(self):
        assert probability_of_successful_trial({"01": 1.0}, ["00"]) == 0.0

    def test_requires_correct_outcomes(self):
        with pytest.raises(ReproError):
            probability_of_successful_trial({"0": 1.0}, [])

    def test_requires_mass(self):
        with pytest.raises(ReproError):
            probability_of_successful_trial({"0": 0.0}, ["0"])


class TestIst:
    def test_paper_definition(self):
        """Eq. 2: P(correct) / P(most frequent incorrect)."""
        dist = {"11": 0.5, "10": 0.25, "01": 0.15, "00": 0.10}
        assert inference_strength(dist, ["11"]) == pytest.approx(2.0)

    def test_strongest_correct_used(self):
        dist = {"00": 0.4, "11": 0.1, "01": 0.5}
        assert inference_strength(dist, ["00", "11"]) == pytest.approx(0.8)

    def test_no_incorrect_gives_inf(self):
        assert inference_strength({"0": 1.0}, ["0"]) == math.inf

    def test_ist_below_one_means_wrong_mode(self):
        dist = {"00": 0.3, "01": 0.7}
        assert inference_strength(dist, ["00"]) < 1.0


class TestDistances:
    def test_tvd_identical(self):
        dist = {"0": 0.4, "1": 0.6}
        assert total_variation_distance(dist, dist) == pytest.approx(0.0)

    def test_tvd_disjoint_is_one(self):
        assert total_variation_distance({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)

    def test_fidelity_complement(self):
        p = {"0": 0.5, "1": 0.5}
        q = {"0": 0.75, "1": 0.25}
        assert fidelity(p, q) == pytest.approx(1.0 - 0.25)

    def test_hellinger_bounds(self):
        assert hellinger({"0": 1.0}, {"1": 1.0}) == pytest.approx(1.0)
        assert hellinger({"0": 1.0}, {"0": 1.0}) == pytest.approx(0.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=4, max_size=4),
    )
    def test_tvd_properties(self, raw_p, raw_q):
        keys = ["00", "01", "10", "11"]
        p_total, q_total = sum(raw_p), sum(raw_q)
        p = {k: v / p_total for k, v in zip(keys, raw_p)}
        q = {k: v / q_total for k, v in zip(keys, raw_q)}
        tvd = total_variation_distance(p, q)
        assert 0.0 <= tvd <= 1.0
        assert tvd == pytest.approx(total_variation_distance(q, p))


class TestRelative:
    def test_ordinary_ratio(self):
        assert relative(0.6, 0.3) == pytest.approx(2.0)

    def test_zero_baseline(self):
        assert relative(0.5, 0.0) == math.inf
        assert relative(0.0, 0.0) == 1.0


class TestQaoaMetrics:
    def test_cut_size(self):
        # IBM order: rightmost char is qubit 0
        assert cut_size("01", [(0, 1)]) == 1
        assert cut_size("11", [(0, 1)]) == 0
        assert cut_size("0101", [(0, 1), (1, 2), (2, 3)]) == 3

    def test_cut_size_range_check(self):
        with pytest.raises(ReproError):
            cut_size("01", [(0, 5)])

    def test_expected_cut(self):
        dist = {"01": 0.5, "11": 0.5}
        assert expected_cut(dist, [(0, 1)]) == pytest.approx(0.5)

    def test_approximation_ratio(self):
        dist = {"01": 1.0}
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
        uniform = {format(i, "05b"): 1 / 32 for i in range(32)}
        assert workload_arg(workload, uniform) > 0.0

    def test_workload_arg_requires_qaoa(self):
        from repro.workloads import ghz

        with pytest.raises(ReproError):
            workload_arg(ghz(3), {"000": 1.0})

"""Tests for calibration data and its synthesis."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.devices import calibration as calibration_module
from repro.devices import (
    google_sycamore,
    ibmq_manhattan,
    ibmq_paris,
    ibmq_toronto,
    synthesize_calibration,
)
from repro.devices.calibration import (
    Calibration,
    _lognormal_profile,
    _lognormal_quantiles,
    _ordinal_ranks,
)
from repro.devices.topology import falcon27, line_topology
from repro.exceptions import DeviceError


def make_calibration(n=4):
    return Calibration(
        p01=np.full(n, 0.02),
        p10=np.full(n, 0.04),
        crosstalk=np.full(n, 0.003),
        gate_error_1q=np.full(n, 0.001),
        gate_error_2q={(i, i + 1): 0.01 for i in range(n - 1)},
    )


class TestCalibrationValidation:
    def test_valid(self):
        cal = make_calibration()
        assert cal.num_qubits == 4

    def test_length_mismatch(self):
        with pytest.raises(DeviceError):
            Calibration(
                p01=np.zeros(3),
                p10=np.zeros(4),
                crosstalk=np.zeros(4),
                gate_error_1q=np.zeros(4),
                gate_error_2q={},
            )

    def test_out_of_range_rates(self):
        with pytest.raises(DeviceError):
            Calibration(
                p01=np.array([0.9]),
                p10=np.array([0.0]),
                crosstalk=np.array([0.0]),
                gate_error_1q=np.array([0.0]),
                gate_error_2q={},
            )

    def test_edge_keys_normalised(self):
        cal = Calibration(
            p01=np.zeros(2),
            p10=np.zeros(2),
            crosstalk=np.zeros(2),
            gate_error_1q=np.zeros(2),
            gate_error_2q={(1, 0): 0.02},
        )
        assert cal.two_qubit_error(0, 1) == 0.02
        assert cal.two_qubit_error(1, 0) == 0.02

    def test_missing_edge_raises(self):
        cal = make_calibration()
        with pytest.raises(DeviceError):
            cal.two_qubit_error(0, 3)


class TestEffectiveRates:
    def test_isolated_equals_base(self):
        cal = make_calibration()
        assert cal.effective_p01(0, 1) == pytest.approx(0.02)
        assert cal.effective_p10(0, 1) == pytest.approx(0.04)

    def test_crosstalk_grows_linearly(self):
        cal = make_calibration()
        # Increment follows the qubit's asymmetry: p01 gets weight
        # 2*p01/(p01+p10) = 2/3 of the symmetric increment.
        for m in (2, 5, 10):
            expected = 0.02 + 0.003 * (m - 1) * (2.0 / 3.0)
            assert cal.effective_p01(0, m) == pytest.approx(expected)

    def test_crosstalk_prefers_dominant_direction(self):
        cal = make_calibration()
        inc01 = cal.effective_p01(0, 5) - cal.effective_p01(0, 1)
        inc10 = cal.effective_p10(0, 5) - cal.effective_p10(0, 1)
        assert inc10 > inc01  # p10 > p01 for this calibration

    def test_symmetric_error_increment(self):
        """The symmetrised error grows by exactly crosstalk*(m-1)."""
        cal = make_calibration()
        base = cal.effective_readout_error(0, 1)
        at_five = cal.effective_readout_error(0, 5)
        assert at_five - base == pytest.approx(0.003 * 4)

    def test_rates_capped(self):
        cal = Calibration(
            p01=np.array([0.4]),
            p10=np.array([0.4]),
            crosstalk=np.array([0.05]),
            gate_error_1q=np.array([0.0]),
            gate_error_2q={},
        )
        assert cal.effective_p01(0, 50) == 0.5

    def test_invalid_simultaneous_count(self):
        cal = make_calibration()
        with pytest.raises(DeviceError):
            cal.effective_p01(0, 0)

    def test_confusion_matrix_columns_stochastic(self):
        cal = make_calibration()
        for m in (1, 4, 9):
            conf = cal.confusion_matrix(1, m)
            assert np.allclose(conf.sum(axis=0), [1.0, 1.0])
            assert np.all(conf >= 0)

    def test_readout_error_symmetrised(self):
        cal = make_calibration()
        assert np.allclose(cal.readout_error, 0.03)


class TestQueries:
    def test_best_readout_qubits_sorted(self):
        cal = Calibration(
            p01=np.array([0.05, 0.01, 0.03]),
            p10=np.array([0.05, 0.01, 0.03]),
            crosstalk=np.zeros(3),
            gate_error_1q=np.zeros(3),
            gate_error_2q={},
        )
        assert list(cal.best_readout_qubits()) == [1, 2, 0]
        assert list(cal.best_readout_qubits(2)) == [1, 2]

    def test_vulnerable_qubits(self):
        errors = np.array([0.01, 0.02, 0.03, 0.20])
        cal = Calibration(
            p01=errors,
            p10=errors,
            crosstalk=np.zeros(4),
            gate_error_1q=np.zeros(4),
            gate_error_2q={},
        )
        assert list(cal.vulnerable_qubits(75.0)) == [3]

    def test_readout_stats(self):
        cal = make_calibration()
        stats = cal.readout_stats()
        assert stats.mean == pytest.approx(0.03)
        assert stats.minimum == pytest.approx(0.03)
        percent = stats.as_percent()
        assert percent.mean == pytest.approx(3.0)


class TestProfileSynthesis:
    def test_profile_matches_targets(self):
        profile = _lognormal_profile(27, 0.0276, 0.0470, 0.0085, 0.222)
        assert profile.min() == pytest.approx(0.0085)
        assert profile.max() == pytest.approx(0.222)
        assert np.median(profile) == pytest.approx(0.0276, rel=0.02)
        assert profile.mean() == pytest.approx(0.0470, rel=0.02)

    def test_profile_even_count(self):
        profile = _lognormal_profile(10, 0.03, 0.05, 0.01, 0.2)
        assert np.median(profile) == pytest.approx(0.03, rel=0.1)

    def test_profile_invalid_ordering(self):
        with pytest.raises(DeviceError):
            _lognormal_profile(10, 0.05, 0.03, 0.01, 0.2)

    def test_profile_too_few(self):
        with pytest.raises(DeviceError):
            _lognormal_profile(2, 0.03, 0.05, 0.01, 0.2)


class TestSynthesizeCalibration:
    def test_deterministic_with_seed(self):
        graph = falcon27()
        a = synthesize_calibration(graph, 0.027, 0.047, 0.009, 0.22, seed=5)
        b = synthesize_calibration(graph, 0.027, 0.047, 0.009, 0.22, seed=5)
        assert np.allclose(a.p01, b.p01)
        assert np.allclose(a.crosstalk, b.crosstalk)

    def test_different_seeds_differ(self):
        graph = falcon27()
        a = synthesize_calibration(graph, 0.027, 0.047, 0.009, 0.22, seed=5)
        b = synthesize_calibration(graph, 0.027, 0.047, 0.009, 0.22, seed=6)
        assert not np.allclose(a.p01, b.p01)

    def test_asymmetry_respected(self):
        graph = line_topology(8)
        cal = synthesize_calibration(
            graph, 0.02, 0.03, 0.008, 0.1, asymmetry=1.5, seed=1
        )
        ratio = cal.p10 / cal.p01
        assert np.allclose(ratio, 1.5, rtol=1e-6)

    def test_all_edges_calibrated(self):
        graph = falcon27()
        cal = synthesize_calibration(graph, 0.027, 0.047, 0.009, 0.22, seed=3)
        assert len(cal.gate_error_2q) == graph.number_of_edges()

    def test_invalid_rank_correlation(self):
        with pytest.raises(DeviceError):
            synthesize_calibration(
                line_topology(6), 0.02, 0.03, 0.01, 0.1,
                crosstalk_rank_correlation=1.5,
            )


# ---------------------------------------------------------------------------
# scipy.stats is the reference the synthesis is held to, bit for bit
# ---------------------------------------------------------------------------


def scipy_quantiles(quantiles, sigma, median):
    return scipy_stats.lognorm.ppf(quantiles, s=sigma, scale=median)


def scipy_ranks(values):
    return scipy_stats.rankdata(values, method="ordinal") - 1


@pytest.fixture
def scipy_reference(monkeypatch):
    """Run the synthesis on the ``scipy.stats`` calls it replaced."""

    def install():
        monkeypatch.setattr(calibration_module, "_lognormal_quantiles", scipy_quantiles)
        monkeypatch.setattr(calibration_module, "_ordinal_ranks", scipy_ranks)

    return install


def calibration_bytes(calibration):
    return (
        calibration.p01.tobytes(),
        calibration.p10.tobytes(),
        calibration.crosstalk.tobytes(),
        calibration.gate_error_1q.tobytes(),
        sorted(calibration.gate_error_2q.items()),
    )


#: Shapes sigma over [1e-3, 2.0]: the 1e-6 variance floor, then evenly.
SIGMAS = (1e-3,) + tuple(np.linspace(0.08, 2.0, 25))


class TestScipyStatsReference:
    def test_quantiles_equal_lognorm_ppf(self):
        cases = 0
        for count in range(4, 201):
            quantiles = (np.arange(count) + 0.5) / count
            for sigma in SIGMAS:
                got = _lognormal_quantiles(quantiles, sigma, 0.0276)
                want = scipy_quantiles(quantiles, sigma, 0.0276)
                assert got.tobytes() == want.tobytes(), (count, sigma)
                cases += 1
        assert cases == 197 * 26

    @pytest.mark.parametrize("sigma", SIGMAS[::5])
    def test_profile_equals_the_scipy_profile(self, sigma, scipy_reference):
        median = 0.02
        mean = median * float(np.exp(sigma * sigma / 2.0))
        counts = range(4, 201)
        got = [_lognormal_profile(c, median, mean, 0.005, 0.4) for c in counts]
        scipy_reference()
        want = [_lognormal_profile(c, median, mean, 0.005, 0.4) for c in counts]
        for count, a, b in zip(counts, got, want):
            assert a.tobytes() == b.tobytes(), count

    def test_ordinal_ranks_equal_rankdata(self):
        rng = np.random.default_rng(7)
        for size in range(1, 120):
            for values in (
                rng.random(size),
                rng.integers(0, 4, size).astype(float),  # many ties
            ):
                assert np.array_equal(_ordinal_ranks(values), scipy_ranks(values))

    @pytest.mark.parametrize(
        "factory", [ibmq_toronto, ibmq_paris, ibmq_manhattan, google_sycamore]
    )
    @pytest.mark.parametrize("seed", [None, 0, 1, 7, 99])
    def test_library_calibrations_equal_the_scipy_reference(
        self, factory, seed, scipy_reference
    ):
        build = factory if seed is None else (lambda: factory(seed))
        got = calibration_bytes(build().calibration)
        scipy_reference()
        want = calibration_bytes(build().calibration)
        assert got == want

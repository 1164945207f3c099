"""Tests for matrix-based mitigation and the JigSaw+MBM combination."""

import numpy as np
import pytest

from repro.core import PMF, Marginal, bayesian_reconstruction
from repro.core.reconstruction import (
    DEFAULT_MAX_ROUNDS,
    DEFAULT_TOLERANCE,
    iterate_reconstruction,
)
from repro.devices import ibmq_toronto
from repro.exceptions import ExperimentError, MitigationError
from repro.mitigation import (
    MAX_MBM_QUBITS,
    apply_mitigation,
    calibration_matrix,
    mbm_corrected,
    mitigate_executable_pmf,
    mitigate_pmf,
    sampled_calibration_matrix,
)
from repro.runtime import Session
from repro.sim import apply_confusions
from repro.workloads import ghz, workload_by_name


def confusion(p01, p10):
    return np.array([[1 - p01, p10], [p01, 1 - p10]])


class TestCalibrationMatrix:
    def test_single_qubit_is_confusion(self):
        conf = confusion(0.1, 0.2)
        assert np.allclose(calibration_matrix([conf]), conf)

    def test_columns_sum_to_one(self):
        matrix = calibration_matrix([confusion(0.1, 0.2), confusion(0.05, 0.07)])
        assert np.allclose(matrix.sum(axis=0), 1.0)

    def test_matches_apply_confusions(self):
        confs = [confusion(0.1, 0.2), confusion(0.03, 0.08)]
        matrix = calibration_matrix(confs)
        rng = np.random.default_rng(1)
        dist = rng.random(4)
        dist /= dist.sum()
        assert np.allclose(matrix @ dist, apply_confusions(dist, confs))

    def test_qubit_limit(self):
        confs = [np.eye(2)] * (MAX_MBM_QUBITS + 1)
        with pytest.raises(MitigationError):
            calibration_matrix(confs)

    def test_empty_rejected(self):
        with pytest.raises(MitigationError):
            calibration_matrix([])

    def test_bad_shape_rejected(self):
        with pytest.raises(MitigationError):
            calibration_matrix([np.eye(3)])


class TestApplyMitigation:
    def test_exact_inverse_recovers_truth(self):
        confs = [confusion(0.08, 0.12), confusion(0.02, 0.05)]
        matrix = calibration_matrix(confs)
        truth = np.array([0.5, 0.0, 0.0, 0.5])
        observed = matrix @ truth
        recovered = apply_mitigation(observed, matrix)
        assert np.allclose(recovered, truth, atol=1e-10)

    def test_result_is_distribution(self):
        confs = [confusion(0.2, 0.3)]
        matrix = calibration_matrix(confs)
        recovered = apply_mitigation(np.array([0.4, 0.6]), matrix)
        assert np.all(recovered >= 0)
        assert recovered.sum() == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(MitigationError):
            apply_mitigation(np.ones(4) / 4, np.eye(2))


class TestSampledCalibration:
    def test_close_to_exact(self):
        confs = [confusion(0.1, 0.15), confusion(0.05, 0.08)]
        exact = calibration_matrix(confs)
        sampled = sampled_calibration_matrix(confs, shots_per_state=50_000, seed=0)
        assert np.allclose(sampled, exact, atol=0.01)

    def test_columns_are_distributions(self):
        confs = [confusion(0.1, 0.15)]
        sampled = sampled_calibration_matrix(confs, shots_per_state=100, seed=1)
        assert np.allclose(sampled.sum(axis=0), 1.0)

    def test_invalid_shots(self):
        with pytest.raises(MitigationError):
            sampled_calibration_matrix([np.eye(2)], shots_per_state=0)


class TestMitigatePmf:
    def test_recovers_clean_distribution(self):
        confs = [confusion(0.1, 0.2), confusion(0.05, 0.1)]
        truth = np.array([0.5, 0.0, 0.0, 0.5])
        observed = calibration_matrix(confs) @ truth
        noisy_pmf = PMF(
            {format(i, "02b"): float(p) for i, p in enumerate(observed)}
        )
        mitigated = mitigate_pmf(noisy_pmf, confs)
        assert mitigated.prob("00") == pytest.approx(0.5, abs=1e-9)
        assert mitigated.prob("11") == pytest.approx(0.5, abs=1e-9)
        assert mitigated.prob("01") == pytest.approx(0.0, abs=1e-9)

    def test_confusion_count_must_match(self):
        with pytest.raises(MitigationError):
            mitigate_pmf(PMF({"00": 1.0}), [np.eye(2)])


class TestJigSawWithMbm:
    def test_composition_improves_over_jigsaw(self):
        """Fig. 14: JigSaw + MBM is at least as good as JigSaw alone."""
        from repro.core import JigSaw, JigSawConfig
        from repro.metrics import probability_of_successful_trial
        from repro.noise import NoiseModel
        from tests.conftest import make_varied_line_device

        device = make_varied_line_device(num_qubits=8)
        workload = ghz(6)
        jigsaw = JigSaw(device, JigSawConfig(exact=True), seed=4)
        result = jigsaw.run(workload.circuit, total_trials=16_384)
        noise = NoiseModel.from_device(device)
        pmfs = [result.global_pmf, *(m.pmf for m in result.marginals)]
        combined = jigsaw.reconstruct(
            result.plan, mbm_corrected(result.plan, pmfs, noise)
        ).output_pmf
        pst_jigsaw = probability_of_successful_trial(
            result.output_pmf, workload.correct_outcomes
        )
        pst_combined = probability_of_successful_trial(
            combined, workload.correct_outcomes
        )
        assert pst_combined >= pst_jigsaw * 0.98

    def test_rejects_wide_outputs(self):
        wide = PMF({"0" * (MAX_MBM_QUBITS + 1): 1.0})
        with pytest.raises(MitigationError, match="12-bit"):
            mbm_corrected(None, [wide], None)

    def test_jigsaw_mbm_reconstructs_once(self):
        """A jigsaw_mbm run reconstructs once, from the MBM-corrected
        batch, and the registry observes that pass's rounds."""
        session = Session(ibmq_toronto(), seed=0, exact=True)
        workload = ghz(6)
        plan = session.plan(workload)
        prepared = session.prepare_scheme("jigsaw_mbm", workload)
        pmfs = prepared.backend.execute(prepared.requests)
        output = prepared.finish(pmfs)

        corrected = [
            mitigate_executable_pmf(pmf, request.executable, session.noise_model)
            for pmf, request in zip(pmfs, prepared.requests)
        ]
        marginals = [
            Marginal(subset, pmf)
            for subset, pmf in zip(plan.subsets, corrected[1:])
        ]
        assert output == bayesian_reconstruction(corrected[0], marginals)
        _, rounds, capped = iterate_reconstruction(
            corrected[0], marginals, DEFAULT_TOLERANCE, DEFAULT_MAX_ROUNDS
        )
        snapshot = session.telemetry_snapshot()
        observed = snapshot["histograms"]["reconstruct.rounds"]
        assert observed["count"] == 1
        assert observed["min_rounds"] == observed["max_rounds"] == rounds
        assert snapshot["counters"]["reconstruct.capped"] == int(capped)


class TestWidthCap:
    """Both MBM schemes are refused above the cap before anything
    compiles or executes."""

    @pytest.mark.parametrize(
        "scheme, name",
        [("jigsaw_mbm", "GHZ-18"), ("jigsaw_mbm", "GHZ-13"), ("mbm", "GHZ-13")],
    )
    def test_over_cap_refused_before_compiling(self, scheme, name):
        session = Session(ibmq_toronto(), seed=0, exact=True)
        with pytest.raises(ExperimentError, match="MBM"):
            session.run_scheme(scheme, workload_by_name(name))
        counters = session.telemetry_snapshot()["counters"]
        assert counters.get("compiler.compiles", 0) == 0
        assert counters.get("backend.channel_evals", 0) == 0

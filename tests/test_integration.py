"""Cross-module integration tests: the full pipeline on real device models.

These run the complete JigSaw flow (compile -> execute -> reconstruct ->
score) on the paper's device models with mid-sized workloads, asserting
the paper's headline qualitative claims.
"""

import pytest

from repro.core import JigSaw, JigSawConfig, JigSawMConfig
from repro.metrics import (
    fidelity,
    inference_strength,
    probability_of_successful_trial,
)
from repro.runtime import Session
from repro.workloads import ghz, graycode, workload_by_name


@pytest.fixture(scope="module")
def runner(toronto):
    return Session(toronto, seed=2, exact=True)


class TestHeadlineClaims:
    """The paper's main qualitative results, on the Toronto model."""

    def test_jigsaw_beats_baseline_on_ghz14(self, runner):
        workload = ghz(14)
        base = runner.evaluate(workload, runner.run_baseline(workload))
        jig = runner.evaluate(workload, runner.run_jigsaw(workload).output_pmf)
        assert jig.pst > 1.5 * base.pst
        assert jig.fidelity > base.fidelity
        assert jig.ist > base.ist

    def test_jigsawm_beats_jigsaw_on_ghz14(self, runner):
        workload = ghz(14)
        jig = runner.evaluate(workload, runner.run_jigsaw(workload).output_pmf)
        jig_m = runner.evaluate(
            workload, runner.run_jigsaw_m(workload).output_pmf
        )
        assert jig_m.pst >= jig.pst

    def test_recompilation_contributes(self, runner):
        """Fig. 11: recompiled JigSaw beats subsetting-only JigSaw."""
        workload = ghz(14)
        with_recomp = runner.evaluate(
            workload, runner.run_jigsaw(workload).output_pmf
        )
        without = runner.evaluate(
            workload, runner.run_jigsaw(workload, recompile=False).output_pmf
        )
        assert with_recomp.pst >= without.pst

    def test_edm_does_not_improve_pst(self, runner):
        """§6.2: EDM mainly helps IST; its PST stays near the baseline."""
        workload = ghz(14)
        base = runner.evaluate(workload, runner.run_baseline(workload))
        edm = runner.evaluate(workload, runner.run_edm(workload))
        assert edm.pst < 1.3 * base.pst

    def test_wide_measurement_benefits_most(self, runner):
        """Graycode-18 (18 measured bits) gains more than BV-6 (6 bits)."""
        wide = workload_by_name("Graycode-18")
        narrow = workload_by_name("BV-6")
        gains = {}
        for workload in (wide, narrow):
            base = runner.evaluate(workload, runner.run_baseline(workload))
            jig = runner.evaluate(
                workload, runner.run_jigsaw(workload).output_pmf
            )
            gains[workload.name] = jig.pst / base.pst
        assert gains["Graycode-18"] > gains["BV-6"]


class TestSampledPipeline:
    """The sampled (finite-trials) path, end to end."""

    def test_sampled_jigsaw_improves(self, toronto):
        workload = ghz(10)
        jigsaw = JigSaw(toronto, JigSawConfig(exact=False), seed=21)
        result = jigsaw.run(workload.circuit, total_trials=65_536)
        base_pst = probability_of_successful_trial(
            result.global_pmf, workload.correct_outcomes
        )
        out_pst = probability_of_successful_trial(
            result.output_pmf, workload.correct_outcomes
        )
        assert out_pst > base_pst

    def test_sampled_matches_exact_roughly(self, toronto):
        workload = ghz(10)
        exact = JigSaw(toronto, JigSawConfig(exact=True), seed=22)
        sampled = JigSaw(toronto, JigSawConfig(exact=False), seed=22)
        shared = exact.compile_global(workload.circuit)
        exact_out = exact.run(
            workload.circuit, 131_072, global_executable=shared
        ).output_pmf
        sampled_out = sampled.run(
            workload.circuit, 131_072, global_executable=shared
        ).output_pmf
        exact_pst = probability_of_successful_trial(
            exact_out, workload.correct_outcomes
        )
        sampled_pst = probability_of_successful_trial(
            sampled_out, workload.correct_outcomes
        )
        assert sampled_pst == pytest.approx(exact_pst, abs=0.08)

    def test_multilayer_sampled(self, toronto):
        workload = graycode(10)
        runner = JigSaw(toronto, JigSawMConfig(exact=False), seed=23)
        result = runner.run(workload.circuit, total_trials=65_536)
        base_pst = probability_of_successful_trial(
            result.global_pmf, workload.correct_outcomes
        )
        out_pst = probability_of_successful_trial(
            result.output_pmf, workload.correct_outcomes
        )
        assert out_pst > base_pst

"""Tests for the experiments layer: scheme runs, sweeps, rendering."""

import math

import pytest

from repro.exceptions import ExperimentError
from repro.experiments import (
    SCHEME_NAMES,
    figure3_spatial_variation,
    format_table,
    geometric_mean,
    run_main_results,
    table1_measurement_stats,
)
from repro.experiments.main_results import (
    MainResultRow,
    figure8_rows,
    figure8_text,
    figure11_rows,
    relative_stats_table,
    table3_text,
    table4_text,
)
from repro.runtime import Session
from repro.workloads import bv, ghz, qaoa_maxcut
from tests.conftest import make_varied_line_device


@pytest.fixture(scope="module")
def device():
    return make_varied_line_device(num_qubits=8)


@pytest.fixture(scope="module")
def runner(device):
    return Session(device, seed=0, exact=True)


class TestSessionSchemes:
    def test_baseline_pmf_normalised(self, runner):
        pmf = runner.run_baseline(ghz(4))
        assert pmf.probs.sum() == pytest.approx(1.0)

    def test_global_executable_cached(self, runner):
        workload = ghz(4)
        first = runner.global_executable(workload)
        second = runner.global_executable(workload)
        assert first is second

    def test_all_schemes_dispatch(self, runner):
        workload = ghz(4)
        for scheme in SCHEME_NAMES:
            pmf = runner.run_scheme(scheme, workload)
            assert pmf.num_bits == 4

    def test_unknown_scheme(self, runner):
        with pytest.raises(ExperimentError):
            runner.run_scheme("magic", ghz(4))

    def test_jigsaw_beats_baseline(self, runner):
        workload = ghz(6)
        base = runner.evaluate(workload, runner.run_baseline(workload))
        jig = runner.evaluate(
            workload, runner.run_jigsaw(workload).output_pmf
        )
        assert jig.pst > base.pst
        assert jig.fidelity > base.fidelity

    def test_metrics_fields(self, runner):
        workload = qaoa_maxcut(4, depth=1)
        metrics = runner.evaluate(workload, runner.run_baseline(workload))
        assert 0.0 <= metrics.pst <= 1.0
        assert metrics.ist >= 0.0
        assert 0.0 <= metrics.fidelity <= 1.0
        assert metrics.arg is not None

    def test_non_qaoa_has_no_arg(self, runner):
        workload = ghz(4)
        metrics = runner.evaluate(workload, runner.run_baseline(workload))
        assert metrics.arg is None

    def test_deterministic_across_runners(self, device):
        a = Session(device, seed=3, exact=True)
        b = Session(device, seed=3, exact=True)
        workload = ghz(4)
        pa = a.run_jigsaw(workload).output_pmf
        pb = b.run_jigsaw(workload).output_pmf
        assert pa.as_dict() == pytest.approx(pb.as_dict())

    def test_sampled_mode(self, device):
        runner = Session(device, seed=1, exact=False, total_trials=8_192)
        pmf = runner.run_baseline(ghz(4))
        assert pmf.probs.sum() == pytest.approx(1.0)

    def test_mbm_width_guard(self, device):
        runner = Session(device, seed=1, exact=True)
        # 8 bits is fine; the guard rejects beyond MAX_MBM_QUBITS which we
        # cannot build on this device, so just check dispatch works.
        pmf = runner.run_mbm(bv(4))
        assert pmf.num_bits == 4


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_ignores_nonpositive(self):
        with pytest.warns(RuntimeWarning, match="dropped 2"):
            assert geometric_mean([2.0, 0.0, math.inf]) == pytest.approx(2.0)

    def test_all_positive_warns_nothing(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            geometric_mean([1.0, 2.0, 4.0])

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            geometric_mean([0.0])


class TestMainResults:
    @pytest.fixture(scope="class")
    def rows(self, device):
        return run_main_results(
            devices=[device],
            workloads=[ghz(4), bv(4)],
            seed=0,
            exact=True,
        )

    def test_row_per_pair(self, rows):
        assert len(rows) == 2

    def test_jigsaw_improves_on_average(self, rows):
        mean_gain = geometric_mean([r.relative_pst("jigsaw") for r in rows])
        assert mean_gain > 1.0

    def test_jigsawm_at_least_jigsaw(self, rows):
        for row in rows:
            assert row.relative_pst("jigsaw_m") >= 0.9 * row.relative_pst("jigsaw")

    def test_figure8_rows_include_gmean(self, rows):
        table = figure8_rows(rows)
        assert any(cells[1] == "GMean" for cells in table)

    def test_figure8_text_renders(self, rows):
        text = figure8_text(rows)
        assert "Figure 8" in text
        assert "JigSaw-M" in text

    def test_tables_render(self, rows):
        assert "Table 3" in table3_text(rows)
        assert "Table 4" in table4_text(rows)

    def test_relative_stats_table_shape(self, rows):
        table = relative_stats_table(rows, MainResultRow.relative_ist)
        assert len(table) == 1  # one device
        assert len(table[0]) == 1 + 3 * 3  # device + 3 stats x 3 schemes

    def test_figure11_ordering(self, rows):
        table = figure11_rows(rows)
        device_row = table[0]
        # JigSaw with recompilation should not trail the no-recompile run
        # by more than noise.
        assert device_row[3] >= 0.9 * device_row[2]


class TestCharacterization:
    def test_table1_shape(self):
        stats = table1_measurement_stats()
        assert set(stats) == {"isolated", "simultaneous"}
        assert stats["simultaneous"]["average"] > stats["isolated"]["average"]

    def test_figure3_stats(self, toronto):
        result = figure3_spatial_variation(toronto)
        assert result["mean_percent"] == pytest.approx(4.70, abs=0.2)
        buckets = set(result["percentile_bucket_by_qubit"].values())
        assert buckets == {"<25", "25-50", "50-75", ">75"}


class TestRender:
    def test_basic_table(self):
        text = format_table(["A", "B"], [[1, 2.5], ["x", None]])
        assert "A" in text and "B" in text
        assert "2.500" in text
        assert "-" in text

    def test_title_underlined(self):
        text = format_table(["A"], [[1]], title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert set(lines[1]) == {"="}

    def test_float_format(self):
        text = format_table(["A"], [[1.23456]], float_format="{:.1f}")
        assert "1.2" in text

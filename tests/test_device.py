"""Tests for the Device abstraction and the device library."""

import numpy as np
import pytest

from repro.devices import (
    Device,
    google_sycamore,
    ibmq_manhattan,
    ibmq_paris,
    ibmq_toronto,
)
from repro.exceptions import DeviceError
from tests.conftest import make_line_device


class TestDeviceBasics:
    def test_num_qubits(self, line_device):
        assert line_device.num_qubits == 6

    def test_edges_sorted_tuples(self, line_device):
        assert (0, 1) in line_device.edges
        assert all(u < v for u, v in line_device.edges)

    def test_are_coupled_symmetric(self, line_device):
        assert line_device.are_coupled(0, 1)
        assert line_device.are_coupled(1, 0)
        assert not line_device.are_coupled(0, 2)

    def test_neighbors(self, line_device):
        assert line_device.neighbors(0) == [1]
        assert line_device.neighbors(2) == [1, 3]

    def test_distances(self, line_device):
        assert line_device.distance(0, 5) == 5
        assert line_device.distance(2, 2) == 0
        assert np.all(np.isfinite(line_device.distances))

    def test_calibration_size_must_match(self, line_device):
        from repro.devices.topology import line_topology

        with pytest.raises(DeviceError):
            Device("bad", line_topology(4), line_device.calibration)


class TestDeviceLibrary:
    """The synthetic calibrations must match the paper's reported stats."""

    def test_toronto_figure3_stats(self):
        stats = ibmq_toronto().readout_stats().as_percent()
        assert stats.mean == pytest.approx(4.70, abs=0.15)
        assert stats.median == pytest.approx(2.76, abs=0.3)
        assert stats.minimum == pytest.approx(0.85, abs=0.05)
        assert stats.maximum == pytest.approx(22.2, abs=0.3)

    def test_paris_stats(self):
        stats = ibmq_paris().readout_stats().as_percent()
        assert stats.mean == pytest.approx(4.15, abs=0.2)
        assert stats.maximum == pytest.approx(18.5, abs=0.3)

    def test_manhattan_asymmetry(self):
        """§8: P(1 read as 0) ~ 3.6 %, P(0 read as 1) ~ 2.3 % on average."""
        cal = ibmq_manhattan().calibration
        assert float(np.mean(cal.p10)) > float(np.mean(cal.p01))
        ratio = float(np.mean(cal.p10)) / float(np.mean(cal.p01))
        assert ratio == pytest.approx(1.57, rel=0.05)

    def test_sycamore_table1_isolated(self):
        stats = google_sycamore().readout_stats(1).as_percent()
        assert stats.minimum == pytest.approx(2.60, abs=0.1)
        assert stats.mean == pytest.approx(6.14, abs=0.15)
        assert stats.median == pytest.approx(5.70, abs=0.3)
        assert stats.maximum == pytest.approx(11.7, abs=0.2)

    def test_sycamore_table1_simultaneous(self):
        device = google_sycamore()
        stats = device.readout_stats(device.num_qubits).as_percent()
        # Paper Table 1 simultaneous row: 3.30 / 7.73 / 7.10 / 20.9
        assert stats.mean == pytest.approx(7.73, abs=0.6)
        assert stats.maximum == pytest.approx(20.9, abs=1.5)

    def test_toronto_crosstalk_magnitude(self):
        """§3.1: error grows by up to ~2 % at 5 and ~4 % at 10 measurements."""
        cal = ibmq_toronto().calibration
        inc5 = max(
            cal.effective_readout_error(q, 5) - cal.effective_readout_error(q, 1)
            for q in range(27)
        )
        inc10 = max(
            cal.effective_readout_error(q, 10) - cal.effective_readout_error(q, 1)
            for q in range(27)
        )
        assert 0.015 <= inc5 <= 0.05
        assert 0.03 <= inc10 <= 0.1

    def test_devices_deterministic(self):
        a = ibmq_toronto()
        b = ibmq_toronto()
        assert np.allclose(a.calibration.p01, b.calibration.p01)

    def test_seed_changes_calibration_not_stats(self):
        a = ibmq_toronto(seed=1)
        b = ibmq_toronto(seed=2)
        assert not np.allclose(a.calibration.p01, b.calibration.p01)
        assert a.readout_stats().mean == pytest.approx(
            b.readout_stats().mean, rel=0.01
        )

    def test_best_qubits_not_colocated(self):
        """§3.2: the lowest-error qubits are scattered, not neighbours."""
        device = ibmq_toronto()
        best = device.best_readout_qubits(5)
        adjacent_pairs = sum(
            1
            for i, u in enumerate(best)
            for v in best[i + 1:]
            if device.are_coupled(u, v)
        )
        assert adjacent_pairs <= 2
